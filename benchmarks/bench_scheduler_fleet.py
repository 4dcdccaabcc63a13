"""Fleet scheduler benchmark: a multi-user job storm through Globus Online.

Drives >= 5k transfer jobs from >= 50 contending users through the fleet
scheduler — fair-share queue, lease-based workers, admission control,
small-file coalescing — over the chaos fault backdrop (host crashes on
the worker fleet), and reports:

* wall-clock throughput (jobs/sec of simulator progress);
* virtual-time queue waits (p50/p99 seconds between submit and claim);
* Jain's fairness index over per-user delivered bytes;
* crash/requeue/batch counts as campaign evidence.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py           # full run
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --quick \
        --check BENCH_scheduler.json                                    # regression gate
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --quick \
        --overhead-check                                  # observability tax gate

``BENCH_scheduler.json`` at the repo root is the committed full-run
baseline and ``BENCH_scheduler_quick.json`` the quick-mode one (CI
checks quick against quick so scenarios match).  ``--check`` fails on a
>30% jobs/sec regression, and — when the baseline scenario matches —
on a >30% ``queue_wait_p99_s`` increase; that metric is deterministic
virtual time, so any drift is a behaviour change (``BENCH_TOLERANCE``
overrides the tolerance, a fraction).

The storm's world keeps no spans or events (``World(trace=False)``);
``--observability`` builds it with ``trace=True`` and attaches the
flight recorder and SLO engine (``World.enable_observability``).
``--overhead-check`` prices three telemetry levels, best-of-2 each:
``off`` (the default world), ``trace`` (``World(trace=True)``) and
``flight`` (``trace`` plus ``enable_observability``).  It prints every
level's jobs/sec and its tax against ``off``.  The flight recorder
folds the event log only when read, after the timed drain, so the
flight-vs-trace gap is the SLO engine's event subscription.  It fails
if the flight level's jobs/sec falls more than ``OVERHEAD_TOLERANCE``
(default 10%) below the trace level's — the "observability is
near-free" gate — or if any two levels disagree on the virtual outcome.

Sharded control plane (DESIGN.md §14)::

    # the GO storm through N scheduler shards with work-stealing
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --shards 8

    # control-plane-only scale tier: 100k users hashed across 8 shards,
    # reporting jobs/s and bytes of RSS per queued job
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py \
        --scale --shards 8 --users 100000 --out BENCH_scheduler_sharded.json

    # the N=1 bitwise-equivalence gate (exit 1 on any fingerprint drift)
    PYTHONPATH=src python benchmarks/bench_scheduler_fleet.py --fingerprint-check

``BENCH_scheduler_sharded.json`` is the committed full scale-tier
baseline and ``BENCH_scheduler_sharded_quick.json`` the quick-mode one
CI gates against (``--scale --quick --check ...``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.auth import (  # noqa: E402
    AccountDatabase,
    Control,
    LdapDirectory,
    LdapPamModule,
    PamStack,
)
from repro.core.gcmu import install_gcmu  # noqa: E402
from repro.globusonline.service import GlobusOnline  # noqa: E402
from repro.globusonline.transfer import JobStatus  # noqa: E402
from repro.scheduler import (  # noqa: E402
    FleetScheduler,
    ScheduledTask,
    SchedulerConfig,
    SchedulerLimits,
    ShardedFleetScheduler,
    jain_index,
    scheduler_fingerprint,
)
from repro.sim.faults import ChaosConfig  # noqa: E402
from repro.sim.world import World  # noqa: E402
from repro.storage.data import SyntheticData  # noqa: E402
from repro.util import opcount  # noqa: E402
from repro.util.units import KB, MB, gbps  # noqa: E402
from repro.util.stats import percentile  # noqa: E402

SCHEMA = "bench_scheduler_fleet/v1"
DEFAULT_TOLERANCE = 0.30
WORKER_HOSTS = tuple(f"go-worker-{i}" for i in range(8))


def make_site(world, host, site_name, users, register_with, endpoint_name):
    """GCMU install with LDAP-backed users (mirrors tests/conftest.py)."""
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack(f"myproxy-{site_name}").add(
        Control.SUFFICIENT, LdapPamModule(ldap))
    endpoint = install_gcmu(
        world, host, site_name, accounts, pam,
        register_with=register_with, endpoint_name=endpoint_name,
        charge_install_time=False)
    for username in users:
        endpoint.make_home(username)
    return endpoint


def build_fleet(seed: int, users: int, shards: int | None = None, trace: bool = False):
    """The soak topology at benchmark scale, chaos armed on the workers."""
    world = World(seed=seed, event_capacity=50_000, span_capacity=50_000, trace=trace)
    net = world.network
    for h in ("dtn-a", "dtn-b", "saas"):
        net.add_host(h, nic_bps=gbps(10))
    net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
    net.add_link("saas", "dtn-a", gbps(1), 0.02)
    net.add_link("saas", "dtn-b", gbps(1), 0.02)
    go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
        workers=len(WORKER_HOSTS),
        worker_hosts=WORKER_HOSTS,
        lease_s=120.0,
        heartbeat_s=20.0,
        max_task_attempts=50,
    ), shards=shards)
    ep_a = make_site(
        world, "dtn-a", "alcf",
        {f"user{i}": f"pw{i}" for i in range(users)},
        register_with=go, endpoint_name="alcf#dtn")
    ep_b = make_site(world, "dtn-b", "nersc", {"sink": "pwS"},
                     register_with=go, endpoint_name="nersc#dtn")
    world.chaos.configure(ChaosConfig(
        host_crash_every_s=120.0,
        host_downtime_s=(10.0, 40.0),
        horizon_s=6 * 3600.0,
    ))
    world.chaos.arm(hosts=list(WORKER_HOSTS))
    # MyProxy key pregeneration (a real myproxy-server feature): on a host
    # with two or more CPUs each CA's niced key-search helper searches the
    # keys of the set-up's activations, one per user on each CA, while
    # set-up goes on: `pregenerate` returns at once and searches nothing.
    # Issued keys and tallies are the same either way: each key is still
    # made when it is issued.
    ep_a.myproxy.ca.pregenerate(users)
    ep_b.myproxy.ca.pregenerate(users)
    return world, go, ep_a, ep_b


def run_bench(seed: int, users: int, jobs: int, quick: bool,
              observability: bool = False, shards: int | None = None,
              trace: bool = False) -> dict:
    world, go, ep_a, ep_b = build_fleet(seed, users, shards=shards,
                                        trace=trace or observability)
    if observability:
        world.enable_observability()
    accounts = []
    for u in range(users):
        account = go.register_user(f"user{u}@globusid")
        go.activate(account, "alcf#dtn", f"user{u}", f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        accounts.append(account)

    # the drain allocates millions of short-lived events/spans that the
    # ring buffers drop almost immediately; cyclic-GC passes over that
    # churn are pure measurement noise, so collect once and pause the
    # collector for the timed region (reference counting still reclaims
    # the garbage — nothing here is cyclic)
    import gc
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    # crypto/protocol tallies for the timed region only: setup keygen
    # (CA construction, key pregeneration, user activation) is excluded,
    # so the diff counts exactly what the job storm itself performs
    ops_before = opcount.snapshot()
    t0 = time.perf_counter()
    submitted = []
    for n in range(jobs):
        u = n % users
        username = f"user{u}"
        uid = ep_a.accounts.get(username).uid
        # 3 of 4 jobs are sub-threshold small files (they coalesce into
        # pipelined batches); the rest stream alone.  The mix is keyed to
        # the per-user job index so every user submits the same byte
        # profile and the Jain index measures scheduling, not workload.
        small = (n // users) % 4 != 3
        size = 256 * KB if small else 8 * MB
        path = f"/home/{username}/j{n}.dat"
        ep_a.storage.write_file(path, SyntheticData(seed=n, length=size), uid=uid)
        submitted.append(go.submit_transfer(
            accounts[u], "alcf#dtn", path,
            "nersc#dtn", f"/home/sink/{username}-j{n}.dat", defer=True))
    submit_wall = time.perf_counter() - t0

    t1 = time.perf_counter()
    go.process_queue()
    drain_wall = time.perf_counter() - t1
    if gc_was_enabled:
        gc.enable()
    crypto_ops = opcount.since(ops_before)

    ok = sum(1 for j in submitted if j.status is JobStatus.SUCCEEDED)
    failed = len(submitted) - ok
    waits = [t.claimed_at - t.submitted_at
             for t in go.scheduler.completed_tasks]
    delivered = go.scheduler.queue.delivered_bytes()
    metrics = world.metrics

    def total(name: str) -> int:
        metric = metrics.get(name)
        return int(metric.total()) if metric is not None else 0

    total_wall = submit_wall + drain_wall
    observability_results = {}
    if observability:
        observability_results = {
            "flight_records": len(world.flight_recorder),
            "slo_alerts_fired": int(
                metrics.get("slo_alerts_total").total()),
        }
    return {
        "schema": SCHEMA,
        "quick": quick,
        "observability": observability,
        "scenario": {
            "seed": seed,
            "users": users,
            "jobs": jobs,
            "workers": len(WORKER_HOSTS),
            # only sharded runs carry the key: unsharded scenarios stay
            # byte-identical to the pre-sharding baselines
            **({"shards": shards} if shards is not None else {}),
        },
        "results": {
            "wall_s": round(total_wall, 4),
            "submit_wall_s": round(submit_wall, 4),
            "drain_wall_s": round(drain_wall, 4),
            "jobs_per_s": round(jobs / total_wall, 2),
            "succeeded": ok,
            "failed": failed,
            "virtual_duration_s": round(world.now, 2),
            "queue_wait_p50_s": round(percentile(waits, 0.50), 3),
            "queue_wait_p99_s": round(percentile(waits, 0.99), 3),
            "jain_fairness": round(jain_index(delivered.values()), 4),
            "bytes_delivered": sum(delivered.values()),
            "worker_crashes": total("scheduler_worker_crashes_total"),
            "requeues": total("scheduler_requeued_total"),
            "batches_coalesced": total("scheduler_batches_coalesced_total"),
            "batched_files": total("scheduler_batched_files_total"),
            **({"steals": total("scheduler_steals_total")}
               if shards is not None else {}),
            **observability_results,
        },
        # deterministic per-(seed, scenario) operation tallies — identical
        # on every machine, so CI can gate them exactly (see --check-crypto)
        "crypto_ops": crypto_ops,
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def _rss_bytes() -> int:
    """Resident set size, bytes.  /proc on Linux, ru_maxrss elsewhere."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return rss * 1024 if sys.platform != "darwin" else rss


def run_scale_bench(seed: int, users: int, jobs: int, shards: int,
                    quick: bool) -> dict:
    """The "millions of users" tier: control plane only, no data plane.

    100k users hashed across N shards, each submitting no-op jobs
    directly to the sharded scheduler — no Globus Online accounts, no
    topology, no byte movement — so the numbers isolate what the
    control plane itself costs: scheduler operations per second and
    resident bytes per queued job (sampled at peak queue depth, after
    the submit storm and before the drain).
    """
    import gc

    world = World(seed=seed)
    # scale tier runs admission wide open: the point is to *hold* a
    # 100k-user backlog, not to reject it at the door
    config = SchedulerConfig(
        workers=max(64, shards),
        lease_s=3600.0,
        heartbeat_s=600.0,
        limits=SchedulerLimits(
            max_queue_depth=None, max_queued_per_user=None,
            max_active_per_endpoint=None,
            max_bytes_in_flight_per_endpoint=None),
    )
    sched = ShardedFleetScheduler(world, config, shards=shards)
    size = 1_000_000

    gc.collect()
    rss_before = _rss_bytes()
    t0 = time.perf_counter()
    for n in range(jobs):
        sched.submit(ScheduledTask(
            task_id=f"task-{n}", user=f"user{n % users}",
            src_endpoint=f"src-{n % 64}", dst_endpoint=f"dst-{n % 64}",
            size_hint=size, execute=lambda: size, measure=lambda r: r,
        ))
    submit_wall = time.perf_counter() - t0
    queued = len(sched.queue)
    gc.collect()
    rss_peak = _rss_bytes()

    t1 = time.perf_counter()
    serviced = sched.run_until_idle(max_ticks=100_000_000)
    drain_wall = time.perf_counter() - t1
    assert serviced == jobs, f"lost jobs: {serviced} != {jobs}"

    total_wall = submit_wall + drain_wall
    rss_per_job = max(0, rss_peak - rss_before) / max(1, queued)
    delivered = sched.queue.delivered_bytes()
    return {
        "schema": SCHEMA,
        "quick": quick,
        "observability": False,
        "scenario": {
            "mode": "scale",
            "seed": seed,
            "users": users,
            "jobs": jobs,
            "shards": shards,
            "workers": config.workers,
        },
        "results": {
            "wall_s": round(total_wall, 4),
            "submit_wall_s": round(submit_wall, 4),
            "drain_wall_s": round(drain_wall, 4),
            "jobs_per_s": round(jobs / total_wall, 2),
            "submit_jobs_per_s": round(jobs / submit_wall, 2),
            "drain_jobs_per_s": round(jobs / drain_wall, 2),
            "succeeded": serviced,
            "failed": 0,
            "peak_queue_depth": queued,
            "rss_bytes_per_queued_job": round(rss_per_job, 1),
            "rss_peak_bytes": rss_peak,
            "jain_fairness": round(jain_index(delivered.values()), 4),
            "virtual_duration_s": round(world.now, 2),
        },
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def fingerprint_check(seed: int, users: int, jobs: int) -> int:
    """Exit 1 unless ShardedFleetScheduler(n=1) is bitwise FleetScheduler.

    Runs the identical direct-submission workload (crash chaos included)
    through both schedulers in separate worlds and compares the PR-5
    fingerprint field by field: completion order, per-task delivered
    bytes, per-user bytes, every lifecycle count, and the virtual clock.
    """
    def drive(sharded: bool) -> dict:
        world = World(seed=seed)
        world.chaos.configure(ChaosConfig(
            host_crash_every_s=600.0, host_downtime_s=(10.0, 30.0),
            horizon_s=10 * 24 * 3600.0,
        ))
        world.chaos.arm(hosts=list(WORKER_HOSTS))
        config = SchedulerConfig(
            workers=len(WORKER_HOSTS), worker_hosts=WORKER_HOSTS,
            lease_s=40.0, heartbeat_s=8.0, max_task_attempts=100)
        sched = (ShardedFleetScheduler(world, config, shards=1)
                 if sharded else FleetScheduler(world, config))
        for i in range(users):
            sched.set_weight(f"user{i}", 1.0 + (i % 4))
        for i in range(jobs):
            size = 1000 + (i * 7919) % 50000
            sched.submit(ScheduledTask(
                task_id="", user=f"user{i % users}",
                src_endpoint=f"ep-{i % 4}", dst_endpoint=f"ep-{(i + 1) % 4}",
                size_hint=size,
                execute=lambda size=size: (world.advance(2.0), size)[1],
                measure=lambda r: r,
            ))
        sched.run_until_idle(max_ticks=100_000_000)
        return scheduler_fingerprint(world, sched)

    single = drive(sharded=False)
    sharded = drive(sharded=True)
    failed = False
    for key in single:
        ok = sharded[key] == single[key]
        failed = failed or not ok
        detail = "" if ok else f"  single={single[key]!r}  sharded={sharded[key]!r}"
        if key in ("completion_order", "delivered_bytes", "bytes_by_user"):
            detail = "" if ok else "  (diverged)"
        print(f"[fingerprint] {key}: {'OK' if ok else 'MISMATCH'}{detail}")
    print(f"[fingerprint] {jobs} jobs / {users} users, "
          f"{int(single['crashes'])} crashes survived -> "
          f"{'FAIL' if failed else 'IDENTICAL'}")
    return 1 if failed else 0


def check_regression(current: dict, baseline_path: pathlib.Path) -> int:
    """Exit code 1 if jobs/sec or queue-wait p99 regressed beyond tolerance.

    jobs/sec is wall-clock (noisy across machines; the loose tolerance
    catches an O(n) scan returning, not CI jitter).  ``queue_wait_p99_s``
    is *virtual* time — deterministic per (seed, jobs, users) — so it is
    only compared when the scenarios match, and any drift there means
    scheduling behaviour changed, not that the machine was slow.
    """
    baseline = json.loads(baseline_path.read_text())
    tol = float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE))
    failed = False

    base_rate = baseline["results"]["jobs_per_s"]
    cur_rate = current["results"]["jobs_per_s"]
    floor = base_rate * (1.0 - tol)
    verdict = "OK" if cur_rate >= floor else "REGRESSION"
    failed = failed or cur_rate < floor
    print(
        f"[check] jobs/sec: current={cur_rate:.1f} baseline={base_rate:.1f} "
        f"floor={floor:.1f} (tolerance {tol:.0%}) -> {verdict}"
    )

    base_p99 = baseline["results"].get("queue_wait_p99_s")
    if base_p99 is None or baseline.get("scenario") != current.get("scenario"):
        print("[check] queue wait p99: skipped (baseline scenario differs)")
    else:
        cur_p99 = current["results"]["queue_wait_p99_s"]
        ceiling = base_p99 * (1.0 + tol)
        verdict = "OK" if cur_p99 <= ceiling else "REGRESSION"
        failed = failed or cur_p99 > ceiling
        print(
            f"[check] queue wait p99 (virtual s): current={cur_p99:.3f} "
            f"baseline={base_p99:.3f} ceiling={ceiling:.3f} -> {verdict}"
        )

    base_rss = baseline["results"].get("rss_bytes_per_queued_job")
    cur_rss = current["results"].get("rss_bytes_per_queued_job")
    if base_rss is not None and cur_rss is not None:
        # Memory per queued job (scale tier only).  RSS is allocator- and
        # machine-dependent, so the same loose tolerance applies: this
        # catches a per-task bookkeeping structure growing a copy of the
        # queue, not malloc jitter.
        ceiling = base_rss * (1.0 + tol)
        verdict = "OK" if cur_rss <= ceiling else "REGRESSION"
        failed = failed or cur_rss > ceiling
        print(
            f"[check] RSS bytes/queued job: current={cur_rss:.1f} "
            f"baseline={base_rss:.1f} ceiling={ceiling:.1f} -> {verdict}"
        )

    return 1 if failed else 0


def check_crypto(current: dict, baseline_path: pathlib.Path) -> int:
    """Exit code 1 if any crypto/protocol op count exceeds the baseline.

    Unlike jobs/sec, these tallies are *deterministic* per (seed,
    scenario): every RSA exponentiation and GSI handshake the storm
    performs is fixed by the seeded streams.  The gate is therefore
    exact — a single extra ``rsa.sign`` means a session-layer cache
    stopped hitting, not that the machine was slow.  Counts *below*
    baseline pass with a note to refresh the committed file.
    """
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("scenario") != current.get("scenario"):
        print("[crypto] skipped (baseline scenario differs)")
        return 0
    base_ops: dict = baseline.get("crypto_ops", {})
    cur_ops: dict = current.get("crypto_ops", {})
    failed = False
    improved = False
    for name in sorted(set(base_ops) | set(cur_ops)):
        base_n = int(base_ops.get(name, 0))
        cur_n = int(cur_ops.get(name, 0))
        if cur_n > base_n:
            failed = True
            verdict = "REGRESSION"
        elif cur_n < base_n:
            improved = True
            verdict = "improved"
        else:
            verdict = "OK"
        print(f"[crypto] {name}: current={cur_n} baseline={base_n} -> {verdict}")
    if failed:
        print("[crypto] FAIL: op counts above baseline (a cache stopped hitting)")
        return 1
    if improved:
        print(f"[crypto] counts dropped below baseline — refresh {baseline_path.name}")
    print("[crypto] OK")
    return 0


#: telemetry levels the overhead gate prices: (label, trace, observability)
LEVELS = (("off", False, False), ("trace", True, False), ("flight", True, True))


def overhead_check(seed: int, users: int, jobs: int, quick: bool) -> int:
    """Exit code 1 if flight recording costs more than the tolerance.

    Runs the storm at each of :data:`LEVELS`, best-of-2 wall-clock runs
    per level: the max filters out one-off allocator/GC stalls the same
    way the CI bench-smoke gate does.  The gate compares ``flight``
    against ``trace``, a world that keeps spans and events either way;
    every level's tax against ``off`` is printed too.  Telemetry only
    observes, so the virtual outcome must be identical at every level.
    """
    tol = float(os.environ.get("OVERHEAD_TOLERANCE", "0.10"))
    best = {}
    virtual = {}
    for label, trace, observability in LEVELS:
        rates = []
        for _ in range(2):
            rep = run_bench(seed, users, jobs, quick=quick,
                            observability=observability, trace=trace)
            rates.append(rep["results"]["jobs_per_s"])
            virtual[label] = (rep["results"]["virtual_duration_s"],
                              rep["results"]["queue_wait_p99_s"],
                              rep["results"]["bytes_delivered"])
        best[label] = max(rates)
        tax = 1.0 - best[label] / best["off"]
        print(f"[overhead] {label}: best-of-2 {best[label]:.1f} jobs/s, "
              f"tax {tax:+.1%} vs off (runs: {', '.join(f'{r:.1f}' for r in rates)})")
    if len(set(virtual.values())) > 1:
        print(f"[overhead] FAIL: virtual outcome diverged across levels {virtual}")
        return 1
    floor = best["trace"] * (1.0 - tol)
    tax = 1.0 - best["flight"] / best["trace"]
    ok = best["flight"] >= floor
    print(f"[overhead] flight tax {tax:+.1%} vs trace (tolerance {tol:.0%}, "
          f"floor {floor:.1f} jobs/s) -> {'OK' if ok else 'REGRESSION'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke size (500 jobs, 50 users)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_scheduler.json")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against (>30%% regression fails)")
    parser.add_argument("--observability", action="store_true",
                        help="keep spans and events and attach the flight "
                             "recorder + SLO engine")
    parser.add_argument("--overhead-check", action="store_true",
                        help="price the off/trace/flight telemetry levels and gate "
                             "flight jobs/sec against trace "
                             "(OVERHEAD_TOLERANCE, default 10%%)")
    parser.add_argument("--shards", type=int, default=None,
                        help="run the sharded control plane with N shards")
    parser.add_argument("--scale", action="store_true",
                        help="control-plane-only scale tier: direct "
                             "submissions, no data plane (default 100000 "
                             "users / 2 jobs each / 8 shards)")
    parser.add_argument("--fingerprint-check", action="store_true",
                        help="gate ShardedFleetScheduler(n=1) bitwise against "
                             "FleetScheduler on the 5k-job/50-user workload")
    parser.add_argument("--crypto-ops", action="store_true",
                        help="print the deterministic crypto/protocol op "
                             "tallies for the timed region")
    parser.add_argument("--check-crypto", type=pathlib.Path, default=None,
                        help="baseline JSON for the exact crypto-op gate "
                             "(any count above baseline fails)")
    args = parser.parse_args(argv)

    if args.fingerprint_check:
        return fingerprint_check(
            args.seed,
            args.users if args.users is not None else 50,
            args.jobs if args.jobs is not None else 5000)

    if args.scale:
        users = args.users if args.users is not None else (
            5000 if args.quick else 100_000)
        jobs = args.jobs if args.jobs is not None else 2 * users
        shards = args.shards if args.shards is not None else 8
        report = run_scale_bench(args.seed, users, jobs, shards,
                                 quick=args.quick)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        r = report["results"]
        print(
            f"[scale] {jobs} jobs / {users} users / {shards} shards in "
            f"{r['wall_s']}s ({r['jobs_per_s']} jobs/s; submit "
            f"{r['submit_jobs_per_s']}, drain {r['drain_jobs_per_s']})"
        )
        print(
            f"[scale] {r['rss_bytes_per_queued_job']} RSS bytes per queued "
            f"job at depth {r['peak_queue_depth']}; jain {r['jain_fairness']}"
            f"  [saved to {args.out}]"
        )
        if args.check is not None:
            return check_regression(report, args.check)
        return 0

    users = args.users if args.users is not None else 50
    jobs = args.jobs if args.jobs is not None else (500 if args.quick else 5000)

    if args.overhead_check:
        return overhead_check(args.seed, users, jobs, quick=args.quick)

    report = run_bench(args.seed, users, jobs, quick=args.quick,
                       observability=args.observability, shards=args.shards)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    r = report["results"]
    shard_note = f" / {args.shards} shards" if args.shards is not None else ""
    print(
        f"{jobs} jobs / {users} users{shard_note} in {r['wall_s']}s "
        f"({r['jobs_per_s']} jobs/s wall, {r['virtual_duration_s']}s virtual)"
    )
    print(
        f"queue wait p50 {r['queue_wait_p50_s']}s p99 {r['queue_wait_p99_s']}s; "
        f"jain {r['jain_fairness']}; "
        f"{r['worker_crashes']} crashes, {r['requeues']} requeues, "
        f"{r['batches_coalesced']} batches ({r['batched_files']} files folded)"
        + (f", {r['steals']} steals" if "steals" in r else "")
    )
    print(f"succeeded {r['succeeded']} / failed {r['failed']}  [saved to {args.out}]")

    if args.crypto_ops:
        for name, count in sorted(report["crypto_ops"].items()):
            print(f"[crypto] {name}: {count}")

    rc = 0
    if args.check is not None:
        rc = check_regression(report, args.check)
    if args.check_crypto is not None:
        rc = max(rc, check_crypto(report, args.check_crypto))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
