"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition of a measured run,
because the pki RSA memos, the default GSI session cache and
``opcount.OPS`` are process-global: a second run in the same process
would start warmer and count differently.  The last stdout line is one
JSON object with the raw measurements.

    python3 perfbench/worker.py --workload go_storm --seed 1 --seconds 12
    python3 perfbench/worker.py --workload go_storm --seed 1 --seconds 12 --traced --spans out.csv

Every workload runs in *rounds* (a wave of jobs, a cohort of users),
closed-loop: a round starts when the previous one has returned.  The
number of rounds is
``round(seconds * rounds_per_second)``, where ``rounds_per_second`` is
calibrated so that a run takes about ``--seconds`` of wall time on a
2-vCPU x86-64 container under CPython 3.11.  The work is therefore fixed
by ``(seed, seconds)``, not by the machine's speed: virtual-time metrics,
``opcount`` tallies, per-layer call counts and peak RSS repeat exactly
for a seed, and a faster commit is measured on the same work.

GC policy (one for all workloads): after set-up, ``gc.collect()`` then
``gc.freeze()``, and the collector stays on.  Set-up objects leave the
collector's view, so collections in the timed region scan only what the
workload allocates, and their cost still shows in ``runtime.gc.*``.

Host reference: after set-up and after every round, :class:`HostProbe`
times a fixed pure-Python kernel, outside set-up and the timed rounds.
On a shared 2-vCPU host the core's speed swings by a quarter or more
for minutes at a time, and every wall-clock figure swings with it; the
kernel's time moves with the core's speed and with nothing the program
does, so ``run.py`` can divide each round's time by it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time includes importing the package

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import metrics  # noqa: E402
from repro.auth import (  # noqa: E402
    AccountDatabase,
    Control,
    LdapDirectory,
    LdapPamModule,
    PamStack,
)
from repro.core.gcmu import install_gcmu  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402
from repro.globusonline import service as go_service  # noqa: E402
from repro.globusonline.service import GlobusOnline  # noqa: E402
from repro.globusonline.transfer import JobStatus, TransferJob  # noqa: E402
from repro.scheduler import SchedulerConfig  # noqa: E402
from repro.sim.faults import ChaosConfig  # noqa: E402
from repro.sim.world import World  # noqa: E402
from repro.storage.data import SyntheticData  # noqa: E402
from repro.util import opcount  # noqa: E402
from repro.util.units import KB, MB, gbps  # noqa: E402

WORKER_HOSTS = tuple(f"go-worker-{i}" for i in range(8))


def _proc_status_kib(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def peak_rss_mb() -> float:
    return _proc_status_kib("VmHWM") / 1024.0


class HostProbe:
    """How fast this core runs Python right now, independent of the program.

    The kernel touches only a private 256-entry table of small ints: it
    allocates no container, so it cannot start a cyclic-GC pass over the
    program's objects, and its working set fits in L1, so what the
    program left in the caches costs at most the first call, which the
    median discards.
    """

    CALLS = 10
    STEPS = 5000  # one call: about metrics.REF_NOMINAL_S on a quiet 2-vCPU container

    def __init__(self) -> None:
        self.table = list(range(256))

    def _kernel(self) -> int:
        table = self.table
        s = 0
        for i in range(self.STEPS):
            j = (i * 7) & 255
            s = (s + table[j]) & 255
            table[i & 255] = s
        return s

    def sample(self) -> list[float]:
        """Wall time of each of :attr:`CALLS` kernel calls."""
        clock = time.perf_counter
        out = []
        for _ in range(self.CALLS):
            t0 = clock()
            self._kernel()
            out.append(clock() - t0)
        return out


def _total(world, name: str) -> float:
    metric = world.metrics.get(name)
    return float(metric.total()) if metric is not None else 0.0


def world_counters(world) -> dict[str, float]:
    """Raw deterministic tallies; the run reports their growth in the timed region."""
    pool = getattr(world, "_control_channel_pool", None)
    route = world.network.route_cache_info()
    events = world.scheduler.stats
    return {
        "scheduler.requeues": _total(world, "scheduler_requeued_total"),
        "scheduler.worker_crashes": _total(world, "scheduler_worker_crashes_total"),
        "scheduler.batches_coalesced": _total(world, "scheduler_batches_coalesced_total"),
        "scheduler.steals": _total(world, "scheduler_steals_total"),
        "recovery.attempts": _total(world, "recovery_attempts_total"),
        "recovery.retries": _total(world, "recovery_retries_total"),
        "pool.reuses": pool.reuses if pool is not None else 0,
        "pool.misses": pool.misses if pool is not None else 0,
        "route.hits": route["hits"],
        "route.misses": route["misses"],
        "events.batched": events.batched_events,
        "events.total": events.total_events,
    }


# ---------------------------------------------------------------------------
# Globus Online workloads
# ---------------------------------------------------------------------------


def _make_site(world, host, site_name, users, go, endpoint_name):
    """GCMU install with LDAP-backed accounts and home directories."""
    accounts = AccountDatabase()
    ldap = LdapDirectory(base_dn=f"dc={site_name}")
    for username, password in users.items():
        accounts.add_user(username)
        ldap.add_entry(username, password)
    pam = PamStack(f"myproxy-{site_name}").add(Control.SUFFICIENT, LdapPamModule(ldap))
    endpoint = install_gcmu(world, host, site_name, accounts, pam, register_with=go,
                            endpoint_name=endpoint_name, charge_install_time=False)
    for username in users:
        endpoint.make_home(username)
    return endpoint


class GoWorkload:
    """Shared shape of the two Globus Online job storms.

    Two GCMU endpoints (alcf -> nersc), one Globus Online host, eight
    worker hosts under crash chaos.  Each user moves files from their own
    alcf account into the shared nersc ``sink`` account; 3 of every 4 of a
    user's jobs are 256 KiB files that the scheduler coalesces, the rest
    8 MiB files that stream alone.  A round submits its jobs, then drains
    the queue.
    """

    accounts: int
    pregenerate_keys: int

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_wall: list[float] = []
        self.activate_vs: list[float] = []
        self.submitted: list[tuple[str, str, int]] = []  # (user, dst path, bytes)
        self.refused = 0
        self.peak_queue_depth = 0
        self._next_job = 0
        self.users: dict[int, object] = {}

    def setup(self) -> None:
        world = self.world = World(seed=self.seed, event_capacity=50_000, span_capacity=50_000)
        net = world.network
        for h in ("dtn-a", "dtn-b", "saas"):
            net.add_host(h, nic_bps=gbps(10))
        net.add_link("dtn-a", "dtn-b", gbps(10), 0.04, loss=1e-5)
        net.add_link("saas", "dtn-a", gbps(1), 0.02)
        net.add_link("saas", "dtn-b", gbps(1), 0.02)
        self.go = GlobusOnline(world, "saas", scheduler_config=SchedulerConfig(
            workers=len(WORKER_HOSTS), worker_hosts=WORKER_HOSTS,
            lease_s=120.0, heartbeat_s=20.0, max_task_attempts=50))
        self.src = _make_site(world, "dtn-a", "alcf",
                              {f"user{i}": f"pw{i}" for i in range(self.accounts)},
                              self.go, "alcf#dtn")
        self.dst = _make_site(world, "dtn-b", "nersc", {"sink": "pwS"}, self.go, "nersc#dtn")
        world.chaos.configure(ChaosConfig(host_crash_every_s=120.0,
                                          host_downtime_s=(10.0, 40.0),
                                          horizon_s=48 * 3600.0))
        world.chaos.arm(hosts=list(WORKER_HOSTS))
        if self.pregenerate_keys:
            self.src.myproxy.ca.pregenerate(self.pregenerate_keys)
            self.dst.myproxy.ca.pregenerate(self.pregenerate_keys)

    def activate(self, u: int, samples: list[float] | None) -> None:
        """Register user ``u`` and activate both endpoints (MyProxy logons)."""
        account = self.go.register_user(f"user{u}@globusid")
        for endpoint, username, password in (("alcf#dtn", f"user{u}", f"pw{u}"),
                                             ("nersc#dtn", "sink", "pwS")):
            v0 = self.world.now
            t0 = time.perf_counter()
            self.go.activate(account, endpoint, username, password)
            if samples is not None:
                samples.append(time.perf_counter() - t0)
                self.activate_vs.append(self.world.now - v0)
        self.users[u] = account

    def submit_and_drain(self, users: list[int], jobs_per_user: int) -> int:
        """Submit ``jobs_per_user`` jobs for each user (interleaved), drain."""
        go = self.go
        jobs = []
        for k in range(jobs_per_user):
            for u in users:
                n = self._next_job
                self._next_job += 1
                username = f"user{u}"
                size = 8 * MB if k % 4 == 3 else 256 * KB
                src_path = f"/home/{username}/j{n}.dat"
                dst_path = f"/home/sink/{username}-j{n}.dat"
                uid = self.src.accounts.get(username).uid
                self.src.storage.write_file(
                    src_path, SyntheticData(seed=self.seed * 1_000_003 + n, length=size), uid=uid)
                try:
                    jobs.append(go.submit_transfer(self.users[u], "alcf#dtn", src_path,
                                                   "nersc#dtn", dst_path, defer=True))
                except AdmissionError:
                    self.refused += 1
                    continue
                self.submitted.append((self.users[u].name, dst_path, size))
        self.peak_queue_depth = max(self.peak_queue_depth, len(go.scheduler.queue))
        go.process_queue()
        return sum(1 for j in jobs if j.status is JobStatus.SUCCEEDED)

    def time_ops(self) -> None:
        """Install per-op timers (none by default)."""

    def virtual(self, v0: float) -> dict:
        go = self.go
        waits = [t.claimed_at - t.submitted_at for t in go.scheduler.completed_tasks]
        latencies = [j.completed_at - j.submitted_at for j in go.jobs.values()
                     if isinstance(j, TransferJob) and j.completed_at is not None]
        delivered = go.scheduler.queue.delivered_bytes()
        out = {
            "virtual_end_vs": self.world.now,
            "queue_wait_p50_vs": metrics.percentile(waits, 0.5),
            "queue_wait_p99_vs": metrics.tail(waits, 0.99)[1],
            "job_latency_p99_vs": metrics.tail(latencies, 0.99)[1],
            "goodput_gbps_v": metrics.ratio(sum(delivered.values()) * 8 / 1e9,
                                            self.world.now - v0),
            "jain_fairness": metrics.jain(delivered.values()),
        }
        if self.activate_vs:
            out["activate_p50_vs"] = metrics.percentile(self.activate_vs, 0.5)
        return out

    def checks(self) -> list[str]:
        problems = []
        if self.refused:
            problems.append(f"{self.refused} submissions refused")
        bad = [j.job_id for j in self.go.jobs.values() if j.status is not JobStatus.SUCCEEDED]
        if bad:
            problems.append(f"{len(bad)} jobs did not succeed (first: {bad[0]})")
        expected: dict[str, int] = {}
        for user, dst_path, size in self.submitted:
            expected[user] = expected.get(user, 0) + size
            st = self.dst.storage.stat(dst_path, 0)
            if st.size != size:
                problems.append(f"{dst_path} holds {st.size} bytes, expected {size}")
                break
        delivered = self.go.scheduler.queue.delivered_bytes()
        short = [u for u, n in expected.items() if delivered.get(u, 0) != n]
        if short:
            problems.append(f"{len(short)} users' delivered bytes differ from submitted "
                            f"(first: {short[0]})")
        return problems

    @property
    def attempted(self) -> int:
        return len(self.submitted) + self.refused

    @property
    def failed(self) -> int:
        jobs = self.go.jobs.values()
        return self.refused + sum(1 for j in jobs if isinstance(j, TransferJob)
                                  and j.status is not JobStatus.SUCCEEDED)


class GoStorm(GoWorkload):
    """Warm storm: 50 users activated in set-up, ~100 pool keys, caches hit.

    The op is one scheduled job execution: a single 8 MiB job or one
    coalesced batch of 256 KiB jobs.
    """

    name = "go_storm"
    users_n = 50
    accounts = 50
    pregenerate_keys = 50  # one per activation; more would only lengthen set-up
    jobs_per_user = 20  # 1000 jobs a wave, well under the 10 000 admission cap
    rounds_per_second = 1.6  # 12 s: 19 waves

    def setup(self) -> None:
        super().setup()
        for u in range(self.users_n):
            self.activate(u, None)

    def time_ops(self) -> None:
        samples = self.op_wall
        for name in ("run_job", "run_batch_job"):
            fn = getattr(go_service, name)

            def timed(*args, _fn=fn, **kwargs):
                t0 = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    samples.append(time.perf_counter() - t0)

            setattr(go_service, name, timed)

    def run_round(self, i: int) -> int:
        return self.submit_and_drain(list(range(self.users_n)), self.jobs_per_user)


class GoManyUsers(GoWorkload):
    """Cold onboarding: every round registers and activates a new cohort
    of users, so pool and GSI-cache keys far exceed both caches.

    The op is one ``GlobusOnline.activate`` (a MyProxy logon).
    """

    name = "go_many_users"
    cohort = 50
    accounts = 2000
    pregenerate_keys = 0
    jobs_per_user = 4
    rounds_per_second = 0.8  # 12 s: 10 cohorts, 1000 activations, 2000 jobs

    def run_round(self, i: int) -> int:
        first = i * self.cohort
        if first + self.cohort > self.accounts:
            raise RuntimeError("account pool exhausted; raise GoManyUsers.accounts")
        users = list(range(first, first + self.cohort))
        for u in users:
            self.activate(u, self.op_wall)
        return self.submit_and_drain(users, self.jobs_per_user)


WORKLOADS = {cls.name: cls for cls in (GoStorm, GoManyUsers)}


# ---------------------------------------------------------------------------
# The timed region
# ---------------------------------------------------------------------------


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def run(workload, seconds: float, traced: bool, spans_path: str | None) -> dict:
    workload.setup()
    setup_s = time.perf_counter() - _T0
    rounds = max(1, round(seconds * workload.rounds_per_second))
    gcmon = layers.GcMonitor()
    recorder = None
    if traced:
        recorder = layers.Recorder(e.name for e in layers.ENTRY_POINTS)
        layers.install(recorder)
    workload.time_ops()  # outside the layer wrappers, so both runs time the same calls
    gc.collect()
    gc.freeze()

    world = workload.world
    ops_before = opcount.snapshot()
    counters_before = world_counters(world)
    v0 = world.now
    if recorder is not None:
        recorder.reset()
    gcmon.reset()
    probe = HostProbe()
    round_s, round_ops, round_ref_s = [], [], []
    before = probe.sample()
    setup_ref_s = metrics.median(before)
    for i in range(rounds):
        t0 = time.perf_counter()
        round_ops.append(workload.run_round(i))
        round_s.append(time.perf_counter() - t0)
        after = probe.sample()
        round_ref_s.append(metrics.median(before + after))
        before = after

    out = {
        "workload": workload.name,
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "rounds": rounds,
        "ops": sum(round_ops),
        "wall_s": sum(round_s),
        "round_s": round_s,
        "round_ops": round_ops,
        "round_ref_s": round_ref_s,
        "op_wall_s": workload.op_wall,
        "gc_collections": gcmon.collections,
        "gc_pause_s": gcmon.pause_s,
        "peak_rss_mb": peak_rss_mb(),
        "peak_queue_depth": workload.peak_queue_depth,
        "virtual": workload.virtual(v0),
        "counters": _delta(world_counters(world), counters_before),
        "opcount": opcount.since(ops_before),
        "problems": workload.checks(),
        "attempted": workload.attempted,
        "failed": workload.failed,
    }
    if recorder is not None:
        out["calls"] = dict(zip(recorder.names, recorder.calls))
        out["self_s"] = dict(zip(recorder.names, recorder.self_s))
        out["spans"] = recorder.span_count()
        out["spans_dropped"] = recorder.spans_dropped
        if spans_path:
            recorder.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV path for the traced run's spans")
    args = parser.parse_args(argv)

    result = run(WORKLOADS[args.workload](args.seed), args.seconds, args.traced, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
