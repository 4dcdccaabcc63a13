#!/usr/bin/env python
"""Profile the fleet transfer hot path and print the top offenders.

Runs the same scenario as ``benchmarks/bench_wallclock_fleet.py``
(quick-sized by default) under cProfile and prints the top functions by
cumulative time — the tool that found the route-walk, fault-scan, and
fingerprint hot spots this codebase's caches now cover.

    python tools/profile_hotpath.py             # 1k files, top 20
    python tools/profile_hotpath.py --full      # the full 10k-file phase
    python tools/profile_hotpath.py --top 40    # more rows
    python tools/profile_hotpath.py --striped   # profile the striped phase
    python tools/profile_hotpath.py --scheduler # fleet-scheduler drain
    python tools/profile_hotpath.py --workload go_storm  # a benchmark workload, sampled

``--workload`` runs one of perfbench's workloads (``perfbench/worker.py``)
in this process instead: its set-up and two warm rounds, then
``SAMPLED_ROUNDS`` rounds during which a ``SIGPROF`` timer
(``ITIMER_PROF``, this process only) samples the Python stack every
``INTERVAL_S`` of CPU time.  It prints each function's self share (the
samples that found it on top of the stack) and inclusive share (the
samples that found it anywhere on it) of the sampled rounds' wall time,
with the sample counts.  cProfile adds a fixed cost to every Python
call, which inflates code made of many small calls and hides time spent
inside one C call or in raising an exception (DESIGN §17, *Why the
profile missed them*); a sampler charges every function what it costs.
Time in a C function counts as self time of the Python function that
called it.  The timer counts CPU time, so time the process spends
waiting (go_many_users waits for key-search helpers) is not sampled;
the header prints wall and CPU time, and the shares are scaled by
their ratio.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import signal
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS = REPO_ROOT / "perfbench"
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HARNESS))  # the worker imports its siblings by bare name

import worker  # noqa: E402

from repro.metrics.report import render_table  # noqa: E402
from repro.util import opcount  # noqa: E402
from repro.workloads.fleet import (  # noqa: E402
    FleetTransferScenario,
    FleetWorkloadConfig,
)


def print_crypto_report(ops_before) -> None:
    """Crypto-op tallies for the profiled run (the CI gate's numbers).

    Deterministic per (seed, scenario): the ``*.resumed`` / ``*.memo`` /
    ``*.cached`` rows are work the session caches skipped; their
    ``*.full`` twins creeping up is a cache that stopped hitting.
    """
    ops = opcount.since(ops_before)
    if not ops:
        print("crypto ops: none recorded")
        return
    width = max(len(name) for name in ops)
    print("crypto ops (seeded-deterministic; gated exactly in CI):")
    for name in sorted(ops):
        print(f"  {name:<{width}}  {ops[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="profile the full 10k-file phase (default: quick 1k)")
    parser.add_argument("--striped", action="store_true",
                        help="profile the multi-GiB striped phase instead")
    parser.add_argument("--scheduler", action="store_true",
                        help="profile the fleet-scheduler drain instead "
                             "(500 jobs / 50 users, the bench quick tier)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows to print (default 20)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS), default=None,
                        help="sample a perfbench workload's warm rounds instead")
    args = parser.parse_args(argv)

    if args.workload:
        return profile_workload(args)
    if args.scheduler:
        return profile_scheduler(args)

    cfg = FleetWorkloadConfig()
    if not args.full:
        cfg = cfg.quick()
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)

    scenario = FleetTransferScenario(cfg)
    ops_before = opcount.snapshot()
    profiler = cProfile.Profile()
    profiler.enable()
    if args.striped:
        stats = scenario.run_striped()
    else:
        stats = scenario.run_small_files()
    profiler.disable()

    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())
    print(
        f"profiled: {stats.transfers} transfers, {stats.bytes_moved} bytes, "
        f"{stats.blocks_planned} blocks planned"
    )
    info = scenario.world.network.route_cache_info()
    print(f"route cache: {info['hits']} hits / {info['misses']} misses")
    print_crypto_report(ops_before)
    return 0


def profile_scheduler(args) -> int:
    """Profile the fleet-scheduler drain (the bench quick workload)."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_scheduler_fleet import build_fleet

    from repro.storage.data import SyntheticData
    from repro.util.units import KB, MB

    seed = 7 if args.seed is None else args.seed
    users, jobs = 50, 500
    world, go, ep_a, _ep_b = build_fleet(seed=seed, users=users)
    accounts = []
    for u in range(users):
        account = go.register_user(f"user{u}@globusid")
        go.activate(account, "alcf#dtn", f"user{u}", f"pw{u}")
        go.activate(account, "nersc#dtn", "sink", "pwS")
        accounts.append(account)
    for n in range(jobs):
        u = n % users
        username = f"user{u}"
        uid = ep_a.accounts.get(username).uid
        small = (n // users) % 4 != 3
        size = 256 * KB if small else 8 * MB
        path = f"/home/{username}/j{n}.dat"
        ep_a.storage.write_file(path, SyntheticData(seed=n, length=size), uid=uid)
        go.submit_transfer(accounts[u], "alcf#dtn", path, "nersc#dtn",
                           f"/home/sink/{username}-j{n}.dat", defer=True)

    ops_before = opcount.snapshot()
    profiler = cProfile.Profile()
    profiler.enable()
    go.process_queue()
    profiler.disable()

    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats(args.sort).print_stats(args.top)
    print(out.getvalue())
    print(f"profiled: {jobs} jobs / {users} users drained")
    print_crypto_report(ops_before)
    return 0


#: rounds run before sampling, so pools, memos and caches are full
WARM_ROUNDS = 2
SAMPLED_ROUNDS = 20
#: CPU time between two samples, as asked of the timer (the kernel may
#: deliver them further apart; the header prints the spacing it gave)
INTERVAL_S = 0.002


class StackSampler:
    """Counts, per code object, the ``SIGPROF`` samples that find it on top
    of the Python stack (self) and anywhere on it (inclusive, once per
    sample however deep it recurses)."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.self_counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        if frame is None:
            return
        self.self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                self.inclusive[code] += 1
            frame = frame.f_back

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def _generated_owners() -> dict:
    """Code object -> ``module.Class.method`` for the methods the package
    generates (a dataclass's ``__init__`` and ``__eq__`` all read
    ``<string>``)."""
    owners = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr, fn in vars(cls).items():
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    owners[code] = f"{name}.{cls.__qualname__}.{attr}"
    return owners


def _label(code, owners: dict) -> str:
    if code in owners:
        return f"{owners[code]} (generated)"
    path = Path(code.co_filename)
    if path.is_absolute() and path.resolve().is_relative_to(REPO_ROOT):
        path = path.resolve().relative_to(REPO_ROOT)
    return f"{path}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def sample_report(sampler: StackSampler, wall_s: float, cpu_s: float, top: int) -> str:
    """Two tables of the top functions, by self and by inclusive share."""
    owners = _generated_owners()
    # each sample stands for an equal slice of CPU time, and the CPU
    # time for this share of the wall time
    scale = 100.0 * cpu_s / wall_s / max(sampler.samples, 1)
    headers = ["function", "self %", "self samples", "incl %", "incl samples"]
    tables = []
    for title, counts in (("self", sampler.self_counts), ("inclusive", sampler.inclusive)):
        # this tool's own frames hold every sample
        ranked = [code for code, _ in counts.most_common() if code.co_filename != __file__]
        rows = [[_label(code, owners), f"{sampler.self_counts[code] * scale:.1f}",
                 sampler.self_counts[code], f"{sampler.inclusive[code] * scale:.1f}",
                 sampler.inclusive[code]]
                for code in ranked[:top]]
        tables.append(render_table(f"top {top} by {title} share of wall time",
                                   headers, rows))
    return "\n\n".join(tables)


def profile_workload(args) -> int:
    """Sample a perfbench workload's rounds after two warm ones."""
    seed = 1 if args.seed is None else args.seed
    storm = worker.WORKLOADS[args.workload](seed)
    storm.setup()
    for i in range(WARM_ROUNDS):
        storm.run_round(i)
    sampler = StackSampler(INTERVAL_S)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with sampler:
        jobs = sum(storm.run_round(WARM_ROUNDS + i) for i in range(SAMPLED_ROUNDS))
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    print(f"{args.workload} seed {seed}: {SAMPLED_ROUNDS} rounds sampled after "
          f"{WARM_ROUNDS} warm, {jobs} jobs succeeded ({storm.failed} failed in the run); "
          f"{wall_s:.2f} s wall, {cpu_s:.2f} s CPU; {sampler.samples} samples, one per "
          f"{1000 * cpu_s / max(sampler.samples, 1):.1f} ms of CPU time "
          f"(timer set to {INTERVAL_S * 1000:g} ms)")
    print()
    print(sample_report(sampler, wall_s, cpu_s, args.top))
    return 1 if storm.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
