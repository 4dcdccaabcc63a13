#!/usr/bin/env python
"""cProfile the fleet transfer hot path and print the top offenders.

Runs the same scenario as ``benchmarks/bench_wallclock_fleet.py``
(quick-sized by default) under cProfile and prints the top functions by
cumulative time — the tool that found the route-walk, fault-scan, and
fingerprint hot spots this codebase's caches now cover.

    python tools/profile_hotpath.py             # 1k files, top 20
    python tools/profile_hotpath.py --full      # the full 10k-file phase
    python tools/profile_hotpath.py --top 40    # more rows
    python tools/profile_hotpath.py --striped   # profile the striped phase
    python tools/profile_hotpath.py --scheduler # fleet-scheduler drain
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

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
    args = parser.parse_args(argv)

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


if __name__ == "__main__":
    raise SystemExit(main())
