#!/usr/bin/env python
"""What a finished Globus Online job leaves allocated, per job.

Runs perfbench's go_storm workload (``GoStorm`` in
``perfbench/worker.py``) in this process: its set-up, two warm rounds
(pools, memos and caches fill), then three rounds of 1,000 jobs under
``tracemalloc``.  It prints what those rounds left allocated once they
were done: bytes and GC-tracked objects per job, and the largest
allocation sites.  The bytes the harness allocates itself, under
``perfbench/`` (each job's source content, its two paths and the
harness's list of submitted jobs), are counted apart from the
program's own.  Nothing timed enters the counts, so a rerun on the same
Python prints the same bytes.

    PYTHONPATH=src python tools/retention.py
    PYTHONPATH=src python tools/retention.py --top 25
    PYTHONPATH=src python tools/retention.py --max-bytes-per-job 1000  # gate

It exits 1 when a job failed, since the figure would then count traffic
that did not run, and with ``--max-bytes-per-job`` when a job retains
more than that outside ``perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS = REPO_ROOT / "perfbench"
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(HARNESS))  # the worker imports its siblings by bare name

import worker  # noqa: E402

from repro.metrics.report import render_table  # noqa: E402

SEED = 1
#: rounds run before measuring, so pools, memos and caches are full
WARM_ROUNDS = 2
MEASURED_ROUNDS = 3


def _in_harness(filename: str) -> bool:
    # "<string>" and the like name generated code, never a harness file
    path = Path(filename)
    return path.is_absolute() and path.resolve().is_relative_to(HARNESS)


def measure(storm: worker.GoWorkload) -> dict:
    """Set ``storm`` up, warm it, and return what the measured rounds
    left allocated, split between the harness and the program."""
    storm.setup()
    for i in range(WARM_ROUNDS):
        storm.run_round(i)
    gc.collect()
    objects_before = len(gc.get_objects())
    tracemalloc.start()
    jobs = sum(storm.run_round(WARM_ROUNDS + i) for i in range(MEASURED_ROUNDS))
    gc.collect()
    # counted before the snapshot, whose traces are objects too; not by
    # allocation site, which CPython 3.11 cannot give for an object with
    # a managed instance dict
    objects = len(gc.get_objects()) - objects_before
    snapshot = tracemalloc.take_snapshot().filter_traces((
        tracemalloc.Filter(False, tracemalloc.__file__),
        tracemalloc.Filter(False, __file__),
        tracemalloc.Filter(False, "<unknown>"),
    ))
    tracemalloc.stop()
    sites = snapshot.statistics("lineno")
    harness_bytes = sum(s.size for s in sites if _in_harness(s.traceback[0].filename))
    return {
        "jobs": jobs,
        "failed": storm.failed,
        "bytes": sum(s.size for s in sites) - harness_bytes,
        "objects": objects,
        "harness_bytes": harness_bytes,
        "sites": sites,
    }


def _site(stat) -> str:
    frame = stat.traceback[0]
    path = Path(frame.filename)
    if path.is_absolute() and path.resolve().is_relative_to(REPO_ROOT):
        path = path.resolve().relative_to(REPO_ROOT)
    return f"{path}:{frame.lineno}"


def report(result: dict, top: int) -> str:
    jobs = max(result["jobs"], 1)
    rows = [[_site(stat), f"{stat.size / jobs:.1f}", f"{stat.count / jobs:.2f}"]
            for stat in result["sites"][:top]]
    table = render_table(f"largest allocation sites (top {top})",
                         ["site", "bytes/job", "blocks/job"], rows)
    return "\n".join([
        f"python {sys.version.split()[0]}: go_storm seed {SEED}, {result['jobs']} jobs "
        f"succeeded in the measured rounds ({result['failed']} failed in the run)",
        f"retained per job: {result['bytes'] / jobs:.0f} bytes by the program, "
        f"{result['harness_bytes'] / jobs:.0f} by the harness (perfbench/), "
        f"{result['objects'] / jobs:.2f} GC-tracked objects in all",
        "",
        table,
    ])


def verdict(result: dict, max_bytes_per_job: float | None) -> str | None:
    """The gate's FAIL line, or None when the run passes."""
    if result["failed"]:
        return (f"FAIL: {result['failed']} jobs failed, so the figure counts "
                "traffic that did not run")
    per_job = result["bytes"] / max(result["jobs"], 1)
    if max_bytes_per_job is not None and per_job > max_bytes_per_job:
        return (f"FAIL: {per_job:.0f} bytes/job retained, above the bound of "
                f"{max_bytes_per_job:.0f}")
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=15, help="allocation sites to list")
    parser.add_argument("--max-bytes-per-job", type=float, default=None,
                        help="exit 1 when a job retains more outside perfbench/")
    args = parser.parse_args(argv)

    result = measure(worker.GoStorm(SEED))
    print(report(result, args.top))
    problem = verdict(result, args.max_bytes_per_job)
    if problem:
        print(problem)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
