#!/usr/bin/env python
"""Check perfbench's determinism digests, or its traced counts, against the
committed ones.

    python3 tools/check_digests.py
    python3 tools/check_digests.py --calls

For every workload and seed in ``BENCH_digests.json`` it runs
``perfbench/run.py --workload W --seed S --seconds 6 --trace 0`` and
compares the ``determinism_digest`` the run prints with the committed
one.  A digest hashes the timed region's virtual-time metrics, op
tallies and world counters, so the host's speed never moves it: a
change that only makes the simulator faster leaves every digest equal.

With ``--calls`` it runs each workload of ``BENCH_calls.json`` once with
``--trace 1`` instead, and compares every ``*.calls`` count (the calls
each wrapped layer entry point saw) and every ``opcount.*`` tally with
the committed value, naming each metric that differs.  The counts are
fixed by (workload, seed, seconds), so a change that makes one layer
call another more or less often says so here, by name, with no timing
noise.

Exits 1 on any difference, and when a run exits nonzero (its
repetitions disagree, or an output or coverage check fails); that run's
output is echoed.  A change meant to move outcomes or counts copies the
printed values into the file.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_digests.json"
CALLS_BASELINE = REPO_ROOT / "BENCH_calls.json"
_DIGEST = re.compile(r"determinism_digest=([0-9a-f]+)")


def run_perfbench(workload: str, seed: int, seconds: int,
                  trace: int) -> subprocess.CompletedProcess:
    """One ``perfbench/run.py`` run, its output captured."""
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )


def _failed(proc: subprocess.CompletedProcess) -> str:
    sys.stderr.write(proc.stdout + proc.stderr)
    return f"none (run.py exited {proc.returncode})"


def run_digest(workload: str, seed: int, seconds: int) -> str:
    """The digest one measured run prints, or why there is none."""
    proc = run_perfbench(workload, seed, seconds, 0)
    match = _DIGEST.search(proc.stdout)
    if proc.returncode == 0 and match:
        return match.group(1)
    # run.py prints its digest before it checks the other repetitions, so a
    # run that prints one and then fails a check has no digest to compare.
    return _failed(proc)


def run_calls(workload: str, seed: int, seconds: int) -> dict[str, int] | str:
    """Every ``*.calls`` and ``opcount.*`` value of one traced run, or why
    there are none."""
    proc = run_perfbench(workload, seed, seconds, 1)
    if proc.returncode != 0:
        return _failed(proc)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name.startswith("opcount.")}


def check_digests() -> int:
    """How many committed digests a run no longer prints."""
    baseline = json.loads(BASELINE.read_text())
    differ = 0
    for workload, seeds in baseline["determinism_digest"].items():
        for seed, want in seeds.items():
            got = run_digest(workload, int(seed), baseline["seconds"])
            differ += got != want
            print(f"{workload} seed {seed}: committed {want}, now {got}"
                  f"{'' if got == want else '  DIFFERS'}")
    return differ


def check_calls() -> int:
    """How many committed counts a traced run no longer reports."""
    baseline = json.loads(CALLS_BASELINE.read_text())
    seed, seconds = baseline["seed"], baseline["seconds"]
    differ = 0
    for workload, want in baseline["calls"].items():
        got = run_calls(workload, seed, seconds)
        if isinstance(got, str):
            differ += 1
            print(f"{workload} seed {seed}: {got}  DIFFERS")
            continue
        moved = [name for name in sorted(want.keys() | got.keys())
                 if want.get(name) != got.get(name)]
        for name in moved:
            print(f"{workload} {name}: committed {want.get(name)}, now {got.get(name)}"
                  "  DIFFERS")
        print(f"{workload} seed {seed}: {len(want) - len(moved)} of {len(want)} "
              "counts equal")
        differ += len(moved)
    return differ


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", action="store_true",
                        help="check the traced counts in BENCH_calls.json instead")
    args = parser.parse_args(argv)
    differ = check_calls() if args.calls else check_digests()
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
