#!/usr/bin/env python
"""Check perfbench's determinism digests against the committed ones.

    python3 tools/check_digests.py

For every workload and seed in ``BENCH_digests.json`` it runs
``perfbench/run.py --workload W --seed S --seconds 6 --trace 0`` and
compares the ``determinism_digest`` the run prints with the committed
one.  A digest hashes the timed region's virtual-time metrics, op
tallies and world counters, so the host's speed never moves it: a
change that only makes the simulator faster leaves every digest equal.
Exits 1 on any difference, and when a run exits nonzero (its
repetitions disagree, or an output check fails); that run's output is
echoed.  A change meant to move outcomes copies the printed digests
into the file.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_digests.json"
_DIGEST = re.compile(r"determinism_digest=([0-9a-f]+)")


def run_digest(workload: str, seed: int, seconds: int) -> str:
    """The digest one measured run prints, or why there is none."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    match = _DIGEST.search(proc.stdout)
    if proc.returncode == 0 and match:
        return match.group(1)
    # run.py prints its digest before it checks the other repetitions, so a
    # run that prints one and then fails a check has no digest to compare.
    sys.stderr.write(proc.stdout + proc.stderr)
    return f"none (run.py exited {proc.returncode})"


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    differ = 0
    for workload, seeds in baseline["determinism_digest"].items():
        for seed, want in seeds.items():
            got = run_digest(workload, int(seed), baseline["seconds"])
            differ += got != want
            print(f"{workload} seed {seed}: committed {want}, now {got}"
                  f"{'' if got == want else '  DIFFERS'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
