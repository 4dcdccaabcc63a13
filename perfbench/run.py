"""The repository's benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload go_storm --seed 1 --seconds 36 --trace 0

Workloads (all single-process, single-threaded, closed-loop):

* ``go_storm``      warm Globus Online job storm; session caches hit
* ``go_many_users`` cold onboarding: activations plus a few jobs per user;
                    cache keys far exceed every session-layer cache

``--trace 0`` splits the measured run into ``REPS`` repetitions of
``seconds / REPS`` each, every one in a fresh interpreter (``worker.py``)
running the same work, one after the other, and prints every end-to-end
metric with its unit.  ``ops_per_s`` is the ops completed in every
repetition's timed region over their summed wall time, ``op_wall_p50_us``
the median per-op time pooled over every repetition, and
``setup_wall_s`` the median of the repetitions' set-up times; each is
reported as measured.  The shared host's speed swings these by a quarter
or more between runs, so ``BENCHMARK.json`` gates on two figures read
against the host reference (see ``worker.HostProbe``), which those
swings leave alone and a change in the program's own speed moves one for
one: ``ops_per_ref``, ops per reference-kernel call, each round's wall
time divided by the reference read around that round; and ``setup_s``,
the median set-up time scaled by the reference read right after it to a
core where one call takes ``metrics.REF_NOMINAL_S``.  The repetitions must
agree exactly on their virtual-time metrics, opcount tallies and world
counters (repeatability across interpreters).
``--trace 1`` runs one repetition twice in fresh interpreters, untraced
and with every layer boundary of :mod:`layers` wrapped, and prints the
per-layer metrics.  It fails unless both runs produced identical
virtual-time metrics, opcount tallies and world counters
(non-interference), and unless every layer's call counts match the
coverage predictions.  The traced run's spans go to ``perfbench/out/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Any failed output check exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import layers  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("go_storm", "go_many_users")
REPS = 3
DEADLINE_S = 170.0

#: (name, unit, better) of every end-to-end metric, reported on every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_ref", "1/ref", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

OPCOUNT_TALLIES = (
    "chain.validate.full", "chain.validate.memo", "dcau.cached", "dcau.full",
    "gsi.handshake.full", "gsi.handshake.resumed", "rsa.keygen.full", "rsa.keygen.memo",
    "rsa.sign", "rsa.verify", "rsa.verify.memo",
)
#: tallies of work a cache skipped: more of them means the cache helps more
_SKIPPED_WORK = ("memo", "resumed", "cached")

#: (name, unit, better) of the counters and ratios beside the per-entry metrics
DERIVED = (
    ("gridftp.pool.reuse_ratio", "ratio", "higher"),
    ("gridftp.dcau.cached_ratio", "ratio", "higher"),
    ("scheduler.requeues", "count", "lower"),
    ("scheduler.worker_crashes", "count", "lower"),
    ("scheduler.batches_coalesced", "count", "higher"),
    ("scheduler.steals", "count", "lower"),
    ("scheduler.peak_queue_depth", "count", "lower"),
    ("recovery.attempts", "count", "lower"),
    ("recovery.retries", "count", "lower"),
    ("recovery.attempts_per_job", "ratio", "lower"),
    ("net.route_cache.hit_ratio", "ratio", "higher"),
    ("sim.events.batched_share", "ratio", "higher"),
    ("runtime.gc.collections", "count", "lower"),
    ("runtime.gc.pause_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for entry in layers.ENTRY_POINTS:
        spec.append((f"{entry.name}.calls", "count", "lower"))
        spec.append((f"{entry.name}.self_s", "s", "lower"))
    for layer in layers.LAYERS:
        spec.append((f"{layer}.self_s", "s", "lower"))
        spec.append((f"{layer}.self_share", "ratio", "lower"))
    spec.extend(DERIVED)
    for tally in OPCOUNT_TALLIES:
        better = "higher" if tally.rsplit(".", 1)[-1] in _SKIPPED_WORK else "lower"
        spec.append((f"opcount.{tally}", "count", better))
    return spec


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float, *extra: str) -> dict:
    """Run one repetition in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / REPS), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(extra) or 'measured run'} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def determinism_digest(run: dict) -> str:
    """Hash of everything that must repeat exactly for a seed."""
    blob = json.dumps([run["virtual"], run["opcount"], run["counters"]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pooled(reps: list[dict]) -> dict:
    """The repetitions' samples taken together."""
    op_wall = [s for rep in reps for s in rep["op_wall_s"]]
    q, tail_s, n = metrics.tail(op_wall, 0.99)
    return {
        "setups": [rep["setup_s"] for rep in reps],
        "setups_at_ref": [metrics.at_ref_speed(rep["setup_s"], rep["setup_ref_s"])
                          for rep in reps],
        "ops": sum(rep["ops"] for rep in reps),
        "wall_s": sum(rep["wall_s"] for rep in reps),
        "ops_per_ref": metrics.ops_per_ref(
            [n for rep in reps for n in rep["round_ops"]],
            [t for rep in reps for t in rep["round_s"]],
            [r for rep in reps for r in rep["round_ref_s"]]),
        "ref_s": metrics.median([r for rep in reps for r in rep["round_ref_s"]]),
        "op_p50_s": metrics.median(op_wall),
        "op_tail_q": q,
        "op_tail_s": tail_s,
        "op_n": n,
        "peak_rss_mb": metrics.median(rep["peak_rss_mb"] for rep in reps),
    }


def end_to_end(pool: dict) -> dict[str, float]:
    return {
        "setup_s": metrics.median(pool["setups_at_ref"]),
        "ops_per_ref": pool["ops_per_ref"],
        "peak_rss_mb": pool["peak_rss_mb"],
    }


def _ops_per_ref(run: dict) -> float:
    return metrics.ops_per_ref(run["round_ops"], run["round_s"], run["round_ref_s"])


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    calls, self_s = traced["calls"], traced["self_s"]
    c, oc = traced["counters"], traced["opcount"]
    out: dict[str, float] = {}
    for entry in layers.ENTRY_POINTS:
        out[f"{entry.name}.calls"] = calls[entry.name]
        out[f"{entry.name}.self_s"] = self_s[entry.name]
    for layer in layers.LAYERS:
        total = sum(self_s[e.name] for e in layers.ENTRY_POINTS if e.layer == layer)
        out[f"{layer}.self_s"] = total
        out[f"{layer}.self_share"] = metrics.ratio(total, traced["wall_s"])
    out.update({
        "gridftp.pool.reuse_ratio": metrics.ratio(
            c["pool.reuses"], c["pool.reuses"] + c["pool.misses"]),
        "gridftp.dcau.cached_ratio": metrics.ratio(
            oc.get("dcau.cached", 0), oc.get("dcau.cached", 0) + oc.get("dcau.full", 0)),
        "scheduler.requeues": c["scheduler.requeues"],
        "scheduler.worker_crashes": c["scheduler.worker_crashes"],
        "scheduler.batches_coalesced": c["scheduler.batches_coalesced"],
        "scheduler.steals": c["scheduler.steals"],
        "scheduler.peak_queue_depth": traced["peak_queue_depth"],
        "recovery.attempts": c["recovery.attempts"],
        "recovery.retries": c["recovery.retries"],
        "recovery.attempts_per_job": metrics.ratio(
            c["recovery.attempts"], calls["recovery.run"]),
        "net.route_cache.hit_ratio": metrics.ratio(
            c["route.hits"], c["route.hits"] + c["route.misses"]),
        "sim.events.batched_share": metrics.ratio(c["events.batched"], c["events.total"]),
        # GC is taken from the untraced run: the wrappers allocate too
        "runtime.gc.collections": plain["gc_collections"],
        "runtime.gc.pause_s": plain["gc_pause_s"],
        "tracing.overhead_ratio": metrics.ratio(_ops_per_ref(traced), _ops_per_ref(plain)),
    })
    for tally in OPCOUNT_TALLIES:
        out[f"opcount.{tally}"] = oc.get(tally, 0)
    return out


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(workload: str, reps: list[dict], pool: dict, e2e: dict) -> None:
    """Every end-to-end metric that applies to ``workload``, with its unit."""
    first = reps[0]
    v = first["virtual"]
    tail = f"p{pool['op_tail_q'] * 100:g}" if pool["op_tail_q"] is not None else "n/a"
    tail_s = pool["op_tail_s"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    rows = [
        ("setup_s", e2e["setup_s"], "s",
         f"median of {len(reps)} fresh interpreters at reference speed: "
         + ", ".join(f"{s:.3f}" for s in pool["setups_at_ref"])),
        ("setup_wall_s", metrics.median(pool["setups"]), "s",
         "as measured: " + ", ".join(f"{s:.3f}" for s in pool["setups"])),
        ("ops_per_ref", e2e["ops_per_ref"], "1/ref",
         "ops per host-reference call, each round's time divided by its reference"),
        ("ops_per_s", metrics.ratio(pool["ops"], pool["wall_s"]), "1/s",
         f"{pool['ops']} ops in {pool['wall_s']:.3f} s over {len(reps)} repetitions"),
        ("host_ref_us", pool["ref_s"] * 1e6, "us",
         "median host-reference call over the rounds; higher = slower host"),
        ("op_wall_p50_us", pool["op_p50_s"] * 1e6, "us", f"n={pool['op_n']}"),
        ("op_wall_p99_us", tail_s * 1e6 if tail_s is not None else None, "us",
         f"{tail}, the highest with >= {metrics.MIN_BEYOND} samples beyond; "
         f"n={pool['op_n']}"),
    ]
    if workload == "go_many_users":
        rows.append(("activate_wall_p50_ms", pool["op_p50_s"] * 1e3, "ms", "op = activate"))
        rows.append(("activate_wall_p99_ms", tail_s * 1e3 if tail_s is not None else None,
                     "ms", f"{tail}, n={pool['op_n']}"))
    rows.append(("peak_rss_mb", e2e["peak_rss_mb"], "MiB",
                 "median over the repetitions of VmHWM"))
    rows.append(("failed_ratio", metrics.ratio(failed, attempted), "1",
                 f"{failed} of {attempted}"))
    for name, unit in (("queue_wait_p50_vs", "s(virtual)"), ("queue_wait_p99_vs", "s(virtual)"),
                       ("job_latency_p99_vs", "s(virtual)"), ("activate_p50_vs", "s(virtual)"),
                       ("goodput_gbps_v", "Gb/s(virtual)"), ("jain_fairness", "1")):
        if name in v:
            rows.append((name, v[name], unit, "exact for the seed"))
    rows.append(("runtime.gc.collections", first["gc_collections"], "count",
                 f"pause {first['gc_pause_s']:.4f} s per repetition; "
                 "policy: gc.freeze() after set-up"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {_fmt(value):>12} {unit:<14} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            reps = [run_child(args, deadline)]
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            traced = run_child(args, deadline, "--traced", "--spans", str(spans))
        else:
            reps = [run_child(args, deadline) for _ in range(REPS)]
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    plain = reps[0]
    digest = determinism_digest(plain)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} repetitions={len(reps)} rounds={plain['rounds']} "
          f"determinism_digest={digest}")
    problems = [p for rep in reps for p in rep["problems"]]
    for k, rep in enumerate(reps[1:], start=2):
        if determinism_digest(rep) != digest:
            problems.append(f"repetition {k} differs from repetition 1 in its virtual "
                            "metrics, opcount tallies or world counters")
    if args.trace:
        problems += traced["problems"]
        for key in ("virtual", "opcount", "counters"):
            if traced[key] != plain[key]:
                problems.append(f"traced run changed {key}: {traced[key]} != {plain[key]}")
        problems += layers.coverage_problems(args.workload, traced["calls"])
        values = per_layer(plain, traced)
        spec = per_layer_spec()
        for name, unit, _ in spec:
            print(f"  {name:<40} {_fmt(values[name]):>12} {unit}")
        print(f"  spans written: {traced['spans']} (dropped {traced['spans_dropped']}) "
              f"-> {spans.relative_to(ROOT)}")
    else:
        pool = pooled(reps)
        values = end_to_end(pool)
        spec = END_TO_END
        print_report(args.workload, reps, pool, values)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
