"""Benchmark of the fourierqml package: one workload per process.

    python3 perfbench/run.py --workload fit-q4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the machine and the run's details.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("fit-q4", "fit-classical", "fit-serial6", "plateau-haar")
BLAS_THREADS = "1"
SETUP_CHILDREN = 6
MIN_OPS = {"fit-classical": 11}  # the tail needs ten samples beyond it


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def _setup_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11], "samples": n}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, summaries, traced_walls, untraced_walls) -> dict:
    from tracer import COUNTERS, MAX_COUNTERS, PARENT_SPANS, SPANS

    n = len(traced_walls)
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = _metric(tracer.calls[name] / n, "count")
        out[f"{name}.s"] = _metric(tracer.incl_s[name] / n, "s")
        if name in PARENT_SPANS:
            out[f"{name}.self_s"] = _metric(tracer.self_s[name] / n, "s")
    for name, unit in COUNTERS.items():
        total = tracer.counters[name]
        out[name] = _metric(total if name in MAX_COUNTERS else total / n, unit)
    out["qfflm.circuit_evals_reported"] = _metric(
        sum(s["circuit_evals_reported"] for s in summaries) / n, "count")
    out["cli.output_bytes"] = _metric(sum(s["output_bytes"] for s in summaries) / n, "B")
    out["trace.coverage"] = _metric(tracer.top_s / sum(traced_walls), "share")
    out["trace.overhead_s"] = _metric(
        statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "fourierqml" / "__init__.py").is_file():
        print(f"run.py: no fourierqml sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Fix the BLAS thread count before numpy loads so every run uses the same value.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(src))
    work_dir = root / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, root, src, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, root: Path, src: Path, work_dir: Path) -> int:
    import workloads

    references = workloads.load_references()
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, references)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from machine import machine_record

    setup_samples = [setup_s]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setup_samples += [_setup_child(args) for _ in range(SETUP_CHILDREN)]

    min_ops = max(2, MIN_OPS.get(args.workload, 0))
    walls = {False: [], True: []}
    summaries = []
    attempted = failed = 0
    started = time.perf_counter()
    # Start another operation only while a typical one still fits in the run.
    while attempted < min_ops or (
        time.perf_counter() - started + statistics.median(walls[False] + walls[True] or [0.0])
        <= args.seconds
    ):
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if traced:
            tracer.install()
        begin = time.perf_counter()
        try:
            outcome = workload.call()
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            failed += 1
            continue
        finally:
            walls[traced].append(time.perf_counter() - begin)
            if traced:
                tracer.uninstall()
        try:
            summary = workload.check(outcome)
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        if traced:
            summaries.append(summary)

    correct = failed == 0
    untraced = walls[False]
    detail = {
        "workload": args.workload, "seed": args.seed, "pool_index": workload.pool_index,
        "ops": len(untraced), "fail_frac": failed / attempted,
    }
    if tracer is None:
        detail.update(setup_samples_s=setup_samples, op_walls_s=untraced,
                      op_s_tail=_tail(untraced))
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "op_s": _metric(statistics.median(untraced), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "pass_frac": _metric((attempted - failed) / attempted, "share"),
        }
    else:
        metrics = _layer_metrics(tracer, summaries, walls[True], untraced)
        derived = metrics["qfflm.circuit_evals"]["value"]
        reported = metrics["qfflm.circuit_evals_reported"]["value"]
        if derived != reported:
            print(f"circuit evaluations: derived {derived} != reported {reported}", file=sys.stderr)
            correct = False
    print(json.dumps({"machine": machine_record(root, src), "detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
