"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --label phase-cache --parent HEAD \\
        --pairs fit-q4=10 --pairs fit-classical=10 --seed 37

Run from the root of a git checkout.  Every run lasts BENCHMARK.json's
``run_seconds``, and a workload takes at least 10 pairs, the fewest
that can show a gain in nine of ten.  The parent commit's files are
exported with ``git archive`` into a temporary directory, so no worktree
is registered and the parent run sees only committed files.  For every
pair, ``perfbench/run.py`` runs once on each side, each in its own
process, alternating which side runs first.  The runs and each
end-to-end metric's median, quartiles, range and change wins (pairs in
which the change reads strictly better) are written to
``BENCH_<label>.json`` in the format of the existing files.
"""

from __future__ import annotations

import argparse
import io
import json
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

_MIN_PAIRS = 10
# Linux carries a process's peak resident size into ru_maxrss across fork
# and exec, so a run started straight from this process would report this
# process's peak whenever that is the larger.  The shell forks the run
# instead of exec'ing it (the trailing exit keeps the run from being the
# shell's last command), so the run starts from the shell's small image.
_FORKING_PYTHON = f'{shlex.quote(sys.executable)} "$0" "$@"; exit $?'


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="run N pairs of WORKLOAD; repeat for more workloads")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    plan = {}
    for item in args.pairs:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < _MIN_PAIRS:
            parser.error(f"--pairs takes WORKLOAD=N with N >= {_MIN_PAIRS}, got {item!r}")
        plan[name] = int(count)
    args.plan = plan
    return args


def _export(root: Path, revision: str, target: Path) -> str:
    """Write the files of ``revision`` under ``target``; return its full sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                         cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=root, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    return sha


def _spawn(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``python args...`` run in ``cwd`` by a forking shell, output captured.

    The run's ``ru_maxrss`` is its own peak, not this process's.
    """
    return subprocess.run([_FORKING_PYTHON, *args], shell=True, cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` process; its result and its machine record.

    Read as ``perfbench/report.py``'s ``run_workload`` reads it (the
    result is stdout's last line, the machine record in the line before
    it), but started by ``_spawn`` from ``checkout``, whose own run.py and
    source it runs.
    The result keeps that line's ``detail`` (the run's set-up samples and
    operation walls, among others) under the key ``detail``.
    """
    proc = _spawn(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"], checkout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    info = json.loads(lines[-2])
    return dict(json.loads(lines[-1]), detail=info["detail"]), info["machine"]


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "min": float(min(values)), "max": float(max(values))}


def _summary(parent_runs: list[dict], change_runs: list[dict], metrics: dict) -> dict:
    out = {}
    for name, better in metrics.items():
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        out[name] = {"parent": _stats(parent), "change": _stats(change), "change_wins": wins}
    return out


def _machine_text(record: dict) -> str:
    threads = record["blas_threads_in_force"]
    return (f"{record['nproc']}-core {record['cpu_model']}, Python {record['python']}, "
            f"numpy {record['numpy']}, {record['blas']}, "
            f"{'one BLAS thread' if threads == 1 else f'{threads} BLAS threads'}")


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = {}
    machine = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        sha = _export(root, args.parent, parent_dir)
        for workload, pairs in args.plan.items():
            runs = {"parent": [], "change": []}
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result, record = _run(parent_dir if side == "parent" else root,
                                          workload, args.seed, seconds)
                    runs[side].append(result)
                    machine = machine or record
                    print(f"{workload} pair {i + 1}/{pairs} {side}: "
                          f"op_s {result['metrics']['op_s']['value']:.4f}", flush=True)
            workloads[workload] = {
                "summary": _summary(runs["parent"], runs["change"], metrics),
                "parent_runs": runs["parent"],
                "change_runs": runs["change"],
            }
    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "machine": _machine_text(machine),
        "pairs": ", ".join(f"{n} on {w}" for w, n in args.plan.items())
                 + f", alternating which side ran first; parent = commit {sha[:7]},"
                   " change = the working tree",
        "workloads": workloads,
    }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
