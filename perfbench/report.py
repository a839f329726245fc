"""Run every workload, each in a fresh process, and print every metric by name.

    python3 perfbench/report.py --seed 1 --seconds 20            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --seconds 20 --trace 1  # per-layer metrics

Run from the root of a source checkout.  Exits 1 if any workload reports
an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the machine/detail line of one run of ``run.py``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: run.py exited with {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOAD_NAMES:
        result, info = run_workload(name, args.seed, args.seconds, args.trace)
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} detail={json.dumps(info['detail'])}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"machine: {json.dumps(info['machine'])}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
