"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py --seed 1 --seconds 1

Run from the root of a source checkout.  For every workload it makes two
traced runs with the same seed and checks that

* the exact counts (calls, amplitudes, computed bytes, Haar entries,
  circuit evaluations and the largest batch) are identical in both;
* on the fit workloads the circuit evaluations derived from call
  arguments equal the ones the package reports in its resource counters;
* the layer shares keep the order of the traced baseline:
  ``values_and_jacobian`` dominant on the quantum fits with
  ``apply_ry`` > ``apply_rz`` > ``apply_cnot``, and ``haar_unitary``
  dominant on ``plateau-haar``.

Every mismatch is printed; the exit code is 1 if there was any.
"""

from __future__ import annotations

import argparse
import sys

from report import run_workload
from run import WORKLOAD_NAMES

EXACT = (
    "statevector.amp_updates",
    "statevector.kernel_bytes_computed",
    "statevector.haar_entries",
    "qfflm.circuit_evals",
    "qfflm.circuit_evals_reported",
    "qfflm.batch_mb_max",
)
QUANTUM_FITS = ("fit-q4", "fit-serial6")


def _checks(name: str, first: dict, second: dict) -> list[str]:
    problems = []
    for metric in EXACT + tuple(m for m in first if m.endswith(".calls")):
        if first[metric] != second[metric]:
            problems.append(f"{metric} differs between runs: {first[metric]} vs {second[metric]}")
    if name.startswith("fit-") and first["qfflm.circuit_evals"] != first["qfflm.circuit_evals_reported"]:
        problems.append(f"derived circuit evaluations {first['qfflm.circuit_evals']} != "
                        f"reported {first['qfflm.circuit_evals_reported']}")
    if name in QUANTUM_FITS:
        if not first["qfflm.values_and_jacobian.s"] > 0.5 * first["trainer.train_q.s"]:
            problems.append("values_and_jacobian is not the dominant layer")
        ry, rz, cnot = (first[f"statevector.{k}.s"] for k in ("apply_ry", "apply_rz", "apply_cnot"))
        if not ry > rz > cnot:
            problems.append(f"kernel order apply_ry {ry:.3g} > apply_rz {rz:.3g} > "
                            f"apply_cnot {cnot:.3g} does not hold")
    if name == "plateau-haar" and not (
        first["statevector.haar_unitary.s"] > 0.5 * first["analysis.plateau_stats.s"]
    ):
        problems.append("haar_unitary is not the dominant layer")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    failures = 0
    for name in WORKLOAD_NAMES:
        runs = [run_workload(name, args.seed, args.seconds, trace=1)[0] for _ in range(2)]
        values = [{k: v["value"] for k, v in r["metrics"].items()} for r in runs]
        problems = _checks(name, *values)
        if not all(r["correct"] for r in runs):
            problems.append("a traced run reported incorrect output")
        failures += len(problems)
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
