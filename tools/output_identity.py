"""Primary outputs of a parent commit against the working tree, file by file.

    python3 tools/output_identity.py --parent HEAD

Run from the root of a git checkout.  The parent commit's files are
exported as ``tools/bench_pairs.py`` exports them.  Every entry of
``MATRIX`` (a CLI command with its config) runs once with each tree's
``src`` on the path, each side in its own scratch directory and with the
same relative ``output_dir``.  Every primary output, that is every file
written except the ``run.log`` sidecar, is then compared byte for byte,
and so is each command's exit code.  For a JSON file that differs, the
keys found on one side only are named, with the largest numeric
difference over the keys both sides share.  For a CSV file that differs,
the header columns found on one side only are named, and the rows whose
shared columns differ are counted, so a dropped column reads as exactly
that.  Exits 1 on any difference, 0 when every primary output is
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _export

_OUT = "out"

_QUANTUM = {
    "version": "train-v1", "seed": 0, "family": "quantum", "n_qubits": 3, "n_layers": 1,
    "target": {"kind": "random_fourier", "kappa": 27, "split": 20, "r": 0.5,
               "target_seed": 3},
    "n_points": 60, "steps": 20, "learning_rate": 0.05,
}
_Q4_TARGET = {"kind": "random_fourier", "kappa": 81, "split": 64, "r": 0.05, "target_seed": 3}
_CLASSICAL = {
    "version": "train-v1", "seed": 1, "family": "classical", "degree": 13,
    "target": {"kind": "step"}, "n_points": 40, "steps": 20, "learning_rate": 0.1,
}
_PLATEAU = {"version": "plateau-v1", "seed": 5, "qubit_counts": [1, 2], "trials": 150}

# (name, command, config document, or the flags of a command that takes none)
MATRIX = [
    ("train-quantum-exact", "train", _QUANTUM),
    ("train-quantum-shots", "train", dict(_QUANTUM, shots=64, steps=5)),
    ("train-quantum-batch", "train", dict(_QUANTUM, batch_size=16)),
    ("train-quantum-recover", "train", dict(_QUANTUM, recover_coefficients=True)),
    ("train-quantum-rot", "train", dict(_QUANTUM, rotation_params=3)),
    ("train-quantum-sparse", "train",
     dict(_QUANTUM, n_qubits=2, encoding=[1, 7], recover_coefficients=True)),
    ("train-quantum-diverge", "train",
     dict(_QUANTUM, target={"kind": "step"}, n_points=40, steps=2, learning_rate=1.7e308)),
    # the benchmark's fit-q4 shape, on the diagonal engine, and 7 qubits on
    # 200 points, on the adjoint pass; both read <Z> over 8 or more
    # amplitudes per half
    ("train-quantum-q4", "train", dict(_QUANTUM, n_qubits=4, n_points=200, target=_Q4_TARGET)),
    ("train-quantum-q7-adjoint", "train",
     dict(_QUANTUM, n_qubits=7, n_points=200, steps=5, target=_Q4_TARGET)),
    ("train-classical-full", "train", _CLASSICAL),
    ("train-classical-leading", "train", dict(_CLASSICAL, dimension=9)),
    ("train-classical-batch-recover", "train",
     dict(_CLASSICAL, dimension=9, batch_size=8, recover_coefficients=True)),
    ("compare", "compare", {
        "version": "compare-v1", "seed": 2, "r_values": [0.5], "runs": 1, "kappa": 9,
        "split": 6, "n_points": 20, "steps": 10, "classical_dimension": 6, "n_qubits": 2,
    }),
    ("plateau-haar", "plateau", _PLATEAU),
    ("plateau-circuit", "plateau", dict(_PLATEAU, mode="circuit", n_layers=1)),
    ("resources", "resources", {
        "version": "resources-v1", "seed": 0, "K": 81, "M": 1, "eps": 0.5, "N_tp": 16,
        "gate_counts": [4, 100],
    }),
    ("bicone", "bicone", {"version": "bicone-v1", "seed": 4, "n_samples": 50,
                          "grid_points": 64}),
    ("spectrum-exp", "spectrum", ["--exp", "3"]),
    ("spectrum-weights", "spectrum", ["--weights", "1,7"]),
]


def run_matrix(src: Path, run_dir: Path, matrix) -> dict[str, int]:
    """Run every entry of ``matrix`` in ``run_dir`` with the package at ``src``.

    Entry ``name`` writes under ``run_dir / "out" / name``.  Returns the
    exit code of each entry.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    codes = {}
    for name, command, doc in matrix:
        out = Path(_OUT) / name
        if command == "spectrum":
            (run_dir / out).mkdir(parents=True)
            argv = [*doc, "--output", str(out / "spectrum.json")]
        else:
            config = run_dir / f"{name}.json"
            config.write_text(json.dumps(dict(doc, output_dir=str(out))), encoding="utf-8")
            argv = ["--config", config.name]
        proc = subprocess.run([sys.executable, "-m", "fourierqml.cli", command, *argv],
                              cwd=run_dir, env=env, capture_output=True, text=True,
                              timeout=600, check=False)
        codes[name] = proc.returncode
    return codes


def _leaves(value, path=""):
    """``(key path, value)`` of every scalar in a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_difference(parent_text: str, change_text: str) -> dict:
    """The keys of each side only, the largest numeric difference over
    shared keys, and the shared keys whose non-numeric values differ."""
    parent = dict(_leaves(json.loads(parent_text)))
    change = dict(_leaves(json.loads(change_text)))
    shared = parent.keys() & change.keys()
    numeric = [abs(parent[k] - change[k]) for k in shared
               if _is_number(parent[k]) and _is_number(change[k])]
    return {
        "only_parent": sorted(parent.keys() - change.keys()),
        "only_change": sorted(change.keys() - parent.keys()),
        "largest_numeric": max(numeric, default=0),
        "other": sorted(k for k in shared if parent[k] != change[k]
                        and not (_is_number(parent[k]) and _is_number(change[k]))),
    }


def csv_difference(parent_text: str, change_text: str) -> dict:
    """The header columns of each side only, and the number of rows whose
    shared columns differ, a row on one side only included."""
    tables = [list(csv.reader(io.StringIO(text))) for text in (parent_text, change_text)]
    headers = [rows[0] if rows else [] for rows in tables]
    shared = [name for name in headers[0] if name in headers[1]]

    def shared_cells(header, rows):
        return [[dict(zip(header, row)).get(name) for name in shared] for row in rows[1:]]

    parent, change = (shared_cells(header, rows) for header, rows in zip(headers, tables))
    return {
        "only_parent": [name for name in headers[0] if name not in headers[1]],
        "only_change": [name for name in headers[1] if name not in headers[0]],
        "rows_differing": (sum(a != b for a, b in zip(parent, change))
                           + abs(len(parent) - len(change))),
    }


def _names(keys: list[str]) -> str:
    shown = ", ".join(keys[:8]) or "none"
    return shown + (f" ... ({len(keys)} in all)" if len(keys) > 8 else "")


def compare_outputs(parent_dir: Path, change_dir: Path) -> tuple[int, list[str]]:
    """Compare every primary output under the two directories.

    Returns the number of files compared and one line per file that is
    not byte-identical.
    """
    files = sorted({p.relative_to(root).as_posix()
                    for root in (parent_dir, change_dir) for p in root.rglob("*")
                    if p.is_file() and p.name != "run.log"})
    lines = []
    for name in files:
        parent, change = parent_dir / name, change_dir / name
        if not (parent.exists() and change.exists()):
            lines.append(f"{name}: only in {'parent' if parent.exists() else 'change'}")
            continue
        old, new = parent.read_bytes(), change.read_bytes()
        if old == new:
            continue
        if name.endswith(".json"):
            diff = json_difference(old.decode(), new.decode())
            lines.append(
                f"{name}: differs; only in parent: {_names(diff['only_parent'])}; "
                f"only in change: {_names(diff['only_change'])}; largest numeric "
                f"difference {diff['largest_numeric']:.3g}; other values differing: "
                f"{_names(diff['other'])}")
        else:
            diff = csv_difference(old.decode(), new.decode())
            rows = diff["rows_differing"]
            lines.append(
                f"{name}: differs; columns only in parent: {_names(diff['only_parent'])}; "
                f"only in change: {_names(diff['only_change'])}; shared columns "
                + (f"differ in {rows} rows" if rows else "agree row for row"))
    return len(files), lines


def compare_trees(parent_src: Path, change_src: Path, work: Path, matrix=MATRIX) -> list[str]:
    """Run ``matrix`` with each tree's package under ``work``; return the
    report, whose last line says whether every primary output matched."""
    codes = {}
    for side, src in (("parent", parent_src), ("change", change_src)):
        (work / side).mkdir(parents=True)
        codes[side] = run_matrix(src, work / side, matrix)
    report = [f"{name}: exit code {codes['parent'][name]} in parent, "
              f"{codes['change'][name]} in change"
              for name, _, _ in matrix if codes["parent"][name] != codes["change"][name]]
    count, lines = compare_outputs(work / "parent" / _OUT, work / "change" / _OUT)
    report += lines
    if report:
        report.append(f"DIFFERENT: {len(lines)} of {count} primary outputs differ")
    else:
        report.append(f"IDENTICAL: all {count} primary outputs of {len(matrix)} "
                      "commands are byte-identical")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    args = parser.parse_args(argv)
    root = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="output-identity-") as tmp:
        tmp = Path(tmp)
        sha = _export(root, args.parent, tmp / "tree")
        print(f"parent {sha[:7]} against the working tree, {len(MATRIX)} commands")
        report = compare_trees(tmp / "tree" / "src", root / "src", tmp / "runs")
    print("\n".join(report))
    return 0 if report[-1].startswith("IDENTICAL") else 1


if __name__ == "__main__":
    sys.exit(main())
