"""Command-line front end: reproducible experiments from JSON configs.

One-shot queries (``spectrum``) take flags; experiments (``train``,
``compare``, ``plateau``, ``resources``, ``bicone``) take a ``--config``
JSON document with a top-level ``{version, seed, output_dir}``, validated
strictly against a schema (unknown fields, ``NaN``, ``Infinity`` and
floats such as ``2.0`` in integer fields are rejected), then passed by
name to the library call it configures, whose signature holds the
defaults.  The output directory, with the config archived next to the
results, is created once a run has finished or diverged.

Primary outputs (JSON/CSV) are byte-identical across reruns of the same
config: floats are written with 17 significant digits and wall-clock
times go to the ``run.log`` sidecar only.

Exit codes: 0 success, 2 usage or config error (a value the library
rejects included), 3 divergence during training (partial trace still
written), 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, trainer
from .cfflm import ClassicalModel, FeatureMap, leading_feature_projection
from .errors import CapacityError, ConfigError, TrainingError, closed_schema, load_document
from .qfflm import AnsatzSpec, Parallel
from .rng import make_rng
from .spectra import (
    EncodingSpec,
    exponential_weights,
    naive_weights,
    spectrum,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DIVERGED = 3
_EXIT_CAPACITY = 4


def _base_schema(version: str, extra: dict, required: list[str]) -> dict:
    return closed_schema({
        "version": {"const": version},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string", "minLength": 1},
        **extra,
    }, ["version", "seed", "output_dir"] + required)


_POSITIVE_INT = {"type": "integer", "minimum": 1}
_WEIGHTS = {"type": "array", "items": _POSITIVE_INT, "minItems": 1}

_TRAIN_SCHEMA = _base_schema(
    "train-v1",
    {
        "family": {"enum": ["quantum", "classical"]},
        "n_qubits": _POSITIVE_INT,
        "n_layers": {"type": "integer", "minimum": 0},
        "encoding": {
            "oneOf": [{"enum": ["exponential", "naive"]}, _WEIGHTS]
        },
        "rotation_params": {"enum": [2, 3]},
        "degree": _POSITIVE_INT,
        "dimension": _POSITIVE_INT,
        "target": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["step", "random_fourier", "coefficients"]},
                "kappa": _POSITIVE_INT,
                "split": _POSITIVE_INT,
                "r": {"type": "number", "exclusiveMinimum": 0},
                "target_seed": {"type": "integer", "minimum": 0},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
        },
        "n_points": {"type": "integer", "minimum": 2},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "steps": _POSITIVE_INT,
        "batch_size": _POSITIVE_INT,
        "shots": _POSITIVE_INT,
        "recover_coefficients": {"type": "boolean"},
    },
    ["family", "target"],
)

_COMPARE_SCHEMA = _base_schema(
    "compare-v1",
    {
        "r_values": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                     "minItems": 1},
        "runs": _POSITIVE_INT,
        "kappa": _POSITIVE_INT,
        "split": _POSITIVE_INT,
        "n_points": {"type": "integer", "minimum": 2},
        "steps": _POSITIVE_INT,
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "classical_dimension": _POSITIVE_INT,
        "n_qubits": _POSITIVE_INT,
        "n_layers": _POSITIVE_INT,
    },
    ["r_values", "runs"],
)

_PLATEAU_SCHEMA = _base_schema(
    "plateau-v1",
    {
        "qubit_counts": {"type": "array", "items": _POSITIVE_INT, "minItems": 1},
        "trials": {"type": "integer", "minimum": 100},
        "mode": {"enum": ["haar", "circuit"]},
        "grad_case": {"enum": ["I", "II", "III"]},
        "n_variables": _POSITIVE_INT,
        "n_layers": _POSITIVE_INT,
    },
    ["qubit_counts", "trials"],
)

_RESOURCES_SCHEMA = _base_schema(
    "resources-v1",
    {
        "K": _POSITIVE_INT,
        "M": _POSITIVE_INT,
        "eps": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "N_tp": {"type": "integer", "minimum": 0},
        "gate_counts": {"type": "array", "items": _POSITIVE_INT, "minItems": 1},
    },
    ["K", "M", "eps", "N_tp", "gate_counts"],
)

_BICONE_SCHEMA = _base_schema(
    "bicone-v1",
    {
        "n_samples": _POSITIVE_INT,
        "grid_points": {"type": "integer", "minimum": 8},
        "box": {"type": "number", "exclusiveMinimum": 0},
    },
    ["n_samples", "grid_points"],
)


def _load_config(path: str, schema: dict) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return load_document(text, schema, f"config {path}")


def _library_fields(config: dict) -> dict:
    """Config fields other than the run envelope, named like library parameters."""
    return {k: v for k, v in config.items() if k not in ("version", "seed", "output_dir")}


def _prepare_output_dir(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _log(out: Path, message: str) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(out / "run.log", "a", encoding="utf-8") as handle:
        handle.write(f"{stamp} {message}\n")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _record_doc(record: trainer.ResultRecord) -> dict:
    doc = record.to_dict()
    del doc["wall_ms"]  # wall time goes to the sidecar log only
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    if (args.weights is None) == (args.exp is None):
        print("spectrum: pass exactly one of --weights or --exp", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        if args.exp is not None:
            enc = exponential_weights(args.exp)
        else:
            parts = [int(w) for w in args.weights.split(",")]
            enc = EncodingSpec(weights=tuple(parts))
    except (ValueError, TypeError) as exc:
        print(f"spectrum: invalid weights: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    spec = spectrum(enc)
    doc = {
        "weights": list(enc.weights),
        "distinct_count": spec.distinct_count,
        "d_f": spec.d_f,
        "feature_dimension": spec.feature_dimension,
        "dense": spec.is_dense,
        "maximally_nondegenerate": spec.is_nondegenerate,
        "support": [int(v) for v in spec.support],
        "multiplicity": [int(v) for v in spec.multiplicity],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _build_train_pieces(config: dict):
    target_cfg = config["target"]
    kind = target_cfg["kind"]
    if kind == "step":
        target = trainer.StepTarget()
    elif kind == "random_fourier":
        for field in ("kappa", "split", "r", "target_seed"):
            if field not in target_cfg:
                raise ConfigError(f"random_fourier target needs {field!r}")
        target = trainer.make_random_fourier_target(
            target_cfg["kappa"], target_cfg["split"], target_cfg["r"],
            seed=target_cfg["target_seed"],
        )
    else:
        if "values" not in target_cfg:
            raise ConfigError("coefficients target needs 'values'")
        target = trainer.FourierTarget(
            coefficients=np.asarray(target_cfg["values"], dtype=np.float64)
        )
    data = trainer.make_grid_dataset(target, config.get("n_points", 200))

    cfg = trainer.TrainConfig(
        **{f.name: config[f.name] for f in dataclasses.fields(trainer.TrainConfig)
           if f.name in config}
    )

    if config["family"] == "quantum":
        n_qubits = config.get("n_qubits", 4)
        encoding = config.get("encoding", "exponential")
        if encoding == "exponential":
            enc = exponential_weights(n_qubits)
        elif encoding == "naive":
            enc = naive_weights(n_qubits)
        else:
            enc = EncodingSpec(weights=tuple(int(w) for w in encoding))
        model = AnsatzSpec(
            n_variables=1, n_qubits=n_qubits,
            n_layers=config.get("n_layers", 1), topology=Parallel(),
            encoding=enc, rotation_params=config.get("rotation_params", 2),
        )
        return model, data, cfg, None
    degree = config.get("degree", 40)
    fm = FeatureMap(n_variables=1, degrees=(degree,))
    dimension = config.get("dimension")
    projection = None if dimension is None else leading_feature_projection(fm, dimension)
    size = fm.dimension if dimension is None else dimension
    model = ClassicalModel(coefficients=np.zeros(size), projection=projection)
    return model, data, cfg, fm


def _cmd_train(config: dict) -> int:
    model, data, cfg, fm = _build_train_pieces(config)
    started = time.perf_counter()
    try:
        record = trainer.train(model, data, cfg, feature_map=fm)
    except TrainingError as exc:
        out = _prepare_output_dir(config)
        if exc.record is not None:
            _write_json(out / "result.json", _record_doc(exc.record))
            (out / "trace.csv").write_text(exc.record.trace_csv(), encoding="utf-8")
        _log(out, f"diverged after {time.perf_counter() - started:.3f}s: {exc}")
        print(f"train: {exc} (partial results in {out})", file=sys.stderr)
        return _EXIT_DIVERGED
    out = _prepare_output_dir(config)
    _write_json(out / "result.json", _record_doc(record))
    (out / "trace.csv").write_text(record.trace_csv(), encoding="utf-8")
    _log(out, f"train finished in {record.wall_ms:.0f} ms, "
              f"final loss {record.final_loss:.6g}")
    return _EXIT_OK


def _cmd_compare(config: dict) -> int:
    started = time.perf_counter()
    result = trainer.run_expressivity_comparison(
        base_seed=config["seed"], **_library_fields(config)
    )
    out = _prepare_output_dir(config)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["r", "model", "run", "step", "loss"])
    for ri, r in enumerate(result.r_values):
        for family, rows in (("qfflm", result.quantum), ("cfflm", result.classical)):
            for run in range(result.runs):
                for step, loss in enumerate(rows[ri][run].loss_trace):
                    writer.writerow([_fmt(r), family, run, step, _fmt(loss)])
    (out / "losses.csv").write_text(buffer.getvalue(), encoding="utf-8")
    summary = {"r_values": result.r_values, "runs": result.runs, "per_r": []}
    for ri, r in enumerate(result.r_values):
        quantum = result.final_losses("quantum")[ri]
        classical = result.final_losses("classical")[ri]
        summary["per_r"].append({
            "r": r,
            "qfflm_final": [float(v) for v in quantum],
            "cfflm_final": [float(v) for v in classical],
            "qfflm_saturated_mean": float(quantum.mean()),
            "cfflm_saturated_mean": float(classical.mean()),
        })
    _write_json(out / "summary.json", summary)
    _log(out, f"compare finished in {time.perf_counter() - started:.1f}s")
    return _EXIT_OK


def _cmd_plateau(config: dict) -> int:
    started = time.perf_counter()
    reports, fit = analysis.plateau_sweep(
        rng=make_rng(config["seed"]), **_library_fields(config)
    )
    out = _prepare_output_dir(config)
    (out / "plateau.csv").write_text(analysis.plateau_csv(reports), encoding="utf-8")
    _write_json(out / "plateau.json", {
        "reports": [r.to_dict() for r in reports],
        "fit": {"slope": fit.slope, "intercept": fit.intercept, "alpha": fit.alpha},
    })
    _log(out, f"plateau finished in {time.perf_counter() - started:.1f}s")
    return _EXIT_OK


def _cmd_resources(config: dict) -> int:
    rows = [
        analysis.resource_report(
            N_gt=n_gt, N_tp=config["N_tp"], K=config["K"], M=config["M"],
            eps=config["eps"],
        )
        for n_gt in config["gate_counts"]
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["N_gt", "resrc_q", "resrc_c", "advantage", "crossing_eps",
                     "log_margin"])
    for report in rows:
        margin = analysis.advantage_criterion(
            report.N_gt, report.eps, report.K, report.M
        ).log_margin
        writer.writerow([
            report.N_gt, report.resrc_q, report.resrc_c,
            int(report.advantage), _fmt(report.crossing_eps), _fmt(margin),
        ])
    out = _prepare_output_dir(config)
    (out / "resources.csv").write_text(buffer.getvalue(), encoding="utf-8")
    _write_json(out / "resources.json", {"reports": [r.to_dict() for r in rows]})
    return _EXIT_OK


def _cmd_bicone(config: dict) -> int:
    rng = make_rng(config["seed"])
    fm = FeatureMap(n_variables=1, degrees=(1,))
    box = config.get("box", 1.5)
    samples = rng.uniform(-box, box, (config["n_samples"], 3))
    disagreements = []
    agree = 0
    for c in samples:
        analytic = analysis.bicone_contains(c)
        numeric = analysis.numerical_membership(c, fm, config["grid_points"]).member
        if analytic == numeric:
            agree += 1
        else:
            margin = abs(c[0]) + np.sqrt(2 * (c[1] ** 2 + c[2] ** 2)) - 1.0
            disagreements.append((c, margin, analytic, numeric))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["c1", "c2", "c3", "boundary_margin", "analytic", "numeric"])
    for c, margin, analytic, numeric in disagreements:
        writer.writerow([_fmt(c[0]), _fmt(c[1]), _fmt(c[2]), _fmt(margin),
                         int(analytic), int(numeric)])
    out = _prepare_output_dir(config)
    (out / "disagreements.csv").write_text(buffer.getvalue(), encoding="utf-8")
    _write_json(out / "summary.json", {
        "n_samples": config["n_samples"],
        "agreements": agree,
        "agreement_rate": agree / config["n_samples"],
        "max_disagreement_margin": max((abs(m) for _, m, _, _ in disagreements),
                                       default=0.0),
    })
    return _EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_CONFIG_COMMANDS = {
    "train": (_TRAIN_SCHEMA, _cmd_train),
    "compare": (_COMPARE_SCHEMA, _cmd_compare),
    "plateau": (_PLATEAU_SCHEMA, _cmd_plateau),
    "resources": (_RESOURCES_SCHEMA, _cmd_resources),
    "bicone": (_BICONE_SCHEMA, _cmd_bicone),
}


def _describe_field(schema: dict) -> str:
    """One-line human summary of a JSON-schema fragment."""
    if "const" in schema:
        return json.dumps(schema["const"])
    if "enum" in schema:
        return " | ".join(json.dumps(v) for v in schema["enum"])
    if "oneOf" in schema:
        return " or ".join(_describe_field(s) for s in schema["oneOf"])
    kind = schema.get("type", "value")
    if kind == "array":
        return f"array of {_describe_field(schema['items'])}"
    if kind == "object":
        required = schema.get("required", [])
        inner = ", ".join(
            ("*" if key in required else "") + key
            for key in schema.get("properties", {})
        )
        return f"object {{{inner}}}"
    bounds = []
    if "minimum" in schema:
        bounds.append(f">= {schema['minimum']}")
    if "exclusiveMinimum" in schema:
        bounds.append(f"> {schema['exclusiveMinimum']}")
    if "maximum" in schema:
        bounds.append(f"<= {schema['maximum']}")
    if "minLength" in schema:
        bounds.append("non-empty")
    return kind + (f" ({', '.join(bounds)})" if bounds else "")


def _schema_epilog(schema: dict) -> str:
    """Render every config field for the subcommand's ``--help``."""
    required = set(schema["required"])
    lines = ["config fields (* = required, unknown fields rejected):"]
    for name, field_schema in schema["properties"].items():
        marker = "*" if name in required else " "
        lines.append(f"  {marker} {name:<21} {_describe_field(field_schema)}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourier-qml",
        description="Train and analyze Fourier-featured quantum/classical models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum_parser = sub.add_parser(
        "spectrum", help="frequency spectrum of an encoding weight list"
    )
    spectrum_parser.add_argument(
        "--weights", help="comma-separated positive integer weights, e.g. 1,3,9"
    )
    spectrum_parser.add_argument(
        "--exp", type=int, metavar="N", help="exponential weights 3^0..3^(N-1)"
    )
    spectrum_parser.add_argument("--output", help="write JSON here instead of stdout")

    help_text = {
        "train": "train one model on one target (train-v1 config)",
        "compare": "paired quantum/classical ratio experiment (compare-v1 config)",
        "plateau": "Monte-Carlo gradient concentration sweep (plateau-v1 config)",
        "resources": "operation-count comparison table (resources-v1 config)",
        "bicone": "analytic vs grid membership agreement (bicone-v1 config)",
    }
    for name, (schema, _) in _CONFIG_COMMANDS.items():
        cmd_parser = sub.add_parser(
            name,
            help=help_text[name],
            epilog=_schema_epilog(schema),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        cmd_parser.add_argument("--config", required=True, help="path to JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        schema, runner = _CONFIG_COMMANDS[args.command]
        return runner(_load_config(args.config, schema))
    except ValueError as exc:  # ConfigError, or a value the library rejects
        print(f"{args.command}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except CapacityError as exc:
        print(f"{args.command}: capacity exceeded: {exc}", file=sys.stderr)
        return _EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
