"""Command-line front end: reproducible experiments from JSON configs.

One-shot queries (``spectrum``) take flags; experiments (``train``,
``compare``, ``plateau``, ``resources``, ``bicone``) take a ``--config``
JSON document with a top-level ``{version, seed, output_dir}``, validated
strictly against a schema (unknown fields, fields the model family or
target kind does not read, ``NaN``, ``Infinity`` and floats such as
``2.0`` in integer fields are rejected), then passed by
name to the library call it configures, whose signature holds the
defaults.  Each experiment returns its primary outputs, and ``main``
writes them: the output directory, with the config archived next to the
results and one line appended to the ``run.log`` sidecar, is created
once a run has finished or diverged.  Before the run, ``main`` checks
that the directory could be created, and creates nothing.

Primary outputs (JSON/CSV) are byte-identical across reruns of the same
config: floats are written with 17 significant digits and wall-clock
times go to the ``run.log`` sidecar only.  Only this module turns results
into text, every JSON file through ``_json`` and every CSV file through
``_csv``.  The non-finite floats a diverged run can hold are written as
the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"`` in JSON, which
has no number for them, and as ``nan``/``inf`` in CSV.

Exit codes: 0 success, 2 usage or config error (a value the library
rejects and an output that cannot be written included), 3 divergence
during training (a diverged ``train`` still writes its partial trace),
4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import analysis, trainer
from .cfflm import ClassicalModel, FeatureMap
from .errors import (
    CapacityError,
    ConfigError,
    TrainingError,
    closed_schema,
    load_document,
    tagged_union,
    union_variants,
)
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

# fields of one target kind, all required
_TARGET_KINDS = {
    "step": ("kind",),
    "random_fourier": ("kind", "kappa", "split", "r", "target_seed"),
    "coefficients": ("kind", "values"),
}
# fields only one model family reads
_FAMILY_ONLY = {
    "quantum": ("n_qubits", "n_layers", "encoding", "rotation_params"),
    "classical": ("degree", "dimension"),
}

_TRAIN_SCHEMA = _base_schema(
    "train-v1",
    {
        "family": {"enum": list(_FAMILY_ONLY)},
        "n_qubits": _POSITIVE_INT,
        "n_layers": {"type": "integer", "minimum": 0},
        "encoding": {
            "oneOf": [{"enum": ["exponential", "naive"]}, _WEIGHTS]
        },
        "rotation_params": {"enum": [2, 3]},
        "degree": _POSITIVE_INT,
        "dimension": _POSITIVE_INT,
        "target": {
            **closed_schema({
                "kind": {"enum": list(_TARGET_KINDS)},
                "kappa": _POSITIVE_INT,
                "split": _POSITIVE_INT,
                "r": {"type": "number", "exclusiveMinimum": 0},
                "target_seed": {"type": "integer", "minimum": 0},
                "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            }, ["kind"]),
            **tagged_union("kind", {kind: closed_schema(dict.fromkeys(names, True))
                                    for kind, names in _TARGET_KINDS.items()}),
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
_TRAIN_SCHEMA.update(tagged_union("family", {
    family: closed_schema({name: True for name in _TRAIN_SCHEMA["properties"]
                           if name not in _FAMILY_ONLY[other]}, [])
    for family, other in (("quantum", "classical"), ("classical", "quantum"))
}))

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


def _plain(value):
    """``value`` with numpy arrays as lists and every non-finite float, for
    which JSON has no number, as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, np.ndarray):
        return value.tolist() if np.isfinite(value).all() else _plain(value.tolist())
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def _json(doc) -> str:
    """Strict JSON text of ``doc`` (see ``_plain``)."""
    return json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv(header: list[str], rows) -> str:
    """CSV text with every float cell written to 17 significant digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buffer.getvalue()


def _check_output_dir(out: Path) -> None:
    """Raise ``OSError`` unless the nearest existing ancestor of ``out``
    (``out`` itself when it exists) is a writable directory."""
    ancestor = out
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        raise OSError(f"{ancestor} is not a writable directory, so {out} cannot be created")


def _write_outputs(config: dict, files: dict[str, str], started: float, message: str) -> Path:
    """Create the output directory, archive the config next to ``files``, and
    append ``message`` with the time since ``started`` to the ``run.log`` sidecar."""
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {"config.json": _json(config), **files}.items():
        (out / name).write_text(text, encoding="utf-8")
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(out / "run.log", "a", encoding="utf-8") as handle:
        handle.write(f"{stamp} {message} ({time.perf_counter() - started:.3f} s)\n")
    return out


# ---------------------------------------------------------------------------
# subcommands: a config command returns its primary outputs as
# {filename: text} and a note for the run.log line; ``main`` writes them
# ---------------------------------------------------------------------------

_Outputs = tuple[dict[str, str], str]


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
    text = _json({
        "weights": list(enc.weights),
        "distinct_count": spec.distinct_count,
        "d_f": spec.d_f,
        "feature_dimension": spec.feature_dimension,
        "dense": spec.is_dense,
        "maximally_nondegenerate": spec.is_nondegenerate,
        "support": spec.support,
        "multiplicity": spec.multiplicity,
    })
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
        target = trainer.make_random_fourier_target(
            target_cfg["kappa"], target_cfg["split"], target_cfg["r"],
            seed=target_cfg["target_seed"],
        )
    else:
        target = trainer.FourierTarget(coefficients=target_cfg["values"])
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
        return model, data, cfg
    fm = FeatureMap(n_variables=1, degrees=(config.get("degree", 40),))
    return ClassicalModel(np.zeros(config.get("dimension", fm.dimension)), fm), data, cfg


def _train_files(record: trainer.ResultRecord) -> dict[str, str]:
    return {"result.json": _json(dataclasses.asdict(record)),
            "trace.csv": _csv(["step", "train_loss"], enumerate(record.loss_trace.tolist()))}


def _cmd_train(config: dict) -> _Outputs:
    model, data, cfg = _build_train_pieces(config)
    try:
        record = trainer.train(model, data, cfg)
    except TrainingError as exc:
        exc.files = {} if exc.record is None else _train_files(exc.record)
        raise
    return _train_files(record), f", final loss {record.final_loss:.6g}"


def _cmd_compare(config: dict) -> _Outputs:
    result = trainer.run_expressivity_comparison(
        base_seed=config["seed"], **_library_fields(config)
    )
    losses = (
        [r, family, run, step, loss]
        for ri, r in enumerate(result.r_values)
        for family, rows in (("qfflm", result.quantum), ("cfflm", result.classical))
        for run in range(result.runs)
        for step, loss in enumerate(rows[ri][run].loss_trace)
    )
    per_r = [
        {"r": r, "qfflm_final": q, "cfflm_final": c,
         "qfflm_saturated_mean": float(q.mean()), "cfflm_saturated_mean": float(c.mean())}
        for r, q, c in zip(result.r_values, result.final_losses("quantum"),
                           result.final_losses("classical"))
    ]
    return {
        "losses.csv": _csv(["r", "model", "run", "step", "loss"], losses),
        "summary.json": _json({"r_values": result.r_values, "runs": result.runs,
                               "per_r": per_r}),
    }, ""


def _cmd_plateau(config: dict) -> _Outputs:
    reports, fit = analysis.plateau_sweep(
        rng=make_rng(config["seed"]), **_library_fields(config)
    )
    rows = ([r.d, r.trials, r.mean_f, r.se_mean_f, r.var_f, r.predicted_mean_sq_f,
             r.zscore_mean_sq_f] for r in reports)
    return {
        "plateau.csv": _csv(["d", "trials", "mean_f", "se_mean_f", "var_f", "predicted",
                             "zscore"], rows),
        "plateau.json": _json({"reports": [dataclasses.asdict(r) for r in reports],
                               "fit": fit._asdict()}),
    }, ""


def _cmd_resources(config: dict) -> _Outputs:
    reports = [
        analysis.resource_report(
            N_gt=n_gt, N_tp=config["N_tp"], K=config["K"], M=config["M"],
            eps=config["eps"],
        )
        for n_gt in config["gate_counts"]
    ]
    rows = (
        [r.N_gt, r.resrc_q, r.resrc_c, int(r.advantage), r.crossing_eps,
         analysis.advantage_criterion(r.N_gt, r.eps, r.K, r.M).log_margin]
        for r in reports
    )
    return {
        "resources.csv": _csv(["N_gt", "resrc_q", "resrc_c", "advantage", "crossing_eps",
                               "log_margin"], rows),
        "resources.json": _json({"reports": [dataclasses.asdict(r) for r in reports]}),
    }, ""


def _cmd_bicone(config: dict) -> _Outputs:
    rng = make_rng(config["seed"])
    fm = FeatureMap(n_variables=1, degrees=(1,))
    box = config.get("box", 1.5)
    n_samples = config["n_samples"]
    disagreements = []
    for c in rng.uniform(-box, box, (n_samples, 3)):
        analytic = analysis.bicone_contains(c)
        numeric = analysis.numerical_membership(c, fm, config["grid_points"]).member
        if analytic != numeric:
            margin = analysis.bicone_radius(c) - 1.0
            disagreements.append([*c, margin, int(analytic), int(numeric)])
    agree = n_samples - len(disagreements)
    return {
        "disagreements.csv": _csv(["c1", "c2", "c3", "boundary_margin", "analytic",
                                   "numeric"], disagreements),
        "summary.json": _json({
            "n_samples": n_samples,
            "agreements": agree,
            "agreement_rate": agree / n_samples,
            "max_disagreement_margin": max((abs(row[3]) for row in disagreements),
                                           default=0.0),
        }),
    }, ""


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
    """Render every config field for the subcommand's ``--help``, with the
    tag values a field belongs to when a tagged union limits it, and one
    line per variant of a tagged-union object field."""
    required = set(schema["required"])
    variants = union_variants(schema)
    lines = ["config fields (* = required, unknown fields rejected):"]
    for name, field_schema in schema["properties"].items():
        marker = "*" if name in required else " "
        scope = [value for _, value, variant in variants if name in variant["properties"]]
        only = f" ({', '.join(scope)} only)" if len(scope) < len(variants) else ""
        lines.append(f"  {marker} {name:<21} {_describe_field(field_schema)}{only}")
        for tag, value, variant in union_variants(field_schema):
            inner = ", ".join(("*" if key in variant["required"] else "") + key
                              for key in variant["properties"] if key != tag)
            lines.append(f"{'':<28}{tag} {json.dumps(value)}: {inner or 'no other field'}")
    return "\n".join(lines)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by every later one."""
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
        config = _load_config(args.config, schema)
        _check_output_dir(Path(config["output_dir"]))
        started = time.perf_counter()
        try:
            files, note = runner(config)
        except TrainingError as exc:
            out = _write_outputs(config, getattr(exc, "files", {}), started,
                                 f"{args.command} diverged: {exc}")
            print(f"{args.command}: {exc} (partial results in {out})", file=sys.stderr)
            return _EXIT_DIVERGED
        _write_outputs(config, files, started, f"{args.command} finished{note}")
        return _EXIT_OK
    except ValueError as exc:  # ConfigError, or a value the library rejects
        print(f"{args.command}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except CapacityError as exc:
        print(f"{args.command}: capacity exceeded: {exc}", file=sys.stderr)
        return _EXIT_CAPACITY
    except OSError as exc:  # a config that cannot be read is a ConfigError
        print(f"{args.command}: cannot write outputs: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
