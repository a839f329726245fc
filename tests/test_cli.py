"""Command-line interface: schemas, outputs, exit codes, determinism."""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from fourierqml import analysis, spectra, trainer
from fourierqml.cli import _CONFIG_COMMANDS, main
from fourierqml.errors import TrainingError, load_document


def reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def record_plateau_samples(monkeypatch):
    """Wrap ``analysis.plateau_stats``; return the list of sizes it samples."""
    sampled = []
    original = analysis.plateau_stats

    def recording(n_variables, n_qubits, *args, **kwargs):
        sampled.append(n_qubits)
        return original(n_variables, n_qubits, *args, **kwargs)

    monkeypatch.setattr(analysis, "plateau_stats", recording)
    return sampled


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def quantum_train_config(out_dir, **overrides):
    doc = {
        "version": "train-v1",
        "seed": 0,
        "output_dir": str(out_dir),
        "family": "quantum",
        "n_qubits": 2,
        "n_layers": 1,
        "target": {"kind": "random_fourier", "kappa": 9, "split": 6, "r": 1.0,
                   "target_seed": 3},
        "n_points": 20,
        "steps": 5,
    }
    doc.update(overrides)
    return doc


def classical_train_config(out_dir, **overrides):
    doc = {
        "version": "train-v1",
        "seed": 0,
        "output_dir": str(out_dir),
        "family": "classical",
        "degree": 3,
        "target": {"kind": "step"},
        "n_points": 20,
        "steps": 5,
    }
    doc.update(overrides)
    return doc


SPECTRUM_1_2 = """{
  "d_f": 3,
  "dense": true,
  "distinct_count": 7,
  "feature_dimension": 7,
  "maximally_nondegenerate": false,
  "multiplicity": [
    1,
    1,
    2,
    1,
    2,
    1,
    1
  ],
  "support": [
    -3,
    -2,
    -1,
    0,
    1,
    2,
    3
  ],
  "weights": [
    1,
    2
  ]
}
"""


class TestSpectrumCommand:
    def test_exponential(self, capsys):
        assert main(["spectrum", "--exp", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_f"] == 13
        assert doc["distinct_count"] == 27
        assert doc["dense"] and doc["maximally_nondegenerate"]

    def test_naive_weights(self, capsys):
        assert main(["spectrum", "--weights", "1,1,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distinct_count"] == 7

    def test_invalid_weight(self, capsys):
        assert main(["spectrum", "--weights", "0,1"]) == 2
        assert "invalid weights" in capsys.readouterr().err

    def test_flag_exclusivity(self, capsys):
        assert main(["spectrum"]) == 2
        assert main(["spectrum", "--weights", "1", "--exp", "2"]) == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "spectrum.json"
        assert main(["spectrum", "--exp", "2", "--output", str(target)]) == 0
        assert json.loads(target.read_text())["distinct_count"] == 9

    def test_oversized_spectrum_capacity(self, capsys):
        # 3^20 frequencies would be built one dict entry each
        assert main(["spectrum", "--exp", "20"]) == 4
        assert "capacity exceeded" in capsys.readouterr().err

    def test_multiplicity_overflow_capacity(self, capsys):
        # 45 equal weights: the central multiplicity exceeds int64
        assert main(["spectrum", "--weights", ",".join(["1"] * 45)]) == 4
        err = capsys.readouterr().err
        assert "capacity exceeded" in err and "63-bit" in err

    def test_nondegeneracy_read_from_spectrum(self, capsys):
        # 14 equal weights fail the prefix inequality; the 29-frequency
        # spectrum the command already holds decides it
        assert main(["spectrum", "--weights", ",".join(["1"] * 14)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distinct_count"] == 29 and doc["maximally_nondegenerate"] is False
        # (2, 3) fails the inequality yet has all nine sums distinct
        for argv in (["--exp", "4"], ["--weights", "2,3"]):
            assert main(["spectrum", *argv]) == 0
            assert json.loads(capsys.readouterr().out)["maximally_nondegenerate"] is True

    def test_output_bytes(self, capsys):
        assert main(["spectrum", "--weights", "1,2"]) == 0
        assert capsys.readouterr().out == SPECTRUM_1_2

    def test_spectrum_enumerated_once(self, monkeypatch, capsys):
        runs = []
        recurrence = spectra._recurrence

        def counted(weights):
            runs.append(weights)
            return recurrence(weights)

        monkeypatch.setattr(spectra, "_recurrence", counted)
        assert main(["spectrum", "--exp", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["dense"]
        assert runs == [(1, 3, 9)]


class TestTrainCommand:
    def test_quantum_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(out))
        assert main(["train", "--config", config]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["loss_trace"]) == 6
        assert "wall_ms" not in result
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "step,train_loss,test_loss"
        assert len(trace) == 7
        assert (out / "config.json").exists()
        assert (out / "run.log").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(out))
        assert main(["train", "--config", config]) == 0
        first = ((out / "result.json").read_bytes(), (out / "trace.csv").read_bytes())
        assert main(["train", "--config", config]) == 0
        second = ((out / "result.json").read_bytes(), (out / "trace.csv").read_bytes())
        assert first == second

    def test_classical_projected_run(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {
            "version": "train-v1", "seed": 1, "output_dir": str(out),
            "family": "classical", "degree": 4, "dimension": 6,
            "target": {"kind": "step"}, "n_points": 30, "steps": 10,
            "learning_rate": 0.1,
        })
        assert main(["train", "--config", config]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["resource_counters"]["parameter_dimension"] == 6

    def test_sparse_spectrum_recovery(self, tmp_path):
        """Weights (1, 7) leave gaps in the spectrum; the coefficients are
        read on the enclosing lattice of degree 8."""
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(
            out, encoding=[1, 7], recover_coefficients=True))
        assert main(["train", "--config", config]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["recovered_coefficients"]) == 17

    def test_recovery_from_fewer_points_than_coefficients(self, tmp_path):
        """Recovery reads the model on its own lattice: 50 training points
        yield all 81 coefficients of a 4-qubit exponential model."""
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(
            out, n_qubits=4, n_points=50, recover_coefficients=True))
        assert main(["train", "--config", config]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["recovered_coefficients"]) == 81
        assert "seed" not in result and result["config"]["seed"] == 0

    def test_divergence_exit_code_and_partial_trace(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {
            "version": "train-v1", "seed": 0, "output_dir": str(out),
            "family": "classical", "degree": 3,
            "target": {"kind": "step"}, "n_points": 20, "steps": 50,
            "learning_rate": 1e8,
        })
        assert main(["train", "--config", config]) == 3
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["aborted"] == "divergence"
        assert (out / "trace.csv").exists()

    def test_divergence_without_a_record(self, tmp_path, monkeypatch, capsys):
        # a non-finite gradient aborts before any record exists: the run
        # still leaves its config and a run.log line, and exits 3
        def abort(*args, **kwargs):
            raise TrainingError("non-finite gradient at step 1")

        monkeypatch.setattr(trainer, "train", abort)
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(out))
        assert main(["train", "--config", config]) == 3
        assert "non-finite gradient" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "run.log"]
        assert "train diverged: non-finite gradient" in (out / "run.log").read_text()

    def test_overflow_on_the_last_step_is_a_divergence(self, tmp_path):
        # the second update overflows the parameters; before the final
        # evaluation could see them the fit ends as a divergence (exit 3),
        # without a numpy warning, and its result.json is strict JSON
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(
            out, n_qubits=3, target={"kind": "step"}, n_points=40, steps=2,
            learning_rate=1.7e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", config]) == 3
        result = json.loads((out / "result.json").read_text(), parse_constant=reject_constant)
        assert result["config"]["aborted"] == "divergence"
        assert {"Infinity", "-Infinity", "NaN"} & set(map(str, result["final_params"]))
        assert len((out / "trace.csv").read_text().strip().split("\n")) == 3
        # the package's own strict reader accepts it
        assert load_document((out / "result.json").read_text(), {}, "result") == result

    @pytest.mark.parametrize("make_doc,field", [
        (lambda out: classical_train_config(out, n_qubits=2), "n_qubits"),
        (lambda out: classical_train_config(out, encoding="naive"), "encoding"),
        (lambda out: classical_train_config(out, n_layers=1), "n_layers"),
        (lambda out: classical_train_config(out, rotation_params=3), "rotation_params"),
        (lambda out: quantum_train_config(out, degree=3), "degree"),
        (lambda out: quantum_train_config(out, dimension=3), "dimension"),
        (lambda out: quantum_train_config(out, target={"kind": "step", "kappa": 9}), "kappa"),
        (lambda out: quantum_train_config(out, target={"kind": "step", "values": [0.0]}),
         "values"),
        (lambda out: quantum_train_config(
            out, target={"kind": "coefficients", "values": [0.0], "r": 1.0}), "r"),
    ], ids=["classical-n_qubits", "classical-encoding", "classical-n_layers",
            "classical-rotation_params", "quantum-degree", "quantum-dimension",
            "step-kappa", "step-values", "coefficients-r"])
    def test_field_that_does_not_apply_rejected(self, tmp_path, capsys, make_doc, field):
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, make_doc(out))]) == 2
        assert f"unknown field: Additional properties are not allowed ('{field}' was" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = quantum_train_config(tmp_path / "run", typo_field=1)
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_wrong_version_rejected(self, tmp_path):
        doc = quantum_train_config(tmp_path / "run", version="train-v2")
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2

    def test_missing_target_rejected(self, tmp_path):
        doc = quantum_train_config(tmp_path / "run")
        del doc["target"]
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2

    def test_incomplete_target_rejected(self, tmp_path, capsys):
        doc = quantum_train_config(
            tmp_path / "run", target={"kind": "random_fourier", "kappa": 9}
        )
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        assert "missing field: 'split'" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2

    def test_capacity_exit_code(self, tmp_path):
        doc = quantum_train_config(tmp_path / "run", n_qubits=30)
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 4

    def test_coefficient_target(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, quantum_train_config(
            out, target={"kind": "coefficients", "values": [0.0, 0.5, 0.0]}
        ))
        assert main(["train", "--config", config]) == 0


class TestCompareCommand:
    def _config(self, out):
        return {
            "version": "compare-v1", "seed": 2, "output_dir": str(out),
            "r_values": [1.0], "runs": 1, "kappa": 9, "split": 6,
            "n_points": 20, "steps": 5, "classical_dimension": 6, "n_qubits": 2,
        }

    def test_outputs_and_determinism(self, tmp_path):
        out = tmp_path / "cmp"
        config = write_config(tmp_path, self._config(out))
        assert main(["compare", "--config", config]) == 0
        losses = (out / "losses.csv").read_text().strip().split("\n")
        assert losses[0] == "r,model,run,step,loss"
        # two families x one run x (5 steps + 1 final)
        assert len(losses) == 1 + 2 * 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_r"][0]["r"] == 1.0
        first = (out / "losses.csv").read_bytes()
        assert main(["compare", "--config", config]) == 0
        assert (out / "losses.csv").read_bytes() == first

    # compare takes no thread cap: a config that asks for one is refused as
    # an unknown field before any run.
    def test_unknown_field_refused_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        doc = self._config(out)
        doc["threads"] = 8
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 2
        assert "'threads' was unexpected" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_field_refused_whatever_its_value(self, tmp_path, capsys):
        # an invalid cap is refused as an unknown field, not as a bad value
        doc = self._config(tmp_path / "cmp")
        doc["threads"] = "lots"
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 2
        assert "'threads' was unexpected" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        # a fit that diverges inside the comparison aborts it with exit 3
        out = tmp_path / "cmp"
        doc = self._config(out)
        doc["learning_rate"] = 1e8
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 3
        assert "divergence threshold" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "run.log"]

    def test_zero_runs_rejected(self, tmp_path):
        doc = self._config(tmp_path / "cmp")
        doc["runs"] = 0
        assert main(["compare", "--config", write_config(tmp_path, doc)]) == 2


class TestPlateauCommand:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "plateau"
        config = write_config(tmp_path, {
            "version": "plateau-v1", "seed": 5, "output_dir": str(out),
            "qubit_counts": [1, 2], "trials": 150,
        })
        assert main(["plateau", "--config", config]) == 0
        lines = (out / "plateau.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        doc = json.loads((out / "plateau.json").read_text())
        assert doc["fit"]["alpha"] > 0
        assert doc["reports"][0]["d"] == 2

    def test_trials_floor(self, tmp_path):
        config = write_config(tmp_path, {
            "version": "plateau-v1", "seed": 5, "output_dir": str(tmp_path / "p"),
            "qubit_counts": [1], "trials": 50,
        })
        assert main(["plateau", "--config", config]) == 2


class TestResourcesCommand:
    def test_crossing_table(self, tmp_path):
        out = tmp_path / "res"
        config = write_config(tmp_path, {
            "version": "resources-v1", "seed": 0, "output_dir": str(out),
            "K": 81, "M": 1, "eps": 0.5, "N_tp": 16, "gate_counts": [4, 100],
        })
        assert main(["resources", "--config", config]) == 0
        lines = (out / "resources.csv").read_text().strip().split("\n")
        assert lines[0].startswith("N_gt,resrc_q,resrc_c")
        assert len(lines) == 3
        doc = json.loads((out / "resources.json").read_text())
        assert doc["reports"][0]["resrc_c"] == 244
        assert "resources finished" in (out / "run.log").read_text()


class TestBiconeCommand:
    def test_agreement_summary(self, tmp_path):
        out = tmp_path / "bicone"
        config = write_config(tmp_path, {
            "version": "bicone-v1", "seed": 7, "output_dir": str(out),
            "n_samples": 500, "grid_points": 64,
        })
        assert main(["bicone", "--config", config]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["agreement_rate"] >= 0.99
        header = (out / "disagreements.csv").read_text().split("\n")[0]
        assert header == "c1,c2,c3,boundary_margin,analytic,numeric"
        assert "bicone finished" in (out / "run.log").read_text()

    def test_disagreement_rows(self, tmp_path):
        # a coarse grid on a box near the bicone's boundary disagrees 15 times
        out = tmp_path / "bicone"
        config = write_config(tmp_path, {
            "version": "bicone-v1", "seed": 7, "output_dir": str(out),
            "n_samples": 300, "grid_points": 8, "box": 1.2,
        })
        assert main(["bicone", "--config", config]) == 0
        rows = (out / "disagreements.csv").read_text().strip().split("\n")[1:]
        summary = json.loads((out / "summary.json").read_text())
        assert len(rows) == 15
        assert summary["agreements"] == summary["n_samples"] - len(rows)
        margins = [abs(float(row.split(",")[3])) for row in rows]
        assert summary["max_disagreement_margin"] == max(margins)
        for row in rows:
            assert row.split(",")[4:] in (["0", "1"], ["1", "0"])


class TestNonFiniteConstants:
    """NaN and Infinity parse as JSON numbers but are config errors."""

    def test_nan_learning_rate(self, tmp_path, capsys):
        out = tmp_path / "run"
        doc = quantum_train_config(out, learning_rate=float("nan"))
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_target_ratio(self, tmp_path, capsys):
        doc = quantum_train_config(tmp_path / "run")
        doc["target"]["r"] = float("inf")
        assert main(["train", "--config", write_config(tmp_path, doc)]) == 2
        assert "Infinity" in capsys.readouterr().err

    def test_nan_resources_eps(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "version": "resources-v1", "seed": 0, "output_dir": str(tmp_path / "res"),
            "K": 81, "M": 1, "eps": float("nan"), "N_tp": 16, "gate_counts": [4],
        })
        assert main(["resources", "--config", config]) == 2
        assert "NaN" in capsys.readouterr().err


class TestJsonText:
    """``cli._json`` writes strict JSON: non-finite floats become strings."""

    def test_non_finite_floats_are_strings(self):
        from fourierqml.cli import _json

        doc = {"loss": float("nan"), "params": np.array([1.5, np.inf, -np.inf]),
               "nested": [[np.float64(-np.inf)], (2, np.nan)], "grid": np.array([[np.nan]])}
        assert json.loads(_json(doc), parse_constant=reject_constant) == {
            "loss": "NaN", "params": [1.5, "Infinity", "-Infinity"],
            "nested": [["-Infinity"], [2, "NaN"]], "grid": [["NaN"]]}

    def test_finite_documents_keep_their_bytes(self):
        from fourierqml.cli import _json

        doc = {"b": np.array([0.1, 1e-300, -2.5e17]), "a": [1, 2.0, True, None, "x"],
               "c": {"m": np.arange(3), "f": np.float64(1) / 3}}
        assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                        default=np.ndarray.tolist) + "\n"


class TestHelpText:
    """Subcommand --help must document every config field by name."""

    @pytest.mark.parametrize("command", ["train", "compare", "plateau",
                                         "resources", "bicone"])
    def test_help_lists_all_config_fields(self, command, capsys):
        from fourierqml.cli import _CONFIG_COMMANDS

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        schema, _ = _CONFIG_COMMANDS[command]
        for field_name in schema["properties"]:
            assert field_name in text

    def test_train_help_scopes_fields_by_family_and_target_kind(self, capsys):
        from fourierqml.cli import _FAMILY_ONLY

        with pytest.raises(SystemExit):
            main(["train", "--help"])
        out = capsys.readouterr().out
        lines = out[out.index("config fields"):].splitlines()[1:]
        # a field line is "  * name ..." or "    name ..."; the name starts at column 4
        fields = {line[4:].split()[0]: line for line in lines if line[4] != " "}
        for family, names in _FAMILY_ONLY.items():
            for name in names:
                assert fields[name].endswith(f"({family} only)")
        for name in ("family", "target", "steps", "shots"):
            assert not fields[name].endswith("only)")
        kind_lines = [ln.strip() for ln in lines if ln.strip().startswith("kind ")]
        assert kind_lines == [
            'kind "step": no other field',
            'kind "random_fourier": *kappa, *split, *r, *target_seed',
            'kind "coefficients": *values',
        ]

    @pytest.mark.parametrize("command", ["compare", "plateau", "resources", "bicone"])
    def test_untagged_help_has_no_scope_notes(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        assert "only)" not in text and "kind " not in text


def compare_config(out_dir, **overrides):
    doc = {
        "version": "compare-v1", "seed": 2, "output_dir": str(out_dir),
        "r_values": [1.0], "runs": 1, "kappa": 9, "split": 6,
        "n_points": 20, "steps": 5, "classical_dimension": 6, "n_qubits": 2,
    }
    doc.update(overrides)
    return doc


def plateau_config(out_dir, **overrides):
    doc = {"version": "plateau-v1", "seed": 5, "output_dir": str(out_dir),
           "qubit_counts": [1, 2], "trials": 150}
    doc.update(overrides)
    return doc


class TestIntegerFields:
    """Integer fields take JSON integers only: 2.0 and true are config errors."""

    @pytest.mark.parametrize("command,make_doc,field", [
        ("train", lambda out: quantum_train_config(out, n_qubits=2.0), "n_qubits"),
        ("train", lambda out: quantum_train_config(out, n_qubits=True), "n_qubits"),
        ("train", lambda out: quantum_train_config(out, seed=1.0), "seed"),
        ("compare", lambda out: compare_config(out, runs=1.0), "runs"),
        ("plateau", lambda out: plateau_config(out, qubit_counts=[2.0]), "qubit_counts"),
        ("resources", lambda out: {
            "version": "resources-v1", "seed": 0, "output_dir": str(out),
            "K": 81.0, "M": 1, "eps": 0.5, "N_tp": 16, "gate_counts": [4],
        }, "K"),
        ("bicone", lambda out: {
            "version": "bicone-v1", "seed": 7, "output_dir": str(out),
            "n_samples": 10.0, "grid_points": 64,
        }, "n_samples"),
    ], ids=["train-n_qubits", "train-n_qubits-bool", "train-seed", "compare-runs", "plateau-qubit_counts",
            "resources-K", "bicone-n_samples"])
    def test_float_rejected(self, tmp_path, capsys, command, make_doc, field):
        out = tmp_path / "out"
        config = write_config(tmp_path, make_doc(out))
        assert main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert "is not of type 'integer'" in err
        assert f"(at {field}" in err
        assert not out.exists()


class TestLibraryRejections:
    """A value the library rejects is a config error with the library's message."""

    @pytest.mark.parametrize("command,make_doc,message", [
        ("train", lambda out: quantum_train_config(out, target={
            "kind": "random_fourier", "kappa": 4, "split": 2, "r": 1.0, "target_seed": 3,
        }), "kappa must be odd"),
        ("train", lambda out: {
            "version": "train-v1", "seed": 0, "output_dir": str(out), "family": "classical",
            "degree": 3, "dimension": 50, "target": {"kind": "step"}, "steps": 5,
        }, "dimension must be in 1..7"),
        ("train", lambda out: quantum_train_config(out, n_qubits=3, encoding=[1, 3]),
         "one weight per qubit"),
        ("train", lambda out: quantum_train_config(
            out, target={"kind": "coefficients", "values": [0.1, 0.2]}), "odd length"),
        ("train", lambda out: {
            "version": "train-v1", "seed": 0, "output_dir": str(out), "family": "classical",
            "degree": 3, "target": {"kind": "step"}, "steps": 5, "shots": 5,
        }, "shots applies to quantum models only"),
        ("compare", lambda out: compare_config(out, split=12), "split must be in 1..8"),
        ("plateau", lambda out: plateau_config(out, qubit_counts=[2]), "two sizes"),
        ("plateau", lambda out: plateau_config(out, qubit_counts=[3, 3]), "two sizes"),
    ], ids=["train-kappa", "train-dimension", "train-encoding",
            "train-even-coefficients", "train-classical-shots", "compare-split",
            "plateau-one-count", "plateau-repeated-count"])
    def test_exit_code_and_message(self, tmp_path, capsys, monkeypatch, command, make_doc,
                                   message):
        sampled = record_plateau_samples(monkeypatch)
        out = tmp_path / "out"
        config = write_config(tmp_path, make_doc(out))
        assert main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ")
        assert message in err
        assert not out.exists()
        # a plateau sweep refuses its sizes before it samples any of them
        assert sampled == []


class TestUnwritableOutput:
    """An output that cannot be written is a one-line config error."""

    def test_spectrum_output_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert main(["spectrum", "--exp", "2", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spectrum: cannot write outputs: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_output_dir_under_a_file(self, tmp_path, capsys, monkeypatch):
        # refused before the sweep, not after it
        sampled = record_plateau_samples(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        config = write_config(tmp_path, plateau_config(blocker / "run"))
        assert main(["plateau", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("plateau: cannot write outputs: ") and err.count("\n") == 1
        assert sampled == []
        assert blocker.read_text(encoding="utf-8") == ""


class TestConfigBinding:
    """Config fields bind by name to the library call they configure."""

    @pytest.mark.parametrize("command,function", [
        ("compare", trainer.run_expressivity_comparison),
        ("plateau", analysis.plateau_sweep),
    ])
    def test_fields_are_parameters(self, command, function):
        schema, _ = _CONFIG_COMMANDS[command]
        fields = set(schema["properties"]) - {"version", "seed", "output_dir"}
        assert fields <= set(inspect.signature(function).parameters)

    def test_train_config_fields(self):
        # every TrainConfig field is a run field train-v1 binds by name: a
        # renamed one would silently drop out of the binding, and one the
        # schema lacks would be an option no run can set
        schema, _ = _CONFIG_COMMANDS["train"]
        fields = {f.name for f in dataclasses.fields(trainer.TrainConfig)}
        assert fields == {"seed", "learning_rate", "steps", "batch_size", "shots",
                          "recover_coefficients"}
        assert fields <= set(schema["properties"])
