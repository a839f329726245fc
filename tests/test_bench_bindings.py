"""The benchmark's tracer must find, and see calls through, every binding.

``perfbench/tracer.py`` wraps package functions at the module bindings
their callers look them up through and aborts if one is missing.  Small
quantum and classical fits, plateau samples (every gradient case, both
modes) and a CLI query run under the tracer here, so a refactor that
drops a traced binding, or stops calling through it, fails in this suite
rather than in the benchmark.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from fourierqml import analysis, cli, trainer
from fourierqml.cfflm import ClassicalModel, FeatureMap
from fourierqml.qfflm import AnsatzSpec, Parallel
from fourierqml.rng import make_rng
from fourierqml.spectra import exponential_weights

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        yield tracer, tracer_module.SPANS
    finally:
        tracer.uninstall()


def test_every_traced_span_records_calls(bench_tracer, tmp_path):
    tracer, spans = bench_tracer
    data = trainer.make_grid_dataset(trainer.StepTarget(), 8)
    cfg = trainer.TrainConfig(steps=2, seed=0)
    spec = AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                      topology=Parallel(), encoding=exponential_weights(2))
    trainer.train(spec, data, cfg)
    fm = FeatureMap(n_variables=1, degrees=(2,))
    trainer.train(ClassicalModel(np.zeros(fm.dimension), fm), data, cfg)
    for mode in ("haar", "circuit"):
        for case in ("I", "II", "III"):
            before = dict(tracer.calls)
            analysis.plateau_stats(1, 2, 100, make_rng(0), mode=mode, grad_case=case)
            added = {span: tracer.calls[span] - before.get(span, 0) for span in spans}
            assert added["analysis.plateau_stats"] == 1
            # 100 trials are one batch: one isometry, and a Haar state first
            # in the bulk case
            draws = (2 if case == "I" else 1) if mode == "haar" else 0
            assert added["statevector.haar_unitary"] == draws, (mode, case)
            # one readout of the batch, through the traced kernel binding
            assert added["statevector.expectation_z"] == 1, (mode, case)
            if mode == "haar":
                # the two RY(+-pi/2) shifts, except in case II, whose
                # shifted rows of |0> are a fixed 3 x 2 matrix
                shifts = 0 if case == "II" else 2
                assert added["statevector.apply_ry"] == shifts, case
    assert cli.main(["spectrum", "--exp", "2", "--output", str(tmp_path / "s.json")]) == 0
    for span in ("trainer.train_q", "trainer.train_c", "trainer.adam_step",
                 "qfflm.values_and_jacobian", "statevector.haar_unitary"):
        assert span in spans
    silent = [span for span in spans if tracer.calls[span] == 0]
    assert not silent, f"traced spans saw no calls: {silent}"


def test_exact_fit_counts_match_the_record(bench_tracer):
    """An exact fit of this spec takes its Jacobian from the diagonal
    engine, which runs no gate kernel in a step; the rotation kernels are
    reached only through the final ``evaluate_batch``'s opening block, and
    ``apply_cnot`` there and where the trimmed program folds trailing CNOTs
    into its observable. The circuit evaluations the tracer derives from
    call arguments, (2 N_tp + 1) per row, must still equal the record's
    parameter-shift count, and the kernels must still be called through
    the traced bindings."""
    tracer, _ = bench_tracer
    spec = AnsatzSpec(n_variables=1, n_qubits=3, n_layers=1,
                      topology=Parallel(), encoding=exponential_weights(3))
    data = trainer.make_grid_dataset(trainer.StepTarget(), 16)
    record = trainer.train(spec, data, trainer.TrainConfig(steps=3, seed=0))
    assert tracer.counters["qfflm.circuit_evals"] == record.resource_counters["circuit_evaluations"]
    for span in ("statevector.apply_ry", "statevector.apply_rz", "statevector.apply_cnot"):
        assert tracer.calls[span] > 0, span


@pytest.mark.parametrize("name", ["fit-q4", "fit-classical"])
def test_benchmark_train_configs_validate(monkeypatch, tmp_path, name):
    """The CLI fit workloads write train-v1 configs; a schema that refused
    them would make every benchmark operation fail instead of this test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    fit = workloads.WORKLOADS[name](0, tmp_path, None)
    config = cli._load_config(str(fit.config_path), cli._TRAIN_SCHEMA)
    assert config["output_dir"] == str(tmp_path / name)
