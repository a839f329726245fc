"""Datasets, optimizer mechanics, and end-to-end training behavior."""

import json
import warnings

import numpy as np
import pytest

from fourierqml import cli, qfflm, trainer
from fourierqml.cfflm import (
    ClassicalModel,
    FeatureMap,
    feature_matrix,
    grid_values,
    uniform_grid,
)
from fourierqml.errors import CapacityError, DatasetParseError, TrainingError
from fourierqml.qfflm import (
    AnsatzSpec,
    Parallel,
    evaluate_batch,
    init_parameters,
)
from fourierqml.rng import make_rng
from fourierqml.spectra import exponential_weights
from fourierqml.trainer import (
    AdamState,
    Dataset,
    FourierTarget,
    StepTarget,
    TrainConfig,
    adam_step,
    denormalize_outputs,
    load_csv_dataset,
    make_grid_dataset,
    make_random_fourier_target,
    mse_loss,
    run_expressivity_comparison,
    run_step_function_study,
    train,
)

TWO_QUBIT = AnsatzSpec(
    n_variables=1, n_qubits=2, n_layers=1, topology=Parallel(),
    encoding=exponential_weights(2),
)


class TestStepDataset:
    def test_branch_values(self):
        target = StepTarget()
        assert target.evaluate(np.pi / 2) == 0.5
        assert target.evaluate(-np.pi / 2) == -0.5
        # the boundary belongs to the upper branch
        assert target.evaluate(0.0) == 0.5

    def test_grid_layout(self):
        data = make_grid_dataset(StepTarget(), 8)
        assert data.inputs.shape == (8, 1)
        assert data.inputs[0, 0] == -np.pi
        np.testing.assert_allclose(np.diff(data.inputs[:, 0]), np.pi / 4)
        assert set(np.unique(data.outputs)) == {-0.5, 0.5}

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            make_grid_dataset(StepTarget(), 1)


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Dataset(inputs=np.zeros((3, 1)), outputs=np.zeros(4))

    def test_vector_inputs_promoted(self):
        data = Dataset(inputs=np.arange(5.0), outputs=np.zeros(5))
        assert data.inputs.shape == (5, 1)
        assert len(data) == 5


class TestRandomFourierTarget:
    def test_realized_ratio_exact(self):
        for r in (0.05, 1.6, 55.5):
            target = make_random_fourier_target(81, 64, r, seed=3)
            assert target.realized_ratio() == pytest.approx(r, abs=1e-9)

    def test_bounded_with_margin(self):
        target = make_random_fourier_target(81, 64, 0.05, seed=11)
        grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        values = target.evaluate(grid)
        assert np.abs(values).max() == pytest.approx(0.95, abs=1e-6)

    def test_extreme_ratio_empties_high_block(self):
        target = make_random_fourier_target(81, 64, 1e9, seed=5)
        c = target.coefficients
        high = np.sum(c[64:] ** 2)
        assert high < 1e-17 * np.sum(c**2)

    def test_evaluate_matches_feature_expansion(self):
        c = np.zeros(5)
        c[1] = 1.0  # sqrt(2) cos(x) feature
        target = FourierTarget(coefficients=c)
        x = np.array([0.0, np.pi / 3])
        np.testing.assert_allclose(target.evaluate(x), np.sqrt(2) * np.cos(x))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_random_fourier_target(80, 64, 1.0, seed=0)  # even kappa
        with pytest.raises(ValueError):
            make_random_fourier_target(81, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_random_fourier_target(81, 64, -2.0, seed=0)
        with pytest.raises(ValueError):
            FourierTarget(coefficients=np.zeros(4))

    def test_grid_dataset_metadata(self):
        target = make_random_fourier_target(9, 6, 2.0, seed=7)
        data = make_grid_dataset(target, 50)
        assert data.metadata["seed"] == 7
        assert data.metadata["n_points"] == 50
        assert np.abs(data.outputs).max() <= 1.0 + 1e-9


class TestNormalizationGrid:
    """A random target is normalized on ``N = max(4096, ceil(pi d / arccos 0.95))``
    points, so ``sec(pi d / N) <= 1 / 0.95`` bounds |f| by 1 everywhere."""

    @pytest.mark.parametrize("kappa", [3, 9, 81, 829, 831, 4095, 4097, 4099, 20001])
    def test_fft_matches_direct_evaluation(self, kappa):
        """The maximum on the normalization grid is 0.95 and the maximum
        on a 16 kappa + 1 point grid stays at most 1.  Up to kappa 4099 the
        synthesized values match the direct evaluation at every
        (size // 4096)-th grid point, about 4096 points: every point for
        kappa <= 829, where the grid is the 4096-point one.  The direct
        evaluation rounds each phase j x_g to about j ulp(pi), so the
        tolerance is relative to the largest |f| the coefficients allow,
        sqrt(2) sum |c|."""
        target = make_random_fourier_target(kappa, (kappa + 1) // 2, 0.5, seed=kappa)
        degree = (kappa - 1) // 2
        size = max(4096, int(np.ceil(np.pi * degree / np.arccos(0.95))))
        c, fm = target.coefficients, target.feature_map
        fast = grid_values(c, fm, (size,))
        assert np.abs(fast).max() == pytest.approx(0.95, rel=1e-14)
        assert np.abs(grid_values(c, fm, (16 * kappa + 1,))).max() <= 1.0
        if kappa <= 4099:
            step = max(1, size // 4096)
            grid = uniform_grid((size,))[::step]
            direct = np.concatenate([target.evaluate(grid[i:i + 512])
                                     for i in range(0, grid.shape[0], 512)])
            bound = np.sqrt(2.0) * np.abs(c).sum()
            np.testing.assert_allclose(fast[::step], direct, rtol=0, atol=1e-13 * bound)

    def test_feature_dimension_cap(self):
        with pytest.raises(CapacityError):
            make_random_fourier_target(10**7 + 1, 64, 0.05, seed=0)


class TestMseLoss:
    def test_values(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse_loss([2.0, 3.0], [1.0, 2.0]) == 1.0
        assert mse_loss([0.0, 1.0], [1.0, 1.0]) == 0.5

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss([], [])
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])


class TestAdam:
    def test_zero_gradient_is_noop(self):
        state = AdamState.initialize(np.array([1.0, -2.0]))
        adam_step(state, np.zeros(2), lr=0.1)
        np.testing.assert_array_equal(state.params, [1.0, -2.0])

    def test_first_step_magnitude(self):
        """Bias correction makes the first step lr * g/(|g| + eps) ~ lr."""
        state = AdamState.initialize(np.zeros(3))
        adam_step(state, np.array([5.0, -0.01, 1e-6]), lr=0.02)
        np.testing.assert_allclose(np.abs(state.params), 0.02, rtol=1e-2)

    def test_in_place_update_is_the_textbook_formula(self):
        """50 steps of random gradients over many magnitudes, bit for bit."""
        rng = make_rng(88)
        state = AdamState.initialize(rng.uniform(-np.pi, np.pi, 7))
        params, m, v = state.params.copy(), np.zeros(7), np.zeros(7)
        for t in range(1, 51):
            grads = rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8, 7)
            lr = 10.0 ** rng.uniform(-4, 1)
            m = 0.9 * m + (1.0 - 0.9) * grads
            v = 0.999 * v + (1.0 - 0.999) * grads**2
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            params = params - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            before = state.params
            assert adam_step(state, grads, lr) is state
            assert state.step_count == t
            for got, expected in ((state.params, params), (state.m, m), (state.v, v)):
                assert np.array_equal(got, expected)
            assert before is not state.params

    def test_nan_gradient_raises(self):
        state = AdamState.initialize(np.zeros(2))
        with pytest.raises(TrainingError, match="non-finite"):
            adam_step(state, np.array([1.0, np.nan]), lr=0.1)

    def test_shape_mismatch(self):
        state = AdamState.initialize(np.zeros(2))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), lr=0.1)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(shots=0)


class SharedLoopChecks:
    """Training-loop behaviour both model families share.

    Subclasses say how to train and predict; ``PER_POINT`` is the cost a
    training step charges to ``EVALUATIONS`` per batch point, and a fit at
    ``DIVERGING_RATE`` aborts with a message matching ``DIVERGENCE``.
    """

    EVALUATIONS: str
    PER_POINT: int
    DIVERGING_RATE: float
    DIVERGENCE: str

    def train(self, data, cfg, test_data=None):
        raise NotImplementedError

    def predict(self, params, inputs):
        raise NotImplementedError

    def test_batched_steps(self):
        data = make_grid_dataset(StepTarget(), 10)
        cfg = TrainConfig(learning_rate=0.05, steps=4, seed=0, batch_size=3)
        record = self.train(data, cfg)
        assert record.resource_counters[self.EVALUATIONS] == 4 * self.PER_POINT * 3 + 10
        assert len(record.loss_trace) == 5

    def test_test_loss_trace(self):
        data = make_grid_dataset(StepTarget(), 8)
        test_data = make_grid_dataset(StepTarget(), 5)
        record = self.train(data, TrainConfig(steps=3, seed=0), test_data=test_data)
        assert record.test_loss_trace.shape == record.loss_trace.shape
        final = mse_loss(self.predict(record.final_params, test_data.inputs), test_data.outputs)
        assert record.test_loss_trace[-1] == pytest.approx(final, abs=1e-14)

    def test_divergence_aborts_with_partial_record(self):
        data = make_grid_dataset(FourierTarget(coefficients=0.2 * np.ones(5)), 20)
        cfg = TrainConfig(learning_rate=self.DIVERGING_RATE, steps=50, seed=0)
        with pytest.raises(TrainingError, match=self.DIVERGENCE) as excinfo:
            self.train(data, cfg, test_data=data)
        record = excinfo.value.record
        assert record is not None
        assert record.config["aborted"] == "divergence"
        assert len(record.loss_trace) >= 1
        assert record.test_loss_trace.shape == record.loss_trace.shape
        assert (record.loss_trace[-1] > trainer._DIVERGENCE_THRESHOLD
                or not np.isfinite(record.final_params).all())


CLASSICAL_FM = FeatureMap(n_variables=1, degrees=(2,))


class TestClassicalTraining(SharedLoopChecks):
    EVALUATIONS = "forward_passes"
    PER_POINT = 1
    DIVERGING_RATE = 1e8
    DIVERGENCE = "exceeded divergence threshold"

    def train(self, data, cfg, test_data=None):
        model = ClassicalModel(coefficients=np.zeros(CLASSICAL_FM.dimension))
        return train(model, data, cfg, feature_map=CLASSICAL_FM, test_data=test_data)

    def predict(self, params, inputs):
        return feature_matrix(inputs, CLASSICAL_FM) @ params

    def test_convex_run_reaches_floor(self):
        """Fully parametrized model on an in-span target: Adam should land
        within 1e-3 of zero, the normal-equations optimum."""
        fm = FeatureMap(n_variables=1, degrees=(3,))
        rng = make_rng(4)
        c_true = 0.3 * rng.standard_normal(fm.dimension)
        target = FourierTarget(coefficients=c_true)
        data = make_grid_dataset(target, 40)
        cfg = TrainConfig(learning_rate=0.1, steps=500, seed=0)
        record = train(ClassicalModel(coefficients=np.zeros(fm.dimension)), data, cfg,
                       feature_map=fm)
        assert record.final_loss < 1e-3
        phi = feature_matrix(data.inputs, fm)
        oracle, *_ = np.linalg.lstsq(phi, data.outputs, rcond=None)
        oracle_loss = mse_loss(phi @ oracle, data.outputs)
        assert record.final_loss == pytest.approx(oracle_loss, abs=1e-3)

    def test_projected_training_and_recovery(self):
        """A model of n < K coefficients trains on the leading n feature
        columns and recovers its coefficients zero-padded to K."""
        fm = FeatureMap(n_variables=1, degrees=(3,))
        model = ClassicalModel(coefficients=np.zeros(4))
        data = make_grid_dataset(FourierTarget(coefficients=np.eye(7)[1]), 20)
        cfg = TrainConfig(learning_rate=0.1, steps=200, seed=1, recover_coefficients=True)
        record = train(model, data, cfg, feature_map=fm)
        assert record.final_loss < 1e-4
        assert record.final_params.shape == (4,)
        assert record.resource_counters["parameter_dimension"] == 4
        assert record.recovered_coefficients.shape == (7,)
        # the cos(x) feature sits inside the leading block
        assert record.recovered_coefficients[1] == pytest.approx(1.0, abs=1e-2)
        np.testing.assert_array_equal(record.recovered_coefficients[:4], record.final_params)
        np.testing.assert_array_equal(record.recovered_coefficients[4:], 0.0)
        # the values trained are those of the leading columns
        phi = feature_matrix(data.inputs, fm)[:, :4]
        assert record.final_loss == mse_loss(phi @ record.final_params, data.outputs)

    def test_loss_gradient_matches_finite_differences(self):
        fm = FeatureMap(n_variables=1, degrees=(2,))
        rng = make_rng(9)
        data = Dataset(inputs=rng.uniform(-np.pi, np.pi, (12, 1)),
                       outputs=rng.uniform(-0.5, 0.5, 12))
        c0 = rng.standard_normal(fm.dimension)
        phi = feature_matrix(data.inputs, fm)
        grad = (2.0 / len(data)) * phi.T @ (phi @ c0 - data.outputs)
        h = 1e-6
        for i in range(fm.dimension):
            step = np.zeros(fm.dimension)
            step[i] = h
            fd = (mse_loss(phi @ (c0 + step), data.outputs)
                  - mse_loss(phi @ (c0 - step), data.outputs)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("width", [0, 8], ids=["empty", "wider-than-map"])
    def test_dimension_mismatch(self, width):
        """A model with no coefficients or more than the map's K features is
        refused up front, not by a shape error inside the first product."""
        with pytest.raises(ValueError, match=rf"dimension must be in 1\.\.7, got {width}"):
            train(ClassicalModel(coefficients=np.zeros(width)),
                  make_grid_dataset(StepTarget(), 16), TrainConfig(steps=1),
                  feature_map=FeatureMap(n_variables=1, degrees=(3,)))

    def test_shots_rejected(self):
        # a classical fit is exact; a shot count would be recorded yet never read
        data = make_grid_dataset(StepTarget(), 8)
        with pytest.raises(ValueError, match="shots"):
            self.train(data, TrainConfig(steps=2, shots=5))


class TestQuantumTraining(SharedLoopChecks):
    EVALUATIONS = "circuit_evaluations"
    PER_POINT = 17  # 2 N_tp + 1 circuits with N_tp = 8
    # |f| <= 1 keeps a quantum loss far below the divergence threshold; an
    # update that overflows the parameters is how a quantum fit diverges
    DIVERGING_RATE = 1.7e308
    DIVERGENCE = "non-finite parameters"

    def train(self, data, cfg, test_data=None):
        return train(TWO_QUBIT, data, cfg, test_data=test_data)

    def predict(self, params, inputs):
        return evaluate_batch(TWO_QUBIT, params, inputs)

    @pytest.mark.parametrize("steps", [10, 2], ids=["mid-run", "last-step"])
    def test_overflowing_update_aborts_with_partial_record(self, steps):
        """At a learning rate near the float maximum the second Adam update
        overflows.  The fit ends there as a divergence carrying the two
        finite losses, also when that update is the last one, and numpy
        emits no overflow warning on the way."""
        spec = AnsatzSpec(n_variables=1, n_qubits=3, n_layers=1, topology=Parallel(),
                          encoding=exponential_weights(3))
        cfg = TrainConfig(learning_rate=1.7e308, steps=steps, seed=0)
        with warnings.catch_warnings(), pytest.raises(
                TrainingError, match="non-finite parameters after 2 steps") as excinfo:
            warnings.simplefilter("error")
            train(spec, make_grid_dataset(StepTarget(), 40), cfg)
        record = excinfo.value.record
        assert record.config["aborted"] == "divergence"
        assert len(record.loss_trace) == 2
        assert np.isfinite(record.loss_trace).all()
        assert not np.isfinite(record.final_params).all()

    def test_zero_target_first_steps_decrease(self):
        """With target 0 the loss is <f^2>; early Adam steps should shrink
        it from almost any starting point."""
        data = Dataset(inputs=np.linspace(-np.pi, np.pi, 20)[:, None],
                       outputs=np.zeros(20))
        wins = 0
        for seed in range(10):
            cfg = TrainConfig(learning_rate=0.05, steps=10, seed=seed)
            record = train(TWO_QUBIT, data, cfg)
            diffs = np.diff(record.loss_trace[:11])
            wins += bool(np.all(diffs <= 1e-12))
        assert wins >= 9

    def test_loss_gradient_matches_finite_differences(self):
        rng = make_rng(17)
        data = Dataset(inputs=rng.uniform(-np.pi, np.pi, (8, 1)),
                       outputs=rng.uniform(-0.5, 0.5, 8))
        theta = init_parameters(TWO_QUBIT, rng)

        def loss_at(t):
            return mse_loss(evaluate_batch(TWO_QUBIT, t, data.inputs), data.outputs)

        from fourierqml.qfflm import values_and_jacobian

        values, jac = values_and_jacobian(TWO_QUBIT, theta, data.inputs)
        grad = (2.0 / len(data)) * jac.T @ (values - data.outputs)
        h = 1e-6
        for i in range(theta.size):
            step = np.zeros(theta.size)
            step[i] = h
            fd = (loss_at(theta + step) - loss_at(theta - step)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-5)

    def test_counters_track_evaluations(self):
        data = make_grid_dataset(StepTarget(), 6)
        cfg = TrainConfig(learning_rate=0.05, steps=3, seed=0)
        record = train(TWO_QUBIT, data, cfg)
        n_tp = 8
        per_step = (2 * n_tp + 1) * 6
        assert record.resource_counters["circuit_evaluations"] == 3 * per_step + 6
        assert record.resource_counters["gate_count_per_circuit"] == 12
        assert record.resource_counters["shots_drawn"] == 0
        assert len(record.loss_trace) == 4  # pre-update losses plus final

    def test_shot_sampled_run_is_deterministic(self):
        data = make_grid_dataset(StepTarget(), 8)
        cfg = TrainConfig(learning_rate=0.05, steps=5, seed=42, shots=64)
        first = train(TWO_QUBIT, data, cfg)
        second = train(TWO_QUBIT, data, cfg)
        np.testing.assert_array_equal(first.loss_trace, second.loss_trace)
        np.testing.assert_array_equal(first.final_params, second.final_params)
        assert first.resource_counters["shots_drawn"] == 5 * 17 * 8 * 64

    def test_different_seeds_differ(self):
        data = make_grid_dataset(StepTarget(), 8)
        a = train(TWO_QUBIT, data, TrainConfig(steps=3, seed=0))
        b = train(TWO_QUBIT, data, TrainConfig(steps=3, seed=1))
        assert not np.array_equal(a.final_params, b.final_params)

    def test_recovery_from_fewer_points_than_coefficients(self):
        """7 training points are fewer than the degree-4 model's 9
        coefficients; recovery reads the model on its own lattice, so the
        vector still is the trained model everywhere."""
        data = make_grid_dataset(StepTarget(), 7)
        cfg = TrainConfig(steps=3, seed=0, recover_coefficients=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = train(TWO_QUBIT, data, cfg)
        xs = uniform_grid((1001,))
        phi = feature_matrix(xs, FeatureMap(1, (4,)))
        np.testing.assert_allclose(phi @ record.recovered_coefficients,
                                   evaluate_batch(TWO_QUBIT, record.final_params, xs),
                                   rtol=0, atol=1e-12)

    def test_training_without_recovery_enumerates_no_spectrum(self, monkeypatch):
        from fourierqml import spectra

        def refuse(weights):
            raise AssertionError("spectrum enumerated")

        monkeypatch.setattr(spectra, "_recurrence", refuse)
        record = train(TWO_QUBIT, make_grid_dataset(StepTarget(), 6), TrainConfig(steps=2, seed=0))
        assert len(record.loss_trace) == 3

    def test_recovered_coefficients_match_spectral_analysis(self):
        data = make_grid_dataset(StepTarget(), 12)
        cfg = TrainConfig(steps=2, seed=3, recover_coefficients=True)
        record = train(TWO_QUBIT, data, cfg)
        # the recovered vector is the trained model: c . phi(x) = f(x) off the grid
        xs = make_rng(4).uniform(-np.pi, np.pi, size=(50, 1))
        assert record.recovered_coefficients.shape == (9,)
        phi = feature_matrix(xs, FeatureMap(1, (4,)))
        np.testing.assert_allclose(phi @ record.recovered_coefficients,
                                   evaluate_batch(TWO_QUBIT, record.final_params, xs),
                                   rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        data = Dataset(inputs=np.zeros((4, 2)), outputs=np.zeros(4))
        with pytest.raises(ValueError, match="variables"):
            train(TWO_QUBIT, data, TrainConfig(steps=1))

    def test_unknown_model_type(self):
        with pytest.raises(TypeError):
            train(object(), make_grid_dataset(StepTarget(), 4), TrainConfig(steps=1))

    @pytest.mark.parametrize("batch_size", [None, 50])
    def test_diagonal_engine_fit_matches_adjoint_fit(self, monkeypatch, batch_size):
        """A fit at the fit-q4 shape on the diagonal engine (its phases
        cached across full-batch steps) traces the same losses as the same
        fit on the adjoint pass."""
        spec = AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1, topology=Parallel(),
                          encoding=exponential_weights(4))
        data = make_grid_dataset(make_random_fourier_target(81, 64, 0.05, seed=21), 200)
        cfg = TrainConfig(learning_rate=0.03, steps=30, batch_size=batch_size, seed=22)
        assert qfflm._diagonal_fits(spec, 50)
        engine = train(spec, data, cfg)
        monkeypatch.setattr(qfflm, "_diagonal_fits", lambda spec, rows: False)
        adjoint = train(spec, data, cfg)
        np.testing.assert_allclose(engine.loss_trace, adjoint.loss_trace, rtol=1e-12, atol=0)


class TestResultRecord:
    """A record as the CLI writes it: ``result.json`` and ``trace.csv``."""

    def _files(self):
        data = make_grid_dataset(StepTarget(), 6)
        record = train(TWO_QUBIT, data, TrainConfig(steps=2, seed=0),
                       test_data=make_grid_dataset(StepTarget(), 4))
        return record, cli._train_files(record)

    def test_json_round_trip(self):
        record, files = self._files()
        doc = json.loads(files["result.json"])
        assert doc["config"]["seed"] == 0
        assert "seed" not in doc  # recorded once, in the config
        assert doc["loss_trace"] == record.loss_trace.tolist()
        assert doc["test_loss_trace"] == record.test_loss_trace.tolist()
        assert doc["final_params"] == record.final_params.tolist()
        assert doc["recovered_coefficients"] is None
        assert doc["resource_counters"]["gate_count_per_circuit"] == 12
        assert "wall_ms" not in doc

    def test_trace_csv_round_trip(self):
        record, files = self._files()
        lines = files["trace.csv"].strip().split("\n")
        assert lines[0] == "step,train_loss,test_loss"
        assert len(lines) == len(record.loss_trace) + 1
        for step, line in enumerate(lines[1:]):
            index, train_loss, test_loss = line.split(",")
            assert int(index) == step
            # 17 significant digits round-trip exactly
            assert float(train_loss) == record.loss_trace[step]
            assert float(test_loss) == record.test_loss_trace[step]


class TestCsvDataset:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_endpoint_mapping_and_round_trip(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n0,10,5\n2,30,9\n1,20,7\n")
        data = load_csv_dataset(path, ["a", "b"], "y")
        assert data.inputs[0, 0] == pytest.approx(-np.pi)
        assert data.inputs[1, 0] == pytest.approx(np.pi)
        assert data.outputs[0] == pytest.approx(0.03)
        assert data.outputs[1] == pytest.approx(1.0)
        raw = denormalize_outputs(data, data.outputs)
        np.testing.assert_allclose(raw, [5.0, 9.0, 7.0], atol=1e-12)

    def test_constant_column_maps_to_midpoint(self, tmp_path):
        path = self._write(tmp_path, "a,y\n3,1\n3,2\n")
        with pytest.warns(UserWarning, match="constant"):
            data = load_csv_dataset(path, ["a"], "y")
        np.testing.assert_allclose(data.inputs[:, 0], 0.0)

    def test_malformed_row_names_line(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\nbad,3\n")
        with pytest.raises(DatasetParseError, match="row 3"):
            load_csv_dataset(path, ["a"], "y")

    @pytest.mark.parametrize("text, where", [
        ("a,y\n1,2\nnan,3\n2,inf\n", "row 3, column 'a'"),
        ("a,y\n1,2\n2,inf\n", "row 3, column 'y'"),
        ("a,y\n-Infinity,2\n2,3\n", "row 2, column 'a'"),
    ])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, text, where):
        path = self._write(tmp_path, text)
        with pytest.raises(DatasetParseError, match=where):
            load_csv_dataset(path, ["a"], "y")

    def test_short_row_names_line(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1\n")
        with pytest.raises(DatasetParseError, match="row 2"):
            load_csv_dataset(path, ["a"], "y")

    def test_missing_column(self, tmp_path):
        path = self._write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(ValueError, match="not in header"):
            load_csv_dataset(path, ["z"], "y")

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(DatasetParseError, match="row 1: empty file"):
            load_csv_dataset(path, ["a"], "y")

    def test_header_only_rejected(self, tmp_path):
        path = self._write(tmp_path, "a,y\n\n")
        with pytest.raises(DatasetParseError, match="row 2: no data rows"):
            load_csv_dataset(path, ["a"], "y")


class TestExperiments:
    def test_comparison_smoke_and_determinism(self):
        kwargs = dict(r_values=[1.0], runs=1, kappa=9, split=6, n_points=30,
                      steps=15, classical_dimension=6, n_qubits=2, base_seed=5)
        first = run_expressivity_comparison(**kwargs)
        second = run_expressivity_comparison(**kwargs)
        assert first.quantum[0][0].final_loss == second.quantum[0][0].final_loss
        assert first.classical[0][0].final_loss == second.classical[0][0].final_loss
        assert first.final_losses("quantum").shape == (1, 1)

    def test_comparison_cells_match_independent_training(self):
        def seed(*parts):
            return int(np.random.SeedSequence(parts).generate_state(1)[0])

        r_values, runs, base_seed = [0.5, 2.0], 2, 1
        result = run_expressivity_comparison(
            r_values, runs=runs, kappa=9, split=6, n_points=20, steps=10,
            classical_dimension=6, n_qubits=2, base_seed=base_seed,
        )
        fm = FeatureMap(n_variables=1, degrees=(4,))
        for ri, r in enumerate(r_values):
            for run in range(runs):
                target = make_random_fourier_target(9, 6, r, seed=seed(base_seed, ri, run))
                data = make_grid_dataset(target, 20)
                quantum = train(TWO_QUBIT, data, TrainConfig(
                    learning_rate=0.03, steps=10, seed=seed(base_seed, ri, run, 1)))
                classical = train(
                    ClassicalModel(coefficients=np.zeros(6)),
                    data,
                    TrainConfig(learning_rate=0.03, steps=10,
                                seed=seed(base_seed, ri, run, 2)),
                    feature_map=fm,
                )
                for got, want in ((result.quantum[ri][run], quantum),
                                  (result.classical[ri][run], classical)):
                    np.testing.assert_array_equal(got.loss_trace, want.loss_trace)
                    np.testing.assert_array_equal(got.final_params, want.final_params)
                    assert got.config["seed"] == want.config["seed"]

    def test_step_study_smoke(self):
        result = run_step_function_study(qubit_counts=(1, 2), seeds=(0,),
                                         n_points=30, steps=20)
        assert result.mean_final_losses().shape == (2,)
        assert all(len(row) == 1 for row in result.records)
