"""Resource formulas, plateau Monte Carlo, and bounded-model geometry."""

import json

import numpy as np
import pytest

from fourierqml import cli
from fourierqml.analysis import (
    advantage_criterion,
    bicone_contains,
    bicone_radius,
    empirical_epsilon,
    fit_decay,
    numerical_membership,
    plateau_stats,
    plateau_sweep,
    resource_report,
    resrc_classical,
    resrc_classical_fully_parametrized,
    resrc_quantum,
    variance_bounds,
)
from fourierqml.cfflm import FeatureMap, feature_matrix
from fourierqml.errors import CapacityError
from fourierqml.qfflm import AnsatzSpec, Parallel, Ring, Serial, count_gates, param_count
from fourierqml.rng import make_rng
from fourierqml.spectra import EncodingSpec, exponential_weights
from fourierqml.statevector import haar_unitary

from dense_oracle import block_unitaries, dense_plateau_samples


def parallel_spec(n_layers, n_variables=1, n_qubits=4, rotation_params=2):
    return AnsatzSpec(
        n_variables=n_variables, n_qubits=n_qubits, n_layers=n_layers,
        topology=Parallel(), encoding=exponential_weights(n_qubits),
        rotation_params=rotation_params,
    )


class TestCountGates:
    def test_four_qubit_single_layer(self):
        """2 blocks x (4 qubits x 2 rotations + 3 CNOTs) + 4 encodings = 26."""
        assert count_gates(parallel_spec(1)) == 26

    def test_encoding_only(self):
        assert count_gates(parallel_spec(0)) == 4

    def test_linear_in_layers(self):
        counts = [count_gates(parallel_spec(layers)) for layers in (1, 2, 3, 4)]
        increments = np.diff(counts)
        # each extra layer adds 2 blocks x (8 rotations + 3 CNOTs)
        np.testing.assert_array_equal(increments, 22)

    def test_serial_formula(self):
        """Blocks: one opener plus one per encoding layer (1 + 3 x 2 = 7),
        each n_layers x (6 qubits x 3 angles + 5 CNOTs); encodings: 3 blocks
        x 2 layers x 6 three-angle gates."""
        for n_layers in (1, 2):
            spec = AnsatzSpec(
                n_variables=36, n_qubits=6, n_layers=n_layers,
                topology=Serial(reuploads=3, encoders_per_block=2),
                encoding=EncodingSpec(weights=(1, 2, 3)), rotation_params=3,
            )
            assert count_gates(spec) == 7 * n_layers * (18 + 5) + 108

    def test_ring_formula(self):
        """Blocks: initial + 3 reuploads, each n_layers x (8 x 3 angles
        + 8 ring CNOTs); encodings: 3 blocks x 8 single-angle gates."""
        spec = AnsatzSpec(
            n_variables=8, n_qubits=8, n_layers=2,
            topology=Ring(reuploads=3), encoding=EncodingSpec(weights=(1, 2, 3)),
            rotation_params=3,
        )
        assert count_gates(spec) == 4 * 2 * (24 + 8) + 24


class TestResourceFormulas:
    def test_fully_parametrized_substitution(self):
        assert resrc_classical_fully_parametrized(81) == 244
        assert resrc_classical_fully_parametrized(81) == resrc_classical(81, 1, 81)

    def test_no_trainable_parameters(self):
        assert resrc_classical(10, 1, 0, R_I=5) == 2 * 10 + 5 + 1

    def test_feature_term_scales_linearly(self):
        base = resrc_classical(100, 1, 0)
        assert resrc_classical(200, 1, 0) - 1 == 2 * (base - 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resrc_classical(-1, 1, 0)

    def test_quantum_substitution(self):
        assert resrc_quantum(10, 4, 1.0, 1.0) == 103

    def test_quantum_inverse_square_scaling(self):
        loose = resrc_quantum(100, 10, 1.0, 1.0)
        tight = resrc_quantum(100, 10, 0.5, 0.5)
        # the eps-dependent part scales by exactly 4
        assert tight - 1 - 30 == 4 * (loose - 1 - 30)

    def test_quantum_epsilon_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                resrc_quantum(10, 1, bad, 0.5)
            with pytest.raises(ValueError):
                resrc_quantum(10, 1, 0.5, bad)


class TestAdvantageCriterion:
    def test_threshold_examples(self):
        ok = advantage_criterion(4, 0.5, 81, 1)
        assert ok.advantage and ok.log_margin == pytest.approx(np.log(4.5 / 4))
        assert not advantage_criterion(100, 0.5, 81, 1).advantage

    def test_exponential_beats_naive_at_forty_qubits(self):
        """At MN=40 the spectrum size 3^40 makes the threshold
        (3/2)^20 ~ 3325 with plateau precision eps = 2^-20, while naive
        encoding only reaches K = 81 and a polynomially small threshold."""
        n_gt = 40**2
        eps = 2.0**-20
        assert advantage_criterion(n_gt, eps, 3**40, 1).advantage
        assert not advantage_criterion(n_gt, eps, 2 * 40 + 1, 1).advantage

    def test_monotone_in_eps_and_k(self):
        rng = make_rng(2)
        for _ in range(200):
            n_gt = int(rng.integers(1, 10**6))
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 10**4))
            eps = float(rng.uniform(0.01, 1.0))
            before = advantage_criterion(n_gt, eps, k, m).advantage
            if before:
                assert advantage_criterion(n_gt, min(1.0, eps * 2), k, m).advantage
                assert advantage_criterion(n_gt, eps, k + 10, m).advantage

    def test_validation(self):
        with pytest.raises(ValueError):
            advantage_criterion(0, 0.5, 3, 1)
        with pytest.raises(ValueError):
            advantage_criterion(1, 2.0, 3, 1)


class TestResourceReport:
    def test_advantage_matches_counts(self):
        report = resource_report(N_gt=26, N_tp=16, K=81, M=1, eps=1.0)
        assert report.resrc_c == 244
        assert report.resrc_q == resrc_quantum(26, 16, 1.0, 1.0)
        assert report.advantage == (report.resrc_q < report.resrc_c)

    def test_crossing_eps_solves_equality(self):
        report = resource_report(N_gt=4, N_tp=2, K=81, M=1, eps=0.5)
        eps = report.crossing_eps
        continuous = 4 * (1 + 2 * 2) / eps**2 + 1 + 3 * 2
        assert continuous == pytest.approx(report.resrc_c)

    def test_crossing_infinite_when_classical_trivial(self):
        # N_tp >= K^M: the quantum count's eps-free part, 1 + 3 N_tp = 31,
        # already exceeds the whole classical count 3 K^M + 1 = 7
        report = resource_report(N_gt=5, N_tp=10, K=2, M=1, eps=0.5)
        assert report.resrc_c == 7
        assert np.isinf(report.crossing_eps)
        assert not report.advantage

    def test_resources_json_keys(self):
        files, _ = cli._cmd_resources({"K": 81, "M": 1, "eps": 0.5, "N_tp": 16,
                                       "gate_counts": [26]})
        [doc] = json.loads(files["resources.json"])["reports"]
        assert set(doc) == {"N_gt", "N_tp", "eps", "resrc_q", "K", "M",
                            "resrc_c", "advantage", "crossing_eps"}


class TestVarianceBounds:
    def test_printed_values(self):
        assert variance_bounds(4, "I").bound == pytest.approx(128 / 75)
        assert variance_bounds(2, "III").bound == pytest.approx(16 / 3)
        assert variance_bounds(4, "II").bound == pytest.approx(32 / 15)

    def test_gamma_companions(self):
        assert variance_bounds(8, "II").gamma == pytest.approx(1 / 9)
        assert variance_bounds(8, "III").gamma == pytest.approx(-8 / 63)
        assert variance_bounds(8, "I").gamma is None

    def test_second_moments(self):
        assert variance_bounds(2, "I").grad_second_moment == pytest.approx(2 / 9)
        assert variance_bounds(2, "II").grad_second_moment == pytest.approx(1 / 3)
        assert variance_bounds(4, "III").grad_second_moment == pytest.approx(1 / 5)

    def test_monotone_decay(self):
        for case in ("I", "II", "III"):
            values = [variance_bounds(2**k, case).bound for k in range(1, 11)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_bounds(1, "I")
        with pytest.raises(ValueError):
            variance_bounds(4, "IV")


class TestPlateauStats:
    def test_haar_moments_d2(self):
        report = plateau_stats(1, 1, 5000, make_rng(0))
        assert abs(report.zscore_mean_f) < 4.0
        assert abs(report.zscore_mean_sq_f) < 4.0
        assert report.predicted_mean_sq_f == pytest.approx(1 / 3)

    def test_haar_moments_d4(self):
        report = plateau_stats(1, 2, 5000, make_rng(1))
        assert abs(report.zscore_mean_sq_f) < 4.0
        assert report.predicted_mean_sq_f == pytest.approx(1 / 5)

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_gradient_second_moment_matches_prediction(self, case, n_qubits):
        report = plateau_stats(1, n_qubits, 6000, make_rng((3, n_qubits)),
                               grad_case=case)
        z = (report.mean_sq_grad - report.predicted_mean_sq_grad) / report.se_mean_sq_grad
        assert abs(z) < 4.0

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_loss_gradient_variance_below_bound(self, case):
        for n_qubits in (1, 2, 3):
            report = plateau_stats(1, n_qubits, 2000, make_rng((7, n_qubits)),
                                   grad_case=case)
            assert report.var_loss_grad <= report.bound_loss_grad

    def test_multivariate_register(self):
        report = plateau_stats(2, 2, 1000, make_rng(4))
        assert report.d == 16
        assert report.predicted_mean_sq_f == pytest.approx(1 / 17)
        assert abs(report.zscore_mean_sq_f) < 4.0

    def test_circuit_mode_smoke(self):
        report = plateau_stats(1, 2, 500, make_rng(5), mode="circuit", n_layers=3)
        assert np.isfinite(report.mean_sq_f)
        assert 0.0 < report.mean_sq_f < 1.0
        assert np.isfinite(report.mean_sq_grad)

    def test_deterministic_given_rng_seed(self):
        a = plateau_stats(1, 2, 500, make_rng(9))
        b = plateau_stats(1, 2, 500, make_rng(9))
        assert a.mean_f == b.mean_f
        assert a.mean_sq_grad == b.mean_sq_grad

    @pytest.mark.parametrize("mode", ["haar", "circuit"])
    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n_variables, n_qubits", [(1, 1), (1, 3), (2, 1)])
    def test_matches_per_trial_matrix_oracle(self, n_variables, n_qubits, case, mode):
        """Replay the draws from the same seed, build every trial's rows as
        explicit matrix-vector products and apply the shift rule trial by
        trial.  In circuit mode the blocks are explicit d x d matrices; in
        Haar mode the lab's isometries V (and Haar states u for I and III)
        map an explicit 2-frame of the shifted rows."""
        trials, seed = 100, (13, n_variables, n_qubits)
        x = np.array([0.7, -1.3][:n_variables])
        report = plateau_stats(n_variables, n_qubits, trials, make_rng(seed),
                               mode=mode, grad_case=case, x=x)

        n = n_variables * n_qubits
        d = 2**n
        spec = AnsatzSpec(n_variables, n_qubits, 2, Parallel(), exponential_weights(n_qubits))
        rng = make_rng(seed)

        def on_qubit(gate, q):
            return np.kron(np.kron(np.eye(2 ** (q - 1)), gate), np.eye(2 ** (n - q)))

        def ry(q, angle):
            c, s = np.cos(angle / 2), np.sin(angle / 2)
            return on_qubit(np.array([[c, -s], [s, c]]), q)

        z_last = on_qubit(np.diag([1.0, -1.0]), n)
        zero = np.eye(d)[:, 0]

        if mode == "circuit":
            def draw():  # 100 trials are one batch, so each block is one draw
                n_block = param_count(spec) // 2
                return block_unitaries(spec, rng.uniform(-np.pi, np.pi, size=(n_block, trials)).T)

            w1, w2 = draw(), draw()
            wb = draw() if case == "I" else None
            encoding = np.eye(1)
            for value in x:
                for k in range(n_qubits):  # RZ(3**k x) on the variable's k-th qubit
                    half = 0.5j * 3**k * value
                    encoding = np.kron(encoding, np.diag(np.exp([-half, half])))

            def state(t, theta):
                body = w2[t] @ encoding @ w1[t]
                if case == "I":
                    return body @ ry(1, theta) @ wb[t] @ zero
                if case == "II":
                    return body @ ry(1, theta) @ zero
                return ry(n, theta) @ body @ zero
        else:
            u = haar_unitary(d, rng, size=trials, columns=1)[..., 0] if case != "II" else None
            v = haar_unitary(d, rng, size=trials, columns=2) if case != "III" else None

            def state(t, theta):
                if case == "III":  # W2 S W1 |0> is the Haar state u
                    return ry(n, theta) @ u[t]
                if case == "II":  # W2 S W1 maps |0>, |d/2> to the columns of V
                    frame = np.eye(d)[:, [0, d // 2]]
                    row = ry(1, theta) @ zero
                else:  # Wb|0> is u; W2 S W1 maps a frame of u, RY(pi/2) u to V
                    frame = np.linalg.qr(np.stack([u[t], ry(1, np.pi / 2) @ u[t]], axis=1))[0]
                    row = ry(1, theta) @ u[t]
                return v[t] @ (frame.conj().T @ row)

        f, grad = np.empty(trials), np.empty(trials)
        for t in range(trials):
            def value(theta):
                psi = state(t, theta)
                return float(np.real(np.conj(psi) @ z_last @ psi))

            f[t] = value(0.0)
            grad[t] = 0.5 * (value(np.pi / 2) - value(-np.pi / 2))

        loss_grad = 2.0 * f * grad
        expected = {
            "mean_f": f.mean(), "var_f": f.var(ddof=1), "mean_grad": grad.mean(),
            "mean_sq_grad": (grad**2).mean(), "var_loss_grad": loss_grad.var(ddof=1),
        }
        for name, want in expected.items():
            assert getattr(report, name) == pytest.approx(want, rel=1e-12, abs=1e-12), name

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_isometry_moments_match_dense_haar_blocks(self, n_qubits, case):
        """The isometry lab and full d x d Haar blocks (the dense oracle)
        sample the same distribution: <f>, <f^2> and <g^2> agree within 4
        combined standard errors at d = 2, 4, 8."""
        trials, index = 4000, ("I", "II", "III").index(case)
        f, grad = dense_plateau_samples(1, n_qubits, trials, make_rng((23, n_qubits, index)),
                                        grad_case=case)
        report = plateau_stats(1, n_qubits, trials, make_rng((29, n_qubits, index)), grad_case=case)
        for name, dense, mean, se in (
            ("<f>", f, report.mean_f, report.se_mean_f),
            ("<f^2>", f**2, report.mean_sq_f, report.se_mean_sq_f),
            ("<g^2>", grad**2, report.mean_sq_grad, report.se_mean_sq_grad),
        ):
            se_dense = dense.std(ddof=1) / np.sqrt(trials)
            z = (mean - dense.mean()) / np.hypot(se, se_dense)
            assert abs(z) < 4.0, (name, z)

    def test_twelve_qubit_second_moment(self):
        """The isometry lab reaches past the old 10-qubit cap: at d = 4096,
        <f^2> is within 4 standard errors of 1/(d+1)."""
        report = plateau_stats(1, 12, 500, make_rng(31))
        assert report.predicted_mean_sq_f == pytest.approx(1 / 4097)
        assert abs(report.zscore_mean_sq_f) < 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            plateau_stats(1, 2, 99, make_rng(0))
        with pytest.raises(CapacityError):
            plateau_stats(1, 17, 1000, make_rng(0))
        with pytest.raises(ValueError):
            plateau_stats(1, 2, 500, make_rng(0), mode="weird")
        with pytest.raises(ValueError):
            plateau_stats(1, 2, 500, make_rng(0), grad_case="IV")

    def test_csv_shape(self):
        files, _ = cli._cmd_plateau({"seed": 1, "qubit_counts": [1, 2], "trials": 200})
        lines = files["plateau.csv"].strip().split("\n")
        assert lines[0] == "d,trials,mean_f,se_mean_f,var_f,predicted,zscore"
        assert len(lines) == 3
        assert lines[1].startswith("2,200,")
        assert lines[2].startswith("4,200,")

    def test_empirical_epsilon(self):
        report = plateau_stats(1, 2, 500, make_rng(12))
        expected = min(np.sqrt(report.mean_sq_f), np.sqrt(report.mean_sq_grad))
        assert empirical_epsilon(report) == pytest.approx(expected)


class TestDecayFit:
    def test_exact_powers_of_two(self):
        sizes = np.array([2, 4, 6, 8])
        fit = fit_decay(sizes, 0.7 * 2.0**-sizes)
        assert fit.slope == pytest.approx(-np.log(2), abs=1e-12)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_decay([2], [0.5])
        with pytest.raises(ValueError):
            fit_decay([2, 4], [0.5, -0.1])

    def test_one_distinct_size_rejected(self):
        # a least-squares line through one abscissa is not determined
        with pytest.raises(ValueError, match="two sizes"):
            fit_decay([3, 3], [0.1, 0.12])

    def test_sweep_attaches_alpha(self):
        reports, fit = plateau_sweep((1, 2), 300, make_rng(6))
        assert reports[0].alpha == fit.alpha
        assert reports[1].d == 4
        assert 1.0 < fit.alpha < 4.0


class TestBicone:
    def test_boundary_points(self):
        assert bicone_contains((1.0, 0.0, 0.0))
        assert bicone_contains((0.0, 1 / np.sqrt(2), 0.0))
        assert bicone_contains((-1.0, 0.0, 0.0))

    def test_interior_and_exterior(self):
        assert bicone_contains((0.5, 0.3, 0.1))
        assert not bicone_contains((0.6, 0.5, 0.0))
        assert not bicone_contains((1.0 + 1e-6, 0.0, 0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            bicone_contains((1.0, 0.0))
        with pytest.raises(ValueError):
            bicone_contains((np.inf, 0.0, 0.0))

    def test_radius_is_max_abs(self):
        c = np.array([-0.3, 0.4, -0.2])
        xs = np.linspace(-np.pi, np.pi, 100_001)
        values = c[0] + np.sqrt(2) * (c[1] * np.cos(xs) + c[2] * np.sin(xs))
        assert bicone_radius(c) == pytest.approx(np.abs(values).max(), abs=1e-9)


class TestNumericalMembership:
    FM = FeatureMap(n_variables=1, degrees=(1,))

    def test_constant_feature(self):
        result = numerical_membership(np.array([1.0, 0.0, 0.0]), self.FM, 64)
        assert result.member
        assert result.max_abs == pytest.approx(1.0, abs=1e-12)
        doubled = numerical_membership(np.array([2.0, 0.0, 0.0]), self.FM, 64)
        assert not doubled.member
        assert doubled.max_abs == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_bicone_outside_band(self):
        rng = make_rng(8)
        disagreements = 0
        for _ in range(2000):
            c = rng.uniform(-1.5, 1.5, 3)
            margin = abs(c[0]) + np.sqrt(2 * (c[1] ** 2 + c[2] ** 2)) - 1.0
            analytic = bicone_contains(c)
            numeric = numerical_membership(c, self.FM, 128).member
            if analytic != numeric:
                disagreements += 1
                assert abs(margin) < 1e-3
        assert disagreements < 10

    @pytest.mark.parametrize("grid_points", [24, 25])
    def test_matches_dense_maximum(self, grid_points):
        fm = FeatureMap(n_variables=2, degrees=(2, 3))
        c = make_rng(grid_points).standard_normal(fm.dimension) / fm.dimension
        axis = -np.pi + 2.0 * np.pi * np.arange(grid_points) / grid_points
        mesh = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        dense = np.abs(feature_matrix(mesh, fm) @ c).max()
        result = numerical_membership(c, fm, grid_points)
        assert result.max_abs == pytest.approx(dense, rel=1e-13)

    def test_multivariate_constant(self):
        fm = FeatureMap(n_variables=2, degrees=(1, 1))
        c = np.zeros(9)
        c[0] = 1.0
        assert numerical_membership(c, fm, 16).member

    def test_grid_floor(self):
        fm = FeatureMap(n_variables=1, degrees=(3,))
        with pytest.raises(ValueError, match="grid_points"):
            numerical_membership(np.zeros(7), fm, 20)

    def test_capacity(self):
        fm = FeatureMap(n_variables=3, degrees=(40, 40, 40))
        with pytest.raises(CapacityError):
            numerical_membership(np.zeros(fm.dimension), fm, 512)

    def test_cap_counts_grid_points_only(self):
        # 40000 points of a 10001-feature map: one synthesis, no feature matrix
        result = numerical_membership(np.zeros(10001), FeatureMap(1, (5000,)), 40000)
        assert result.member and result.max_abs == 0.0
        with pytest.raises(CapacityError, match="points"):
            numerical_membership(np.zeros(3), self.FM, 10_000_001)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            numerical_membership(np.zeros(5), self.FM, 64)
