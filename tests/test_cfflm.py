"""Classical model tests: feature-map conventions, model values as
feature rows times coefficients, coefficient recovery from grid samples
and its inverse, grid synthesis, and the two projection schemes."""

import numpy as np
import pytest

from fourierqml.cfflm import (
    ClassicalModel,
    FeatureMap,
    feature_matrix,
    grid_coefficients,
    grid_values,
    pca_projection,
    random_projection,
    uniform_grid,
)
from fourierqml.errors import CapacityError
from fourierqml.rng import make_rng


class TestFeatureMap:
    def test_degree_one_at_zero(self):
        fm = FeatureMap(n_variables=1, degrees=(1,))
        np.testing.assert_allclose(feature_matrix([[0.0]], fm), [[1.0, np.sqrt(2), 0.0]],
                                   atol=1e-15)

    def test_degree_one_at_half_pi(self):
        fm = FeatureMap(n_variables=1, degrees=(1,))
        np.testing.assert_allclose(
            feature_matrix([[np.pi / 2]], fm), [[1.0, 0.0, np.sqrt(2)]], atol=1e-15
        )

    def test_norm_is_dimension(self):
        fm = FeatureMap(n_variables=2, degrees=(2, 1))
        xs = make_rng(1).uniform(-np.pi, np.pi, size=(1000, 2))
        norms = (feature_matrix(xs, fm) ** 2).sum(axis=1)
        np.testing.assert_allclose(norms, fm.dimension, atol=1e-9)

    def test_multivariate_is_kronecker(self):
        fm2 = FeatureMap(n_variables=2, degrees=(2, 3))
        f1 = FeatureMap(n_variables=1, degrees=(2,))
        f2 = FeatureMap(n_variables=1, degrees=(3,))
        xs = make_rng(0).uniform(-np.pi, np.pi, size=(5, 2))
        expected = [np.kron(a, b) for a, b in
                    zip(feature_matrix(xs[:, :1], f1), feature_matrix(xs[:, 1:], f2))]
        np.testing.assert_allclose(feature_matrix(xs, fm2), expected, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            FeatureMap(n_variables=4, degrees=(40, 40, 40, 40))

    def test_int_degree_broadcast(self):
        fm = FeatureMap(n_variables=3, degrees=2)
        assert fm.degrees == (2, 2, 2)
        assert fm.dimension == 125


class TestEvaluate:
    """A model's values are its feature rows times its coefficients."""

    def test_constant_component(self):
        fm = FeatureMap(n_variables=1, degrees=(2,))
        values = feature_matrix([[-1.0], [0.0], [2.5]], fm) @ np.eye(5)[0]
        np.testing.assert_allclose(values, 1.0, atol=1e-12)

    def test_cosine_component(self):
        fm = FeatureMap(n_variables=1, degrees=(1,))
        c = np.zeros(3)
        c[1] = 1 / np.sqrt(2)
        assert (feature_matrix([[0.0]], fm) @ c)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_sum(self):
        """Feature k of two variables is the product of each variable's
        (constant, cos, sin) features, variable 1 major."""
        fm = FeatureMap(n_variables=2, degrees=(1, 2))
        rng = make_rng(2)
        c = rng.standard_normal(fm.dimension)
        xs = rng.uniform(-np.pi, np.pi, size=(20, 2))
        values = feature_matrix(xs, fm) @ c
        r2 = np.sqrt(2)
        for (x1, x2), value in zip(xs, values):
            first = [1.0, r2 * np.cos(x1), r2 * np.sin(x1)]
            second = [1.0, r2 * np.cos(x2), r2 * np.sin(x2), r2 * np.cos(2 * x2),
                      r2 * np.sin(2 * x2)]
            naive = sum(c[5 * i + j] * a * b
                        for i, a in enumerate(first) for j, b in enumerate(second))
            assert value == pytest.approx(naive, abs=1e-12)

    def test_projected_evaluation(self):
        """A model of n < K coefficients weighs the leading n features: it
        is the full model with its coefficients zero-padded to K, and
        ``grid_coefficients`` recovers that padded vector."""
        fm = FeatureMap(n_variables=1, degrees=(2,))
        rng = make_rng(3)
        c = rng.standard_normal(3)
        padded = np.concatenate([c, np.zeros(2)])
        phi = feature_matrix(rng.uniform(-np.pi, np.pi, size=(10, 1)), fm)
        np.testing.assert_allclose(phi[:, :3] @ c, phi @ padded, atol=1e-12)
        recovered = grid_coefficients(lambda xs: feature_matrix(xs, fm)[:, :3] @ c, fm)
        np.testing.assert_allclose(recovered, padded, rtol=0, atol=1e-12)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ClassicalModel(coefficients=np.array([1.0, np.nan]))


class TestCrossModelConsistency:
    def test_quantum_coefficients_reproduce_quantum_outputs(self):
        """A fully-parametrized classical model loaded with a quantum
        model's real coefficient vector is the same function."""
        from fourierqml.qfflm import AnsatzSpec, Parallel, evaluate_batch, init_parameters
        from fourierqml.spectra import exponential_weights

        spec = AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                          topology=Parallel(), encoding=exponential_weights(2))
        theta = init_parameters(spec, make_rng(5))
        fm = FeatureMap(n_variables=1, degrees=(4,))
        c = grid_coefficients(lambda xs: evaluate_batch(spec, theta, xs), fm)
        xs = make_rng(6).uniform(-np.pi, np.pi, size=(50, 1))
        np.testing.assert_allclose(
            feature_matrix(xs, fm) @ c,
            evaluate_batch(spec, theta, xs),
            atol=1e-9,
        )


class TestGridValues:
    """``grid_values`` synthesizes a coefficient vector on ``uniform_grid``."""

    # (degrees, sizes): every size at Nyquist (2 d + 1), above it, even and odd
    CASES = [
        ((3,), (7,)),
        ((3,), (16,)),
        ((2, 3), (5, 7)),
        ((2, 3), (8, 11)),
        ((2, 1, 2), (5, 3, 5)),
        ((2, 1, 2), (6, 9, 7)),
    ]

    def test_uniform_grid_layout(self):
        xs = uniform_grid((4, 3))
        assert xs.shape == (12, 2)
        np.testing.assert_array_equal(xs[:3, 0], -np.pi)  # variable 1 major
        np.testing.assert_allclose(xs[:3, 1], [-np.pi, -np.pi / 3, np.pi / 3])
        np.testing.assert_allclose(np.unique(xs[:, 0]), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    @pytest.mark.parametrize("degrees, sizes", CASES)
    def test_matches_feature_rows(self, degrees, sizes):
        fm = FeatureMap(n_variables=len(degrees), degrees=degrees)
        c = make_rng(sum(sizes)).standard_normal(fm.dimension)
        expected = feature_matrix(uniform_grid(sizes), fm) @ c
        np.testing.assert_allclose(grid_values(c, fm, sizes), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("degrees", [(4,), (2, 3), (2, 1, 2)])
    def test_inverts_grid_coefficients(self, degrees):
        fm = FeatureMap(n_variables=len(degrees), degrees=degrees)
        c = make_rng(len(degrees)).standard_normal(fm.dimension)
        recovered = grid_coefficients(lambda xs: grid_values(c, fm, fm.per_variable_dims), fm)
        np.testing.assert_allclose(recovered, c, rtol=0, atol=1e-14)

    def test_refuses_grid_below_nyquist(self):
        fm = FeatureMap(n_variables=2, degrees=(2, 3))
        for sizes in [(5, 6), (4, 7), (5,), (5, 7, 7)]:
            with pytest.raises(ValueError, match="cannot hold degrees"):
                grid_values(np.zeros(fm.dimension), fm, sizes)
        assert grid_values(np.zeros(fm.dimension), fm, (5, 7)).shape == (35,)


class TestRandomProjection:
    def test_identical_vectors_have_zero_distortion(self):
        feats = np.ones((2, 10))
        proj = random_projection(feats, d_tilde=40, eps_tilde=0.5, rng=make_rng(7))
        assert np.linalg.norm(proj.projected[0] - proj.projected[1]) == 0.0

    def test_matrix_scaling(self):
        feats = make_rng(8).standard_normal((5, 50))
        proj = random_projection(feats, d_tilde=400, eps_tilde=0.5, rng=make_rng(9))
        assert proj.matrix.shape == (400, 50)
        # entries are N(0, 1/d~): column norms concentrate near 1
        col_norms = np.linalg.norm(proj.matrix, axis=0)
        np.testing.assert_allclose(col_norms, 1.0, atol=0.2)

    def test_distance_preservation_at_safe_dimension(self):
        fm = FeatureMap(n_variables=1, degrees=(5,))
        rng = make_rng(10)
        xs = rng.uniform(-np.pi, np.pi, size=(60, 1))
        feats = feature_matrix(xs, fm)
        proj = random_projection(
            feats, d_tilde=proj_dim(60, 0.5), eps_tilde=0.5, rng=rng
        )
        ok = 0
        total = 0
        for i in range(60):
            for j in range(i + 1, 60):
                d2 = np.sum((feats[i] - feats[j]) ** 2)
                p2 = np.sum((proj.projected[i] - proj.projected[j]) ** 2)
                total += 1
                if 0.5 * d2 <= p2 <= 1.5 * d2:
                    ok += 1
        assert ok / total >= 0.95

    def test_warning_below_threshold(self):
        feats = make_rng(11).standard_normal((200, 20))
        with pytest.warns(UserWarning, match="below the distortion-guarantee"):
            random_projection(feats, d_tilde=5, eps_tilde=0.5, rng=make_rng(12))

    def test_invalid_arguments(self):
        feats = np.zeros((4, 3))
        with pytest.raises(ValueError):
            random_projection(feats, d_tilde=0, eps_tilde=0.5, rng=make_rng(0))
        with pytest.raises(ValueError):
            random_projection(feats, d_tilde=2, eps_tilde=1.5, rng=make_rng(0))


def proj_dim(n_points, eps):
    return int(np.ceil(8 * np.log(n_points) / eps**2))


class TestPcaProjection:
    def test_single_direction(self):
        fm = FeatureMap(n_variables=1, degrees=(2,))
        feats = feature_matrix(np.full((6, 1), 0.8), fm)
        proj = pca_projection(feats, d_tilde=1)
        assert proj.reconstruction_error == pytest.approx(0.0, abs=1e-9)

    def test_full_dimension_is_lossless(self):
        feats = make_rng(13).standard_normal((30, 7))
        proj = pca_projection(feats, d_tilde=7)
        assert proj.reconstruction_error == pytest.approx(0.0, abs=1e-9)

    def test_error_equals_eigenvalue_tail(self):
        rng = make_rng(14)
        feats = rng.standard_normal((40, 12))
        proj = pca_projection(feats, d_tilde=6)
        tail = proj.eigenvalues[6:].sum()
        assert proj.reconstruction_error == pytest.approx(tail, abs=1e-8)

    def test_orthonormal_basis(self):
        feats = make_rng(15).standard_normal((25, 9))
        proj = pca_projection(feats, d_tilde=4)
        np.testing.assert_allclose(proj.basis.T @ proj.basis, np.eye(4), atol=1e-10)

    def test_sign_convention(self):
        feats = make_rng(16).standard_normal((25, 9))
        proj = pca_projection(feats, d_tilde=9)
        for col in range(9):
            v = proj.basis[:, col]
            first = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            assert first > 0

    def test_beats_random_isometries(self):
        """PCA minimizes the reconstruction error over all rank-d~
        isometries; 200 random ones must never do better."""
        rng = make_rng(17)
        fm = FeatureMap(n_variables=1, degrees=(3,))
        xs = rng.uniform(-np.pi, np.pi, size=(40, 1))
        feats = feature_matrix(xs, fm)
        k = fm.dimension
        proj = pca_projection(feats, d_tilde=3)
        sigma = feats.T @ feats / feats.shape[0]
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((k, 3)))
            err = np.trace(sigma) - np.trace(q.T @ sigma @ q)
            assert err >= proj.reconstruction_error - 1e-10

    def test_invalid_dimension(self):
        feats = np.zeros((4, 3))
        with pytest.raises(ValueError):
            pca_projection(feats, d_tilde=4)
