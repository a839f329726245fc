"""Classical Fourier-featured linear model.

The model is ``f_C(x) = c . phi(x)`` over the real Fourier feature column

    phi(x_m) = sqrt(2) * (2^{-1/2}, cos x_m, sin x_m, ..., cos d_F x_m, sin d_F x_m)

per variable (so ``|phi(x)|^2 = K = 2 d_F + 1`` identically), with the
multivariate column the Kronecker product over variables, variable 1
major.  Feature index ``0`` is the constant, ``2j - 1`` the ``cos(j x)``
feature and ``2j`` the ``sin(j x)`` feature per variable; this ordering
is load-bearing, since quantum-model coefficient vectors are aligned
with it.  ``cfflm`` owns both directions of the basis on the uniform grid
``x = -pi + 2 pi g / G`` (``uniform_grid``): ``grid_coefficients`` reads
any band-limited function's coefficients from its values on the map's
own grid, and ``grid_values`` synthesizes a coefficient vector's values
on any grid fine enough to hold it, one real FFT per variable each way.

An underparametrized model of ``n < K`` coefficients weighs the leading
``n`` features.  A scaled Gaussian (Johnson-Lindenstrauss) map and the
top principal components of the feature second-moment matrix are
provided as feature-space projections.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, log, prod

import numpy as np

from .errors import CapacityError

__all__ = [
    "MAX_POINTS",
    "FeatureMap",
    "ClassicalModel",
    "RandomProjection",
    "PcaProjection",
    "feature_matrix",
    "uniform_grid",
    "grid_coefficients",
    "grid_values",
    "random_projection",
    "pca_projection",
]

# Cap on a feature map's dimension K^M, which is also the number of points
# ``grid_coefficients`` samples; ``analysis.numerical_membership`` caps its
# grid's points with it too.
MAX_POINTS = 10_000_000


@dataclass(frozen=True)
class FeatureMap:
    """Fourier feature map of per-variable degrees ``d_F``."""

    n_variables: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        if self.n_variables < 1:
            raise ValueError("n_variables must be >= 1")
        degrees = self.degrees
        if isinstance(degrees, int):
            degrees = (degrees,) * self.n_variables
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != self.n_variables:
            raise ValueError(f"need {self.n_variables} degrees, got {len(degrees)}")
        if any(d < 0 for d in degrees):
            raise ValueError(f"degrees must be >= 0, got {degrees}")
        object.__setattr__(self, "degrees", degrees)
        if self.dimension > MAX_POINTS:
            raise CapacityError(f"feature dimension {self.dimension} exceeds cap {MAX_POINTS}")

    @property
    def per_variable_dims(self) -> tuple[int, ...]:
        return tuple(2 * d + 1 for d in self.degrees)

    @property
    def dimension(self) -> int:
        """Total feature count K^M (product of per-variable 2 d_F + 1)."""
        return prod(self.per_variable_dims)


def _univariate_features(x: np.ndarray, degree: int) -> np.ndarray:
    """(n,) inputs -> (n, 2*degree+1) feature block."""
    n = x.shape[0]
    out = np.empty((n, 2 * degree + 1))
    out[:, 0] = 1.0
    root2 = np.sqrt(2.0)
    for j in range(1, degree + 1):
        out[:, 2 * j - 1] = root2 * np.cos(j * x)
        out[:, 2 * j] = root2 * np.sin(j * x)
    return out


def feature_matrix(xs, fm: FeatureMap) -> np.ndarray:
    """Feature rows for inputs of shape (n, M); returns (n, K^M)."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs[:, None] if fm.n_variables == 1 else xs[None, :]
    if xs.ndim != 2 or xs.shape[1] != fm.n_variables:
        raise ValueError(f"inputs must have shape (n, {fm.n_variables}), got {xs.shape}")
    out = _univariate_features(xs[:, 0], fm.degrees[0])
    for m in range(1, fm.n_variables):
        block = _univariate_features(xs[:, m], fm.degrees[m])
        out = (out[:, :, None] * block[:, None, :]).reshape(xs.shape[0], -1)
    return out


def uniform_grid(sizes) -> np.ndarray:
    """Points ``x = -pi + 2 pi g / G_m``, ``G_m`` per variable, as rows of
    shape (prod G_m, M), variable 1 major like ``feature_matrix``."""
    axes = [-np.pi + 2.0 * np.pi * np.arange(g) / g for g in sizes]
    return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)


def grid_coefficients(f, fm: FeatureMap) -> np.ndarray:
    """Real coefficient vector of ``f`` in the feature basis of ``fm``.

    ``f`` maps inputs of shape (n, M) to n real values and must be
    band-limited to the map's degrees.  It is sampled once on
    ``uniform_grid``, ``2 d_m + 1`` points per variable, and each
    variable takes one real FFT: with ``F_j`` its bins over
    ``G = 2 d_m + 1`` points, ``e^{-2 pi i j g / G} = (-1)^j e^{-i j x_g}``
    gives the constant ``F_0 / G`` and, for ``j >= 1``, the cos and sin
    coefficients ``sqrt(2) (-1)^j Re F_j / G`` and
    ``-sqrt(2) (-1)^j Im F_j / G``.  The transformed values stay real, so
    the variables go one after another.  The result ``c`` satisfies
    ``f(x) = c . phi(x)``, Kronecker ordered as in ``feature_matrix``.
    ``grid_values`` is its inverse.
    """
    sizes = fm.per_variable_dims
    acc = np.asarray(f(uniform_grid(sizes)), dtype=np.float64).reshape(sizes)
    for axis, g in enumerate(sizes):
        bins = np.moveaxis(np.fft.rfft(acc, axis=axis), axis, 0) / g
        scale = np.sqrt(2.0) * (-1.0) ** np.arange(1, bins.shape[0])
        scale = scale.reshape((-1,) + (1,) * (bins.ndim - 1))
        out = np.empty((g,) + bins.shape[1:])
        out[0] = bins[0].real
        out[1::2] = scale * bins[1:].real
        out[2::2] = -scale * bins[1:].imag
        acc = np.moveaxis(out, 0, axis)
    return acc.ravel()


def grid_values(c, fm: FeatureMap, sizes) -> np.ndarray:
    """Values of ``c . phi(x)`` at the rows of ``uniform_grid(sizes)``.

    The inverse of ``grid_coefficients``, on any grid of ``G_m >= 2 d_m + 1``
    points per variable.  Frequency ``j``'s features read
    ``sqrt(2) Re[(a_j - i b_j) e^{i j x}]`` and
    ``e^{i j x_g} = (-1)^j e^{2 pi i j g / G}``, so each variable takes one
    inverse real FFT of the bins ``G a_0`` and
    ``G (-1)^j (a_j - i b_j) / sqrt(2)``.  Every ``j <= d_m`` lies below
    the Nyquist bin ``G / 2``, so nothing aliases; a coarser grid raises
    ``ValueError``.
    """
    if len(sizes) != fm.n_variables or any(g < 2 * d + 1 for g, d in zip(sizes, fm.degrees)):
        raise ValueError(f"grid sizes {tuple(sizes)} cannot hold degrees {fm.degrees}; "
                         "each needs at least 2 d + 1 points")
    acc = np.asarray(c, dtype=np.float64).reshape(fm.per_variable_dims)
    for axis, (g, degree) in enumerate(zip(sizes, fm.degrees)):
        coef = np.moveaxis(acc, axis, -1)
        scale = np.sqrt(2.0) * g / 2.0 * (-1.0) ** np.arange(1, degree + 1)
        bins = np.zeros(coef.shape[:-1] + (g // 2 + 1,), dtype=np.complex128)
        bins[..., 0] = coef[..., 0] * g
        bins[..., 1:degree + 1].real = scale * coef[..., 1::2]
        bins[..., 1:degree + 1].imag = -scale * coef[..., 2::2]
        acc = np.moveaxis(np.fft.irfft(bins, g), -1, axis)
    return acc.ravel()


@dataclass
class ClassicalModel:
    """Linear model ``c . phi(x)[:n]`` over the leading ``n`` features.

    ``coefficients`` holds ``n`` values, ``1 <= n <= K^M`` for the feature
    map it trains with; ``n = K^M`` is the fully-parametrized model.
    """

    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be a vector")
        if not np.isfinite(self.coefficients).all():
            raise ValueError("coefficients must be finite")

    @property
    def n_parameters(self) -> int:
        return self.coefficients.shape[0]


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomProjection:
    """Scaled Gaussian map ``phi -> d~^{-1/2} A phi`` and its output."""

    matrix: np.ndarray = field(repr=False)
    projected: np.ndarray = field(repr=False)
    recommended_dimension: int


def random_projection(
    features: np.ndarray,
    d_tilde: int,
    eps_tilde: float,
    rng: np.random.Generator,
) -> RandomProjection:
    """Johnson-Lindenstrauss projection of feature rows ``(n, K)``.

    Pairwise squared distances are preserved within a ``1 +- eps_tilde``
    factor with high probability once ``d_tilde`` reaches about
    ``8 ln(n) / eps_tilde^2``; smaller values trigger a warning.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (n, K) array")
    if d_tilde < 1:
        raise ValueError(f"d_tilde must be >= 1, got {d_tilde}")
    if not 0 < eps_tilde < 1:
        raise ValueError(f"eps_tilde must be in (0, 1), got {eps_tilde}")
    n = features.shape[0]
    recommended = ceil(8.0 * log(max(n, 2)) / eps_tilde**2)
    if d_tilde < recommended:
        warnings.warn(
            f"projection dimension {d_tilde} below the distortion-guarantee "
            f"threshold {recommended} for {n} points at eps={eps_tilde}",
            stacklevel=2,
        )
    matrix = rng.standard_normal((d_tilde, features.shape[1])) / np.sqrt(d_tilde)
    return RandomProjection(
        matrix=matrix,
        projected=features @ matrix.T,
        recommended_dimension=recommended,
    )


@dataclass(frozen=True)
class PcaProjection:
    """Top principal directions of the feature second-moment matrix.

    ``basis`` has orthonormal columns (K x d~); ``projected`` holds
    ``basis.T @ phi`` rows; ``reconstruction_error`` is the mean squared
    distance ``E = tr(Sigma) - tr(Sigma B B^T)`` between features and
    their rank-d~ reconstructions, which equals the eigenvalue tail sum.
    """

    basis: np.ndarray = field(repr=False)
    projected: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    reconstruction_error: float


def pca_projection(features: np.ndarray, d_tilde: int) -> PcaProjection:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a (n, K) array")
    k = features.shape[1]
    if not 1 <= d_tilde <= k:
        raise ValueError(f"d_tilde must be in 1..{k}, got {d_tilde}")
    sigma = features.T @ features / features.shape[0]
    eigenvalues, vectors = np.linalg.eigh(sigma)  # ascending
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    # deterministic sign: first component of noticeable size made positive
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        nonzero = np.flatnonzero(np.abs(v) > 1e-12)
        if nonzero.size and v[nonzero[0]] < 0:
            vectors[:, col] = -v
    basis = vectors[:, :d_tilde]
    reconstruction_error = float(np.trace(sigma) - np.trace(basis.T @ sigma @ basis))
    return PcaProjection(
        basis=basis,
        projected=features @ basis,
        eigenvalues=eigenvalues,
        reconstruction_error=reconstruction_error,
    )
