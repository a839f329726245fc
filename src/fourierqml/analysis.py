"""Resource accounting, barren-plateau Monte Carlo, and norm-ball geometry.

Three loosely coupled tool sets:

* operation-count formulas for classical Fourier-feature regression and
  shot-based quantum gradient training, plus the scaling criterion that
  says when the quantum gate count beats the classical feature count;
* a Monte-Carlo lab that draws the trainable blocks of a circuit as
  exact Haar unitaries (or as randomly initialized layered blocks) and
  measures the concentration of the model value and of parameter-shift
  gradients as the Hilbert dimension grows;
* membership tests for the set of coefficient vectors whose trigonometric
  polynomial stays inside [-1, 1], including the exact bicone description
  available for a single frequency.

All operation-count formulas set every O-constant to 1; the docstrings
state the symbolic form so callers can rescale.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import statevector
from .cfflm import MAX_POINTS, FeatureMap, grid_values
from .errors import CapacityError
from .qfflm import AnsatzSpec, Parallel, apply_opening, param_count
from .spectra import exponential_weights
from .statevector import haar_unitary

__all__ = [
    "resrc_classical",
    "resrc_classical_fully_parametrized",
    "resrc_quantum",
    "advantage_criterion",
    "Advantage",
    "ResourceReport",
    "resource_report",
    "VarianceBound",
    "variance_bounds",
    "PlateauReport",
    "plateau_stats",
    "plateau_sweep",
    "DecayFit",
    "fit_decay",
    "empirical_epsilon",
    "bicone_radius",
    "bicone_contains",
    "MembershipResult",
    "numerical_membership",
]


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

def resrc_classical(K: int, M: int, N_tp: int, R_I: int = 0, R_II: int = 0) -> int:
    """Operation count ``2 K^M + R_I + 1 + N_tp (R_II + 1)`` for one
    gradient evaluation of the classical model.

    ``2 K^M`` covers building the feature vector (one multiply and one
    add per feature), ``R_I``/``R_II`` are optional projection overheads,
    and each trainable coefficient costs ``R_II + 1`` operations.
    """
    for name, value in (("K", K), ("M", M), ("N_tp", N_tp), ("R_I", R_I), ("R_II", R_II)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    return 2 * K**M + R_I + 1 + N_tp * (R_II + 1)


def resrc_classical_fully_parametrized(K: int, M: int = 1) -> int:
    """``3 K^M + 1``: every feature carries its own trainable coefficient."""
    return resrc_classical(K, M, N_tp=K**M)


def resrc_quantum(N_gt: int, N_tp: int, eps_f: float, eps_grad: float) -> int:
    """Operation count ``N_gt/eps_f^2 + 1 + N_tp (2 N_gt/eps_grad^2 + 3)``
    for one shot-based gradient evaluation, rounded up.

    Estimating the model value to precision ``eps_f`` costs
    ``N_gt/eps_f^2`` gate executions, and each parameter-shift component
    needs two circuit estimates at precision ``eps_grad`` plus a constant
    amount of postprocessing.
    """
    if N_gt < 0 or N_tp < 0:
        raise ValueError("gate and parameter counts must be >= 0")
    for name, eps in (("eps_f", eps_f), ("eps_grad", eps_grad)):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {eps}")
    total = N_gt / eps_f**2 + 1.0 + N_tp * (2.0 * N_gt / eps_grad**2 + 3.0)
    return math.ceil(round(total, 9))


class Advantage(NamedTuple):
    advantage: bool
    log_margin: float


def advantage_criterion(N_gt: int, eps: float, K: int, M: int) -> Advantage:
    """Scaling test ``N_gt < eps * K^(M/2)`` evaluated in log space.

    ``log_margin = ln eps + (M/2) ln K - ln N_gt``; positive means the
    gate count is below the threshold, so sampling the model on quantum
    hardware beats touching every classical feature.  Log space keeps
    ``K^(M/2)`` finite for lattices far beyond float range.
    """
    if N_gt < 1:
        raise ValueError(f"N_gt must be >= 1, got {N_gt}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if K < 1 or M < 1:
        raise ValueError("K and M must be >= 1")
    margin = math.log(eps) + 0.5 * M * math.log(K) - math.log(N_gt)
    return Advantage(advantage=margin > 0.0, log_margin=margin)


@dataclass(frozen=True)
class ResourceReport:
    """Concrete operation counts for one quantum/classical pairing.

    ``advantage`` compares the two concrete counts (``resrc_q <
    resrc_c``); ``crossing_eps`` is the sampling precision at which the
    quantum count equals the classical one (quantum wins for any coarser
    ``eps``), infinite when the classical count never catches up.
    """

    N_gt: int
    N_tp: int
    eps: float
    resrc_q: int
    K: int
    M: int
    resrc_c: int
    advantage: bool
    crossing_eps: float


def resource_report(
    N_gt: int,
    N_tp: int,
    K: int,
    M: int,
    eps: float,
) -> ResourceReport:
    """Build a ``ResourceReport`` with one shared precision ``eps``.

    The classical side is the fully parametrized model
    (``resrc_classical_fully_parametrized``).
    """
    resrc_c = resrc_classical_fully_parametrized(K, M)
    resrc_q = resrc_quantum(N_gt, N_tp, eps, eps)
    # resrc_q(eps) = N_gt (1 + 2 N_tp) / eps^2 + 1 + 3 N_tp; solve for equality.
    numerator = N_gt * (1 + 2 * N_tp)
    denominator = resrc_c - 1 - 3 * N_tp
    crossing = math.sqrt(numerator / denominator) if denominator > 0 else math.inf
    return ResourceReport(
        N_gt=N_gt, N_tp=N_tp, eps=eps, resrc_q=resrc_q, K=K, M=M,
        resrc_c=resrc_c, advantage=resrc_q < resrc_c, crossing_eps=crossing,
    )


# ---------------------------------------------------------------------------
# barren-plateau Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceBound:
    """Loss-gradient variance bound plus exact Haar companions.

    ``bound`` caps the variance of the mean-squared-error gradient for a
    bounded target.  ``grad_second_moment`` is the exact Haar-average
    ``<(df/dtheta)^2>`` for the case; ``gamma`` is the module-overlap
    constant (crossed second moment) -- ``1/(d+1)`` when the
    differentiated rotation opens the circuit, ``-d/(d^2-1)`` when it
    closes it, undefined for a bulk parameter.
    """

    d: int
    case: str
    bound: float
    grad_second_moment: float
    gamma: float | None


def variance_bounds(d: int, case: str) -> VarianceBound:
    """Variance bound for the loss gradient when all trainable blocks are
    Haar random, by position of the differentiated parameter.

    Case I (bulk): ``8 d^2 / ((d+1)(d^2-1))``; case II (first rotation):
    ``8 d / (d^2-1)``; case III (final rotation before measurement):
    ``16 / (d+1)``.  All three decay to zero as the dimension grows --
    the barren plateau.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if case == "I":
        bound = 8.0 * d**2 / ((d + 1) * (d**2 - 1))
        second = d**2 / (2.0 * (d + 1) * (d**2 - 1))
        gamma = None
    elif case == "II":
        bound = 8.0 * d / (d**2 - 1)
        second = d / (2.0 * (d**2 - 1))
        gamma = 1.0 / (d + 1)
    elif case == "III":
        bound = 16.0 / (d + 1)
        second = 1.0 / (d + 1)
        gamma = -d / (d**2 - 1.0)
    else:
        raise ValueError(f"case must be 'I', 'II' or 'III', got {case!r}")
    return VarianceBound(d=d, case=case, bound=bound, grad_second_moment=second, gamma=gamma)


@dataclass
class PlateauReport:
    """Monte-Carlo concentration statistics at one Hilbert dimension.

    ``mean_sq_f`` estimates ``<f^2>`` with prediction ``1/(d+1)``;
    ``mean_sq_grad`` estimates the parameter-shift second moment for the
    chosen case; ``var_loss_grad`` is the empirical variance of the
    mean-squared-error gradient against target 0, to compare with
    ``bound``.  ``alpha`` is filled in by ``plateau_sweep`` after fitting
    the decay of ``<f^2>`` across dimensions.
    """

    n_variables: int
    n_qubits: int
    d: int
    trials: int
    mode: str
    grad_case: str
    mean_f: float
    se_mean_f: float
    var_f: float
    mean_sq_f: float
    se_mean_sq_f: float
    predicted_mean_sq_f: float
    zscore_mean_f: float
    zscore_mean_sq_f: float
    mean_grad: float
    se_mean_grad: float
    var_grad: float
    mean_sq_grad: float
    se_mean_sq_grad: float
    predicted_mean_sq_grad: float
    mean_loss_grad: float
    var_loss_grad: float
    bound_loss_grad: float
    alpha: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_MAX_HAAR_QUBITS = 16


def _capped_qubits(n_variables: int, n_qubits: int) -> int:
    """The register's total qubit count; above the Monte-Carlo cap it
    raises ``CapacityError``."""
    total = n_variables * n_qubits
    if total > _MAX_HAAR_QUBITS:
        raise CapacityError(
            f"{total} qubits exceed the plateau Monte-Carlo cap of {_MAX_HAAR_QUBITS}"
        )
    return total


def plateau_stats(
    n_variables: int,
    n_qubits: int,
    trials: int,
    rng: np.random.Generator,
    mode: str = "haar",
    grad_case: str = "II",
    n_layers: int = 2,
    x: np.ndarray | None = None,
) -> PlateauReport:
    """Sample model values and parameter-shift gradients over random blocks.

    The circuit model is ``W2 . S(x) . W1`` acting on the all-zeros state
    with a Z measurement on the last qubit; ``S`` is the exponential
    encoding layer at the fixed point ``x``.  The differentiated RY sits at
    the very first rotation (``grad_case='II'``), at the final rotation on
    the measured qubit (``'III'``), or in the bulk after a third random
    block ``Wb`` (``'I'``).  Each trial yields three rows, the state and
    its two ``RY(+-pi/2)`` shifts, and one ``expectation_z`` readout gives
    the value and the exact shift-rule gradient; the loss gradient
    assumes target 0 at the sampled point.

    ``mode='haar'`` draws the blocks as exact Haar unitaries, so the known
    concentration formulas apply exactly, but builds none: the rows span
    two dimensions, and a Haar unitary applied to a fixed or independent
    ``d x k`` frame is a Haar ``d x k`` isometry.  II maps fixed
    combinations of ``|0>`` and ``|d/2>`` through one ``d x 2`` isometry;
    III shifts the Haar state ``W2 S W1 |0>``; I shifts the Haar state
    ``Wb |0>``, writes the rows in a QR frame and maps it through one
    ``d x 2`` isometry.  A trial costs O(d), and ``x`` and ``n_layers`` do
    not affect this mode's statistics.  ``mode='circuit'`` runs the
    compiled ``Parallel`` block with angles uniform on [-pi, pi)
    (qualitative only) gate by gate, trials on the variant axis: ``Wb``
    for I, then ``W1``, the encoding at ``x`` and ``W2``.  Each batch
    draws the angles of W1, W2, then Wb.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    if mode not in ("haar", "circuit"):
        raise ValueError(f"mode must be 'haar' or 'circuit', got {mode!r}")
    if grad_case not in ("I", "II", "III"):
        raise ValueError(f"grad_case must be 'I', 'II' or 'III', got {grad_case!r}")
    total = _capped_qubits(n_variables, n_qubits)
    if x is None:
        x = 0.5 + 0.25 * np.arange(n_variables)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n_variables,):
        raise ValueError(f"x must have shape ({n_variables},), got {x.shape}")

    d = 1 << total
    shifted_qubit = total if grad_case == "III" else 1

    def shifted(states: np.ndarray) -> np.ndarray:
        # (b, 1, d) -> (b, 3, d): each state and its two RY(+-pi/2) shifts
        return np.concatenate(
            [states] + [statevector.apply_ry(states.copy(), total, shifted_qubit, angle)
                        for angle in (math.pi / 2.0, -math.pi / 2.0)], axis=-2)

    if mode == "haar":
        s = math.sqrt(0.5)
        # RY(0) and RY(+-pi/2) on qubit 1 applied to |0>, in the frame |0>, |d/2>
        opening = np.array([[1.0, 0.0], [s, s], [s, -s]])

        def isometry(b: int, k: int) -> np.ndarray:
            # (b, k, d): row-vector form of b Haar d x k isometries
            return haar_unitary(d, rng, size=b, columns=k).swapaxes(-1, -2)

        def sample(b: int) -> np.ndarray:
            if grad_case == "II":
                return opening @ isometry(b, 2)
            rows = shifted(isometry(b, 1))
            if grad_case == "I":
                frame = np.linalg.qr(rows[:, :2].swapaxes(-1, -2))[0]
                rows = (rows @ frame.conj()) @ isometry(b, 2)
            return rows
    else:
        spec = AnsatzSpec(n_variables, n_qubits, n_layers, Parallel(), exponential_weights(n_qubits))
        n_block = param_count(spec) // 2  # W1 and W2 of a Parallel spec have the same layout

        def angles(b: int) -> np.ndarray:
            # one row of draws per angle, so each angle's batch is drawn in turn
            return rng.uniform(-np.pi, np.pi, size=(n_block, b)).T

        def sample(b: int) -> np.ndarray:
            w1, w2 = angles(b), angles(b)
            states = np.repeat(np.eye(1, d, dtype=np.complex128)[None], b, axis=0)  # |0...0>
            if grad_case == "I":
                states = apply_opening(spec, states, angles(b))
            if grad_case != "III":
                states = shifted(states)
            states = apply_opening(spec, apply_opening(spec, states, w1, x), w2)
            return shifted(states) if grad_case == "III" else states

    # the largest array of a batch holds its 3 rows of d amplitudes per trial
    batch = max(1, min(1024, (1 << 21) // (3 * d)))
    z = np.concatenate(
        [statevector.expectation_z(sample(min(batch, trials - start)), total, total)
         for start in range(0, trials, batch)]
    )
    f, grad = z[:, 0], 0.5 * (z[:, 1] - z[:, 2])
    loss_grad = 2.0 * f * grad
    bound = variance_bounds(d, grad_case)

    def se(samples: np.ndarray) -> float:
        return float(samples.std(ddof=1) / math.sqrt(samples.size))

    mean_f = float(f.mean())
    mean_sq_f = float((f**2).mean())
    se_f, se_sq_f = se(f), se(f**2)
    predicted = 1.0 / (d + 1)
    return PlateauReport(
        n_variables=n_variables, n_qubits=n_qubits, d=d, trials=trials,
        mode=mode, grad_case=grad_case,
        mean_f=mean_f, se_mean_f=se_f, var_f=float(f.var(ddof=1)),
        mean_sq_f=mean_sq_f, se_mean_sq_f=se_sq_f,
        predicted_mean_sq_f=predicted,
        zscore_mean_f=mean_f / se_f,
        zscore_mean_sq_f=(mean_sq_f - predicted) / se_sq_f,
        mean_grad=float(grad.mean()), se_mean_grad=se(grad),
        var_grad=float(grad.var(ddof=1)),
        mean_sq_grad=float((grad**2).mean()), se_mean_sq_grad=se(grad**2),
        predicted_mean_sq_grad=bound.grad_second_moment,
        mean_loss_grad=float(loss_grad.mean()),
        var_loss_grad=float(loss_grad.var(ddof=1)),
        bound_loss_grad=bound.bound,
    )


class DecayFit(NamedTuple):
    slope: float
    intercept: float
    alpha: float


def _require_two_sizes(sizes) -> None:
    distinct = len(set(sizes))  # np.unique would import numpy.ma
    if distinct < 2:
        raise ValueError(f"need at least two sizes to fit a decay, got {distinct} distinct")


def fit_decay(total_qubits, mean_sq_values) -> DecayFit:
    """Least-squares fit of ``log <f^2>`` against total qubit count.

    ``alpha = exp(-slope)`` is the per-qubit concentration base; Haar
    blocks give ``<f^2> = 1/(d+1)`` with ``d = 2^(MN)``, hence ``alpha``
    close to 2.  A line through one size is not determined, so fewer than
    two distinct sizes raise ``ValueError``.
    """
    total_qubits = np.asarray(total_qubits, dtype=np.float64)
    mean_sq_values = np.asarray(mean_sq_values, dtype=np.float64)
    _require_two_sizes(total_qubits.tolist())
    if np.any(mean_sq_values <= 0):
        raise ValueError("mean-square values must be positive")
    slope, intercept = np.polyfit(total_qubits, np.log(mean_sq_values), 1)
    return DecayFit(slope=float(slope), intercept=float(intercept), alpha=float(np.exp(-slope)))


def plateau_sweep(
    qubit_counts,
    trials: int,
    rng: np.random.Generator,
    mode: str = "haar",
    grad_case: str = "II",
    n_variables: int = 1,
    n_layers: int = 2,
) -> tuple[list[PlateauReport], DecayFit]:
    """Run ``plateau_stats`` across register sizes and fit the decay base.

    The fitted ``alpha`` is written back onto every report.  Fewer than
    two distinct sizes raise ``ValueError``, and a size above the qubit cap
    ``CapacityError``, before any sampling.
    """
    _require_two_sizes(qubit_counts)
    for n in qubit_counts:
        _capped_qubits(n_variables, n)
    reports = [
        plateau_stats(n_variables, n, trials, rng, mode=mode,
                      grad_case=grad_case, n_layers=n_layers)
        for n in qubit_counts
    ]
    fit = fit_decay([r.n_variables * r.n_qubits for r in reports],
                    [r.mean_sq_f for r in reports])
    for report in reports:
        report.alpha = fit.alpha
    return reports, fit


def empirical_epsilon(report: PlateauReport) -> float:
    """Conservative sampling precision ``min(sqrt(<f^2>), sqrt(<grad^2>))``.

    Resolving values or gradients that concentrate at scale ``eps``
    requires shot noise below ``eps``; feeding this into the resource
    formulas prices the plateau into the quantum cost.
    """
    return min(math.sqrt(report.mean_sq_f), math.sqrt(report.mean_sq_grad))


# ---------------------------------------------------------------------------
# bounded-model geometry
# ---------------------------------------------------------------------------

def bicone_radius(c) -> float:
    """``|c1| + sqrt(2 (c2^2 + c3^2))`` for a degree-1 univariate vector.

    ``(c1, c2, c3)`` scales the constant, cosine and sine features, and
    this is the largest ``|f|`` of the resulting function, so the vectors
    of radius at most 1 form a bicone with apexes at ``c1 = +/-1`` and
    equator radius ``1/sqrt(2)``.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    return float(abs(c[0]) + math.sqrt(2.0 * (c[1] ** 2 + c[2] ** 2)))


def bicone_contains(c) -> bool:
    """Exact membership for degree-1 univariate coefficient vectors: the
    function stays within [-1, 1] iff ``bicone_radius(c) <= 1``.  A 1e-12
    slack keeps exact boundary points inside."""
    return bicone_radius(c) <= 1.0 + 1e-12


class MembershipResult(NamedTuple):
    member: bool
    max_abs: float
    tolerance: float


def numerical_membership(c, fm: FeatureMap, grid_points: int) -> MembershipResult:
    """Grid check that ``|c . phi(x)| <= 1`` everywhere.

    Maximizes over ``uniform_grid``'s ``x = -pi + 2 pi g / G`` with
    ``G = grid_points`` per variable (at least ``8 d_F`` to resolve the
    fastest oscillation), synthesized by ``grid_values``, and accepts
    when the grid maximum is at most ``1 + tolerance``.  For even ``G``
    these are the points ``2 pi g / G``; for odd ``G`` they sit half a
    step from those, at the same spacing ``h = 2 pi / G``.  The tolerance
    is 1e-6 plus the worst-case discretization gap
    ``sum_m |f''_m| h^2/8``, which depends only on that spacing, with the
    curvature bounded per variable by ``sqrt(2) d_F_m^2 ||c||_1`` --
    conservative, so true members near the boundary are never rejected
    for grid reasons.  A grid of more than ``cfflm.MAX_POINTS`` (10^7)
    points raises ``CapacityError``.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (fm.dimension,):
        raise ValueError(f"expected shape ({fm.dimension},), got {c.shape}")
    max_degree = max(fm.degrees)
    if grid_points < 8 * max(1, max_degree):
        raise ValueError(
            f"grid_points must be >= {8 * max(1, max_degree)} to resolve degree "
            f"{max_degree}, got {grid_points}"
        )
    points = grid_points**fm.n_variables
    if points > MAX_POINTS:
        raise CapacityError(f"membership grid of {points} points exceeds cap {MAX_POINTS}")
    values = grid_values(c, fm, (grid_points,) * fm.n_variables)
    max_abs = float(np.abs(values).max())
    h = 2.0 * np.pi / grid_points
    norm1 = float(np.abs(c).sum())
    slack = sum(math.sqrt(2.0) * degree**2 * norm1 * h**2 / 8.0 for degree in fm.degrees)
    tolerance = 1e-6 + slack
    return MembershipResult(member=max_abs <= 1.0 + tolerance, max_abs=max_abs, tolerance=tolerance)
