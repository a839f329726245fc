"""Datasets, targets, loss, Adam, and the training loop.

Grid datasets sit on ``cfflm.uniform_grid``.  A random Fourier target
is a coefficient vector in ``cfflm``'s real basis, scaled through
``cfflm.grid_values`` on a grid fine enough that ``|f| <= 1`` holds
everywhere, the range of a quantum model.

Both model families train through one loop: full-batch (or seeded
random-batch) mean-squared-error gradient descent with bias-corrected
Adam.  The loop owns batch selection, the loss and test-loss traces, the
divergence abort and the result record; a full batch gathers nothing, so
every step reads views of the dataset's own arrays.  A thin adapter per
family validates its inputs, keeps its resource counters and hands the
loop three callables: values and Jacobian on a batch, exact values on
the training or test data, and coefficient recovery.  The quantum
Jacobian is one ``values_and_jacobian`` call per step.  With exact
expectations a ``Parallel`` model that the engine rule accepts (one
layer up to six qubits at any number of data points) runs no gate kernel
in a step: its trainable blocks are built once as Kronecker layers of
2x2 rotations and CNOT permutations, and the data enter as one diagonal
phase per point.  The rule compares the estimated work of that engine
with the adjoint's.  Other models take an adjoint pass that builds the
opening trainable block once and, per data point, runs only the gates
from the first encoding on (trailing gates folded into the observable).
With ``shots`` it is the parameter-shift rule over sampled circuits.
Either way the quantum resource counters price the parameter-shift
protocol, ``2 N_tp + 1`` circuits of the full program per batch point,
which is what hardware would run.  The classical Jacobian is the batch's
rows of the precomputed feature matrix, cut to the model's leading
columns.  Both families recover their coefficients in the classical
feature basis, on the lattice the model itself fixes, so recovery never
reads the training inputs.

Every stochastic choice (parameter initialization, batch selection, shot
sampling, target generation) flows from explicit seeds, so a (seed,
config) pair fully determines every trace.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .cfflm import (
    ClassicalModel,
    FeatureMap,
    feature_matrix,
    grid_values,
    uniform_grid,
)
from .errors import DatasetParseError, TrainingError
from .qfflm import (
    AnsatzSpec,
    Parallel,
    count_gates,
    evaluate_batch,
    fourier_coefficients,
    init_parameters,
    param_count,
    values_and_jacobian,
)
from .rng import make_rng
from .spectra import exponential_weights

__all__ = [
    "Dataset",
    "StepTarget",
    "FourierTarget",
    "TrainConfig",
    "AdamState",
    "ResultRecord",
    "make_random_fourier_target",
    "make_grid_dataset",
    "mse_loss",
    "adam_step",
    "train",
    "load_csv_dataset",
    "denormalize_outputs",
    "run_expressivity_comparison",
    "run_step_function_study",
    "ComparisonResult",
    "StepStudyResult",
]


# ---------------------------------------------------------------------------
# datasets and targets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Inputs of shape (n, M), outputs of shape (n,), plus provenance."""

    inputs: np.ndarray = field(repr=False)
    outputs: np.ndarray = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.outputs = np.asarray(self.outputs, dtype=np.float64)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        if self.inputs.ndim != 2 or self.outputs.ndim != 1:
            raise ValueError("inputs must be (n, M) and outputs (n,)")
        if self.inputs.shape[0] != self.outputs.shape[0]:
            raise ValueError(
                f"length mismatch: {self.inputs.shape[0]} inputs, "
                f"{self.outputs.shape[0]} outputs"
            )

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class StepTarget:
    """Square wave: +1/2 for x >= 0, -1/2 for x < 0, period 2 pi.

    The boundary x = 0 belongs to the upper branch.
    """

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0.0, 0.5, -0.5)


@dataclass(frozen=True, eq=False)
class FourierTarget:
    """Univariate target defined by real Fourier-feature coefficients.

    ``coefficients`` follows the canonical feature ordering (index 0 the
    constant, odd indices cosines, even indices sines).  ``split_index``
    marks the low/high coefficient split used by the energy-ratio
    diagnostics; it is informational for hand-built targets.
    """

    coefficients: np.ndarray = field(repr=False)
    split_index: int | None = None
    requested_ratio: float | None = None
    seed: int | None = None

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.ndim != 1 or c.shape[0] % 2 == 0:
            raise ValueError("coefficients must be a vector of odd length 2 d_F + 1")
        object.__setattr__(self, "coefficients", c)

    @property
    def dimension(self) -> int:
        return self.coefficients.shape[0]

    @property
    def feature_map(self) -> FeatureMap:
        return FeatureMap(n_variables=1, degrees=((self.dimension - 1) // 2,))

    def realized_ratio(self) -> float:
        if not self.split_index:
            raise ValueError("target has no split index")
        low = float(np.sum(self.coefficients[: self.split_index] ** 2))
        high = float(np.sum(self.coefficients[self.split_index :] ** 2))
        return float(np.sqrt(low / high))

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return feature_matrix(x.reshape(-1, 1), self.feature_map) @ self.coefficients


# a random target's maximum |f| on its normalization grid, and the fewest
# points that grid has
_NORM_MAX = 0.95
_NORM_POINTS = 4096


def make_random_fourier_target(kappa: int, split: int, r: float, seed: int) -> FourierTarget:
    """Random bounded Fourier target with an exact low/high energy ratio.

    Draws ``kappa`` standard-Gaussian coefficients, rescales the low
    block (indices below ``split``) so that
    ``sqrt(low energy) / sqrt(high energy) = r`` exactly, then rescales
    globally so the maximum of |f| on the normalization grid is 0.95.
    That grid is ``uniform_grid`` with
    ``N = max(4096, ceil(pi d / arccos 0.95))`` points, ``d = (kappa - 1) / 2``,
    synthesized by ``grid_values``.  A degree-``d`` trigonometric
    polynomial's supremum is at most ``sec(pi d / N)`` times its maximum
    on ``N > 2 d`` equispaced points, and ``sec(pi d / N) <= 1 / 0.95``
    here, so ``|f| <= 1`` everywhere: the target stays inside the
    band a quantum model can represent.
    """
    if kappa < 3 or kappa % 2 == 0:
        raise ValueError(f"kappa must be odd and >= 3, got {kappa}")
    if not 0 < split < kappa:
        raise ValueError(f"split must be in 1..{kappa - 1}, got {split}")
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    degree = (kappa - 1) // 2
    fm = FeatureMap(n_variables=1, degrees=(degree,))
    points = max(_NORM_POINTS, math.ceil(math.pi * degree / math.acos(_NORM_MAX)))
    rng = make_rng(seed)
    c = rng.standard_normal(kappa)
    energy_low = float(np.sum(c[:split] ** 2))
    energy_high = float(np.sum(c[split:] ** 2))
    c[:split] *= r * np.sqrt(energy_high / energy_low)
    c *= _NORM_MAX / float(np.abs(grid_values(c, fm, (points,))).max())
    return FourierTarget(coefficients=c, split_index=split, requested_ratio=r, seed=seed)


def make_grid_dataset(target, n_points: int) -> Dataset:
    """Evaluate a univariate target on ``uniform_grid``'s ``n_points`` over [-pi, pi)."""
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    grid = uniform_grid((n_points,))
    outputs = np.asarray(target.evaluate(grid[:, 0]), dtype=np.float64)
    meta = {"generator": type(target).__name__, "n_points": n_points}
    if isinstance(target, FourierTarget):
        meta["seed"] = target.seed
        meta["requested_ratio"] = target.requested_ratio
    return Dataset(inputs=grid, outputs=outputs, metadata=meta)


# ---------------------------------------------------------------------------
# loss and optimizer
# ---------------------------------------------------------------------------

def mse_loss(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("mse_loss of empty arrays is undefined")
    return float(np.mean((predictions - targets) ** 2))


# Adam's moment decay rates and the guard added to the update's denominator
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """Parameters plus first/second moment accumulators."""

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    @classmethod
    def initialize(cls, params):
        params = np.asarray(params, dtype=np.float64).copy()
        return cls(params=params, m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: AdamState, grads, lr: float) -> AdamState:
    """One bias-corrected Adam update; mutates and returns ``state``.

    The moments are updated in place and the update runs through two
    scratch arrays, with the operations of the textbook formula in its
    order, so every bit is the formula's.  ``state.params`` is replaced by
    a new array, so an earlier step's parameters are left as they were.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != state.params.shape:
        raise ValueError(f"gradient shape {grads.shape} != params {state.params.shape}")
    if not np.isfinite(grads).all():
        raise TrainingError(
            f"non-finite gradient at step {state.step_count + 1}: "
            f"{int(np.sum(~np.isfinite(grads)))} bad of {grads.size} components"
        )
    state.step_count += 1
    t = state.step_count
    # m = BETA1 m + (1 - BETA1) g and v = BETA2 v + (1 - BETA2) g**2
    scratch = np.multiply(1.0 - _BETA1, grads)
    state.m *= _BETA1
    state.m += scratch
    np.square(grads, out=scratch)
    scratch *= 1.0 - _BETA2
    state.v *= _BETA2
    state.v += scratch
    # params - lr m_hat / (sqrt(v_hat) + EPS), bias-corrected m_hat and v_hat
    step = np.divide(state.m, 1.0 - _BETA1**t)
    np.divide(state.v, 1.0 - _BETA2**t, out=scratch)
    # an overflowing update gives non-finite parameters, which ``_fit``
    # refuses as a divergence right after this step
    with np.errstate(over="ignore", invalid="ignore"):
        np.sqrt(scratch, out=scratch)
        scratch += _EPS
        step *= lr
        step /= scratch
        state.params = state.params - step
    return state


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# a training loss above this aborts the fit as a divergence
_DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.03
    steps: int = 500
    batch_size: int | None = None  # None: full batch
    shots: int | None = None  # quantum models only; None: exact expectation values
    seed: int = 0
    recover_coefficients: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass
class ResultRecord:
    """Everything a finished (or aborted) training run produced.

    ``loss_trace`` has ``steps + 1`` entries: the loss at the parameters
    entering each step, plus the final post-update loss.  The last entry
    is the run's saturated loss.  ``config`` is the ``TrainConfig`` as a
    dict, the seed included, with ``aborted`` added when the fit
    diverged.  The CLI writes the record, through ``dataclasses.asdict``,
    as ``result.json`` and ``trace.csv``.
    """

    config: dict
    loss_trace: np.ndarray = field(repr=False)
    test_loss_trace: np.ndarray | None = field(repr=False)
    final_params: np.ndarray = field(repr=False)
    resource_counters: dict
    recovered_coefficients: np.ndarray | None = field(default=None, repr=False)

    @property
    def final_loss(self) -> float:
        return float(self.loss_trace[-1])


def train(
    model,
    data: Dataset,
    cfg: TrainConfig,
    feature_map: FeatureMap | None = None,
    test_data: Dataset | None = None,
) -> ResultRecord:
    """Adam-train a quantum ``AnsatzSpec`` or a ``ClassicalModel``.

    Quantum runs initialize every angle uniformly on [-pi, pi) from the
    config seed; classical runs start from the model's coefficients as
    given.  Raises ``TrainingError`` carrying the partial record when the
    loss exceeds the divergence threshold or stops being finite, or when
    an update leaves a parameter non-finite.
    """
    if isinstance(model, AnsatzSpec):
        return _train_quantum(model, data, cfg, test_data)
    if isinstance(model, ClassicalModel):
        if feature_map is None:
            raise ValueError("classical training needs a feature map")
        return _train_classical(model, data, cfg, feature_map, test_data)
    raise TypeError(f"cannot train object of type {type(model).__name__}")


def _batch_indices(rng: np.random.Generator, n: int, batch_size: int | None) -> np.ndarray | slice:
    """The rows of one step: a seeded draw, or ``slice(None)`` for the whole
    dataset, which indexes every array as a view and gathers nothing."""
    if batch_size is None or batch_size >= n:
        return slice(None)
    return rng.choice(n, size=batch_size, replace=False)


def _fit(cfg: TrainConfig, params, rng, data: Dataset, test_data, batch, exact, recover,
         counters: dict) -> ResultRecord:
    """The training loop both model families share.

    ``batch(params, idx)`` returns the model values and their Jacobian on
    ``data.inputs[idx]``; ``exact(params, test)`` returns exact values on
    ``data``, or on ``test_data`` when ``test`` is true; ``recover(params)``
    returns the coefficient vector.  The callables keep ``counters``.
    """
    state = AdamState.initialize(params)
    trace: list[float] = []
    test_trace: list[float] | None = [] if test_data is not None else None

    def record(config: dict, recovered=None) -> ResultRecord:
        return ResultRecord(
            config=config,
            loss_trace=np.asarray(trace),
            test_loss_trace=None if test_trace is None else np.asarray(test_trace),
            final_params=state.params.copy(),
            resource_counters=counters,
            recovered_coefficients=recovered,
        )

    def diverged(message: str) -> TrainingError:
        return TrainingError(message, record=record(dict(asdict(cfg), aborted="divergence")))

    for _ in range(cfg.steps):
        idx = _batch_indices(rng, len(data), cfg.batch_size)
        values, jac = batch(state.params, idx)
        residual = values - data.outputs[idx]
        loss = float(np.mean(residual**2))
        trace.append(loss)
        if test_trace is not None:
            test_trace.append(mse_loss(exact(state.params, True), test_data.outputs))
        if not np.isfinite(loss) or loss > _DIVERGENCE_THRESHOLD:
            raise diverged(f"loss {loss} exceeded divergence threshold after {len(trace)} steps")
        grad = (2.0 / residual.size) * (jac.T @ residual)
        adam_step(state, grad, cfg.learning_rate)
        if not np.isfinite(state.params).all():
            raise diverged(f"non-finite parameters after {len(trace)} steps")

    trace.append(mse_loss(exact(state.params, False), data.outputs))
    if test_trace is not None:
        test_trace.append(mse_loss(exact(state.params, True), test_data.outputs))
    recovered = recover(state.params) if cfg.recover_coefficients else None
    return record(asdict(cfg), recovered)


def _train_quantum(spec: AnsatzSpec, data: Dataset, cfg: TrainConfig, test_data) -> ResultRecord:
    if data.inputs.shape[1] != spec.n_variables:
        raise ValueError(
            f"dataset has {data.inputs.shape[1]} variables, model expects {spec.n_variables}"
        )
    rng = make_rng(cfg.seed)
    theta = init_parameters(spec, rng)
    n_tp = param_count(spec)
    n_gt = count_gates(spec)
    counters = {
        "gate_count_per_circuit": n_gt,
        "trainable_parameters": n_tp,
        "circuit_evaluations": 0,
        "gate_operations": 0,
        "shots_drawn": 0,
        "test_evaluations": 0,
    }

    def batch(params, idx):
        values, jac = values_and_jacobian(spec, params, data.inputs[idx], shots=cfg.shots, rng=rng)
        # the parameter-shift hardware cost, also when the Jacobian was simulated
        evaluations = (2 * n_tp + 1) * values.size
        counters["circuit_evaluations"] += evaluations
        counters["gate_operations"] += n_gt * evaluations
        if cfg.shots is not None:
            counters["shots_drawn"] += cfg.shots * evaluations
        return values, jac

    def exact(params, test):
        if test:
            counters["test_evaluations"] += len(test_data)
            return evaluate_batch(spec, params, test_data.inputs)
        counters["circuit_evaluations"] += len(data)
        counters["gate_operations"] += n_gt * len(data)
        return evaluate_batch(spec, params, data.inputs)

    def recover(params):
        return fourier_coefficients(spec, params)

    return _fit(cfg, theta, rng, data, test_data, batch, exact, recover, counters)


def _train_classical(
    model: ClassicalModel, data: Dataset, cfg: TrainConfig, fm: FeatureMap, test_data
) -> ResultRecord:
    dim = model.n_parameters
    if not 1 <= dim <= fm.dimension:
        raise ValueError(f"dimension must be in 1..{fm.dimension}, got {dim}")
    if data.inputs.shape[1] != fm.n_variables:
        raise ValueError(
            f"dataset has {data.inputs.shape[1]} variables, feature map expects {fm.n_variables}"
        )
    if cfg.shots is not None:
        raise ValueError("shots applies to quantum models only; a classical fit is exact")

    def features(dataset: Dataset) -> np.ndarray:
        return feature_matrix(dataset.inputs, fm)[:, :dim]

    phi = features(data)
    phi_test = None if test_data is None else features(test_data)
    counters = {
        "parameter_dimension": dim,
        "feature_dimension": fm.dimension,
        "forward_passes": 0,
        "dot_operations": 0,
    }

    def batch(params, idx):
        rows = phi[idx]
        counters["forward_passes"] += len(rows)
        counters["dot_operations"] += 2 * len(rows) * dim  # forward + gradient
        return rows @ params, rows

    def exact(params, test):
        if test:
            return phi_test @ params
        counters["forward_passes"] += len(data)
        counters["dot_operations"] += len(data) * dim
        return phi @ params

    def recover(params):
        return np.concatenate([params, np.zeros(fm.dimension - dim)])

    return _fit(cfg, model.coefficients, make_rng(cfg.seed), data, test_data,
                batch, exact, recover, counters)


# ---------------------------------------------------------------------------
# file-backed datasets
# ---------------------------------------------------------------------------

_CSV_INPUT_RANGE = (-np.pi, np.pi)
_CSV_OUTPUT_RANGE = (0.03, 1.0)


def load_csv_dataset(path, input_cols: list[str], output_col: str) -> Dataset:
    """Numeric CSV with header -> normalized Dataset.

    Every column is mapped affinely onto its range (inputs to
    [-pi, pi], the output to [0.03, 1]); the affine
    parameters land in ``metadata["normalization"]`` so predictions can
    be mapped back.  Constant columns map to the range midpoint with a
    warning.  Malformed rows and non-finite cells (``nan``, ``inf``) raise
    ``DatasetParseError`` naming the row and the column.
    """
    columns = list(input_cols) + [output_col]
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetParseError("row 1: empty file, expected a header") from None
        positions = {}
        for name in columns:
            if name not in header:
                raise ValueError(f"column {name!r} not in header {header}")
            positions[name] = header.index(name)
        rows = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetParseError(
                    f"row {row_number}: expected {len(header)} fields, got {len(row)}"
                )
            values = []
            for name in columns:
                where = f"row {row_number}, column {name!r}"
                try:
                    value = float(row[positions[name]])
                except ValueError as exc:
                    raise DatasetParseError(f"{where}: {exc}") from None
                if not np.isfinite(value):
                    raise DatasetParseError(f"{where}: {value} is not a finite number")
                values.append(value)
            rows.append(values)
    if not rows:
        raise DatasetParseError("row 2: no data rows")
    raw = np.asarray(rows)
    normalization = {}
    normalized = np.empty_like(raw)
    for k, name in enumerate(columns):
        lo, hi = float(raw[:, k].min()), float(raw[:, k].max())
        range_lo, range_hi = _CSV_OUTPUT_RANGE if name == output_col else _CSV_INPUT_RANGE
        if hi == lo:
            warnings.warn(f"column {name!r} is constant; mapped to range midpoint", stacklevel=2)
            scale = 0.0
            offset = (range_lo + range_hi) / 2.0
        else:
            scale = (range_hi - range_lo) / (hi - lo)
            offset = range_lo - scale * lo
        normalized[:, k] = scale * raw[:, k] + offset
        normalization[name] = {
            "scale": scale, "offset": offset, "min": lo, "max": hi,
            "range": [range_lo, range_hi],
        }
    return Dataset(
        inputs=normalized[:, : len(input_cols)],
        outputs=normalized[:, -1],
        metadata={
            "generator": "csv",
            "path": str(path),
            "input_cols": list(input_cols),
            "output_col": output_col,
            "normalization": normalization,
        },
    )


def denormalize_outputs(dataset: Dataset, values) -> np.ndarray:
    """Invert the output-column normalization of a CSV-backed dataset."""
    record = dataset.metadata["normalization"][dataset.metadata["output_col"]]
    scale, offset = record["scale"], record["offset"]
    if scale == 0.0:
        raise ValueError("constant output column cannot be inverted")
    return (np.asarray(values, dtype=np.float64) - offset) / scale


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(parts)).generate_state(1)[0])


@dataclass
class ComparisonResult:
    """Per-ratio, per-run paired records of both model families."""

    r_values: list[float]
    runs: int
    quantum: list[list[ResultRecord]] = field(repr=False)  # [r_index][run]
    classical: list[list[ResultRecord]] = field(repr=False)

    def final_losses(self, family: str) -> np.ndarray:
        records = self.quantum if family == "quantum" else self.classical
        return np.asarray([[rec.final_loss for rec in row] for row in records])


def run_expressivity_comparison(
    r_values,
    runs: int = 5,
    kappa: int = 81,
    split: int = 64,
    n_points: int = 200,
    steps: int = 500,
    learning_rate: float = 0.03,
    classical_dimension: int = 64,
    n_qubits: int = 4,
    n_layers: int = 1,
    base_seed: int = 0,
) -> ComparisonResult:
    """Expressivity comparison on random bounded Fourier targets.

    For each energy ratio ``r`` and each run, a fresh target is drawn
    (seeded from ``base_seed``, the ratio index and the run index), both
    a truncated fully-parametrized classical model and an exponentially
    encoded quantum model train on the same grid dataset, and the paired
    records are collected.  Classically easy targets (large ``r``) are
    learnable by the truncated model; low-``r`` targets concentrate
    energy in high frequencies the classical model cannot represent
    while the full-spectrum quantum model can.  Runs execute serially in
    ratio-major order; each run's target and both training seeds are
    derived from ``(base_seed, r_index, run)`` alone.
    """
    r_values = [float(r) for r in r_values]
    fm = FeatureMap(n_variables=1, degrees=((kappa - 1) // 2,))
    spec = AnsatzSpec(
        n_variables=1, n_qubits=n_qubits, n_layers=n_layers,
        topology=Parallel(), encoding=exponential_weights(n_qubits),
    )

    quantum: list[list[ResultRecord]] = []
    classical: list[list[ResultRecord]] = []
    for r_index, r in enumerate(r_values):
        q_row, c_row = [], []
        for run in range(runs):
            target = make_random_fourier_target(
                kappa, split, r, seed=_derived_seed(base_seed, r_index, run)
            )
            data = make_grid_dataset(target, n_points)
            q_cfg = TrainConfig(
                learning_rate=learning_rate, steps=steps,
                seed=_derived_seed(base_seed, r_index, run, 1),
            )
            c_cfg = TrainConfig(
                learning_rate=learning_rate, steps=steps,
                seed=_derived_seed(base_seed, r_index, run, 2),
            )
            q_row.append(train(spec, data, q_cfg))
            c_row.append(train(ClassicalModel(np.zeros(classical_dimension)), data, c_cfg,
                               feature_map=fm))
        quantum.append(q_row)
        classical.append(c_row)
    return ComparisonResult(r_values=r_values, runs=runs, quantum=quantum, classical=classical)


@dataclass
class StepStudyResult:
    qubit_counts: list[int]
    seeds: list[int]
    records: list[list[ResultRecord]] = field(repr=False)  # [qubit_index][seed_index]

    def mean_final_losses(self) -> np.ndarray:
        return np.asarray(
            [[rec.final_loss for rec in row] for row in self.records]
        ).mean(axis=1)


def run_step_function_study(
    qubit_counts=(1, 2, 3),
    seeds=(0, 1, 2),
    n_points: int = 200,
    steps: int = 500,
    learning_rate: float = 0.05,
    base_seed: int = 0,
) -> StepStudyResult:
    """Expressivity growth with qubit count on the square-wave target.

    Uses ``L = N + 1`` trainable layers per block so deeper models
    accompany larger spectra; the mean final MSE over seeds should fall
    as the spectrum grows.
    """
    data = make_grid_dataset(StepTarget(), n_points)
    records: list[list[ResultRecord]] = []
    for n_qubits in qubit_counts:
        spec = AnsatzSpec(
            n_variables=1, n_qubits=n_qubits, n_layers=n_qubits + 1,
            topology=Parallel(), encoding=exponential_weights(n_qubits),
        )
        row = []
        for seed_index, seed in enumerate(seeds):
            cfg = TrainConfig(
                learning_rate=learning_rate, steps=steps,
                seed=_derived_seed(base_seed, n_qubits, seed),
            )
            row.append(train(spec, data, cfg))
        records.append(row)
    return StepStudyResult(
        qubit_counts=list(qubit_counts), seeds=list(seeds), records=records
    )
