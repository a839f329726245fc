"""Quantum Fourier-featured linear model.

The model function is the Z expectation of a variational circuit that
interleaves trainable blocks with data-encoding rotations,

    f(x) = <0| U(theta, x)^dag  Z_measured  U(theta, x) |0>,

which is always a multivariate Fourier series whose frequencies are
fixed by the integer encoding weights (see :mod:`fourierqml.spectra`).
``fourier_coefficients`` reads that series in ``cfflm``'s real feature
basis, the one the classical model is trained in, from the model's
values on the basis's uniform grid.

Three circuit topologies are provided:

* ``Parallel`` -- one register block of ``n_qubits`` per variable; a
  trainable block W1, one encoding rotation ``RZ(beta_k x_m)`` per qubit,
  a trainable block W2.
* ``Serial`` -- a single register; an initial trainable block followed by
  ``reuploads`` blocks, each encoding the full feature vector through
  ``Rot`` gates (three features per qubit per encoding layer, all scaled
  by that block's weight) interleaved with trainable blocks.
* ``Ring`` -- a single register with one ``RZ`` encoding per qubit per
  reupload block and ring-connected CNOTs in the trainable blocks.  The
  internal gate order of the original strongly-entangling construction is
  not published, so this is a faithful-in-spirit stand-in with the CNOT
  range fixed to 1.

Trainable blocks are hardware-efficient: ``n_layers`` repetitions of
per-qubit rotations (RY then RZ with ``rotation_params=2``, or a full
``Rot`` with 3) followed by a CNOT line (ring for ``Ring``).

Evaluation runs over amplitude arrays of shape ``(theta_variants,
data_points, 2**n)``, rows fastest in memory.  The opening block reads
no data, so it runs gate by gate once per variant and is copied to every
row.  The gates after it run as the layers of ``_layers``: gates on
different qubits commute, so each qubit's gates between two runs of
CNOTs are one 2x2 per row, one kernel call, and a run of CNOTs is one
gather.  ``_apply_ops``, gate by gate, is the oracle of these passes.

Exact Jacobians come from adjoint differentiation (Jones & Gacon,
arXiv:2009.02823) over a trimmed copy of the program, fixed by the spec:

* RZ gates on a qubit nothing has rotated yet are dropped: on the
  ``|0>`` factor of ``|0...0>`` they are global phases.
* Trailing RZ and CNOT gates on qubits no later kept gate touches are
  folded into the observable: an RZ commutes with a diagonal observable
  and a CNOT permutes it, so ``Z_measured`` becomes a diagonal +-1 Z
  string.  An RY on such a qubit is dropped when that string does not
  read the qubit: it commutes to the end and cancels.
* The opening block is built once, at the base angles and at each of
  its trainable angles shifted by pi.  ``R_G(t + pi) = -iG R_G(t)``, so
  each shifted state is that angle's tangent.

Trainable blocks are built for the Jacobians without the gate kernels
(``_layers``, ``_block_unitaries``): every qubit's rotations in a layer
multiply into one 2x2, a layer is the Kronecker product of those, and a
run of CNOTs is one permutation of the basis.  The opening block is
built as its unitaries' first columns, its states on ``|0...0>``.

A ``Parallel`` spec's data enter only through its diagonal encoding, so
the model is a quadratic form in ``psi_t = D(x_t) a`` with ``a = W1|0>``
(Schuld, Sweke & Meyer, arXiv:2008.08605).  Its kept closing block is
built once as ``2**n x 2**n`` unitaries, with one pi-shifted variant per
trainable angle, and the values and every column are row-by-matrix
products; no gate kernel runs at all.  The diagonals ``D(x_t)`` of the
last dataset seen are kept, so a full-batch fit computes them once.  One
rule, ``_diagonal_fits``, picks this engine by its estimated work
against the adjoint pass's.  Every other exact Jacobian takes the
adjoint pass, which is also the engine's test oracle.  One forward pass
over the data takes the opening state to the final states; one backward
pass walks the layers in reverse, carrying the states together with the
observable applied to them.  At the end of each local layer it reads
every trainable column of the layer, from the per-row cross operator of
the two on the gate's qubit, then undoes the layer.  The co-state it
carries back to the end of the opening block meets the opening tangents
in one matrix product.  Dropped and folded trainable gates have
derivative exactly 0 in both.  With finite shots every circuit of the
parameter-shift rule is a separately sampled measurement, so the
``2 N_tp + 1`` shifted variants run as one batch on the full program;
the same shift rule is the exact-gradient oracle
(``gradient_parameter_shift``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile

import numpy as np

from .cfflm import FeatureMap, grid_coefficients
from .errors import CapacityError
from .spectra import EncodingSpec
from .statevector import (
    MAX_QUBITS,
    apply_cnot,
    apply_matrix,
    apply_ry,
    apply_rz,
    expectation_z,
    sample_expectation_z,
)

__all__ = [
    "Parallel",
    "Serial",
    "Ring",
    "AnsatzSpec",
    "param_count",
    "count_gates",
    "apply_opening",
    "init_parameters",
    "evaluate",
    "evaluate_batch",
    "gradient_parameter_shift",
    "values_and_jacobian",
    "fourier_coefficients",
]

# A complex multiply-add in a matrix product costs about 1/16 of an
# amplitude update by a gate kernel; the adjoint pass costs about 8
# updates per amplitude, plus 32768, per qubit chain of a local layer.
# Timed with one BLAS thread on a 2-core Xeon over 220 Parallel specs
# (1-2 variables, 2-8 qubits, 1-3 layers, both rotation sets, 1-1024
# rows), no pick was more than 1.24 times slower than the other engine.
_PRODUCT_SPEEDUP = 16
_CHAIN_UPDATES = 8
_CHAIN_CALL = 32768
# Rows per product in the diagonal engine: its (rows, 1 + P, d) states
# are built one block at a time, so their size does not grow with the data.
_ROW_BLOCK = 512


@dataclass(frozen=True)
class Parallel:
    """One block of qubits per variable, encoded once between W1 and W2."""


@dataclass(frozen=True)
class Serial:
    """Reuploading topology: every feature re-encoded in each block.

    Each of the ``reuploads`` blocks applies ``encoders_per_block``
    encoding layers (each packing 3 features per qubit into a Rot gate),
    every one followed by its own trainable block.  Requires
    ``n_variables == 3 * n_qubits * encoders_per_block``.
    """

    reuploads: int
    encoders_per_block: int = 2


@dataclass(frozen=True)
class Ring:
    """Reuploading with one feature per qubit and ring-connected CNOTs."""

    reuploads: int


Topology = Parallel | Serial | Ring


@dataclass(frozen=True)
class AnsatzSpec:
    """Complete static description of a model circuit.

    ``n_qubits`` counts qubits per variable for ``Parallel`` and total
    qubits for ``Serial``/``Ring``.  ``encoding`` holds the integer
    weights: per variable (length ``n_qubits``) for ``Parallel``, per
    reupload block (length ``reuploads``, shared by all variables) for
    ``Serial``/``Ring``.  ``measured_qubit`` defaults to the last qubit.
    """

    n_variables: int
    n_qubits: int
    n_layers: int
    topology: Topology
    encoding: EncodingSpec | tuple[EncodingSpec, ...]
    rotation_params: int = 2
    measured_qubit: int | None = None

    def __post_init__(self):
        if self.n_variables < 1 or self.n_qubits < 1:
            raise ValueError("n_variables and n_qubits must be >= 1")
        if self.n_layers < 0:
            # n_layers = 0 keeps only the encoding gates -- useful for
            # resource accounting of the data-dependent part on its own.
            raise ValueError(f"n_layers must be >= 0, got {self.n_layers}")
        if self.rotation_params not in (2, 3):
            raise ValueError(f"rotation_params must be 2 or 3, got {self.rotation_params}")
        topo = self.topology
        enc = self.encoding
        if isinstance(topo, Parallel):
            if isinstance(enc, EncodingSpec):
                enc = (enc,) * self.n_variables
                object.__setattr__(self, "encoding", enc)
            if len(enc) != self.n_variables:
                raise ValueError(
                    f"parallel topology needs one encoding per variable: "
                    f"expected {self.n_variables}, got {len(enc)}"
                )
            for e in enc:
                if e.n_rotations != self.n_qubits:
                    raise ValueError(
                        f"parallel encoding needs one weight per qubit: "
                        f"expected {self.n_qubits}, got {e.n_rotations}"
                    )
        elif isinstance(topo, (Serial, Ring)):
            if not isinstance(enc, EncodingSpec):
                raise ValueError(
                    f"{type(topo).__name__.lower()} topology shares one per-block "
                    "weight list across all variables; pass a single EncodingSpec"
                )
            if topo.reuploads < 1:
                raise ValueError("reuploads must be >= 1")
            if enc.n_rotations != topo.reuploads:
                raise ValueError(
                    f"need one weight per reupload block: expected "
                    f"{topo.reuploads}, got {enc.n_rotations}"
                )
            if isinstance(topo, Serial):
                if topo.encoders_per_block < 1:
                    raise ValueError("encoders_per_block must be >= 1")
                expected = 3 * self.n_qubits * topo.encoders_per_block
                if self.n_variables != expected:
                    raise ValueError(
                        f"serial topology packs 3 features per qubit per encoding "
                        f"layer: n_variables must be {expected}, got {self.n_variables}"
                    )
            elif self.n_variables != self.n_qubits:
                raise ValueError(
                    f"ring topology encodes one feature per qubit: n_variables "
                    f"must equal n_qubits ({self.n_qubits}), got {self.n_variables}"
                )
        else:
            raise TypeError(f"unsupported topology {type(topo).__name__}")
        total = self.total_qubits
        if total > MAX_QUBITS:
            raise CapacityError(f"{total} total qubits exceed the cap of {MAX_QUBITS}")
        measured = self.measured_qubit if self.measured_qubit is not None else total
        if not 1 <= measured <= total:
            raise IndexError(f"measured_qubit {measured} out of range 1..{total}")
        object.__setattr__(self, "measured_qubit", measured)

    @property
    def total_qubits(self) -> int:
        if isinstance(self.topology, Parallel):
            return self.n_variables * self.n_qubits
        return self.n_qubits

    def variable_encoding(self, m: int) -> EncodingSpec:
        """Effective weight list seen by variable ``m`` (1-based)."""
        if isinstance(self.topology, Parallel):
            return self.encoding[m - 1]
        return self.encoding  # per-block weights, shared by every variable

    @property
    def weight_sums(self) -> tuple[int, ...]:
        """Per-variable weight sums: the degrees of the dense lattice that
        encloses every frequency the encoding reaches."""
        return tuple(self.variable_encoding(m).weight_sum for m in range(1, self.n_variables + 1))


# ---------------------------------------------------------------------------
# circuit program
# ---------------------------------------------------------------------------
# Circuits compile to a flat tuple of single gates, interpreted by
# ``_apply_ops``:
#   ("ry"|"rz", qubit, theta_index)
#   ("enc_ry"|"enc_rz", qubit, var_index, weight)    R(weight * x[var])
#   ("cnot", control, target)
# A three-angle rotation Rot(a1, a2, a3) = RZ(a1) RY(a2) RZ(a3), trainable
# or encoding, is emitted as its three gates, RZ(a3) first.  The inverse
# of every op is the same op at negated angles.
# Trainable parameter indices are allocated in emission order, which fixes
# the public flat layout of theta: blocks in circuit order, layers within
# a block, qubits within a layer, rotation angles (a1, a2, a3) within a
# qubit.


def _emit_trainable_block(ops: list, spec: AnsatzSpec, qubits: range, entangler: list, start: int) -> int:
    idx = start
    for _ in range(spec.n_layers):
        for q in qubits:
            if spec.rotation_params == 2:
                ops += [("ry", q, idx), ("rz", q, idx + 1)]
            else:
                ops += [("rz", q, idx + 2), ("ry", q, idx + 1), ("rz", q, idx)]
            idx += spec.rotation_params
        for control, target in entangler:
            ops.append(("cnot", control, target))
    return idx


@lru_cache(maxsize=None)
def _program(spec: AnsatzSpec) -> tuple[tuple, int]:
    ops: list = []
    total = spec.total_qubits
    qubits = range(1, total + 1)
    topo = spec.topology
    if isinstance(topo, Ring):
        entangler = [(q, q % total + 1) for q in qubits] if total > 1 else []
    else:
        entangler = [(q, q + 1) for q in range(1, total)]

    if isinstance(topo, Parallel):
        idx = _emit_trainable_block(ops, spec, qubits, entangler, 0)
        for m in range(1, spec.n_variables + 1):
            offset = (m - 1) * spec.n_qubits
            for k, weight in enumerate(spec.encoding[m - 1].weights, start=1):
                ops.append(("enc_rz", offset + k, m - 1, weight))
        idx = _emit_trainable_block(ops, spec, qubits, entangler, idx)
    elif isinstance(topo, Serial):
        idx = _emit_trainable_block(ops, spec, qubits, entangler, 0)
        per_layer = 3 * spec.n_qubits
        for block in range(topo.reuploads):
            weight = spec.encoding.weights[block]
            for enc_layer in range(topo.encoders_per_block):
                base = enc_layer * per_layer
                for q in qubits:
                    v = base + (q - 1) * 3
                    ops += [("enc_rz", q, v + 2, weight), ("enc_ry", q, v + 1, weight),
                            ("enc_rz", q, v, weight)]
                idx = _emit_trainable_block(ops, spec, qubits, entangler, idx)
    else:  # Ring
        idx = _emit_trainable_block(ops, spec, qubits, entangler, 0)
        for block in range(topo.reuploads):
            weight = spec.encoding.weights[block]
            for q in qubits:
                ops.append(("enc_rz", q, q - 1, weight))
            idx = _emit_trainable_block(ops, spec, qubits, entangler, idx)
    return tuple(ops), idx


def _is_encoding(op: tuple) -> bool:
    return op[0].startswith("enc_")


def _opening_length(ops: tuple) -> int:
    """Number of ops before the first encoding gate: the opening block."""
    return next((k for k, op in enumerate(ops) if _is_encoding(op)), len(ops))


def _qubits(op: tuple) -> tuple[int, ...]:
    return op[1:3] if op[0] == "cnot" else op[1:2]


@lru_cache(maxsize=None)
def _trimmed(spec: AnsatzSpec) -> tuple[tuple, tuple, np.ndarray]:
    """The program exact Jacobians run: ``(opening, rows, observable)``.

    A forward scan drops the RZ gates on qubits that no earlier gate has
    rotated; each multiplies |0...0> by a phase.  A backward scan folds
    the RZ and CNOT gates on qubits that no later kept gate touches into
    the diagonal observable: they commute past the kept gates, an RZ
    commutes with a diagonal observable and a CNOT permutes its entries.
    It also drops an RY on such a qubit when the observable folded so far
    does not read that qubit's bit: the gate then commutes to the end and
    cancels against its inverse.  The kept gates are split at the first
    encoding gate into the opening block, which never reads the data, and
    the gates run per row.  The observable is ``Z_measured`` conjugated
    by the folded gates, a read-only vector of +-1 on the basis states.
    """
    ops, _ = _program(spec)
    n = spec.total_qubits
    rotated: set[int] = set()
    forward = []
    for k, op in enumerate(ops):
        if op[0] in ("rz", "enc_rz") and op[1] not in rotated:
            continue
        rotated.update(_qubits(op))
        forward.append(k)
    observable = 1.0 - 2.0 * ((np.arange(1 << n) >> (n - spec.measured_qubit)) & 1)
    live: set[int] = set()
    kept = []
    for k in reversed(forward):
        op = ops[k]
        if live.isdisjoint(_qubits(op)):
            if op[0] == "cnot":
                observable = apply_cnot(observable, n, op[1], op[2])
                continue
            if op[0] in ("rz", "enc_rz") or not _reads_bit(observable, n, op[1]):
                continue
        live.update(_qubits(op))
        kept.append(k)
    observable.flags.writeable = False
    n_open = _opening_length(ops)
    return (tuple(ops[k] for k in reversed(kept) if k < n_open),
            tuple(ops[k] for k in reversed(kept) if k >= n_open),
            observable)


def _reads_bit(observable: np.ndarray, n: int, qubit: int) -> bool:
    """Whether a diagonal observable's entries depend on ``qubit``'s bit."""
    halves = observable.reshape(1 << (qubit - 1), 2, 1 << (n - qubit))
    return not np.array_equal(halves[:, 0], halves[:, 1])


def param_count(spec: AnsatzSpec) -> int:
    """Number of trainable parameters N_tp, fixed by the ansatz alone."""
    return _program(spec)[1]


def count_gates(spec: AnsatzSpec) -> int:
    """Number of single-qubit rotations plus CNOTs in the compiled circuit.

    Three-angle rotations, trainable or encoding, count as their three
    single-qubit gates.  A spec with ``n_layers=0`` counts encoding gates
    only.
    """
    return len(_program(spec)[0])


def apply_opening(spec: AnsatzSpec, amps: np.ndarray, angles, x=None) -> np.ndarray:
    """Run the first trainable block, and with ``x`` the encoding run after it.

    ``amps`` has shape ``(variants, rows, 2**n)``, in any memory layout; a
    row batch of the circuit runner keeps its rows fastest in memory, and
    the gates write the result into ``amps`` in place.  ``angles`` has shape
    ``(variants, n_block_params)`` and holds that block's trainable angles
    in the flat theta order, one row per variant.  ``x`` is one input
    point, shared by every row.  A ``Parallel`` spec's second block has
    the first one's layout, so the same call runs it on the second half
    of theta.
    """
    ops, _ = _program(spec)
    block = ops[:_opening_length(ops)]
    n_block = sum(op[0] != "cnot" for op in block)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 2 or angles.shape[1] != n_block:
        raise ValueError(f"angles must have shape (variants, {n_block}), got {angles.shape}")
    xs = None
    if x is not None:
        block += tuple(takewhile(_is_encoding, ops[len(block):]))
        xs = np.asarray(x, dtype=np.float64)[None, :]
    return _apply_ops(amps, spec.total_qubits, block, angles, xs)


def init_parameters(spec: AnsatzSpec, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform draws on [-pi, pi) for every trainable angle."""
    return rng.uniform(-np.pi, np.pi, size=param_count(spec))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _run_batch(spec: AnsatzSpec, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Amplitudes of shape (variants, data, 2**n) after the full circuit.

    ``thetas``: (variants, N_tp); ``xs``: (data, M).  Trainable angles
    broadcast along the data axis and encoding angles along the variant
    axis, so one pass covers every (theta variant, datum) pair.  The
    opening block reads no data: it runs on one row per variant, which is
    then copied to every row of a ``_rows_fastest`` batch, with the same
    arithmetic as a full batch; ``_run_rows`` runs the rest.
    Shapes and finiteness are the caller's to check (``_as_theta``,
    ``_as_inputs``).
    """
    ops, _ = _program(spec)
    n = spec.total_qubits
    n_open = _opening_length(ops)
    amps = _rows_fastest(thetas.shape[0], xs.shape[0], n)
    amps[...] = _apply_ops(_zero_states(thetas.shape[0], n), n, ops[:n_open], thetas, None)
    return _run_rows(amps, n, ops[n_open:], thetas, xs)


def _run_rows(amps: np.ndarray, n: int, ops: tuple, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Apply ``ops`` to a ``_rows_fastest`` batch in place, a layer of ``_layers`` at a time."""
    phases = _half_phases(ops, thetas, xs)
    scratch = np.empty_like(amps)
    for layer in _layers(ops, n)[2]:
        _apply_layer(amps, scratch, n, layer, phases)
    return amps


def _half_phases(ops: tuple, thetas: np.ndarray, xs: np.ndarray) -> dict:
    """``exp(-i t / 2)`` of the angle t of every single-qubit gate of ``ops``, by op.

    Trainable angles come from ``thetas[:, i]``, shape (variants, 1), and
    encoding angles from ``xs[:, j]``, shape (rows,).
    """
    encoded = [op for op in ops if _is_encoding(op)]
    trainable = np.exp(-0.5j * thetas)
    phases = {op: trainable[:, op[2], None] for op in ops if op[0] in ("ry", "rz")}
    if encoded:
        weights = np.array([op[3] for op in encoded])[:, None]
        phases.update(zip(encoded, np.exp(-0.5j * weights * xs.T[[op[2] for op in encoded]])))
    return phases


def _zero_states(variants: int, n: int) -> np.ndarray:
    """|0...0> as amplitudes of shape (variants, 1, 2**n)."""
    amps = np.zeros((variants, 1, 1 << n), dtype=np.complex128)
    amps[:, :, 0] = 1.0
    return amps


def _rows_fastest(variants: int, rows: int, n: int) -> np.ndarray:
    """An empty row batch of shape (variants, rows, 2**n), rows fastest in memory.

    A gate on qubit q walks the amplitude axis in runs of 2**(n-q)
    amplitudes; with the rows fastest, every run spans all the rows.
    """
    return np.empty((variants, 1 << n, rows), dtype=np.complex128).transpose(0, 2, 1)


def _apply_ops(amps: np.ndarray, n: int, ops: tuple, thetas: np.ndarray, xs) -> np.ndarray:
    """Apply ``ops`` to amplitudes of shape (variants, data, 2**n), in place.

    Trainable angles come from ``thetas[:, i]`` along the variant axis
    and encoding angles from ``xs[:, j]`` along the data axis.
    """
    for op in ops:
        kind = op[0]
        if kind == "ry":
            amps = apply_ry(amps, n, op[1], thetas[:, op[2]][:, None])
        elif kind == "rz":
            amps = apply_rz(amps, n, op[1], thetas[:, op[2]][:, None])
        elif kind == "enc_ry":
            amps = apply_ry(amps, n, op[1], op[3] * xs[:, op[2]][None, :])
        elif kind == "enc_rz":
            amps = apply_rz(amps, n, op[1], op[3] * xs[:, op[2]][None, :])
        else:  # cnot
            amps = apply_cnot(amps, n, op[1], op[2])
    return amps


def _apply_layer(amps: np.ndarray, scratch: np.ndarray, n: int, layer, phases: dict,
                 undo: bool = False) -> None:
    """Apply one layer of ``_layers``, or with ``undo`` its inverse, in place.

    ``amps`` is a ``_rows_fastest`` batch and ``scratch`` an array of its
    shape and layout, shared by every call of a pass.  A local layer is
    one ``apply_matrix`` call per qubit; a permutation is one gather.
    """
    if isinstance(layer, np.ndarray):
        mem, tmp = amps.swapaxes(-1, -2), scratch.swapaxes(-1, -2)  # C-ordered (..., 2**n, rows)
        if undo:
            tmp[..., layer, :] = mem
        else:
            np.take(mem, layer, axis=-2, out=tmp, mode="clip")
        mem[...] = tmp
        return
    for q, chain in layer[1]:
        apply_matrix(amps, n, q + 1, _chain_matrix(chain, phases, undo), scratch)


def _chain_matrix(chain: tuple, phases: dict, adjoint: bool = False) -> np.ndarray:
    """The product of one qubit's gates in a local layer, (variants, rows, 2, 2) or broadcastable.

    Every gate is in SU(2), so the product is ``[[a, -b*], [b, a*]]`` and
    only ``(a, b)`` is carried; its inverse is ``(a*, -b)``.
    """
    a, b = 1.0, 0.0
    for op in chain:
        phase = phases[op]
        if op[0].endswith("ry"):  # phase = cos(t/2) - i sin(t/2)
            c, s = phase.real, phase.imag
            a, b = c * a + s * b, c * b - s * a
        else:
            a, b = phase * a, phase.conj() * b
    if adjoint:
        a, b = np.conj(a), -b
    matrix = np.empty(np.broadcast(a, b).shape + (2, 2), dtype=np.complex128)
    matrix[..., 0, 0], matrix[..., 0, 1] = a, -np.conj(b)
    matrix[..., 1, 0], matrix[..., 1, 1] = b, np.conj(a)
    return matrix


def _shift_rule(spec: AnsatzSpec, theta: np.ndarray, xs: np.ndarray, shots: int | None, rng) -> tuple:
    """Values and parameter-shift Jacobian from ``2 N_tp + 1`` circuits.

    The base circuit and the +pi/2 and -pi/2 shifts of each angle run as
    one variant batch; with ``shots`` set every circuit value is a
    finite-shot estimate drawn from ``rng``.
    """
    n_tp = theta.shape[0]
    variants = np.tile(theta, (2 * n_tp + 1, 1))
    rows = np.arange(n_tp)
    variants[1 + rows, rows] += np.pi / 2
    variants[1 + n_tp + rows, rows] -= np.pi / 2
    amps = _run_batch(spec, variants, xs)
    if shots is None:
        z = expectation_z(amps, spec.total_qubits, spec.measured_qubit)
    else:
        z = sample_expectation_z(amps, spec.total_qubits, spec.measured_qubit, shots, rng)
    return z[0], ((z[1 : 1 + n_tp] - z[1 + n_tp :]) / 2.0).T


def _as_theta(spec: AnsatzSpec, theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != param_count(spec):
        raise ValueError(f"theta must have length {param_count(spec)}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("theta entries must be finite")
    return arr


def _as_inputs(spec: AnsatzSpec, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("x entries must be finite")
    if arr.ndim == 0:
        arr = arr[None]
    if arr.ndim == 1:
        if arr.shape[0] != spec.n_variables:
            raise ValueError(f"x must have length {spec.n_variables}, got {arr.shape[0]}")
        return arr[None, :]
    if arr.ndim == 2 and arr.shape[1] == spec.n_variables:
        return arr
    raise ValueError(f"inputs must have shape (n, {spec.n_variables}), got {arr.shape}")


def evaluate(spec: AnsatzSpec, theta, x) -> float:
    """Exact model value ``<Z_measured>`` at one input point."""
    theta = _as_theta(spec, theta)
    xs = _as_inputs(spec, x)
    if xs.shape[0] != 1:
        raise ValueError("evaluate takes a single input point; use evaluate_batch")
    amps = _run_batch(spec, theta[None, :], xs)
    return float(expectation_z(amps, spec.total_qubits, spec.measured_qubit)[0, 0])


def evaluate_batch(spec: AnsatzSpec, theta, xs) -> np.ndarray:
    """Exact model values over inputs of shape (n, M)."""
    theta = _as_theta(spec, theta)
    xs = _as_inputs(spec, xs)
    amps = _run_batch(spec, theta[None, :], xs)
    return expectation_z(amps, spec.total_qubits, spec.measured_qubit)[0]


def values_and_jacobian(
    spec: AnsatzSpec,
    theta,
    xs,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Model values and their Jacobian in theta over a dataset.

    Returns ``(values, jac)`` with shapes ``(n,)`` and ``(n, N_tp)``.
    Exact values come from the trimmed program (see the module
    docstring), whose opening block is built once, with one pi-shifted
    variant per trainable angle as that angle's tangent.  A ``Parallel``
    spec whose closing block fits the rule of ``_diagonal_fits`` runs no
    gate kernel: its closing block is built once as ``2**n x 2**n``
    unitaries, the data enter as one diagonal phase per row, and the
    values and every column are row-by-matrix products.  Any other spec
    takes the adjoint pass: one forward and one backward pass over the
    data run only the gates from the first encoding gate on, and the
    opening block's columns are one matrix product of the co-state
    carried back to it with its tangents.  Either way dropped and folded
    trainable gates get columns of exactly 0.  With ``shots`` set, every
    value is a finite-shot estimate drawn from ``rng``, and the Jacobian
    is the parameter-shift rule over the ``2 N_tp + 1`` sampled circuits
    of the full program (base, +pi/2 and -pi/2 shifts of each angle), as
    hardware would measure it.
    """
    theta = _as_theta(spec, theta)
    xs = _as_inputs(spec, xs)
    if shots is not None:
        if rng is None:
            raise ValueError("sampled evaluation needs an rng")
        return _shift_rule(spec, theta, xs, shots, rng)
    if _diagonal_fits(spec, xs.shape[0]):
        return _diagonal_jacobian(spec, theta, xs)
    return _adjoint_jacobian(spec, theta, xs)


def _shifted(theta: np.ndarray, cols: list[int] | tuple[int, ...]) -> np.ndarray:
    """The base angles, then one variant per column with that angle shifted by pi.

    ``R_G(t + pi) = -iG R_G(t) = 2 dR_G/dt``, so a block run at a shifted
    variant is twice that angle's tangent of the block.
    """
    variants = np.repeat(theta[None, :], 1 + len(cols), axis=0)
    variants[1 + np.arange(len(cols)), cols] += np.pi
    return variants


def _opening_tangents(spec: AnsatzSpec, theta: np.ndarray, opening: tuple) -> tuple[list, np.ndarray]:
    """The opening block's trainable columns and its states on |0...0>.

    Row 0 of the states is the base state, row ``1 + i`` the tangent of
    column ``i``.  They are the first columns of the block's unitaries,
    built without holding a 2**n x 2**n array.
    """
    cols = [op[2] for op in opening if op[0] != "cnot"]
    return cols, _block_unitaries(opening, spec.total_qubits, _shifted(theta, cols),
                                  first_column=True)


@lru_cache(maxsize=None)
def _layers(ops: tuple, n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Ops compiled for ``_block_unitaries`` and the per-row ``_apply_layer``.

    Returns ``(cols, half_turns, layers)``: the angle column of every
    single-qubit gate in order, its ``R_G(pi)`` (shape (gates, 2, 2)), and
    the ops as alternating local layers and basis permutations, opening
    with a local layer (one without gates if the ops open with a CNOT).
    Gates on different qubits commute, so a run of single-qubit gates is
    a local layer ``(rounds, chains)``: ``rounds[r, q - 1]`` is the index
    of the r-th gate on qubit q, or ``len(cols)`` (the identity) past its
    last one, and ``chains`` pairs each 0-based qubit with gates with its
    ops in order, encoding gates included.  A run of CNOTs is composed
    into one read-only index array ``perm`` that maps amplitudes ``psi``
    to ``psi[perm]``; a CNOT flips the target bit of the basis index
    where the control bit is set.
    """
    indices = np.arange(1 << n)
    # R_G(pi) = -iG of each trainable gate, so R_G(t) = cos(t/2) I + sin(t/2) R_G(pi)
    half_turn = {"ry": [[0, -1], [1, 0]], "rz": [[-1j, 0], [0, 1j]]}
    cols, half_turns, runs = [], [], []
    for op in ops:
        if op[0] == "cnot":
            flipped = indices ^ (((indices >> (n - op[1])) & 1) << (n - op[2]))
            if runs and isinstance(runs[-1], np.ndarray):
                runs[-1] = runs[-1][flipped]
            else:
                runs.append(flipped)
            continue
        if not runs or isinstance(runs[-1], np.ndarray):
            runs.append([[] for _ in range(n)])
        runs[-1][op[1] - 1].append((len(cols), op))
        cols.append(op[2])
        half_turns.append(half_turn[op[0][-2:]])
    if not runs or isinstance(runs[0], np.ndarray):
        runs.insert(0, [[] for _ in range(n)])
    layers = []
    for run in runs:
        if isinstance(run, np.ndarray):
            run.flags.writeable = False
            layers.append(run)
            continue
        rounds = np.full((max(1, *map(len, run)), n), len(cols))
        for q, chain in enumerate(run):
            rounds[:len(chain), q] = [k for k, _ in chain]
        rounds.flags.writeable = False
        layers.append((rounds, tuple((q, tuple(op for _, op in chain))
                                     for q, chain in enumerate(run) if chain)))
    half_turns = np.array(half_turns, dtype=np.complex128).reshape(-1, 2, 2)
    cols = np.array(cols, dtype=np.intp)
    half_turns.flags.writeable = cols.flags.writeable = False
    return cols, half_turns, tuple(layers)


def _block_unitaries(ops: tuple, n: int, angles: np.ndarray, first_column: bool = False) -> np.ndarray:
    """Unitaries of a block of trainable gates and CNOTs, one per angle row.

    ``angles`` has shape ``(variants, N_tp)``.  Returns shape
    ``(variants, 2**n, 2**n)``, or with ``first_column`` only the first
    columns, the block run on |0...0>, as ``(variants, 2**n)``.  One cos
    and one sin of all half-angles give every gate's 2x2; each qubit's
    2x2s are multiplied in gate order, the first local layer is their
    Kronecker product over the qubits (qubit 1 most significant), a
    permutation gathers rows, and each later local layer multiplies every
    qubit's 2x2 into that qubit's axis.  The first columns never need a
    2**n x 2**n array.  The gate kernels (``_apply_ops`` on the basis
    states) are this builder's oracle.
    """
    cols, half_turns, layers = _layers(ops, n)
    variants, identity = angles.shape[0], np.eye(2)
    half = 0.5 * angles[:, cols]
    mats = np.empty((variants, len(cols) + 1, 2, 2), dtype=np.complex128)
    mats[:, :-1] = (np.cos(half)[..., None, None] * identity
                    + np.sin(half)[..., None, None] * half_turns)
    mats[:, -1] = identity
    rounds, _ = layers[0]
    factors = mats[:, rounds[0], :, :1] if first_column else mats[:, rounds[0]]
    for gates in rounds[1:]:
        factors = mats[:, gates] @ factors
    # kron(A, B)[(i, i'), (j, j')] = A[i, j] B[i', j'], built from the last
    # qubit up so that the longest axis is the innermost one
    state = factors[:, n - 1]
    for q in range(n - 2, -1, -1):
        state = (factors[:, q, :, None, :, None] * state[:, None, :, None, :]).reshape(
            variants, 2 * state.shape[1], -1)
    width = state.shape[2]
    for layer in layers[1:]:
        if isinstance(layer, np.ndarray):
            state = state[:, layer]
            continue
        rounds, chains = layer
        for q, _ in chains:
            factor = mats[:, rounds[0, q]]
            for gate in rounds[1:, q]:
                factor = mats[:, gate] @ factor
            state = (factor[:, None] @ state.reshape(variants, 1 << q, 2, -1)).reshape(
                variants, 1 << n, width)
    return state[:, :, 0] if first_column else state


def _adjoint_jacobian(spec: AnsatzSpec, theta: np.ndarray, xs: np.ndarray) -> tuple:
    """Values and Jacobian from one forward and one backward pass over the rows."""
    # With phi the state after a trainable gate R_G(t) and lam = O
    # phi_final carried back to the same point, O the observable,
    # df/dt = Re <lam| -iG |phi>, and -iG = R_G(pi).  Walking the layers
    # in reverse, each local layer's columns are read at its end, then
    # the layer is undone on the (phi, lam) pair, the first one on lam
    # alone, which is carried to the end of the opening block.
    opening, per_row, observable = _trimmed(spec)
    n = spec.total_qubits
    cols, opened = _opening_tangents(spec, theta, opening)
    layers, phases = _layers(per_row, n)[2], _half_phases(per_row, theta[None, :], xs)
    pair = _rows_fastest(2, xs.shape[0], n)
    scratch = np.empty_like(pair)
    pair[0] = opened[0]
    for layer in layers:
        _apply_layer(pair[:1], scratch[:1], n, layer, phases)
    np.multiply(observable, pair[0], out=pair[1])
    values = np.einsum("rd,rd->r", pair[0], np.conjugate(pair[1], out=scratch[1])).real
    jac = np.zeros((xs.shape[0], theta.size))
    for k in range(len(layers) - 1, -1, -1):
        if isinstance(layers[k], tuple):
            _read_layer(pair, scratch, n, layers[k], phases, jac)
        if k or cols:
            undone = slice(None) if k else slice(1, None)
            _apply_layer(pair[undone], scratch[undone], n, layers[k], phases, undo=True)
    if cols:
        jac[:, cols] = (np.conjugate(pair[1], out=scratch[1]) @ opened[1:].T).real
    return values, jac


def _read_layer(pair: np.ndarray, scratch: np.ndarray, n: int, layer: tuple, phases: dict,
                jac: np.ndarray) -> None:
    """Write the columns of a local layer's trainable gates, read at its end.

    ``pair`` stacks phi and lam, shape (2, rows, 2**n).  Gates on other
    qubits commute with qubit q's chain, so a gate G on it has column
    ``Re tr(R_G(pi) S^dag K S)``, S the chain's later gates and K the
    per-row ``K[a, b] = sum_rest phi[a, rest] conj(lam[b, rest])`` on q.
    As ``R_G(pi) = -iG``, that is ``v_y`` (RY) or ``v_z`` (RZ) of
    ``v_k = Im tr(sigma_k S^dag K S)``, which S's gates rotate as they
    rotate the Bloch sphere.  conj(lam) goes to ``scratch[1]``.
    """
    rows = pair.shape[1]
    lam_conj = np.conjugate(pair[1], out=scratch[1])
    for q, chain in layer[1]:
        if all(_is_encoding(op) for op in chain):
            continue
        shape = (rows, 1 << q, 2, 1 << (n - 1 - q))
        phi, lam = pair[0].reshape(shape), lam_conj.reshape(shape)
        cross = [[np.einsum("rik,rik->r", phi[:, :, a], lam[:, :, b]) for b in (0, 1)]
                 for a in (0, 1)]
        vx = (cross[0][1] + cross[1][0]).imag
        vy = (cross[0][1] - cross[1][0]).real
        vz = (cross[0][0] - cross[1][1]).imag
        for op in reversed(chain):
            ry = op[0].endswith("ry")
            if not _is_encoding(op):
                jac[:, op[2]] = vy if ry else vz
            turn = phases[op] ** 2  # cos t - i sin t
            c, s = turn.real, turn.imag
            if ry:
                vz, vx = c * vz - s * vx, c * vx + s * vz
            else:
                vx, vy = c * vx - s * vy, c * vy + s * vx


@lru_cache(maxsize=None)
def _diagonal_program(spec: AnsatzSpec) -> tuple[np.ndarray, tuple, tuple]:
    """A ``Parallel`` spec's per-row gates as ``(rates, closing, closing_cols)``.

    The kept encoding gates are all ``RZ`` and come first; together they
    are the diagonal ``D(x) = exp(i x @ rates)``, where ``rates[m, j]``
    sums ``weight * (bit_q(j) - 1/2)`` over the gates that encode
    variable ``m`` on qubit ``q``.  The rest of the per-row gates is the
    kept closing block, which reads no data, and its trainable columns.
    """
    _, per_row, _ = _trimmed(spec)
    encoding = tuple(takewhile(_is_encoding, per_row))
    closing = per_row[len(encoding):]
    n = spec.total_qubits
    indices = np.arange(1 << n)
    rates = np.zeros((spec.n_variables, 1 << n))
    for _, qubit, var, weight in encoding:
        rates[var] += weight * (((indices >> (n - qubit)) & 1) - 0.5)
    rates.flags.writeable = False
    return rates, closing, tuple(op[2] for op in closing if op[0] != "cnot")


def _diagonal_fits(spec: AnsatzSpec, rows: int) -> bool:
    """The one rule that sends an exact Jacobian to ``_diagonal_jacobian``.

    The spec must be ``Parallel``, whose data enter only through the
    diagonal encoding, and the engine's work must not exceed the adjoint
    pass's.  Counted in amplitude updates by a gate kernel, with
    ``d = 2**n``, P trainable gates in the kept closing block and Q qubit
    passes in its local layers after the first (``_layers``): the engine
    builds ``1 + P`` closing unitaries, one update per entry for the
    Kronecker product and two per later pass, then makes
    ``rows (2 + P) d**2`` multiply-adds at ``1 / _PRODUCT_SPEEDUP`` update
    each; the adjoint pass costs ``C (_CHAIN_UPDATES rows d + _CHAIN_CALL)``
    for the C qubit chains of its per-row layers.  At one layer the engine
    takes every row count up to 6 qubits, up to 48 rows at 7 qubits and
    none from 8, so its unitaries never exceed ``(1 + P) 128**2``
    amplitudes.
    """
    if not isinstance(spec.topology, Parallel):
        return False
    _, closing, closing_cols = _diagonal_program(spec)
    n = spec.total_qubits
    variants, d = 1 + len(closing_cols), 1 << n
    later = sum(len(layer[1]) for layer in _layers(closing, n)[2][1:] if isinstance(layer, tuple))
    chains = sum(len(layer[1]) for layer in _layers(_trimmed(spec)[1], n)[2] if isinstance(layer, tuple))
    engine = _PRODUCT_SPEEDUP * variants * (1 + 2 * later) * d + rows * (1 + variants) * d
    return engine <= _PRODUCT_SPEEDUP * chains * (_CHAIN_UPDATES * rows + _CHAIN_CALL / d)


@lru_cache(maxsize=1)
def _phases(spec: AnsatzSpec, shape: tuple[int, int], data: bytes) -> np.ndarray:
    """The read-only diagonals ``D(x_t) = exp(i x_t @ rates)``, one row per input.

    Keyed by the inputs' bytes, so a full-batch fit computes them once and
    every later step with the same inputs reuses them; the cache holds
    only the last dataset seen, (rows x d) amplitudes that stay alive
    until inputs of another shape or value replace them.
    """
    xs = np.frombuffer(data, dtype=np.float64).reshape(shape)
    phases = np.exp(1j * (xs @ _diagonal_program(spec)[0]))
    phases.flags.writeable = False
    return phases


def _diagonal_jacobian(spec: AnsatzSpec, theta: np.ndarray, xs: np.ndarray) -> tuple:
    """Values and Jacobian of a ``Parallel`` spec without gates on the data rows.

    With a = W1|0>, psi_t = D(x_t) a, B the kept closing block and O the
    folded observable, ``f_t = Re <O B psi_t, B psi_t>``.  The closing
    column of angle p is ``Re <O B psi_t, B'_p psi_t>`` and the opening
    column ``Re <B^dag O B psi_t, D(x_t) T_p>``, with B'_p and T_p the
    pi-shifted variants of B and a.  States are rows here, so a block
    acts as ``psi @ B^T``; the operand holds B^T and its P variants side
    by side, so one product takes every psi_t through all of them.  The
    rows go through in blocks of ``_ROW_BLOCK``, so beyond the cached
    (rows x d) diagonals and the Jacobian, peak memory is the closing
    block's unitaries, ``(1 + P) d**2`` amplitudes held twice (the
    builder's last two layers, then the unitaries and the product's
    operand), plus one block's ``(_ROW_BLOCK, 1 + P, d)`` states and a
    few (_ROW_BLOCK x d) arrays.  The opening block is built as first
    columns only, ``(1 + P_open) d`` amplitudes.
    """
    opening, _, observable = _trimmed(spec)
    _, closing, closing_cols = _diagonal_program(spec)
    n, d = spec.total_qubits, 1 << spec.total_qubits
    cols, opened = _opening_tangents(spec, theta, opening)
    unitaries = _block_unitaries(closing, n, _shifted(theta, closing_cols))
    operand = unitaries.transpose(2, 0, 1).reshape(d, -1)
    phases = _phases(spec, xs.shape, xs.tobytes())
    values = np.empty(xs.shape[0])
    jac = np.zeros((xs.shape[0], theta.size))
    for start in range(0, xs.shape[0], _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        states = (phases[block] * opened[0]) @ operand
        states = states.reshape(states.shape[0], -1, d)
        phi = states[:, 0]
        values[block] = (phi.real**2 + phi.imag**2) @ observable
        lam = observable * phi.conj()
        jac[block, closing_cols] = (states[:, 1:] @ lam[:, :, None])[..., 0].real
        if cols:
            jac[block, cols] = ((lam @ unitaries[0]) * phases[block] @ opened[1:].T).real
    return values, jac


def gradient_parameter_shift(spec: AnsatzSpec, theta, x) -> np.ndarray:
    """Exact gradient of ``evaluate`` w.r.t. every trainable angle.

    Uses the shift rule ``[f(theta_k + pi/2) - f(theta_k - pi/2)] / 2``,
    which is exact because every trainable rotation has a Pauli generator
    with eigenvalues +-1/2.
    """
    theta = _as_theta(spec, theta)
    xs = _as_inputs(spec, x)
    if xs.shape[0] != 1:
        raise ValueError("gradient_parameter_shift takes a single input point")
    return _shift_rule(spec, theta, xs, None, None)[1][0]


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------

def fourier_coefficients(spec: AnsatzSpec, theta, fm: FeatureMap | None = None) -> np.ndarray:
    """The model's real coefficient vector in the feature basis of ``fm``.

    ``fm`` defaults to ``FeatureMap(M, weight sums)``, the dense lattice
    that encloses every frequency the encoding reaches, and the vector
    ``c`` satisfies ``f(x) = c . phi(x)`` as in ``cfflm.feature_matrix``.
    A larger map is the band-limit check: its entries at frequencies
    outside ``spectrum(...).support``, the holes of a sparse spectrum
    included, vanish up to rounding.  A map below some variable's weight
    sum would alias and raises ``ValueError``.  The model is evaluated
    once per point of the map's grid (``cfflm.grid_coefficients``), which
    ``FeatureMap`` caps at 10^7 points.
    """
    theta = _as_theta(spec, theta)
    sums = spec.weight_sums
    if fm is None:
        fm = FeatureMap(spec.n_variables, sums)
    elif fm.n_variables != spec.n_variables or any(d < s for d, s in zip(fm.degrees, sums)):
        raise ValueError(f"feature map degrees {fm.degrees} would alias a model whose "
                         f"weight sums are {sums}; each degree needs at least its sum")
    return grid_coefficients(lambda xs: evaluate_batch(spec, theta, xs), fm)
