"""Dense d x d oracles for the compiled circuit program and the plateau lab.

The package evaluates circuits gate by gate, builds its trainable blocks
as Kronecker layers, and samples the plateau lab's Haar blocks as
isometries.  These helpers build the same objects as explicit matrices
instead: an explicit unitary applied on chosen qubits (the gate kernels'
oracle), the unitaries of a run of ops computed by the gate kernels on
the basis states (the block builder's oracle), the unitary of the first
trainable block, the diagonal of the encoding run after it, and the
plateau lab's full propagation through dense d x d blocks.  They are
slow and exist only to check the fast paths.
"""

import math
from itertools import takewhile

import numpy as np

from fourierqml import qfflm
from fourierqml.qfflm import AnsatzSpec, Parallel, param_count
from fourierqml.spectra import exponential_weights
from fourierqml.statevector import apply_ry, expectation_z, haar_unitary


def opening(spec):
    """The first trainable block and the run of encoding ops after it."""
    ops, _ = qfflm._program(spec)
    block = tuple(takewhile(lambda op: not qfflm._is_encoding(op), ops))
    return block, tuple(takewhile(qfflm._is_encoding, ops[len(block):]))


def block_unitaries(spec, angles):
    """Dense unitaries of the first trainable block, one per angle row.

    ``angles`` has shape ``(size, n_block_params)`` and holds that block's
    trainable angles in the flat theta order.  Returns shape
    ``(size, 2**n, 2**n)``.
    """
    block, _ = opening(spec)
    angles = np.asarray(angles, dtype=np.float64)
    n_block = sum(op[0] != "cnot" for op in block)
    if angles.ndim != 2 or angles.shape[1] != n_block:
        raise ValueError(f"angles must have shape (size, {n_block}), got {angles.shape}")
    return gate_unitaries(block, spec.total_qubits, angles)


def gate_unitaries(ops, n, thetas):
    """Dense unitaries of a tuple of trainable and CNOT ops, run by the gate kernels.

    ``thetas`` has shape ``(size, n_angles)`` and the ops read their angle
    columns from it.  Returns shape ``(size, 2**n, 2**n)``.
    """
    # the ops run on the 2**n basis states at once: row j of entry v is
    # U_v |j>, so the unitary is the transpose
    d = 1 << n
    basis = np.broadcast_to(np.eye(d, dtype=np.complex128), (thetas.shape[0], d, d)).copy()
    return qfflm._apply_ops(basis, n, ops, thetas, None).swapaxes(-1, -2)


def encoding_diagonal(spec, x):
    """Diagonal of the encoding layer after the first trainable block at ``x``.

    Only ``RZ`` encodings are diagonal; a ``Serial`` spec raises
    ``ValueError``.  The phases of every op are summed before a single
    exponential.
    """
    _, layer = opening(spec)
    if any(op[0] != "enc_rz" for op in layer):
        raise ValueError("only RZ encoding layers are diagonal")
    x = np.asarray(x, dtype=np.float64)
    n = spec.total_qubits
    indices = np.arange(1 << n)
    phases = np.zeros(1 << n)
    for _, qubit, var, weight in layer:
        bit = (indices >> (n - qubit)) & 1
        phases += weight * x[var] * 0.5 * (2 * bit - 1)
    return np.exp(1j * phases)


def apply_dense(amps: np.ndarray, n_qubits: int, matrix: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply an explicit unitary on an ordered tuple of target qubits.

    ``targets[0]`` is the most significant bit of the block index used to
    interpret ``matrix``.  This is the slow general path that the
    specialised kernels are checked against.
    """
    lead = amps.shape[:-1]
    nb = len(lead)
    k = len(targets)
    tensor = amps.reshape(*lead, *([2] * n_qubits))
    src = [nb + t - 1 for t in targets]
    dest = list(range(nb + n_qubits - k, nb + n_qubits))
    tensor = np.moveaxis(tensor, src, dest)
    moved_shape = tensor.shape
    flat = tensor.reshape(*moved_shape[:-k], 1 << k)
    flat = flat @ np.asarray(matrix, dtype=np.complex128).T
    tensor = np.moveaxis(flat.reshape(moved_shape), dest, src)
    return np.ascontiguousarray(tensor).reshape(*lead, 1 << n_qubits)


def state_norm(amps: np.ndarray):
    """Euclidean norm of each amplitude row."""
    return np.sqrt((amps.real**2 + amps.imag**2).sum(axis=-1))


def dense_plateau_samples(n_variables, n_qubits, trials, rng, mode="haar", grad_case="II",
                          n_layers=2, x=None):
    """Values and shift-rule gradients of ``plateau_stats`` through dense blocks.

    Every trainable block is drawn as a full d x d matrix (a Haar unitary,
    or the circuit block at uniform angles, drawn W1, W2, then Wb per
    batch) and every trial's three rows are propagated through them.
    Returns ``(f, grad)``, each of length ``trials``.
    """
    total = n_variables * n_qubits
    if x is None:
        x = 0.5 + 0.25 * np.arange(n_variables)
    spec = AnsatzSpec(n_variables, n_qubits, n_layers, Parallel(), exponential_weights(n_qubits))
    n_block = param_count(spec) // 2
    d = 1 << total
    phases = encoding_diagonal(spec, x)
    zero = np.eye(1, d, dtype=np.complex128)  # |0...0> as a row
    shifted_qubit = total if grad_case == "III" else 1

    def draw_block(size):
        if mode == "haar":
            return haar_unitary(d, rng, size=size)
        return block_unitaries(spec, rng.uniform(-np.pi, np.pi, size=(n_block, size)).T)

    def propagate(states, blocks):
        # row-vector states: a dense block W acts as psi @ W^T, S(x) as phases
        for block in blocks:
            states = states * block if block.ndim == 1 else states @ block.swapaxes(-1, -2)
        return states

    def sample(b):
        w1 = draw_block(b)
        w2 = draw_block(b)
        circuit = [w1, phases, w2]
        if grad_case == "I":
            before, after = [draw_block(b)], circuit
        elif grad_case == "II":
            before, after = [], circuit
        else:
            before, after = circuit, []
        states = propagate(zero, before)
        rows = [states] + [apply_ry(states.copy(), total, shifted_qubit, angle)
                           for angle in (math.pi / 2.0, -math.pi / 2.0)]
        z = expectation_z(propagate(np.concatenate(rows, axis=-2), after), total, total)
        return z[..., 0], 0.5 * (z[..., 1] - z[..., 2])

    batch = max(1, min(1024, (1 << 21) // (d * d)))
    f, grad = np.concatenate(
        [sample(min(batch, trials - start)) for start in range(0, trials, batch)], axis=-1
    )
    return f, grad
