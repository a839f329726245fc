"""Dense statevector simulator with batch-aware gate kernels.

Conventions
-----------
* Qubits are numbered ``1..n_qubits`` and qubit 1 is the most significant
  bit of the basis index: the bit of qubit ``q`` in basis state ``i`` is
  ``(i >> (n_qubits - q)) & 1``.
* Rotations follow ``R_G(theta) = exp(-1j * theta * G / 2)`` for generator
  ``G``, so ``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>`` and
  ``<Z> = cos(theta)``.
* Amplitude arrays have shape ``(..., 2**n_qubits)``; any leading axes are
  batch axes.  Angle arguments may be scalars or arrays broadcastable
  against the batch shape, which is what makes parameter-shift gradients
  over whole datasets a single pass through the gate sequence.

Kernels split the last axis into ``(2**(q-1), 2, 2**(n-q))``, which is a
view for any strides, and write the result into the input array in place,
whatever its memory layout; a batch whose row axis is fastest in memory
stays so.  They return the array holding the result; callers should
always rebind to the return value.  The kernels and ``expectation_z``
give the same bits on any layout of the same amplitudes.
"""

from __future__ import annotations

import numpy as np

# register cap for model specs; one 2**24 amplitude array is 256 MiB
MAX_QUBITS = 24

__all__ = [
    "MAX_QUBITS",
    "apply_rz",
    "apply_ry",
    "apply_matrix",
    "apply_cnot",
    "expectation_z",
    "sample_expectation_z",
    "haar_unitary",
]


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 1 <= qubit <= n_qubits:
        raise IndexError(f"qubit {qubit} out of range 1..{n_qubits}")


def _axis_view(amps: np.ndarray, n_qubits: int, target: int) -> np.ndarray:
    # (..., 2**n) -> (..., 2**(t-1), 2, 2**(n-t)); splitting one axis is a
    # view whatever the strides, so writes to it reach ``amps``
    _check_qubit(n_qubits, target)
    lead = amps.shape[:-1]
    return amps.reshape(*lead, 1 << (target - 1), 2, 1 << (n_qubits - target))


def _bcast(angle) -> np.ndarray:
    # lift an angle (scalar or batch-shaped array) onto the last two axes
    arr = np.asarray(angle, dtype=np.float64)
    return arr[..., None, None]


def apply_rz(amps: np.ndarray, n_qubits: int, target: int, angle) -> np.ndarray:
    amps = np.asarray(amps)
    view = _axis_view(amps, n_qubits, target)
    phase = np.exp(-0.5j * _bcast(angle))
    view[..., 0, :] *= phase
    view[..., 1, :] *= np.conj(phase)
    return amps


def apply_ry(amps: np.ndarray, n_qubits: int, target: int, angle) -> np.ndarray:
    amps = np.asarray(amps)
    view = _axis_view(amps, n_qubits, target)
    half = 0.5 * _bcast(angle)
    c, s = np.cos(half), np.sin(half)
    a0 = view[..., 0, :]
    a1 = view[..., 1, :]
    # c*a0 - s*a1 and s*a0 + c*a1, bit for bit, through two half-size
    # temporaries that are reused: with more of them, malloc hands their
    # memory back to the system between gates and each gate faults it in
    # again, which doubled the adjoint pass's undo at 6 qubits and 200 rows
    t = s * a1
    new = c * a0
    new -= t
    np.multiply(s, a0, out=t)
    view[..., 0, :] = new
    np.multiply(c, a1, out=new)
    new += t
    view[..., 1, :] = new
    return amps


def apply_matrix(amps: np.ndarray, n_qubits: int, target: int, matrix, scratch: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` (shape ``(..., 2, 2)``, broadcast over the batch) to ``target``.

    The products go through the two halves of ``scratch``, an array of
    the shape and layout of ``amps`` that a pass shares across its calls.
    """
    amps = np.asarray(amps)
    view = _axis_view(amps, n_qubits, target)
    a0, a1 = view[..., 0, :], view[..., 1, :]
    half = 1 << (n_qubits - 1)
    b0, b1 = scratch[..., :half].reshape(a0.shape), scratch[..., half:].reshape(a0.shape)
    m = np.asarray(matrix)[..., None, None]
    np.multiply(m[..., 0, 0, :, :], a0, out=b0)
    np.multiply(m[..., 0, 1, :, :], a1, out=b1)
    b0 += b1
    np.multiply(m[..., 1, 0, :, :], a0, out=b1)
    a1 *= m[..., 1, 1, :, :]
    a1 += b1
    a0[...] = b0
    return amps


def apply_cnot(amps: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    _check_qubit(n_qubits, control)
    _check_qubit(n_qubits, target)
    if control == target:
        raise ValueError(f"CNOT control and target are both qubit {control}")
    amps = np.asarray(amps)
    lead = amps.shape[:-1]
    lo, hi = (control, target) if control < target else (target, control)
    view = amps.reshape(
        *lead,
        1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, 1 << (n_qubits - hi),
    )
    if control < target:
        sub = view[..., 1, :, :, :]  # control bit set; target axis is -2
        tmp = sub[..., 0, :].copy(order="K")
        sub[..., 0, :] = sub[..., 1, :]
        sub[..., 1, :] = tmp
    else:
        sub = view[..., 1, :]  # control bit set; target axis is -3
        tmp = sub[..., 0, :, :].copy(order="K")
        sub[..., 0, :, :] = sub[..., 1, :, :]
        sub[..., 1, :, :] = tmp
    return amps


def expectation_z(amps: np.ndarray, n_qubits: int, qubit: int):
    """``<Z>`` on ``qubit``; batched over any leading axes of ``amps``."""
    _check_qubit(n_qubits, qubit)
    lead = amps.shape[:-1]
    # numpy sums in an order set by the memory layout, so the probabilities
    # are summed in C order: a batch whose rows are fastest in memory then
    # reads the same bits as its C-ordered copy
    prob = np.ascontiguousarray(amps.real**2 + amps.imag**2).reshape(
        *lead, 1 << (qubit - 1), 2, 1 << (n_qubits - qubit)
    )
    diff = prob[..., 0, :].sum(axis=(-2, -1)) - prob[..., 1, :].sum(axis=(-2, -1))
    return diff if lead else float(diff)


def sample_expectation_z(amps: np.ndarray, n_qubits: int, qubit: int, shots: int, rng: np.random.Generator):
    """Finite-shot estimate of ``<Z>`` from ``shots`` binomial draws."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    z = expectation_z(amps, n_qubits, qubit)
    p_up = np.clip((1.0 + np.asarray(z)) / 2.0, 0.0, 1.0)
    counts = rng.binomial(shots, p_up)
    est = 2.0 * counts / shots - 1.0
    return est if np.ndim(z) else float(est)


def haar_unitary(dim: int, rng: np.random.Generator, size: int | None = None,
                 columns: int | None = None) -> np.ndarray:
    """Haar-distributed unitaries, or isometries, via QR of a complex Ginibre matrix.

    The raw QR decomposition is not Haar; multiplying each column of Q by
    the phase of the corresponding diagonal entry of R fixes the measure.
    With ``columns=k`` the Ginibre matrix is ``dim x k`` and the result is
    a Haar ``dim x k`` isometry, distributed as the first ``k`` columns of
    a Haar unitary.  Returns shape ``(dim, k)``, or ``(size, dim, k)``
    when ``size`` is given (stacked QR); ``k`` defaults to ``dim``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    k = dim if columns is None else columns
    if not 1 <= k <= dim:
        raise ValueError(f"columns must be in 1..{dim}, got {k}")
    shape = (dim, k) if size is None else (size, dim, k)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.einsum("...ii->...i", r)
    q = q * (diag / np.abs(diag))[..., None, :]
    return q
