"""Statevector kernel tests against dense matrix-product oracles.

Every specialised kernel (RZ, RY, CNOT) is checked against the same
operation performed as an explicit unitary embedded with Kronecker
products, with qubit 1 as the most significant bit of the basis index.
The compiled program's three-angle Rot is checked the same way.  The
per-row 2x2 kernel is checked against the dense embedding and against
the RY and RZ kernels it stands in for.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierqml.statevector import (
    apply_cnot,
    apply_matrix,
    apply_ry,
    apply_rz,
    expectation_z,
    haar_unitary,
    sample_expectation_z,
)

from fourierqml.qfflm import AnsatzSpec, Parallel, apply_opening
from fourierqml.rng import make_rng
from fourierqml.spectra import exponential_weights

from dense_oracle import apply_dense, state_norm


# ---------------------------------------------------------------------------
# dense oracles
# ---------------------------------------------------------------------------

def rz_matrix(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(+0.5j * angle)])


def ry_matrix(angle):
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_matrix(a1, a2, a3):
    return rz_matrix(a1) @ ry_matrix(a2) @ rz_matrix(a3)


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def embed(matrix, n_qubits, target):
    """Embed a single-qubit unitary; qubit 1 is the leftmost kron factor."""
    return np.kron(
        np.kron(np.eye(1 << (target - 1)), matrix), np.eye(1 << (n_qubits - target))
    )


def zero_state(n_qubits):
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return amps


def random_state(n_qubits, rng):
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

class TestGateValidation:
    def test_target_out_of_range(self):
        amps = zero_state(2)
        with pytest.raises(IndexError):
            expectation_z(amps, 2, 3)
        with pytest.raises(IndexError):
            expectation_z(amps, 2, 0)

    @pytest.mark.parametrize("kernel", [
        lambda amps, q: apply_ry(amps, 2, q, 0.1),
        lambda amps, q: apply_rz(amps, 2, q, 0.1),
        lambda amps, q: apply_cnot(amps, 2, q, 1),
        lambda amps, q: apply_cnot(amps, 2, 1, q),
        lambda amps, q: apply_matrix(amps, 2, q, np.eye(2), np.empty_like(amps)),
    ], ids=["ry", "rz", "cnot-control", "cnot-target", "matrix"])
    @pytest.mark.parametrize("qubit", [0, 3])
    def test_kernel_qubit_out_of_range(self, kernel, qubit):
        with pytest.raises(IndexError, match="out of range 1..2"):
            kernel(zero_state(2), qubit)

    def test_cnot_control_equals_target(self):
        with pytest.raises(ValueError, match="control and target"):
            apply_cnot(zero_state(2), 2, 1, 1)


# ---------------------------------------------------------------------------
# single-qubit kernels vs dense oracle
# ---------------------------------------------------------------------------

class TestSingleQubitKernels:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_rz_matches_dense(self, n_qubits):
        rng = make_rng(11)
        for target in range(1, n_qubits + 1):
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            amps = random_state(n_qubits, rng)
            expected = embed(rz_matrix(angle), n_qubits, target) @ amps
            got = apply_rz(amps.copy(), n_qubits, target, angle)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_ry_matches_dense(self, n_qubits):
        rng = make_rng(12)
        for target in range(1, n_qubits + 1):
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            amps = random_state(n_qubits, rng)
            expected = embed(ry_matrix(angle), n_qubits, target) @ amps
            got = apply_ry(amps.copy(), n_qubits, target, angle)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rot_is_zyz_product(self):
        """A trainable Rot(a1,a2,a3) in the compiled program must equal the
        matrix RZ(a1) RY(a2) RZ(a3), i.e. RZ(a3) is applied to the state
        first."""
        spec = AnsatzSpec(n_variables=1, n_qubits=1, n_layers=1, topology=Parallel(),
                          encoding=exponential_weights(1), rotation_params=3)
        rng = make_rng(13)
        a1, a2, a3 = rng.uniform(-np.pi, np.pi, size=3)
        amps = random_state(1, rng)
        expected = rot_matrix(a1, a2, a3) @ amps
        got = apply_opening(spec, amps[None, None, :].copy(), [[a1, a2, a3]])
        np.testing.assert_allclose(got[0, 0], expected, atol=1e-12)

    def test_ry_on_zero_state(self):
        """RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>."""
        theta = 0.7
        amps = apply_ry(zero_state(1), 1, 1, theta)
        np.testing.assert_allclose(amps, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-12)
        assert expectation_z(amps, 1, 1) == pytest.approx(np.cos(theta))

    def test_ry_half_pi_gives_zero_z(self):
        amps = apply_ry(zero_state(1), 1, 1, np.pi / 2)
        assert abs(expectation_z(amps, 1, 1)) < 1e-12


# ---------------------------------------------------------------------------
# CNOT
# ---------------------------------------------------------------------------

class TestCNOT:
    def test_truth_table_two_qubits(self):
        # |10> -> |11>: qubit 1 is the MSB so |10> is index 2
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        amps = apply_cnot(amps, 2, 1, 2)
        expected = np.zeros(4)
        expected[3] = 1.0
        np.testing.assert_allclose(amps, expected)

    @pytest.mark.parametrize("control,target", [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3)])
    def test_matches_dense(self, control, target):
        rng = make_rng(14)
        n_qubits = 3
        amps = random_state(n_qubits, rng)
        expected = apply_dense(amps.copy(), n_qubits, CNOT_MATRIX, (control, target))
        got = apply_cnot(amps.copy(), n_qubits, control, target)
        np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# DenseUnitary path
# ---------------------------------------------------------------------------

class TestDenseUnitary:
    def test_single_qubit_embedding(self):
        rng = make_rng(15)
        u = haar_unitary(2, rng)
        amps = random_state(3, rng)
        expected = embed(u, 3, 2) @ amps
        got = apply_dense(amps.copy(), 3, u, (2,))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_target_order_matters(self):
        """targets=(2,1) treats qubit 2 as the MSB of the block index."""
        rng = make_rng(16)
        amps = random_state(2, rng)
        forward = apply_dense(amps.copy(), 2, CNOT_MATRIX, (1, 2))
        swapped = apply_dense(amps.copy(), 2, CNOT_MATRIX, (2, 1))
        # CNOT with control=qubit2, target=qubit1 differs from (1,2)
        reference = apply_cnot(amps.copy(), 2, 2, 1)
        np.testing.assert_allclose(swapped, reference, atol=1e-12)
        assert not np.allclose(forward, swapped)

    def test_two_qubit_haar_on_three_qubit_state(self):
        rng = make_rng(17)
        u = haar_unitary(4, rng)
        amps = random_state(3, rng)
        # oracle: embed on qubits (1,3) by full 8x8 matrix built index-wise
        full = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                # bits (qubit1, qubit2, qubit3) of the basis index
                bi = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
                bj = [(j >> 2) & 1, (j >> 1) & 1, j & 1]
                if bi[1] != bj[1]:
                    continue
                full[i, j] = u[2 * bi[0] + bi[2], 2 * bj[0] + bj[2]]
        expected = full @ amps
        got = apply_dense(amps.copy(), 3, u, (1, 3))
        np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

class TestBatchedKernels:
    def test_batched_angles_match_loop(self):
        rng = make_rng(18)
        n_qubits, batch = 3, 5
        amps = np.stack([random_state(n_qubits, rng) for _ in range(batch)])
        angles = rng.uniform(-np.pi, np.pi, size=batch)
        got = apply_ry(amps.copy(), n_qubits, 2, angles)
        for b in range(batch):
            single = apply_ry(amps[b].copy(), n_qubits, 2, angles[b])
            np.testing.assert_allclose(got[b], single, atol=1e-12)

    def test_broadcast_grid_of_variants(self):
        """(V, 1) trainable angles against (1, D) data angles broadcast to
        a (V, D) batch, the layout used by parameter-shift over a dataset."""
        rng = make_rng(19)
        base = random_state(2, rng)
        amps = np.broadcast_to(base, (3, 4, 4)).copy()
        theta = rng.uniform(-np.pi, np.pi, size=(3, 1))
        xs = rng.uniform(-np.pi, np.pi, size=(1, 4))
        got = apply_rz(amps, 2, 1, theta)
        got = apply_ry(got, 2, 2, xs)
        for v in range(3):
            for d in range(4):
                single = apply_rz(base.copy(), 2, 1, theta[v, 0])
                single = apply_ry(single, 2, 2, xs[0, d])
                np.testing.assert_allclose(got[v, d], single, atol=1e-12)

    def test_batched_expectation(self):
        rng = make_rng(20)
        amps = np.stack([random_state(3, rng) for _ in range(4)])
        vals = expectation_z(amps, 3, 2)
        for b in range(4):
            assert vals[b] == pytest.approx(expectation_z(amps[b], 3, 2), abs=1e-12)

    def test_batched_cnot_matches_loop(self):
        rng = make_rng(21)
        amps = np.stack([random_state(3, rng) for _ in range(4)])
        got = apply_cnot(amps.copy(), 3, 3, 1)
        for b in range(4):
            np.testing.assert_allclose(got[b], apply_cnot(amps[b].copy(), 3, 3, 1), atol=1e-12)


LAYOUT_QUBITS, LAYOUT_VARIANTS, LAYOUT_ROWS = 4, 3, 5
_layout_rng = make_rng(22)
LAYOUT_ANGLES = {
    "per-variant": _layout_rng.uniform(-np.pi, np.pi, (LAYOUT_VARIANTS, 1)),
    "per-row": _layout_rng.uniform(-np.pi, np.pi, (1, LAYOUT_ROWS)),
}
LAYOUT_CALLS = {
    **{f"{kernel.__name__}-q{q}-{kind}": (kernel, (q, angles))
       for kernel in (apply_ry, apply_rz)
       for q in range(1, LAYOUT_QUBITS + 1)
       for kind, angles in LAYOUT_ANGLES.items()},
    **{f"apply_cnot-{c}-{t}": (apply_cnot, (c, t))
       for c in range(1, LAYOUT_QUBITS + 1) for t in range(1, LAYOUT_QUBITS + 1) if c != t},
}


@pytest.mark.parametrize("kernel,args", list(LAYOUT_CALLS.values()), ids=list(LAYOUT_CALLS))
def test_kernels_do_not_depend_on_layout(kernel, args):
    """On a (variants, rows, 2**n) batch whose rows are fastest in memory,
    every kernel, on every target qubit, both CNOT orientations and
    per-variant or per-row angles, writes in place the same bits it
    computes on the C-ordered copy."""
    rng = make_rng(23)
    shape = (LAYOUT_VARIANTS, LAYOUT_ROWS, 1 << LAYOUT_QUBITS)
    c_order = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows_fastest = np.ascontiguousarray(c_order.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert not rows_fastest.flags.c_contiguous
    got = kernel(rows_fastest, LAYOUT_QUBITS, *args)
    assert np.shares_memory(got, rows_fastest)
    assert np.array_equal(got, kernel(c_order.copy(), LAYOUT_QUBITS, *args))


@pytest.mark.parametrize("qubit", range(1, 7))
def test_expectation_does_not_depend_on_layout(qubit):
    """<Z> of a rows-fastest batch has the bits of its C-ordered copy on
    every qubit, where runs of 8 and more amplitudes are summed pairwise."""
    rng = make_rng(24)
    shape = (3, 40, 1 << 6)
    c_order = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows_fastest = np.ascontiguousarray(c_order.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert np.array_equal(expectation_z(rows_fastest, 6, qubit), expectation_z(c_order, 6, qubit))


# ---------------------------------------------------------------------------
# per-row 2x2 kernel
# ---------------------------------------------------------------------------

def rz_matrices(angles):
    """RZ of every angle, shape ``angles.shape + (2, 2)``."""
    out = np.zeros(np.shape(angles) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(-0.5j * angles), np.exp(0.5j * angles)
    return out


def ry_matrices(angles):
    """RY of every angle, shape ``angles.shape + (2, 2)``."""
    c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
    out = np.zeros(np.shape(angles) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out


class TestApplyMatrix:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_matches_dense(self, n_qubits):
        """Any complex 2x2, unitary or not, on every target qubit."""
        rng = make_rng(25)
        for target in range(1, n_qubits + 1):
            matrix = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            amps = random_state(n_qubits, rng)
            expected = embed(matrix, n_qubits, target) @ amps
            got = apply_matrix(amps.copy(), n_qubits, target, matrix, np.empty_like(amps))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("target", range(1, LAYOUT_QUBITS + 1))
    @pytest.mark.parametrize("kind", ["per-variant", "per-row", "mixed"])
    def test_matches_the_rotation_kernels_on_a_rows_fastest_view(self, target, kind):
        """RZ(a1) RY(a2) RZ(a3) as one 2x2 per (variant, row) equals the
        three RY/RZ kernel calls, on a rows-fastest batch's view that skips
        its first variant.  The kernel writes in place through a scratch
        view of the same layout, leaves the skipped variant alone, and
        gives the bits it gives on the C-ordered copy."""
        rng = make_rng(26)
        variants, rows = LAYOUT_VARIANTS + 1, LAYOUT_ROWS
        shape = (variants, rows, 1 << LAYOUT_QUBITS)
        c_order = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        per_variant = rng.uniform(-np.pi, np.pi, (3, variants - 1, 1))
        per_row = rng.uniform(-np.pi, np.pi, (3, 1, rows))
        a1, a2, a3 = {"per-variant": per_variant, "per-row": per_row,
                      "mixed": [per_variant[0], per_row[1], per_variant[2]]}[kind]
        expected = c_order[1:].copy()
        for kernel, angle in ((apply_rz, a3), (apply_ry, a2), (apply_rz, a1)):
            expected = kernel(expected, LAYOUT_QUBITS, target, angle)
        matrix = rz_matrices(a1) @ ry_matrices(a2) @ rz_matrices(a3)
        assert matrix.shape[:2] == np.broadcast_shapes(np.shape(a1), np.shape(a2), np.shape(a3))
        rows_fastest = np.ascontiguousarray(c_order.transpose(0, 2, 1)).transpose(0, 2, 1)
        view = rows_fastest[1:]
        scratch = np.empty_like(rows_fastest)[1:]
        got = apply_matrix(view, LAYOUT_QUBITS, target, matrix, scratch)
        assert np.shares_memory(got, rows_fastest)
        np.testing.assert_allclose(rows_fastest[1:], expected, rtol=0, atol=1e-14)
        assert np.array_equal(rows_fastest[0], c_order[0])
        c_view = c_order[1:].copy()
        assert np.array_equal(got, apply_matrix(c_view, LAYOUT_QUBITS, target, matrix,
                                                np.empty_like(c_view)))


# ---------------------------------------------------------------------------
# norm preservation (property)
# ---------------------------------------------------------------------------

@st.composite
def gate_sequences(draw):
    n_qubits = draw(st.integers(min_value=1, max_value=4))
    angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["rz", "ry", "cnot"]))
        q = draw(st.integers(min_value=1, max_value=n_qubits))
        if kind in ("rz", "ry"):
            gates.append((kind, q, draw(angles)))
        elif kind == "cnot" and n_qubits > 1:
            other = draw(st.integers(min_value=1, max_value=n_qubits).filter(lambda v: v != q))
            gates.append((kind, q, other))
    return n_qubits, gates


KERNELS = {"rz": apply_rz, "ry": apply_ry, "cnot": apply_cnot}


@settings(max_examples=60, deadline=None)
@given(gate_sequences())
def test_gate_sequences_preserve_norm(seq):
    n_qubits, gates = seq
    amps = zero_state(n_qubits)
    for kind, *args in gates:
        amps = KERNELS[kind](amps, n_qubits, *args)
    assert state_norm(amps) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling and Haar unitaries
# ---------------------------------------------------------------------------

class TestSampling:
    def test_equal_superposition_sampled_mean(self):
        amps = apply_ry(zero_state(1), 1, 1, np.pi / 2)
        est = sample_expectation_z(amps, 1, 1, shots=1_000_000, rng=make_rng(22))
        assert abs(est) < 5e-3

    def test_deterministic_state_needs_no_luck(self):
        est = sample_expectation_z(zero_state(2), 2, 1, shots=100, rng=make_rng(23))
        assert est == 1.0

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample_expectation_z(zero_state(1), 1, 1, shots=0, rng=make_rng(0))


class TestHaarUnitary:
    def test_unitarity(self):
        u = haar_unitary(8, make_rng(24))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_batched_unitarity(self):
        us = haar_unitary(4, make_rng(25), size=10)
        assert us.shape == (10, 4, 4)
        prod = np.einsum("bij,bik->bjk", us.conj(), us)
        np.testing.assert_allclose(prod, np.broadcast_to(np.eye(4), (10, 4, 4)), atol=1e-12)

    def test_first_entry_moment(self):
        """E|U_11|^2 = 1/dim for Haar measure; dim=4 with 1e5 samples."""
        dim, samples = 4, 100_000
        us = haar_unitary(dim, make_rng(26), size=samples)
        vals = np.abs(us[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / dim) < 3 * se

    @pytest.mark.parametrize("columns", [1, 2, 5])
    def test_column_draws_are_isometries(self, columns):
        vs = haar_unitary(8, make_rng(27), size=10, columns=columns)
        assert vs.shape == (10, 8, columns)
        gram = np.einsum("bij,bik->bjk", vs.conj(), vs)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(columns), gram.shape),
                                   rtol=0, atol=1e-12)

    def test_full_column_count_is_the_square_draw(self):
        np.testing.assert_array_equal(haar_unitary(4, make_rng(28), size=3, columns=4),
                                      haar_unitary(4, make_rng(28), size=3))
        np.testing.assert_array_equal(haar_unitary(4, make_rng(29), columns=4),
                                      haar_unitary(4, make_rng(29)))

    def test_column_draw_first_entry_moment(self):
        """E|V_11|^2 = 1/dim for a Haar isometry; dim=8, 2 columns, 1e5 samples."""
        dim, samples = 8, 100_000
        vs = haar_unitary(dim, make_rng(30), size=samples, columns=2)
        vals = np.abs(vs[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(samples)
        assert abs(vals.mean() - 1.0 / dim) < 3 * se
