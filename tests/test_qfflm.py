"""Quantum model tests: parameter counting, evaluation against 2x2
matrix-product oracles, parameter-shift exactness, and band-limited Fourier
structure."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierqml import qfflm
from fourierqml.cfflm import FeatureMap, feature_matrix, grid_coefficients
from fourierqml.errors import CapacityError
from fourierqml.qfflm import (
    AnsatzSpec,
    Parallel,
    Ring,
    Serial,
    evaluate,
    evaluate_batch,
    fourier_coefficients,
    gradient_parameter_shift,
    init_parameters,
    param_count,
    values_and_jacobian,
)
from fourierqml.rng import make_rng
from fourierqml.spectra import EncodingSpec, exponential_weights, naive_weights, spectrum
from fourierqml.statevector import expectation_z, sample_expectation_z
from fourierqml.trainer import make_random_fourier_target

from dense_oracle import block_unitaries, encoding_diagonal, gate_unitaries


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def rz_matrix(a):
    return np.diag([np.exp(-0.5j * a), np.exp(+0.5j * a)])


def ry_matrix(a):
    c, s = np.cos(a / 2), np.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def one_qubit_oracle(theta, x):
    """Matrix-product value of the 1-qubit parallel model.

    Flat layout: theta = (W1 RY, W1 RZ, W2 RY, W2 RZ); per-qubit layers
    apply RY first, then RZ.
    """
    w1 = rz_matrix(theta[1]) @ ry_matrix(theta[0])
    w2 = rz_matrix(theta[3]) @ ry_matrix(theta[2])
    psi = w2 @ rz_matrix(x) @ w1 @ np.array([1.0, 0.0])
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def finite_difference(f, theta, h=1e-5):
    grad = np.zeros(len(theta))
    for k in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2 * h)
    return grad


ONE_QUBIT = AnsatzSpec(
    n_variables=1, n_qubits=1, n_layers=1,
    topology=Parallel(), encoding=exponential_weights(1),
)
# theta giving f(x) = -cos x: W1 = RY(pi/2), W2 = RY(pi/2)
MINUS_COS_THETA = np.array([np.pi / 2, 0.0, np.pi / 2, 0.0])


def sample_specs():
    """One spec per topology plus a multivariate parallel case."""
    return [
        AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                   topology=Parallel(), encoding=exponential_weights(2)),
        AnsatzSpec(n_variables=2, n_qubits=1, n_layers=2,
                   topology=Parallel(), encoding=exponential_weights(1),
                   rotation_params=3),
        AnsatzSpec(n_variables=3, n_qubits=1, n_layers=1,
                   topology=Serial(reuploads=2, encoders_per_block=1),
                   encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
        AnsatzSpec(n_variables=2, n_qubits=2, n_layers=1,
                   topology=Ring(reuploads=2),
                   encoding=EncodingSpec(weights=(1, 2)), rotation_params=3),
    ]


# ---------------------------------------------------------------------------
# parameter counting and validation
# ---------------------------------------------------------------------------

class TestParamCount:
    def test_four_qubit_parallel(self):
        spec = AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1,
                          topology=Parallel(), encoding=exponential_weights(4))
        assert param_count(spec) == 16

    @pytest.mark.parametrize("layers", [1, 2, 9])
    def test_serial_molecular_count(self, layers):
        """Six qubits, three reupload blocks of two encoders each, Rot
        rotations: (1 + 3*2) trainable blocks of layers*6*3 angles."""
        spec = AnsatzSpec(n_variables=36, n_qubits=6, n_layers=layers,
                          topology=Serial(reuploads=3, encoders_per_block=2),
                          encoding=exponential_weights(3), rotation_params=3)
        assert param_count(spec) == 126 * layers

    @pytest.mark.parametrize("layers", [1, 2])
    def test_ring_count(self, layers):
        spec = AnsatzSpec(n_variables=8, n_qubits=8, n_layers=layers,
                          topology=Ring(reuploads=3),
                          encoding=exponential_weights(3), rotation_params=3)
        assert param_count(spec) == 96 * layers

    def test_parallel_capacity(self):
        with pytest.raises(CapacityError):
            AnsatzSpec(n_variables=5, n_qubits=5, n_layers=1,
                       topology=Parallel(), encoding=exponential_weights(5))

    def test_serial_feature_count_enforced(self):
        with pytest.raises(ValueError, match="3 features per qubit"):
            AnsatzSpec(n_variables=10, n_qubits=2, n_layers=1,
                       topology=Serial(reuploads=2, encoders_per_block=1),
                       encoding=EncodingSpec(weights=(1, 3)))

    def test_ring_feature_count_enforced(self):
        with pytest.raises(ValueError, match="one feature per qubit"):
            AnsatzSpec(n_variables=3, n_qubits=2, n_layers=1,
                       topology=Ring(reuploads=1),
                       encoding=EncodingSpec(weights=(1,)))

    def test_parallel_weights_per_qubit_enforced(self):
        with pytest.raises(ValueError, match="weight per qubit"):
            AnsatzSpec(n_variables=1, n_qubits=3, n_layers=1,
                       topology=Parallel(), encoding=exponential_weights(2))


class TestInitParameters:
    def test_deterministic_and_in_range(self):
        spec = sample_specs()[0]
        a = init_parameters(spec, make_rng(5))
        b = init_parameters(spec, make_rng(5))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (param_count(spec),)
        assert np.all(a >= -np.pi) and np.all(a < np.pi)


# ---------------------------------------------------------------------------
# dense blocks and encoding diagonals of the compiled program (test oracle)
# ---------------------------------------------------------------------------

class TestDenseProgram:
    @pytest.mark.parametrize("spec", [
        sample_specs()[0],
        sample_specs()[1],
        AnsatzSpec(n_variables=2, n_qubits=2, n_layers=1, topology=Ring(reuploads=1),
                   encoding=EncodingSpec(weights=(2,)), rotation_params=3),
    ], ids=["parallel", "parallel-2var-rot", "ring"])
    def test_dense_pieces_reproduce_evaluate(self, spec):
        """W2 D(x) W1 |0> from the dense pieces gives the gate path's value;
        the block after the encoding has the first block's layout, so the
        second half of theta is W2's angles."""
        rng = make_rng(31)
        theta = init_parameters(spec, rng)
        half = theta.size // 2
        w1, w2 = block_unitaries(spec, np.stack([theta[:half], theta[half:]]))
        for x in rng.uniform(-np.pi, np.pi, (4, spec.n_variables)):
            psi = w2 @ (encoding_diagonal(spec, x) * w1[:, 0])
            value = expectation_z(psi, spec.total_qubits, spec.measured_qubit)
            assert value == pytest.approx(evaluate(spec, theta, x), abs=1e-12)

    def test_empty_block_is_identity(self):
        spec = AnsatzSpec(n_variables=1, n_qubits=2, n_layers=0,
                          topology=Parallel(), encoding=exponential_weights(2))
        np.testing.assert_array_equal(block_unitaries(spec, np.zeros((2, 0))),
                                      np.broadcast_to(np.eye(4), (2, 4, 4)))

    def test_angle_shape_checked(self):
        with pytest.raises(ValueError, match="angles"):
            block_unitaries(sample_specs()[0], np.zeros((2, 3)))

    def test_rot_encoding_is_not_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            encoding_diagonal(sample_specs()[2], np.zeros(3))


@st.composite
def trimmed_blocks(draw):
    """A trimmed opening or closing block of a small spec, with angle rows.

    The closing block is the run of trainable gates and CNOTs after the
    last kept encoding gate."""
    topology = draw(st.sampled_from(["parallel", "parallel-2var", "serial", "ring"]))
    n_layers = draw(st.integers(min_value=0, max_value=3))
    rotation_params = draw(st.sampled_from([2, 3]))
    if topology.startswith("parallel"):
        n_variables = 2 if topology == "parallel-2var" else 1
        n_qubits = draw(st.integers(min_value=1, max_value=4 // n_variables))
        kwargs = dict(topology=Parallel(), encoding=exponential_weights(n_qubits))
    elif topology == "serial":
        n_qubits = draw(st.integers(min_value=1, max_value=2))
        n_variables = 3 * n_qubits
        kwargs = dict(topology=Serial(reuploads=2, encoders_per_block=1),
                      encoding=EncodingSpec(weights=(1, 3)))
    else:
        n_qubits = n_variables = draw(st.integers(min_value=1, max_value=4))
        kwargs = dict(topology=Ring(reuploads=2), encoding=EncodingSpec(weights=(1, 2)))
    total = n_variables * n_qubits if topology.startswith("parallel") else n_qubits
    spec = AnsatzSpec(n_variables=n_variables, n_qubits=n_qubits, n_layers=n_layers,
                      rotation_params=rotation_params,
                      measured_qubit=draw(st.sampled_from([1, total])), **kwargs)
    opening, per_row, _ = qfflm._trimmed(spec)
    encoded = [k for k, op in enumerate(per_row) if qfflm._is_encoding(op)]
    block = opening if draw(st.booleans()) else per_row[max(encoded, default=-1) + 1:]
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    angles = rng.uniform(-np.pi, np.pi, (draw(st.integers(1, 4)), param_count(spec)))
    return block, total, angles


@settings(max_examples=80, deadline=None)
@given(trimmed_blocks())
def test_kronecker_blocks_match_the_gate_kernels(case):
    """The block builder's unitaries and first columns equal the gate
    kernels run on the basis states, CNOT runs (Ring's wrap-around
    included), gate order within a qubit and later layers alike."""
    block, n, angles = case
    oracle = gate_unitaries(block, n, angles)
    np.testing.assert_allclose(qfflm._block_unitaries(block, n, angles), oracle,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(qfflm._block_unitaries(block, n, angles, first_column=True),
                               oracle[:, :, 0],
                               rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# adjoint Jacobian against the shift rule on the gate path
# ---------------------------------------------------------------------------

def gate_path_amplitudes(spec, thetas, xs):
    """Oracle: every op of the program applied to the whole batch from |0>."""
    ops, _ = qfflm._program(spec)
    n = spec.total_qubits
    amps = np.zeros((thetas.shape[0], xs.shape[0], 1 << n), dtype=np.complex128)
    amps[:, :, 0] = 1.0
    return qfflm._apply_ops(amps, n, ops, thetas, xs)


def shifted_variants(theta):
    """Base row, then +pi/2 and -pi/2 shifts of each angle in turn."""
    n_tp = theta.size
    rows = np.arange(n_tp)
    shifts = np.zeros((2 * n_tp + 1, n_tp))
    shifts[1 + rows, rows] = np.pi / 2
    shifts[1 + n_tp + rows, rows] = -np.pi / 2
    return theta + shifts


JACOBIAN_SPECS = {
    "parallel": AnsatzSpec(n_variables=1, n_qubits=3, n_layers=1,
                           topology=Parallel(), encoding=exponential_weights(3)),
    "parallel-2var": AnsatzSpec(n_variables=2, n_qubits=2, n_layers=1,
                                topology=Parallel(), encoding=exponential_weights(2)),
    "rot": AnsatzSpec(n_variables=1, n_qubits=3, n_layers=1, topology=Parallel(),
                      encoding=exponential_weights(3), rotation_params=3),
    "layers-0": AnsatzSpec(n_variables=1, n_qubits=3, n_layers=0,
                           topology=Parallel(), encoding=exponential_weights(3)),
    "layers-3": AnsatzSpec(n_variables=1, n_qubits=3, n_layers=3,
                           topology=Parallel(), encoding=exponential_weights(3)),
    "measured-1": AnsatzSpec(n_variables=2, n_qubits=2, n_layers=1, topology=Parallel(),
                             encoding=exponential_weights(2), measured_qubit=1),
    "ring": AnsatzSpec(n_variables=3, n_qubits=3, n_layers=1, topology=Ring(reuploads=2),
                       encoding=EncodingSpec(weights=(1, 3))),
}


class TestFusedEvaluation:
    """Fixed examples: exact values with the adjoint Jacobian, and sampled
    values with the sampled shift rule, against the shift rule applied to
    the gate path's amplitudes. The class name, and so its test ids, dates
    from the fused dense-block mode these cases were written for."""

    @pytest.fixture(params=list(JACOBIAN_SPECS), ids=list(JACOBIAN_SPECS))
    def spec(self, request):
        return JACOBIAN_SPECS[request.param]

    @staticmethod
    def inputs(spec, seed, rows=None):
        rows = (1 << spec.total_qubits) + 3 if rows is None else rows
        return make_rng(seed).uniform(-np.pi, np.pi, (rows, spec.n_variables))

    def test_values_and_jacobian(self, spec):
        theta = init_parameters(spec, make_rng(61))
        xs = self.inputs(spec, 62)
        values, jac = values_and_jacobian(spec, theta, xs)
        n_tp = theta.size
        z = expectation_z(gate_path_amplitudes(spec, shifted_variants(theta), xs),
                          spec.total_qubits, spec.measured_qubit)
        np.testing.assert_allclose(values, z[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(jac, ((z[1 : 1 + n_tp] - z[1 + n_tp :]) / 2).T,
                                   rtol=0, atol=1e-12)

    def test_evaluate_batch(self, spec):
        theta = init_parameters(spec, make_rng(63))
        xs = self.inputs(spec, 64)
        z = expectation_z(gate_path_amplitudes(spec, theta[None, :], xs),
                          spec.total_qubits, spec.measured_qubit)[0]
        np.testing.assert_allclose(evaluate_batch(spec, theta, xs), z, rtol=0, atol=1e-12)

    def test_sampled_values_and_jacobian(self, spec):
        theta = init_parameters(spec, make_rng(65))
        xs = self.inputs(spec, 66)
        values, jac = values_and_jacobian(spec, theta, xs, shots=50, rng=make_rng(67))
        n_tp = theta.size
        z = sample_expectation_z(gate_path_amplitudes(spec, shifted_variants(theta), xs),
                                 spec.total_qubits, spec.measured_qubit, 50, make_rng(67))
        np.testing.assert_allclose(values, z[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(jac, ((z[1 : 1 + n_tp] - z[1 + n_tp :]) / 2).T,
                                   rtol=0, atol=1e-12)


@st.composite
def jacobian_cases(draw, max_qubits=2, any_measured=False):
    """A spec of any topology, parameters, and a batch of inputs.

    The measured qubit is the first or the last one, or with
    ``any_measured`` any qubit."""
    topology = draw(st.sampled_from(["parallel", "serial", "ring"]))
    rotation_params = draw(st.sampled_from([2, 3]))
    n_layers = draw(st.integers(min_value=0, max_value=2))
    if topology == "parallel":
        n_variables = draw(st.integers(min_value=1, max_value=2))
        n_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
        kwargs = dict(topology=Parallel(), encoding=exponential_weights(n_qubits))
    elif topology == "serial":
        n_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
        n_variables = 3 * n_qubits
        kwargs = dict(topology=Serial(reuploads=2, encoders_per_block=1),
                      encoding=EncodingSpec(weights=(1, 3)))
    else:
        n_qubits = n_variables = draw(st.integers(min_value=1, max_value=max_qubits))
        kwargs = dict(topology=Ring(reuploads=2), encoding=EncodingSpec(weights=(1, 2)))
    total = n_variables * n_qubits if topology == "parallel" else n_qubits
    measured = (st.integers(min_value=1, max_value=total) if any_measured
                else st.sampled_from([1, total]))
    spec = AnsatzSpec(n_variables=n_variables, n_qubits=n_qubits, n_layers=n_layers,
                      rotation_params=rotation_params, measured_qubit=draw(measured), **kwargs)
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = (1 << total) + draw(st.sampled_from([-1, 2]))
    return spec, init_parameters(spec, rng), rng.uniform(-np.pi, np.pi, (rows, n_variables))


@settings(max_examples=40, deadline=None)
@given(jacobian_cases())
def test_adjoint_jacobian_matches_shift_rule_and_finite_differences(case):
    """Differential check over topologies, rotation_params, variable and
    layer counts, the measured qubit, and row counts on either side of
    2**n: the adjoint Jacobian equals the shift rule row by row and
    central finite differences of evaluate_batch."""
    spec, theta, xs = case
    values, jac = values_and_jacobian(spec, theta, xs)
    np.testing.assert_allclose(values, evaluate_batch(spec, theta, xs), rtol=0, atol=1e-12)
    for row, x in enumerate(xs):
        np.testing.assert_allclose(jac[row], gradient_parameter_shift(spec, theta, x),
                                   rtol=0, atol=1e-12)
    h = 1e-5
    for k in range(theta.size):
        step = np.zeros(theta.size)
        step[k] = h
        fd = (evaluate_batch(spec, theta + step, xs) - evaluate_batch(spec, theta - step, xs)) / (2 * h)
        np.testing.assert_allclose(jac[:, k], fd, rtol=0, atol=1e-6)


@pytest.mark.parametrize("spec", [
    JACOBIAN_SPECS["parallel"],
    JACOBIAN_SPECS["rot"],
    JACOBIAN_SPECS["ring"],
    AnsatzSpec(n_variables=6, n_qubits=2, n_layers=2,
               topology=Serial(reuploads=2, encoders_per_block=1),
               encoding=EncodingSpec(weights=(1, 3))),
    AnsatzSpec(n_variables=3, n_qubits=3, n_layers=1, topology=Ring(reuploads=2),
               encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
    AnsatzSpec(n_variables=6, n_qubits=2, n_layers=2,
               topology=Serial(reuploads=2, encoders_per_block=1),
               encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
], ids=["parallel", "rot", "ring", "serial", "ring-rot", "serial-rot"])
def test_commuting_final_rz_columns_are_exactly_zero(spec):
    """Each qubit's last trainable RZ (the RZ of a two-angle layer, the
    last-applied angle a1 of a Rot) in the final layer commutes through
    the CNOT line with the measured Z, and the first-applied angle a3 of
    each first-layer Rot acts on |0>, a global phase: their adjoint
    columns are exactly 0, and every column still matches the shift
    rule."""
    n_tp, rot, total = param_count(spec), spec.rotation_params, spec.total_qubits
    last_layer = n_tp - rot * total
    masked = [last_layer + rot * q + (1 if rot == 2 else 0) for q in range(total)]
    if rot == 3:
        masked += [rot * q + 2 for q in range(total)]
    theta = init_parameters(spec, make_rng(71))
    xs = make_rng(72).uniform(-np.pi, np.pi, (5, spec.n_variables))
    _, jac = values_and_jacobian(spec, theta, xs)
    assert np.all(jac[:, masked] == 0.0)
    for row, x in enumerate(xs):
        np.testing.assert_allclose(jac[row], gradient_parameter_shift(spec, theta, x),
                                   rtol=0, atol=1e-12)


@st.composite
def fused_cases(draw):
    """A spec of up to 4 qubits and 3 layers, its parameters and a few
    rows, for the per-row passes against the gate path."""
    topology = draw(st.sampled_from(["parallel", "serial", "ring"]))
    if topology == "parallel":
        n_variables = draw(st.integers(min_value=1, max_value=2))
        n_qubits = draw(st.integers(min_value=1, max_value=4 // n_variables))
        kwargs = dict(topology=Parallel(), encoding=exponential_weights(n_qubits))
    elif topology == "serial":
        n_qubits = draw(st.integers(min_value=1, max_value=4))
        epb = draw(st.integers(min_value=1, max_value=2))
        n_variables = 3 * n_qubits * epb
        kwargs = dict(topology=Serial(reuploads=2, encoders_per_block=epb),
                      encoding=EncodingSpec(weights=(1, 3)))
    else:
        n_qubits = n_variables = draw(st.integers(min_value=1, max_value=4))
        kwargs = dict(topology=Ring(reuploads=2), encoding=EncodingSpec(weights=(1, 2)))
    total = n_variables * n_qubits if topology == "parallel" else n_qubits
    spec = AnsatzSpec(n_variables=n_variables, n_qubits=n_qubits,
                      n_layers=draw(st.integers(min_value=0, max_value=3)),
                      rotation_params=draw(st.sampled_from([2, 3])),
                      measured_qubit=draw(st.integers(min_value=1, max_value=total)), **kwargs)
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = draw(st.integers(min_value=1, max_value=4))
    return spec, init_parameters(spec, rng), rng.uniform(-np.pi, np.pi, (rows, n_variables))


def check_fused_passes(spec, theta, xs):
    """_run_batch against every op run gate by gate, and the adjoint pass
    (taken directly, whatever the engine rule picks) against the shift
    rule on the gate path, with the dropped columns exactly 0."""
    thetas = shifted_variants(theta)
    np.testing.assert_allclose(qfflm._run_batch(spec, thetas, xs),
                               gate_path_amplitudes(spec, thetas, xs), rtol=0, atol=1e-14)
    n_tp = theta.size
    z = expectation_z(gate_path_amplitudes(spec, thetas, xs), spec.total_qubits, spec.measured_qubit)
    values, jac = qfflm._adjoint_jacobian(spec, theta, xs)
    np.testing.assert_allclose(values, z[0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(jac, ((z[1 : 1 + n_tp] - z[1 + n_tp :]) / 2).T, rtol=0, atol=1e-12)
    assert np.all(jac[:, dropped_params(spec)] == 0.0)


@settings(max_examples=80, deadline=None)
@given(fused_cases())
def test_fused_passes_match_the_gate_path(case):
    """The per-row passes, one 2x2 per qubit per local layer and one
    gather per CNOT run, over Parallel, Serial and Ring specs of up to 4
    qubits, 0-3 layers, both rotation sets and any measured qubit."""
    check_fused_passes(*case)


@pytest.mark.parametrize("spec", [
    AnsatzSpec(n_variables=3, n_qubits=1, n_layers=2,
               topology=Serial(reuploads=2, encoders_per_block=1),
               encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
    AnsatzSpec(n_variables=4, n_qubits=4, n_layers=2, topology=Ring(reuploads=2),
               encoding=EncodingSpec(weights=(1, 2)), measured_qubit=2),
    AnsatzSpec(n_variables=12, n_qubits=4, n_layers=3,
               topology=Serial(reuploads=2, encoders_per_block=1),
               encoding=EncodingSpec(weights=(1, 3)), measured_qubit=3),
    AnsatzSpec(n_variables=3, n_qubits=3, n_layers=3, topology=Ring(reuploads=1),
               encoding=EncodingSpec(weights=(2,)), rotation_params=3, measured_qubit=1),
    AnsatzSpec(n_variables=1, n_qubits=4, n_layers=0, topology=Parallel(),
               encoding=exponential_weights(4)),
], ids=["serial-1q", "ring-4q-measured-2", "serial-4q-3-layers", "ring-3q-rot-measured-1",
        "parallel-no-layers"])
def test_fused_passes_on_named_shapes(spec):
    """Shapes the draws reach only by chance: a 1-qubit Serial spec, whose
    one chain interleaves encoding and trainable gates; Ring's n -> 1 CNOT
    inside a permutation; 3-4 qubit Serial and Ring specs with three
    layers; a spec with no trainable gate on the rows."""
    rng = make_rng(88)
    check_fused_passes(spec, init_parameters(spec, rng),
                       rng.uniform(-np.pi, np.pi, (7, spec.n_variables)))


def dropped_params(spec):
    """Trainable angles whose gates the adjoint pass's trimmed program lacks."""
    opening, per_row, _ = qfflm._trimmed(spec)
    ops, _ = qfflm._program(spec)
    kept = {op[2] for op in opening + per_row if op[0] in ("ry", "rz")}
    return sorted({op[2] for op in ops if op[0] in ("ry", "rz")} - kept)


@settings(max_examples=40, deadline=None)
@given(jacobian_cases(max_qubits=3, any_measured=True))
def test_trimmed_adjoint_matches_full_program(case):
    """Differential check of the trimmed adjoint pass with any measured
    qubit, so that folded CNOT lines turn Z_measured into multi-qubit Z
    strings: columns equal the shift rule on the full program, the
    dropped RZ columns are exactly 0, and values equal evaluate_batch."""
    spec, theta, xs = case
    xs = xs[:3]
    values, jac = values_and_jacobian(spec, theta, xs)
    np.testing.assert_allclose(values, evaluate_batch(spec, theta, xs), rtol=0, atol=1e-14)
    assert np.all(jac[:, dropped_params(spec)] == 0.0)
    for row, x in enumerate(xs):
        np.testing.assert_allclose(jac[row], gradient_parameter_shift(spec, theta, x),
                                   rtol=0, atol=1e-12)


SERIAL_ROT_4Q = AnsatzSpec(n_variables=12, n_qubits=4, n_layers=2,
                           topology=Serial(reuploads=2, encoders_per_block=1),
                           encoding=EncodingSpec(weights=(1, 3)), rotation_params=3)


@pytest.mark.parametrize("rows", [1, 5, 33])
def test_closed_form_reads_on_four_qubits(rows):
    """The adjoint pass reads each RY and RZ column from the per-row cross
    operator of phi and lam on its qubit, carried back through the later
    gates of the qubit's chain.  On a 4-qubit Serial spec with Rot layers,
    whose RY and RZ gates sit on every qubit, the last two included (the
    hypothesis cases stop at 2 qubits), the columns match the shift rule
    row by row."""
    spec = SERIAL_ROT_4Q
    theta = init_parameters(spec, make_rng(83))
    xs = make_rng(84).uniform(-np.pi, np.pi, (rows, spec.n_variables))
    values, jac = values_and_jacobian(spec, theta, xs)
    np.testing.assert_allclose(values, evaluate_batch(spec, theta, xs), rtol=0, atol=1e-12)
    for row, x in enumerate(xs):
        np.testing.assert_allclose(jac[row], gradient_parameter_shift(spec, theta, x),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec,rows", [
    (SERIAL_ROT_4Q, 33),
    (JACOBIAN_SPECS["ring"], 9),
    (JACOBIAN_SPECS["parallel-2var"], 40),
], ids=["serial-rot-4q", "ring", "parallel-2var-engine"])
def test_input_layout_is_bit_identical(spec, rows):
    """Inputs in C order and in Fortran order give the same bits from
    evaluate_batch and from values_and_jacobian: the adjoint pass, or on
    the Parallel spec the diagonal engine, whose phase cache is emptied
    so that both layouts compute their diagonals."""
    theta = init_parameters(spec, make_rng(85))
    xs = make_rng(86).uniform(-np.pi, np.pi, (rows, spec.n_variables))
    fortran = np.asfortranarray(xs)
    assert not fortran.flags.c_contiguous
    assert np.array_equal(evaluate_batch(spec, theta, xs), evaluate_batch(spec, theta, fortran))
    results = []
    for inputs in (xs, fortran):
        qfflm._phases.cache_clear()
        results.append(values_and_jacobian(spec, theta, inputs))
    for c_order, fortran_order in zip(*results):
        assert np.array_equal(c_order, fortran_order)


def parity(n):
    """The +-1 diagonal of Z on every one of n qubits."""
    return np.array([(-1.0) ** bin(i).count("1") for i in range(1 << n)])


class TestTrimmedProgram:
    """The gates the adjoint pass runs, and the observable they leave."""

    @staticmethod
    def parallel(**kwargs):
        return AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1, topology=Parallel(),
                          encoding=exponential_weights(4), **kwargs)

    def test_final_rz_and_cnot_line_fold(self):
        spec = self.parallel()
        ops, _ = qfflm._program(spec)
        opening, per_row, observable = qfflm._trimmed(spec)
        assert len(ops) == 26
        assert opening == ops[:11]  # W1 whole: every RZ follows an RY on its qubit
        # the four encodings and W2's four RYs; its RZs and CNOTs fold
        assert per_row == ops[11:15] + tuple(op for op in ops[15:] if op[0] == "ry")
        assert len(per_row) == 8
        # Z_4 carried back through the CNOT line is Z on every qubit
        np.testing.assert_array_equal(observable, parity(4))

    def test_first_qubit_observable_survives_the_cnot_line(self):
        _, _, observable = qfflm._trimmed(self.parallel(measured_qubit=1))
        np.testing.assert_array_equal(observable, np.repeat([1.0, -1.0], 8))

    def test_first_layer_rot_phases_drop(self):
        spec = self.parallel(rotation_params=3)
        ops, _ = qfflm._program(spec)
        opening, per_row, _ = qfflm._trimmed(spec)
        # each qubit's Rot applies RZ(a3) first, on |0>: a global phase
        first_a3 = {3 * q for q in range(4)}
        assert opening == tuple(op for k, op in enumerate(ops[:15]) if k not in first_a3)
        last_a1 = {19 + 3 * q + 2 for q in range(4)}
        assert per_row == ops[15:19] + tuple(
            op for k, op in enumerate(ops[19:], start=19)
            if op[0] != "cnot" and k not in last_a1
        )
        assert dropped_params(spec) == sorted(
            [3 * q + 2 for q in range(4)] + [12 + 3 * q for q in range(4)]
        )

    def test_out_of_cone_rys_fold(self):
        """Measured on qubit 1, Z_1 commutes with the CNOT line, so no kept
        gate after them touches qubits 2-4 and the observable never reads
        their bits: their RYs (and the RZs they leave unrotated) commute
        to the end and cancel, and only qubits 1 and 2 of W1 stay."""
        spec = self.parallel(measured_qubit=1)
        opening, per_row, observable = qfflm._trimmed(spec)
        assert opening == (("ry", 1, 0), ("rz", 1, 1), ("ry", 2, 2), ("rz", 2, 3), ("cnot", 1, 2))
        assert per_row == (("enc_rz", 1, 0, 1), ("ry", 1, 8))
        np.testing.assert_array_equal(observable, np.repeat([1.0, -1.0], 8))
        assert dropped_params(spec) == [4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15]

    def test_out_of_cone_columns_are_exactly_zero(self):
        spec = self.parallel(measured_qubit=1)
        theta = init_parameters(spec, make_rng(76))
        xs = make_rng(77).uniform(-np.pi, np.pi, (200, 1))
        for jacobian in (qfflm._adjoint_jacobian, qfflm._diagonal_jacobian):
            values, jac = jacobian(spec, theta, xs)
            zero = np.flatnonzero(np.all(jac == 0.0, axis=0))
            np.testing.assert_array_equal(zero, dropped_params(spec))
            shift_values, shift_jac = qfflm._shift_rule(spec, theta, xs, None, None)
            np.testing.assert_allclose(values, shift_values, rtol=0, atol=1e-14)
            np.testing.assert_allclose(jac, shift_jac, rtol=0, atol=1e-12)

    def test_no_layers_leaves_nothing(self):
        spec = AnsatzSpec(n_variables=1, n_qubits=3, n_layers=0, topology=Parallel(),
                          encoding=exponential_weights(3))
        opening, per_row, _ = qfflm._trimmed(spec)
        assert opening == per_row == ()
        xs = make_rng(73).uniform(-np.pi, np.pi, (4, 1))
        values, jac = values_and_jacobian(spec, np.zeros(0), xs)
        np.testing.assert_array_equal(values, np.ones(4))
        assert jac.shape == (4, 0)

    @pytest.mark.parametrize("name", list(JACOBIAN_SPECS))
    def test_run_once_opening_is_bit_identical(self, name):
        """_run_batch runs the opening block on one row per variant and
        copies it to every row; the amplitudes equal those of the opening's
        gates run on the whole batch, then the same per-row pass, bit for
        bit."""
        spec = JACOBIAN_SPECS[name]
        thetas = shifted_variants(init_parameters(spec, make_rng(74)))
        xs = make_rng(75).uniform(-np.pi, np.pi, (9, spec.n_variables))
        ops, _ = qfflm._program(spec)
        n, n_open = spec.total_qubits, qfflm._opening_length(ops)
        amps = qfflm._rows_fastest(thetas.shape[0], xs.shape[0], n)
        amps[...] = 0.0
        amps[:, :, 0] = 1.0
        amps = qfflm._apply_ops(amps, n, ops[:n_open], thetas, None)
        np.testing.assert_array_equal(qfflm._run_batch(spec, thetas, xs),
                                      qfflm._run_rows(amps, n, ops[n_open:], thetas, xs))


# ---------------------------------------------------------------------------
# diagonal engine for Parallel specs against the adjoint pass
# ---------------------------------------------------------------------------

def diagonal_threshold(spec, most=4096):
    """Fewest rows, up to ``most``, for which the rule picks the diagonal
    engine, or None."""
    return next((rows for rows in range(1, most + 1) if qfflm._diagonal_fits(spec, rows)), None)


@st.composite
def parallel_cases(draw):
    """A Parallel spec of at most 4 qubits, parameters, and the rows on one
    side of the diagonal engine's rule or the other."""
    n_variables = draw(st.integers(min_value=1, max_value=2))
    n_qubits = draw(st.integers(min_value=1, max_value=4 // n_variables))
    weights = draw(st.sampled_from([exponential_weights, naive_weights]))(n_qubits)
    spec = AnsatzSpec(
        n_variables=n_variables, n_qubits=n_qubits,
        n_layers=draw(st.integers(min_value=0, max_value=3)), topology=Parallel(),
        encoding=weights, rotation_params=draw(st.sampled_from([2, 3])),
        measured_qubit=draw(st.integers(min_value=1, max_value=n_variables * n_qubits)),
    )
    threshold = diagonal_threshold(spec)
    if threshold in (None, 1):  # one side of the rule at every row count
        rows = draw(st.integers(min_value=1, max_value=64))
    else:
        rows = max(1, threshold - draw(st.sampled_from([0, 1])))
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return spec, init_parameters(spec, rng), rng.uniform(-np.pi, np.pi, (rows, n_variables))


@settings(max_examples=60, deadline=None)
@given(parallel_cases())
def test_diagonal_engine_matches_adjoint_and_shift_rule(case):
    """The diagonal engine, the adjoint pass and the shift rule on the full
    program agree on values and every column, and the engine and the
    adjoint leave exactly the same columns at exactly 0: the trimmed
    program's dropped angles.  values_and_jacobian takes the engine when
    the rule holds and the adjoint pass otherwise."""
    spec, theta, xs = case
    values, jac = qfflm._diagonal_jacobian(spec, theta, xs)
    chosen = values_and_jacobian(spec, theta, xs)
    zeros = np.flatnonzero(np.all(jac == 0.0, axis=0))
    np.testing.assert_array_equal(zeros, dropped_params(spec))
    for other_values, other_jac in (qfflm._adjoint_jacobian(spec, theta, xs),
                                    qfflm._shift_rule(spec, theta, xs, None, None)):
        np.testing.assert_allclose(values, other_values, rtol=0, atol=1e-14)
        np.testing.assert_allclose(jac, other_jac, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.flatnonzero(np.all(chosen[1] == 0.0, axis=0)), zeros)
    np.testing.assert_allclose(chosen[0], values, rtol=0, atol=1e-14)


class TestDiagonalEngine:
    """Where the engine runs, and that it runs no gate on the data rows."""

    FIT_Q4 = AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1, topology=Parallel(),
                        encoding=exponential_weights(4))

    @staticmethod
    def kernel_shapes(monkeypatch, spec, rows):
        """Shapes of the arrays every kernel call of values_and_jacobian gets."""
        theta = init_parameters(spec, make_rng(78))
        xs = make_rng(79).uniform(-np.pi, np.pi, (rows, spec.n_variables))
        oracle_values, oracle_jac = qfflm._adjoint_jacobian(spec, theta, xs)
        shapes = []
        for name in ("apply_ry", "apply_rz", "apply_cnot", "apply_matrix"):
            def recorded(amps, *args, _kernel=getattr(qfflm, name)):
                shapes.append(amps.shape)
                return _kernel(amps, *args)
            monkeypatch.setattr(qfflm, name, recorded)
        values, jac = values_and_jacobian(spec, theta, xs)
        np.testing.assert_allclose(values, oracle_values, rtol=0, atol=1e-14)
        np.testing.assert_allclose(jac, oracle_jac, rtol=0, atol=1e-12)
        return shapes

    def test_no_kernel_sees_the_data_rows(self, monkeypatch):
        # both trainable blocks are built as Kronecker layers, so no gate
        # kernel runs at all, on the data rows or on the basis
        assert self.kernel_shapes(monkeypatch, self.FIT_Q4, 200) == []

    @pytest.mark.parametrize("spec,threshold", [
        (FIT_Q4, 1),
        (AnsatzSpec(n_variables=1, n_qubits=6, n_layers=1, topology=Parallel(),
                    encoding=exponential_weights(6)), 1),
        (AnsatzSpec(n_variables=1, n_qubits=4, n_layers=3, topology=Parallel(),
                    encoding=exponential_weights(4)), 1),
        (AnsatzSpec(n_variables=1, n_qubits=5, n_layers=3, topology=Parallel(),
                    encoding=exponential_weights(5)), 32),
        (AnsatzSpec(n_variables=1, n_qubits=6, n_layers=2, topology=Parallel(),
                    encoding=exponential_weights(6)), 604),
    ], ids=["fit-q4", "parallel-6q", "parallel-4q-3-layers", "parallel-5q-3-layers",
            "parallel-6q-2-layers"])
    def test_rule_threshold(self, spec, threshold):
        """values_and_jacobian is the engine from the threshold on and the
        adjoint pass below it, bit for bit.  4 qubits at one layer: the
        engine's 5 * 16**2 updates to build the closing block plus
        6 * 16**2 / 16 per row against the adjoint's four chains at
        8 * 16 per row + 32768 each, so the engine from the first row on.
        6 qubits at two layers: 19 * 13 * 64**2 updates for the block (six
        later qubit passes) plus 20 * 64**2 / 16 per row against twelve
        chains at 8 * 64 per row + 32768."""
        assert diagonal_threshold(spec) == threshold
        theta = init_parameters(spec, make_rng(80))
        cases = [(threshold, qfflm._diagonal_jacobian)]
        if threshold > 1:  # a threshold of 1 leaves no row count below it
            cases.append((threshold - 1, qfflm._adjoint_jacobian))
        for rows, jacobian in cases:
            xs = make_rng(81).uniform(-np.pi, np.pi, (rows, 1))
            for chosen, expected in zip(values_and_jacobian(spec, theta, xs),
                                        jacobian(spec, theta, xs)):
                np.testing.assert_array_equal(chosen, expected)

    @pytest.mark.parametrize("spec,rows", [
        (AnsatzSpec(n_variables=1, n_qubits=6, n_layers=2, topology=Parallel(),
                    encoding=exponential_weights(6)), 603),
        (AnsatzSpec(n_variables=1, n_qubits=7, n_layers=1, topology=Parallel(),
                    encoding=exponential_weights(7)), 49),
        (AnsatzSpec(n_variables=1, n_qubits=7, n_layers=1, topology=Parallel(),
                    encoding=exponential_weights(7)), 10**7),
        (AnsatzSpec(n_variables=1, n_qubits=7, n_layers=2, topology=Parallel(),
                    encoding=exponential_weights(7)), 1),
        (AnsatzSpec(n_variables=1, n_qubits=8, n_layers=1, topology=Parallel(),
                    encoding=exponential_weights(8)), 10**7),
        (JACOBIAN_SPECS["ring"], 10**7),
        (AnsatzSpec(n_variables=6, n_qubits=2, n_layers=1,
                    topology=Serial(reuploads=2, encoders_per_block=1),
                    encoding=EncodingSpec(weights=(1, 3))), 10**7),
    ], ids=["parallel-6q", "parallel-7q-49-rows", "parallel-7q", "parallel-7q-2-layers",
            "parallel-8q", "ring", "serial"])
    def test_rule_keeps_the_adjoint(self, spec, rows):
        # at 7 and 8 qubits the rule's price for the engine's 4**n products
        # per row is above its price for the adjoint's gates, so past the
        # few rows at 7 qubits where the engine's smaller fixed cost wins it
        # picks the adjoint; at 6 qubits a second layer's passes over the
        # closing unitaries keep it there below 604 rows; Ring and Serial
        # encodings are never run as one diagonal
        assert not qfflm._diagonal_fits(spec, rows)


class TestPhaseCache:
    """The engine's per-row diagonals are computed once per dataset, never stale."""

    SPEC = TestDiagonalEngine.FIT_Q4
    THETA = init_parameters(SPEC, make_rng(82))

    def inputs(self, seed):
        return make_rng(seed).uniform(-np.pi, np.pi, (200, 1))

    def test_warm_call_is_bit_identical(self):
        xs = self.inputs(83)
        qfflm._phases.cache_clear()
        cold = qfflm._diagonal_jacobian(self.SPEC, self.THETA, xs)
        warm = qfflm._diagonal_jacobian(self.SPEC, self.THETA, xs.copy())
        assert qfflm._phases.cache_info().hits == 1
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_new_inputs_miss_the_cache(self):
        xs = self.inputs(84)
        qfflm._diagonal_jacobian(self.SPEC, self.THETA, xs)
        other = self.inputs(85)  # same shape, other values
        xs[::3] += 0.25  # the first array, changed in place
        for inputs in (other, xs):
            values, jac = qfflm._diagonal_jacobian(self.SPEC, self.THETA, inputs)
            oracle_values, oracle_jac = qfflm._adjoint_jacobian(self.SPEC, self.THETA, inputs)
            np.testing.assert_allclose(values, oracle_values, rtol=0, atol=1e-12)
            np.testing.assert_allclose(jac, oracle_jac, rtol=0, atol=1e-12)

    def test_row_blocks_match_one_block(self, monkeypatch):
        # 200 rows in blocks of 7: many blocks and a short last one
        xs = self.inputs(87)
        whole = qfflm._diagonal_jacobian(self.SPEC, self.THETA, xs)
        monkeypatch.setattr(qfflm, "_ROW_BLOCK", 7)
        blocked = qfflm._diagonal_jacobian(self.SPEC, self.THETA, xs)
        oracle = qfflm._adjoint_jacobian(self.SPEC, self.THETA, xs)
        for a, b, c in zip(whole, blocked, oracle):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-14)
            np.testing.assert_allclose(b, c, rtol=0, atol=1e-12)

    def test_cached_phases_are_read_only(self):
        xs = self.inputs(86)
        phases = qfflm._phases(self.SPEC, xs.shape, xs.tobytes())
        assert not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0, 0] = 1.0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    @pytest.mark.parametrize("spec_idx", [0, 1, 3])
    def test_zero_parameters_give_one(self, spec_idx):
        """With all angles zero the trainable blocks reduce to CNOT
        arrays (which fix |0...0>) and Z-encodings only add phases, so
        <Z> = 1 exactly.  Holds for parallel and ring topologies; the
        serial topology encodes through Rot gates whose middle RY leaves
        the Z axis, so it is excluded by construction."""
        spec = sample_specs()[spec_idx]
        theta = np.zeros(param_count(spec))
        x = make_rng(1).uniform(-np.pi, np.pi, size=spec.n_variables)
        assert evaluate(spec, theta, x) == pytest.approx(1.0, abs=1e-12)

    def test_minus_cosine_construction(self):
        xs = np.linspace(-np.pi, np.pi, 41)
        for x in xs:
            assert evaluate(ONE_QUBIT, MINUS_COS_THETA, [x]) == pytest.approx(-np.cos(x), abs=1e-12)

    def test_matches_matrix_oracle(self):
        rng = make_rng(2)
        for _ in range(10):
            theta = rng.uniform(-np.pi, np.pi, size=4)
            x = float(rng.uniform(-np.pi, np.pi))
            assert evaluate(ONE_QUBIT, theta, [x]) == pytest.approx(
                one_qubit_oracle(theta, x), abs=1e-12
            )

    def test_periodicity(self):
        spec = AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1,
                          topology=Parallel(), encoding=exponential_weights(4))
        theta = init_parameters(spec, make_rng(7))
        for x in (0.0, 1.3, -2.2):
            assert evaluate(spec, theta, [x]) == pytest.approx(
                evaluate(spec, theta, [x + 2 * np.pi]), abs=1e-12
            )

    def test_periodicity_per_variable(self):
        spec = sample_specs()[3]
        theta = init_parameters(spec, make_rng(8))
        x = np.array([0.4, -1.1])
        base = evaluate(spec, theta, x)
        for m in range(2):
            shifted = x.copy()
            shifted[m] += 2 * np.pi
            assert evaluate(spec, theta, shifted) == pytest.approx(base, abs=1e-12)

    def test_boundedness(self):
        rng = make_rng(3)
        for spec in sample_specs():
            theta = init_parameters(spec, rng)
            xs = rng.uniform(-np.pi, np.pi, size=(20, spec.n_variables))
            vals = evaluate_batch(spec, theta, xs)
            assert np.all(np.abs(vals) <= 1 + 1e-12)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            evaluate(ONE_QUBIT, np.zeros(3), [0.0])
        with pytest.raises(ValueError):
            evaluate(ONE_QUBIT, np.zeros(4), [0.0, 1.0])
        with pytest.raises(ValueError):
            evaluate(ONE_QUBIT, np.zeros(4), [np.nan])

    @pytest.mark.parametrize("spec,rows,engine", [
        (AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1, topology=Parallel(),
                    encoding=exponential_weights(4)), 200, True),
        (AnsatzSpec(n_variables=1, n_qubits=5, n_layers=3, topology=Parallel(),
                    encoding=exponential_weights(5)), 3, False),
        (AnsatzSpec(n_variables=4, n_qubits=4, n_layers=1, topology=Ring(reuploads=1),
                    encoding=EncodingSpec(weights=(1,))), 5, False),
    ], ids=["diagonal-engine", "adjoint", "ring"])
    @pytest.mark.parametrize("bad", ["theta", "x"])
    def test_non_finite_inputs_rejected_by_every_jacobian(self, spec, rows, engine, bad):
        """A NaN angle or an infinite input is refused before any gate or
        phase is computed, on whichever path the rule picks."""
        assert qfflm._diagonal_fits(spec, rows) == engine
        theta = init_parameters(spec, make_rng(9))
        xs = make_rng(10).uniform(-np.pi, np.pi, size=(rows, spec.n_variables))
        if bad == "theta":
            theta[0] = np.nan
        else:
            xs[1, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{bad} entries must be finite"):
                values_and_jacobian(spec, theta, xs)

    def test_batch_matches_single(self):
        spec = sample_specs()[0]
        theta = init_parameters(spec, make_rng(4))
        xs = make_rng(5).uniform(-np.pi, np.pi, size=(7, 1))
        batch = evaluate_batch(spec, theta, xs)
        for i in range(7):
            assert batch[i] == pytest.approx(evaluate(spec, theta, xs[i]), abs=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

class TestGradient:
    def test_zero_theta_matches_finite_difference(self):
        spec = sample_specs()[0]
        theta = np.zeros(param_count(spec))
        x = [0.9]
        shift = gradient_parameter_shift(spec, theta, x)
        fd = finite_difference(lambda t: evaluate(spec, t, x), theta)
        np.testing.assert_allclose(shift, fd, atol=1e-6)

    def test_single_trainable_angle(self):
        """In the -cos construction with W2's RY angle freed (flat index
        2), the matrix oracle gives f(theta; x=0) = -sin(theta): the
        gradient is 0 at theta = pi/2 and -1 at theta = 0."""
        at_half_pi = gradient_parameter_shift(ONE_QUBIT, MINUS_COS_THETA, [0.0])
        assert at_half_pi[2] == pytest.approx(0.0, abs=1e-12)
        theta = np.array([np.pi / 2, 0.0, 0.0, 0.0])
        at_zero = gradient_parameter_shift(ONE_QUBIT, theta, [0.0])
        assert at_zero[2] == pytest.approx(-1.0, abs=1e-12)
        # cross-check the whole gradient against the matrix oracle
        for th in (MINUS_COS_THETA, theta):
            fd = finite_difference(lambda t: one_qubit_oracle(t, 0.0), th.copy())
            np.testing.assert_allclose(
                gradient_parameter_shift(ONE_QUBIT, th, [0.0]), fd, atol=1e-6
            )

    @pytest.mark.parametrize("spec_idx", [0, 1, 2, 3])
    def test_shift_rule_equals_finite_difference(self, spec_idx):
        spec = sample_specs()[spec_idx]
        rng = make_rng(20 + spec_idx)
        for _ in range(3):
            theta = init_parameters(spec, rng)
            x = rng.uniform(-np.pi, np.pi, size=spec.n_variables)
            shift = gradient_parameter_shift(spec, theta, x)
            fd = finite_difference(lambda t: evaluate(spec, t, x), theta)
            np.testing.assert_allclose(shift, fd, atol=1e-6)

    def test_jacobian_rows_match_pointwise_gradients(self):
        spec = sample_specs()[3]
        theta = init_parameters(spec, make_rng(30))
        xs = make_rng(31).uniform(-np.pi, np.pi, size=(5, 2))
        values, jac = values_and_jacobian(spec, theta, xs)
        for i in range(5):
            assert values[i] == pytest.approx(evaluate(spec, theta, xs[i]), abs=1e-12)
            np.testing.assert_allclose(
                jac[i], gradient_parameter_shift(spec, theta, xs[i]), atol=1e-12
            )

    def test_sampled_jacobian_deterministic(self):
        spec = sample_specs()[0]
        theta = init_parameters(spec, make_rng(32))
        xs = np.array([[0.2], [1.4]])
        v1, j1 = values_and_jacobian(spec, theta, xs, shots=200, rng=make_rng(33))
        v2, j2 = values_and_jacobian(spec, theta, xs, shots=200, rng=make_rng(33))
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(j1, j2)


# ---------------------------------------------------------------------------
# Fourier structure
# ---------------------------------------------------------------------------

def complex_from_real(vec, degrees):
    """Coefficients ``c(n)`` of ``sum_n c(n) e^{-i n.x}`` on the dense lattice.

    Per variable ``c(0) = a_0`` and ``c(+-j) = (a_j +- i b_j) / sqrt 2``,
    with ``a_j`` and ``b_j`` the cos and sin entries of ``vec``.
    """
    acc = vec.reshape([2 * d + 1 for d in degrees]).astype(np.complex128)
    for axis, d in enumerate(degrees):
        u = np.zeros((2 * d + 1, 2 * d + 1), dtype=np.complex128)
        u[d, 0] = 1.0
        for j in range(1, d + 1):
            u[d + j, 2 * j - 1] = u[d - j, 2 * j - 1] = 1 / np.sqrt(2)
            u[d + j, 2 * j] = 1j / np.sqrt(2)
            u[d - j, 2 * j] = -1j / np.sqrt(2)
        acc = np.moveaxis(np.tensordot(u, acc, axes=(1, axis)), 0, axis)
    return acc


def off_band(spec, fm):
    """Mask of the entries of a real vector on ``fm`` at frequencies outside
    the model's spectrum; the holes of a sparse spectrum are outside."""
    inside = np.ones(1, dtype=bool)
    for m, degree in enumerate(fm.degrees, start=1):
        frequency = (np.arange(2 * degree + 1) + 1) // 2  # of entries 0, 2j - 1, 2j
        axis = np.isin(frequency, spectrum(spec.variable_encoding(m)).support)
        inside = (inside[:, None] & axis[None, :]).ravel()
    return ~inside


class TestFourierCoefficients:
    """The model's real vector, and through ``complex_from_real`` its
    complex coefficients, against independently known values."""

    def test_constant_model(self):
        spec = sample_specs()[0]
        c = complex_from_real(fourier_coefficients(spec, np.zeros(param_count(spec))), [4])
        assert c[4] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.delete(c, 4)).max() < 1e-12

    def test_minus_cosine_coefficients(self):
        c = complex_from_real(fourier_coefficients(ONE_QUBIT, MINUS_COS_THETA), [1])
        np.testing.assert_allclose(c, [-0.5, 0.0, -0.5], atol=1e-12)

    @pytest.mark.parametrize("spec_idx", [0, 1, 2, 3])
    def test_band_limit_on_oversized_grid(self, spec_idx):
        """Out-of-band mass must vanish: a map of twice the degree, read
        on its own grid, exposes any frequency outside the predicted
        spectrum.  This also covers encoding-position independence,
        since serial/ring reuploads must land in the same lattice as a
        parallel encoding with the same weight multiset."""
        spec = sample_specs()[spec_idx]
        theta = init_parameters(spec, make_rng(40 + spec_idx))
        fm = FeatureMap(spec.n_variables, [2 * s + 1 for s in spec.weight_sums])
        vec = fourier_coefficients(spec, theta, fm)
        assert np.linalg.norm(vec[off_band(spec, fm)]) < 1e-10
        assert np.abs(vec).max() > 1e-3  # not vacuous: the model has in-band mass

    def test_band_limit_with_spectral_holes(self):
        """Weights (1, 7) reach 0, 1, 6, 7, 8: on a degree-17 map the
        frequencies 2..5 and 9..17 are out of band."""
        spec = AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                          topology=Parallel(), encoding=EncodingSpec(weights=(1, 7)))
        fm = FeatureMap(1, (17,))
        off = off_band(spec, fm)
        assert off.sum() == 2 * 4 + 2 * 9
        vec = fourier_coefficients(spec, init_parameters(spec, make_rng(45)), fm)
        assert np.linalg.norm(vec[off]) < 1e-10

    @pytest.mark.parametrize("spec", [
        JACOBIAN_SPECS["parallel"],
        JACOBIAN_SPECS["rot"],
        JACOBIAN_SPECS["parallel-2var"],
        JACOBIAN_SPECS["measured-1"],
    ], ids=["parallel", "rot", "parallel-2var", "measured-1"])
    def test_closed_form_coefficients(self, spec):
        """f(x) = a^dag D(x)^dag O D(x) a with a = W1|0>, O = W2^dag Z W2 and
        D(x)_jj = exp(i lambda_j . x), so the coefficient of exp(-i w.x) is
        the sum of conj(a_j) O_jk a_k over lambda_j - lambda_k = w."""
        theta = init_parameters(spec, make_rng(44))
        half = theta.size // 2
        w1, w2 = block_unitaries(spec, np.stack([theta[:half], theta[half:]]))
        n = spec.total_qubits
        index = np.arange(1 << n)
        bits = [(index >> (n - q)) & 1 for q in range(1, n + 1)]
        # twice the eigenphase per variable, an integer on every basis state
        two_lam = np.stack([
            sum(w * (2 * bits[(m - 1) * spec.n_qubits + k] - 1)
                for k, w in enumerate(spec.encoding[m - 1].weights))
            for m in range(1, spec.n_variables + 1)
        ], axis=-1)
        z = 1.0 - 2.0 * bits[spec.measured_qubit - 1]
        a = w1[:, 0]
        o = w2.conj().T @ (z[:, None] * w2)
        terms = a.conj()[:, None] * o * a[None, :]
        degrees = spec.weight_sums
        c = complex_from_real(fourier_coefficients(spec, theta), degrees)
        expected = np.zeros_like(c)
        for j in range(1 << n):
            for k in range(1 << n):
                omega = (two_lam[j] - two_lam[k]) // 2
                expected[tuple(int(w) + d for w, d in zip(omega, degrees))] += terms[j, k]
        np.testing.assert_allclose(c, expected, rtol=0, atol=1e-12)

    def test_grid_capacity(self):
        spec = sample_specs()[3]
        with pytest.raises(CapacityError):
            fourier_coefficients(spec, np.zeros(param_count(spec)), FeatureMap(2, (2000, 2000)))

    def test_sub_nyquist_grid_rejected(self):
        for fm in (FeatureMap(1, (0,)), FeatureMap(2, (1, 1))):
            with pytest.raises(ValueError, match="alias"):
                fourier_coefficients(ONE_QUBIT, MINUS_COS_THETA, fm)


class TestCoefficientVector:
    """``fourier_coefficients`` reads a quantum model in the classical feature basis."""

    def test_constant_model(self):
        spec = sample_specs()[0]
        vec = fourier_coefficients(spec, np.zeros(param_count(spec)))
        assert vec.shape == (9,)
        assert vec[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vec[1:]).max() < 1e-12

    def test_minus_cosine_vector(self):
        """-cos x = (-1/sqrt 2) * (sqrt 2 cos x): only the cos-1 feature
        (index 1) survives."""
        vec = fourier_coefficients(ONE_QUBIT, MINUS_COS_THETA)
        np.testing.assert_allclose(vec, [0.0, -1 / np.sqrt(2), 0.0], atol=1e-12)

    def test_univariate_round_trip(self):
        spec = sample_specs()[0]
        theta = init_parameters(spec, make_rng(50))
        vec = fourier_coefficients(spec, theta)
        xs = make_rng(51).uniform(-np.pi, np.pi, size=100)

        def features(x):
            phi = [1.0]
            for j in range(1, 5):
                phi.extend([np.sqrt(2) * np.cos(j * x), np.sqrt(2) * np.sin(j * x)])
            return np.array(phi)

        for x in xs:
            assert vec @ features(x) == pytest.approx(evaluate(spec, theta, [x]), abs=1e-9)

    def test_multivariate_round_trip(self):
        spec = sample_specs()[1]
        theta = init_parameters(spec, make_rng(52))
        vec = fourier_coefficients(spec, theta)
        assert vec.shape == (9,)

        def features_1d(x):
            return np.array([1.0, np.sqrt(2) * np.cos(x), np.sqrt(2) * np.sin(x)])

        xs = make_rng(53).uniform(-np.pi, np.pi, size=(100, 2))
        for x in xs:
            phi = np.kron(features_1d(x[0]), features_1d(x[1]))
            assert vec @ phi == pytest.approx(evaluate(spec, theta, x), abs=1e-9)

    def test_ring_round_trip(self):
        """A reuploading model, whose encodings are not one diagonal, is its
        vector on the lattice of its weight sums."""
        spec = sample_specs()[3]
        theta = init_parameters(spec, make_rng(55))
        vec = fourier_coefficients(spec, theta)
        xs = make_rng(57).uniform(-np.pi, np.pi, size=(50, 2))
        np.testing.assert_allclose(feature_matrix(xs, FeatureMap(2, (3, 3))) @ vec,
                                   evaluate_batch(spec, theta, xs), rtol=0, atol=1e-12)

    def test_random_target_on_nyquist_grid(self):
        for seed in (0, 1, 2):
            target = make_random_fourier_target(81, 64, 0.05, seed)
            vec = grid_coefficients(lambda xs: target.evaluate(xs[:, 0]), target.feature_map)
            np.testing.assert_allclose(vec, target.coefficients, rtol=0, atol=1e-13)

    def test_sparse_spectrum_recovered(self):
        """Weights (1, 7) reach frequencies 0, 1, 6, 7, 8: the 17-entry
        vector on the enclosing lattice is the model, with the cos and sin
        entries of j = 2..5 zero."""
        spec = AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                          topology=Parallel(), encoding=EncodingSpec(weights=(1, 7)))
        theta = init_parameters(spec, make_rng(54))
        vec = fourier_coefficients(spec, theta)
        assert vec.shape == (17,)
        xs = make_rng(56).uniform(-np.pi, np.pi, size=(50, 1))
        np.testing.assert_allclose(feature_matrix(xs, FeatureMap(1, (8,))) @ vec,
                                   evaluate_batch(spec, theta, xs), rtol=0, atol=1e-9)
        np.testing.assert_allclose(vec[3:11], 0.0, rtol=0, atol=1e-12)
