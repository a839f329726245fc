"""End-to-end acceptance gate.

Each test checks one headline property of the package at a pinned
tolerance and prints a single ``[acceptance] NN name: PASS/FAIL`` line
with the measured numbers, so a full ``pytest`` run doubles as the
acceptance report.  The checks intentionally reuse the public API only.

Numbered overview:

01  spectrum size law for exponential and naive encodings
02  band-limit: no Fourier mass outside the declared spectrum
03  parameter-shift gradients match central finite differences
04  Haar-block value/gradient moments match the closed forms
05  <f^2> decays as 2^-(qubits) across register sizes
06  analytic and grid-based coefficient-set membership agree
07  paired quantum/classical training comparison on split-spectrum targets
08  square-wave fits improve monotonically with qubit count
09  resource-count formulas and the advantage threshold, exact arithmetic
10  PCA tail identity and random-projection distance preservation
11  reuploading-topology parameter counts and band limit (smoke)
"""

import math
import time

import numpy as np

from fourierqml import make_rng
from fourierqml.analysis import (
    advantage_criterion,
    bicone_contains,
    numerical_membership,
    plateau_stats,
    plateau_sweep,
    resrc_classical_fully_parametrized,
)
from fourierqml.cfflm import (
    FeatureMap,
    feature_matrix,
    pca_projection,
    random_projection,
)
from fourierqml.qfflm import (
    AnsatzSpec,
    Parallel,
    Ring,
    Serial,
    evaluate,
    fourier_coefficients,
    gradient_parameter_shift,
    init_parameters,
    param_count,
)
from fourierqml.spectra import (
    EncodingSpec,
    exponential_weights,
    naive_weights,
    spectrum,
)
from fourierqml.trainer import (
    run_expressivity_comparison,
    run_step_function_study,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _saturated(record) -> float:
    """Mean training loss over the final 100 recorded steps."""
    return float(np.mean(record.loss_trace[-100:]))


# ---------------------------------------------------------------------------
# 01 -- spectrum size law
# ---------------------------------------------------------------------------

def test_01_spectrum_size_law():
    """Exponential weights on N qubits give exactly 3^N distinct
    contiguous frequencies with degree (3^N - 1)/2; naive (all-ones)
    weights give exactly 2N+1.  Integer equality, under one second."""
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        sp = spectrum(exponential_weights(n))
        d_f = (3**n - 1) // 2
        ok = ok and sp.distinct_count == 3**n
        ok = ok and sp.d_f == d_f
        ok = ok and np.array_equal(sp.support, np.arange(-d_f, d_f + 1))
        ok = ok and spectrum(naive_weights(n)).distinct_count == 2 * n + 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict("01 spectrum-size-law", ok,
             f"N=1..8 exponential 3^N contiguous, naive 2N+1, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 02 -- band limit
# ---------------------------------------------------------------------------

def _off_lattice_mass(c, fm, d_f):
    """``N_off * ||off-lattice entries||_2`` of a real coefficient vector on
    ``fm`` for a dense spectrum of degree ``d_f`` in every variable.

    The real-to-complex change of basis is unitary and maps the off-lattice
    frequencies onto themselves, so this bounds ``N_off`` times the largest
    off-lattice complex coefficient from above.
    """
    on = np.zeros(fm.per_variable_dims, dtype=bool)
    on[(slice(0, 2 * d_f + 1),) * fm.n_variables] = True
    off = c.reshape(fm.per_variable_dims)[~on]
    return off.size * float(np.linalg.norm(off))


def test_02_band_limit():
    """50 random parameter draws on the 4-qubit exponential parallel
    model: total Fourier mass outside the declared 81-frequency lattice,
    measured on an oversampled 163-point grid, stays below 1e-10."""
    start = time.perf_counter()
    spec = AnsatzSpec(n_variables=1, n_qubits=4, n_layers=1,
                      topology=Parallel(), encoding=exponential_weights(4))
    fm = FeatureMap(1, (2 * 40 + 1,))  # twice the Nyquist grid, so off-lattice entries exist
    worst_mass = 0.0
    for seed in range(50):
        theta = init_parameters(spec, make_rng(seed))
        c = fourier_coefficients(spec, theta, fm)
        worst_mass = max(worst_mass, _off_lattice_mass(c, fm, 40))
    elapsed = time.perf_counter() - start
    ok = worst_mass < 1e-10 and elapsed < 30.0
    _verdict("02 band-limit", ok,
             f"max off-lattice mass {worst_mass:.3e} over 50 draws, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 03 -- gradient exactness
# ---------------------------------------------------------------------------

def _gradient_spec_pool():
    return [
        AnsatzSpec(n_variables=1, n_qubits=2, n_layers=1,
                   topology=Parallel(), encoding=exponential_weights(2)),
        AnsatzSpec(n_variables=1, n_qubits=3, n_layers=2,
                   topology=Parallel(), encoding=exponential_weights(3)),
        AnsatzSpec(n_variables=2, n_qubits=1, n_layers=2,
                   topology=Parallel(), encoding=exponential_weights(1),
                   rotation_params=3),
        AnsatzSpec(n_variables=3, n_qubits=1, n_layers=1,
                   topology=Serial(reuploads=2, encoders_per_block=1),
                   encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
        AnsatzSpec(n_variables=6, n_qubits=2, n_layers=1,
                   topology=Serial(reuploads=2, encoders_per_block=1),
                   encoding=EncodingSpec(weights=(1, 3)), rotation_params=3),
        AnsatzSpec(n_variables=2, n_qubits=2, n_layers=1,
                   topology=Ring(reuploads=2),
                   encoding=EncodingSpec(weights=(1, 2)), rotation_params=3),
        AnsatzSpec(n_variables=3, n_qubits=3, n_layers=2,
                   topology=Ring(reuploads=2),
                   encoding=EncodingSpec(weights=(1, 3)), rotation_params=2),
    ]


def test_03_gradient_exactness():
    """Parameter-shift gradients agree componentwise with central finite
    differences (h = 1e-5) to 1e-6 over 20 random spec/point pairs
    spanning all three topologies."""
    start = time.perf_counter()
    pool = _gradient_spec_pool()
    rng = make_rng(1234)
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        spec = pool[trial % len(pool)]
        theta = init_parameters(spec, rng)
        x = rng.uniform(-np.pi, np.pi, size=spec.n_variables)
        analytic = gradient_parameter_shift(spec, theta, x)
        fd = np.empty_like(analytic)
        for k in range(theta.size):
            up = theta.copy()
            dn = theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (evaluate(spec, up, x) - evaluate(spec, dn, x)) / (2 * h)
        worst = max(worst, float(np.abs(analytic - fd).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _verdict("03 gradient-exactness", ok,
             f"max |shift - fd| = {worst:.3e} over 20 specs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 04 -- Haar moments
# ---------------------------------------------------------------------------

def test_04_haar_moments():
    """With exact Haar trainable blocks at d in {2, 4, 8} and 10^4
    trials: <f> and <f^2> match 0 and 1/(d+1) within 4 standard errors,
    and the empirical loss-gradient variance stays below the analytic
    bound at every differentiated-parameter position."""
    start = time.perf_counter()
    ok = True
    pieces = []
    for n_qubits in (1, 2, 3):
        d = 2**n_qubits
        for case in ("I", "II", "III"):
            rep = plateau_stats(1, n_qubits, 10_000,
                                make_rng((17, n_qubits, ord(case[0]))),
                                mode="haar", grad_case=case)
            ok = ok and rep.var_loss_grad <= rep.bound_loss_grad
            if case == "II":
                ok = ok and abs(rep.zscore_mean_f) <= 4.0
                ok = ok and abs(rep.zscore_mean_sq_f) <= 4.0
                pieces.append(
                    f"d={d}: z(<f>)={rep.zscore_mean_f:+.2f} "
                    f"z(<f^2>)={rep.zscore_mean_sq_f:+.2f}"
                )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict("04 haar-moments", ok, "; ".join(pieces) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 05 -- concentration decay rate
# ---------------------------------------------------------------------------

def test_05_decay_rate():
    """log <f^2> against total qubit count over {2, 4, 6, 8} fits a
    slope of -log 2 within 15%, i.e. the second moment halves per added
    qubit."""
    start = time.perf_counter()
    _, fit = plateau_sweep((2, 4, 6, 8), 2000, make_rng(99), mode="haar")
    target = -math.log(2.0)
    ok = abs(fit.slope - target) <= 0.15 * abs(target)
    elapsed = time.perf_counter() - start
    _verdict("05 decay-rate", ok,
             f"slope {fit.slope:.4f} vs {target:.4f} +-15%, "
             f"alpha {fit.alpha:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 06 -- membership equivalence
# ---------------------------------------------------------------------------

def test_06_membership_equivalence():
    """Analytic bicone membership and a 10^4-point-grid numerical check
    agree on at least 99.5% of 10^5 random coefficient vectors in
    [-1.5, 1.5]^3, and every disagreement lies within 1e-3 of the
    boundary surface |c1| + sqrt(2 (c2^2 + c3^2)) = 1."""
    start = time.perf_counter()
    fm = FeatureMap(n_variables=1, degrees=(1,))
    grid_points = 10_000
    n_samples = 100_000
    rng = make_rng(20_240_607)
    samples = rng.uniform(-1.5, 1.5, size=(n_samples, 3))

    # Vectorized copy of numerical_membership: same grid, same tolerance.
    axis = np.linspace(0.0, 2.0 * np.pi, grid_points, endpoint=False)
    phi = feature_matrix(axis[:, None], fm)  # (grid, 3)
    h = 2.0 * np.pi / grid_points
    slack = math.sqrt(2.0) * 1**2 * np.abs(samples).sum(axis=1) * h**2 / 8.0
    numeric = np.empty(n_samples, dtype=bool)
    chunk = 2000
    for lo in range(0, n_samples, chunk):
        block = samples[lo:lo + chunk]
        max_abs = np.abs(block @ phi.T).max(axis=1)
        numeric[lo:lo + chunk] = max_abs <= 1.0 + 1e-6 + slack[lo:lo + chunk]

    # Tie the vectorization to the module function on a spot-check slice.
    for c in samples[:100]:
        assert numerical_membership(c, fm, grid_points).member == \
            (np.abs(phi @ c).max()
             <= 1.0 + 1e-6 + math.sqrt(2.0) * np.abs(c).sum() * h**2 / 8.0)

    analytic = np.array([bicone_contains(c) for c in samples])
    agree = analytic == numeric
    rate = float(agree.mean())
    margin = (np.abs(samples[:, 0])
              + np.sqrt(2.0 * (samples[:, 1]**2 + samples[:, 2]**2)) - 1.0)
    worst_off = float(np.abs(margin[~agree]).max()) if (~agree).any() else 0.0
    elapsed = time.perf_counter() - start
    ok = rate >= 0.995 and worst_off <= 1e-3
    _verdict("06 membership-equivalence", ok,
             f"agreement {rate:.5f}, {int((~agree).sum())} disagreements, "
             f"worst boundary offset {worst_off:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 07 -- paired training comparison
# ---------------------------------------------------------------------------

def test_07_expressivity_comparison():
    """Paired training on 81-coefficient random targets split at index 64
    (200-point grid, Adam lr 0.03, 500 steps, 5 seeds).  Demands:
    (a) at low-band/high-band amplitude ratio r = 0.05 the truncated
    64-dimensional classical model saturates with MSE in [0.04, 0.16]
    and the 4-qubit single-layer quantum model saturates at least 3x
    lower on >= 4 of 5 seeds; (b) at r = 55.5 the classical model
    saturates below 1e-3."""
    start = time.perf_counter()
    result = run_expressivity_comparison([0.05, 55.5], runs=5)
    q_low = np.array([_saturated(r) for r in result.quantum[0]])
    c_low = np.array([_saturated(r) for r in result.classical[0]])
    c_high = np.array([_saturated(r) for r in result.classical[1]])
    ratios = c_low / q_low

    classical_in_window = 0.04 <= float(c_low.mean()) <= 0.16
    quantum_3x_wins = int((ratios >= 3.0).sum())
    high_band_solved = bool((c_high < 1e-3).all())
    elapsed = time.perf_counter() - start
    ok = classical_in_window and quantum_3x_wins >= 4 and high_band_solved
    _verdict(
        "07 expressivity-comparison", ok,
        f"r=0.05: classical mean {c_low.mean():.4f} in [0.04,0.16]="
        f"{classical_in_window}, classical/quantum ratios "
        f"[{', '.join(f'{v:.2f}' for v in ratios)}] -> {quantum_3x_wins}/5 "
        f">= 3x; r=55.5: classical max {c_high.max():.2e} < 1e-3="
        f"{high_band_solved}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 08 -- square-wave expressivity trend
# ---------------------------------------------------------------------------

def test_08_square_wave_trend():
    """With one extra trainable layer per qubit (L = N + 1) and
    exponential encoding, the mean final MSE on the square-wave target
    strictly decreases from 1 to 3 qubits over 3 seeds."""
    start = time.perf_counter()
    study = run_step_function_study(qubit_counts=(1, 2, 3), seeds=(0, 1, 2))
    means = study.mean_final_losses()
    ok = bool(np.all(np.diff(means) < 0.0))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    _verdict("08 square-wave-trend", ok,
             "mean MSE " + " > ".join(f"{m:.4f}" for m in means)
             + f", {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 09 -- resource formulas
# ---------------------------------------------------------------------------

def test_09_resource_formulas():
    """Fully parametrized classical cost at K = 81 is exactly 244 basic
    operations, and the advantage inequality poly(MN) < eps * K^{M/2}
    holds at 40 qubits with exponential encoding (K = 3^40) but fails
    with naive encoding (K = 81) at the same gate budget."""
    mn = 40
    n_gt = mn**2                # polynomial gate budget
    eps = 2.0 ** -(mn // 2)     # concentration scale: <f^2> ~ 2^-MN
    exponential = advantage_criterion(n_gt, eps, 3**mn, 1)
    naive = advantage_criterion(n_gt, eps, 2 * mn + 1, 1)
    ok = (
        resrc_classical_fully_parametrized(81) == 244
        and exponential.advantage
        and not naive.advantage
    )
    _verdict("09 resource-formulas", ok,
             f"resrc_classical(81, fully par.) = "
             f"{resrc_classical_fully_parametrized(81)}; 40-qubit margins: "
             f"exponential {exponential.log_margin:+.3f}, "
             f"naive {naive.log_margin:+.3f}")


# ---------------------------------------------------------------------------
# 10 -- projection guarantees
# ---------------------------------------------------------------------------

def test_10_projection_guarantees():
    """PCA reconstruction error equals the eigenvalue tail sum (checked
    against explicit per-row residuals) within 1e-8 for feature sets up
    to K = 31, and a Gaussian random projection at the recommended
    dimension preserves >= 95% of pairwise squared distances within a
    factor 1 +- 0.5 for 200 points."""
    start = time.perf_counter()
    rng = make_rng(4242)
    ok = True
    worst_tail = 0.0
    for degree, d_tilde in [(3, 2), (3, 5), (15, 8), (15, 31)]:
        fm = FeatureMap(n_variables=1, degrees=(degree,))
        xs = rng.uniform(-np.pi, np.pi, size=(300, 1))
        features = feature_matrix(xs, fm)
        pca = pca_projection(features, d_tilde)
        tail = float(pca.eigenvalues[d_tilde:].sum())
        residuals = features - (features @ pca.basis) @ pca.basis.T
        explicit = float((residuals**2).sum(axis=1).mean())
        worst_tail = max(worst_tail,
                         abs(pca.reconstruction_error - tail),
                         abs(pca.reconstruction_error - explicit))
        ok = ok and worst_tail <= 1e-8

    n_points = 200
    eps_tilde = 0.5
    d_tilde = math.ceil(8.0 * math.log(n_points) / eps_tilde**2)
    fm = FeatureMap(n_variables=1, degrees=(40,))
    xs = rng.uniform(-np.pi, np.pi, size=(n_points, 1))
    features = feature_matrix(xs, fm)
    rp = random_projection(features, d_tilde, eps_tilde, rng)
    ok = ok and rp.recommended_dimension == d_tilde

    def pair_sq_dists(rows):
        sq = (rows**2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T
        return d2[np.triu_indices(rows.shape[0], k=1)]

    orig = pair_sq_dists(features)
    proj = pair_sq_dists(rp.projected)
    within = (proj >= (1 - eps_tilde) * orig) & (proj <= (1 + eps_tilde) * orig)
    fraction = float(within.mean())
    elapsed = time.perf_counter() - start
    ok = ok and fraction >= 0.95 and elapsed < 60.0
    _verdict("10 projection-guarantees", ok,
             f"PCA tail mismatch {worst_tail:.2e}, distance pairs within "
             f"1+-0.5 at d~={d_tilde}: {fraction:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11 -- reuploading-model smoke checks
# ---------------------------------------------------------------------------

def test_11_reupload_smoke():
    """Parameter counts of the two reuploading reference models follow
    their closed forms (126 L and 96 L), and a serial model shows no
    Fourier mass outside its declared lattice."""
    start = time.perf_counter()
    ok = True
    for layers in (1, 2):
        serial = AnsatzSpec(
            n_variables=36, n_qubits=6, n_layers=layers,
            topology=Serial(reuploads=3, encoders_per_block=2),
            encoding=exponential_weights(3), rotation_params=3)
        ring = AnsatzSpec(
            n_variables=8, n_qubits=8, n_layers=layers,
            topology=Ring(reuploads=3),
            encoding=exponential_weights(3), rotation_params=3)
        ok = ok and param_count(serial) == 126 * layers
        ok = ok and param_count(ring) == 96 * layers

    small = AnsatzSpec(n_variables=3, n_qubits=1, n_layers=1,
                       topology=Serial(reuploads=2, encoders_per_block=1),
                       encoding=EncodingSpec(weights=(1, 3)),
                       rotation_params=3)
    theta = init_parameters(small, make_rng(7))
    d_f = 4  # weights 1 and 3 reach at most +-4 per variable
    fm = FeatureMap(3, (2 * d_f + 1,) * 3)
    mass = _off_lattice_mass(fourier_coefficients(small, theta, fm), fm, d_f)
    ok = ok and mass < 1e-10
    elapsed = time.perf_counter() - start
    _verdict("11 reupload-smoke", ok,
             f"serial 126L / ring 96L exact, serial off-lattice mass "
             f"{mass:.2e}, {elapsed:.1f}s")
