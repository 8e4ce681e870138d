import math

import numpy as np
import pytest

from itkrm.linalg import Dictionary, Support, coherence, project_onto_span, recovery_rate
from itkrm.signals import (KEY_ROWS, BalancedCoefficients, CoefficientMixture,
                           GeometricCoefficients, SignalModel,
                           TwoSparseCoefficients, _draw_coefficient_rows,
                           _model_sparsity, generate_batch, hadamard_matrix,
                           make_bad_initialization, make_dirac_hadamard,
                           make_random_sphere, make_spurious_estimate,
                           noise_std_for_snr, rng_from_seed)

from conftest import random_dictionary


# --- coefficient draws -----------------------------------------------------

def draw_coefficients(model, size, rng):
    """One coefficient sequence of the given length, as ``(c, s)``: c is
    nonnegative, non-increasing, l2-normalized and zero beyond the effective
    sparsity s."""
    c, s = _draw_coefficient_rows(model, size, 1, rng)
    return c[0], int(s[0])


def test_geometric_q_one_is_balanced(rng):
    c, s = draw_coefficients(GeometricCoefficients(1.0, 1.0, 4), 16, rng)
    assert s == 4
    assert np.allclose(c[:4], 0.5)
    assert np.all(c[4:] == 0)


def test_two_sparse_b_model(rng):
    model = TwoSparseCoefficients(0.9, 1.0)
    c, s = draw_coefficients(model, 8, rng)
    assert s == 2
    b = c[1] / c[0]
    assert 0.9 <= b <= 1.0
    assert c[0] == pytest.approx(1 / math.sqrt(1 + b * b))
    assert c[1] == pytest.approx(b / math.sqrt(1 + b * b))


def test_geometric_fixed_q_ratio_and_norm(rng):
    c, s = draw_coefficients(GeometricCoefficients(0.9, 0.9, 6), 10, rng)
    assert c[0] / c[5] == pytest.approx(0.9 ** -5, rel=1e-12)
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", [
    GeometricCoefficients(0.8, 1.0, 5),
    TwoSparseCoefficients(),
    BalancedCoefficients(3),
    CoefficientMixture(((0.25, GeometricCoefficients(0.9, 1.0, 4)),
                        (0.5, GeometricCoefficients(0.9, 1.0, 6)),
                        (0.25, GeometricCoefficients(0.9, 1.0, 8)))),
])
def test_draws_are_nonincreasing_unit_norm(model, rng):
    for _ in range(50):
        c, s = draw_coefficients(model, 12, rng)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(c) <= 1e-15)
        assert np.all(c >= 0)
        assert np.all(c[s:] == 0)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        CoefficientMixture(((0.5, BalancedCoefficients(2)),))


# --- batch generation ------------------------------------------------------

def _model(dico, s=3, noise=0.0, outliers=0.0, seed=7):
    return SignalModel(dictionary=dico, coeffs=GeometricCoefficients(0.9, 1.0, s),
                       noise_std_per_component=noise, outlier_rate=outliers,
                       outlier_std_per_component=1.0 / dico.d, seed=seed)


def test_noiseless_signals_live_on_their_supports(rng):
    dico = random_dictionary(12, 18, rng)
    batch = generate_batch(_model(dico), 64)
    for n in range(batch.n):
        sup = Support(batch.truth.support[n][batch.truth.support[n] >= 0])
        proj, _ = project_onto_span(dico, sup, batch.signals[:, n])
        assert np.linalg.norm(batch.signals[:, n] - proj) <= 1e-10


def test_truth_reconstructs_signal_exactly(rng):
    dico = random_dictionary(10, 15, rng)
    batch = generate_batch(_model(dico), 32)
    t = batch.truth
    for n in range(batch.n):
        y = np.zeros(10)
        for i in range(t.sparsity[n]):
            y += t.signs[n, i] * t.coeffs[n, i] * dico.atoms[:, t.support[n, i]]
        assert np.allclose(y, batch.signals[:, n], atol=1e-12)


def test_noise_energy_calibration():
    # per-component variance 1/(16 d) gives E ||r||^2 = 1/16 (SNR 16)
    d = 32
    dico = Dictionary(np.eye(d))
    std = noise_std_for_snr(16.0, d)
    assert std ** 2 == pytest.approx(1.0 / (16 * d))
    rng = rng_from_seed(3)
    draws = std * rng.standard_normal((d, 100_000))
    energy = np.mean(np.sum(draws ** 2, axis=0))
    assert energy == pytest.approx(1.0 / 16, rel=0.01)


def test_support_frequency_is_uniform():
    d, k, s, n = 16, 24, 3, 20000
    dico = make_dirac_hadamard(d, k)
    batch = generate_batch(_model(dico, s=s, seed=11), n)
    counts = np.bincount(batch.truth.support[batch.truth.support >= 0], minlength=k)
    expected = n * s / k
    sigma = math.sqrt(n * (s / k) * (1 - s / k))
    assert np.all(np.abs(counts - expected) <= 4 * sigma)


def test_signs_are_balanced():
    dico = make_dirac_hadamard(16, 16)
    batch = generate_batch(_model(dico, s=2, seed=5), 20000)
    signs = batch.truth.signs[batch.truth.signs != 0]
    assert abs(signs.mean()) < 3 / math.sqrt(signs.size)


def test_outliers_flagged_and_pure_noise(rng):
    dico = random_dictionary(8, 8, rng)
    batch = generate_batch(_model(dico, outliers=0.3, seed=2), 4000)
    frac = batch.truth.is_outlier.mean()
    assert 0.25 < frac < 0.35
    out = batch.signals[:, batch.truth.is_outlier]
    # pure Gaussian with per-component std 1/d, no normalization
    assert np.mean(out ** 2) == pytest.approx(1 / 64, rel=0.1)
    assert np.all(batch.truth.sparsity[batch.truth.is_outlier] == 0)


def test_same_seed_bit_identical_batch(rng):
    dico = random_dictionary(9, 12, rng)
    model = _model(dico, noise=0.05, outliers=0.05, seed=99)
    a = generate_batch(model, 500)
    b = generate_batch(model, 500)
    assert np.array_equal(a.signals, b.signals)
    assert np.array_equal(a.truth.support, b.truth.support)


def test_normalization_uses_realized_noise(rng):
    d = 6
    dico = Dictionary(np.eye(d))
    model = _model(dico, s=1, noise=0.2, seed=13)
    batch = generate_batch(model, 200)
    # every non-outlier signal norm is <= (1 + ||r||)/sqrt(1+||r||^2) <= sqrt(2)
    norms = np.linalg.norm(batch.signals, axis=0)
    assert np.all(norms <= math.sqrt(2) + 1e-9)


def reference_generate_batch(model, n, rng):
    """Dense reference draw: argsort of all K keys per signal, K x N temporaries.

    Same rng calls in the same order as generate_batch; the oracle for its
    chunked position search and in-place noise.
    """
    dico = model.dictionary
    d, k = dico.d, dico.K
    s_max = _model_sparsity(model.coeffs)
    c_rows, sparsities = _draw_coefficient_rows(model.coeffs, k, n, rng)
    positions = np.argsort(rng.random((n, k)), axis=1)[:, :s_max].astype(np.int32)
    signs = np.where(rng.random((n, s_max)) < 0.5, -1, 1).astype(np.int8)
    coeff_block = c_rows[:, :s_max]
    active = np.arange(s_max)[None, :] < sparsities[:, None]
    x = np.zeros((n, k), dtype=np.float64)
    np.put_along_axis(x, positions.astype(np.int64),
                      np.where(active, coeff_block * signs, 0.0), axis=1)
    clean = dico.atoms @ x.T
    if model.noise_std_per_component > 0:
        noise = model.noise_std_per_component * rng.standard_normal((d, n))
        scale = np.sqrt(1.0 + np.sum(noise * noise, axis=0))
        y = (clean + noise) / scale
    else:
        y = clean
    is_outlier = np.zeros(n, dtype=bool)
    if model.outlier_rate > 0:
        is_outlier = rng.random(n) < model.outlier_rate
        n_out = int(is_outlier.sum())
        if n_out:
            y = np.array(y)
            y[:, is_outlier] = model.outlier_std_per_component * rng.standard_normal((d, n_out))
    support = np.where(active, positions, -1).astype(np.int32)
    out_signs = np.where(active, signs, 0).astype(np.int8)
    out_coeffs = np.where(active, coeff_block, 0.0)
    sparsity = sparsities.astype(np.int32)
    support[is_outlier] = -1
    out_signs[is_outlier] = 0
    out_coeffs[is_outlier] = 0.0
    sparsity[is_outlier] = 0
    return {"signals": np.ascontiguousarray(y), "support": support,
            "signs": out_signs, "coeffs": out_coeffs, "sparsity": sparsity,
            "is_outlier": is_outlier}


ORACLE_COEFFS = {
    "geometric": GeometricCoefficients(0.8, 1.0, 5),
    "two_sparse": TwoSparseCoefficients(),
    "balanced": BalancedCoefficients(3),
    "mixture": CoefficientMixture(((0.25, GeometricCoefficients(0.9, 1.0, 4)),
                                   (0.5, BalancedCoefficients(6)),
                                   (0.25, TwoSparseCoefficients()))),
}


@pytest.mark.parametrize("n", [1, KEY_ROWS - 1, KEY_ROWS, 2 * KEY_ROWS + 5])
@pytest.mark.parametrize("noise,outliers", [(0.0, 0.0), (0.1, 0.0),
                                            (0.0, 0.2), (0.1, 0.2)])
@pytest.mark.parametrize("coeffs", sorted(ORACLE_COEFFS))
def test_generate_batch_bytes_match_dense_reference(coeffs, noise, outliers, n):
    dico = random_dictionary(12, 20, np.random.default_rng(3))
    model = SignalModel(dictionary=dico, coeffs=ORACLE_COEFFS[coeffs],
                        noise_std_per_component=noise, outlier_rate=outliers,
                        outlier_std_per_component=0.3, seed=21)
    batch = generate_batch(model, n, rng=rng_from_seed(21, n))
    want = reference_generate_batch(model, n, rng_from_seed(21, n))
    got = {"signals": batch.signals, "support": batch.truth.support,
           "signs": batch.truth.signs, "coeffs": batch.truth.coeffs,
           "sparsity": batch.truth.sparsity,
           "is_outlier": batch.truth.is_outlier}
    for name, ref in want.items():
        assert got[name].dtype == ref.dtype, name
        assert got[name].shape == ref.shape, name
        assert got[name].tobytes() == ref.tobytes(), name


# --- coefficient statistics of a batch ---------------------------------------
# l1 norm (gamma_1), squared l2 norm (gamma_2) and dynamic range c(1)/c(S)
# of every drawn coefficient sequence, read off the batch's ground truth.

def test_stats_balanced_sparse(rng):
    dico = random_dictionary(10, 12, rng)
    model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(4), seed=1)
    coeffs = generate_batch(model, 300).truth.coeffs
    assert np.allclose(coeffs.sum(axis=1), 2.0, rtol=0, atol=1e-12)   # sqrt(S)
    assert np.allclose((coeffs ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(coeffs[:, 0] / coeffs[:, -1], 1.0)


def test_stats_geometric_closed_form(rng):
    q, s = 0.9, 6
    dico = random_dictionary(12, 12, rng)
    model = SignalModel(dictionary=dico,
                        coeffs=GeometricCoefficients(q, q, s), seed=4)
    coeffs = generate_batch(model, 50).truth.coeffs
    z = math.sqrt(sum(q ** (2 * i) for i in range(s)))
    gamma1 = sum(q ** i for i in range(s)) / z
    assert np.allclose(coeffs.sum(axis=1), gamma1, rtol=0, atol=1e-10)
    assert np.allclose((coeffs ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-10)
    assert np.allclose(coeffs[:, 0] / coeffs[:, s - 1], q ** -(s - 1),
                       rtol=0, atol=1e-10)


# --- special dictionaries --------------------------------------------------

def test_dirac_hadamard_small_case():
    dico = make_dirac_hadamard(2, 3)
    assert np.allclose(dico.atoms[:, 2], [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_dirac_hadamard_matches_sylvester_recursion():
    d = 16
    h = hadamard_matrix(d)
    # oracle: explicit recursion H(2n) = [[H, H], [H, -H]]
    def sylvester(n):
        if n == 1:
            return np.array([[1.0]])
        half = sylvester(n // 2)
        return np.block([[half, half], [half, -half]])
    assert np.array_equal(h, sylvester(d))
    dico = make_dirac_hadamard(d, 2 * d)
    gram = dico.gram()
    assert np.allclose(np.abs(gram[:d, d:]), 1 / math.sqrt(d))


def test_dirac_hadamard_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        make_dirac_hadamard(12, 18)


def test_random_sphere_norms_and_coherence():
    rng = rng_from_seed(0)
    dico = make_random_sphere(128, 192, rng)
    assert np.allclose(np.linalg.norm(dico.atoms, axis=0), 1.0)
    # ensemble coherence at this size concentrates around 0.32-0.40
    assert 0.25 <= coherence(dico) <= 0.45
    off = dico.gram()[np.triu_indices(192, 1)]
    assert abs(off.mean()) <= 3 / math.sqrt(128 * off.size)


# --- spurious estimates and bad initializations -----------------------------

def test_spurious_estimate_structure():
    dico = Dictionary(np.eye(8))
    est = make_spurious_estimate(dico, [(0, 2, 1)])
    # partner slot holds the duplicate, lost slot the 1:1 combination
    assert np.allclose(est.atoms[:, 1], dico.atoms[:, 0])
    assert np.allclose(est.atoms[:, 2],
                       (dico.atoms[:, 1] + dico.atoms[:, 2]) / math.sqrt(2))
    assert recovery_rate(dico, est, 0.99) == pytest.approx(6 / 8)


def test_spurious_estimate_one_to_one_inner_product(rng):
    dico = random_dictionary(32, 48, rng)
    est = make_spurious_estimate(dico, [(0, 2, 1)])
    ip = abs(est.atoms[:, 2] @ dico.atoms[:, 1])
    theta = abs(dico.atoms[:, 1] @ dico.atoms[:, 2])
    assert ip == pytest.approx(math.sqrt((1 + theta) / 2), abs=1e-10)
    assert ip >= 1 / math.sqrt(2) - 1e-12


def test_spurious_estimate_rejects_overlap():
    dico = Dictionary(np.eye(9))
    with pytest.raises(ValueError):
        make_spurious_estimate(dico, [(0, 2, 1), (2, 4, 5)])


def test_bad_initialization_alpha_one_keeps_paired_atoms(rng):
    dico = random_dictionary(16, 16, rng)
    est = make_bad_initialization(dico, 1.0, 3, rng)
    for j in range(3):
        assert np.allclose(est.atoms[:, 2 * j], dico.atoms[:, j], atol=1e-10)
        assert np.allclose(est.atoms[:, 2 * j + 1], dico.atoms[:, j], atol=1e-10)


def test_bad_initialization_pair_incoherence_at_sqrt_half():
    rng = rng_from_seed(21)
    dico = Dictionary(np.eye(32))
    est = make_bad_initialization(dico, 1 / math.sqrt(2), 8, rng)
    for j in range(8):
        ip = abs(est.atoms[:, 2 * j] @ est.atoms[:, 2 * j + 1])
        assert ip <= 0.1


def test_bad_initialization_pair_distance(rng):
    alpha = 0.8
    dico = random_dictionary(24, 24, rng)
    est = make_bad_initialization(dico, alpha, 4, rng)
    for j in range(4):
        for slot in (2 * j, 2 * j + 1):
            ip = abs(est.atoms[:, slot] @ dico.atoms[:, j])
            assert math.sqrt(2 - 2 * ip) == pytest.approx(
                math.sqrt(2 - 2 * alpha), abs=1e-9)


def test_bad_initialization_duplicate_atoms_raise(rng):
    # every signed sum of the other atom lies along atom 0, so each redraw is
    # degenerate; the redraws stop with a ValueError
    atom = rng.standard_normal(4)
    atom /= np.linalg.norm(atom)
    dico = Dictionary(np.column_stack([atom, atom]))
    with pytest.raises(ValueError, match="draws"):
        make_bad_initialization(dico, 0.9, 1, rng)


def test_bad_initialization_rejects_too_many_pairs(rng):
    dico = random_dictionary(8, 8, rng)
    with pytest.raises(ValueError):
        make_bad_initialization(dico, 0.9, 5, rng)


def test_bad_initialization_coherence_scale():
    # at alpha = 1/sqrt(2) on the 32x48 Dirac-Hadamard setup the ensemble
    # coherence lands around 0.5-0.65 (the reported instance was 0.52)
    dico = make_dirac_hadamard(32, 48)
    est = make_bad_initialization(dico, 1 / math.sqrt(2), 12, rng_from_seed(2))
    assert 0.4 <= coherence(est) <= 0.75
