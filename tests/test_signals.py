import hashlib
import math
import threading
import time
import tracemalloc
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest

from itkrm import signals
from itkrm.linalg import Dictionary, Support, coherence, project_onto_span, recovery_rate
from itkrm.signals import (KEY_ROWS, PRODUCT_COLS, BalancedCoefficients,
                           CoefficientMixture, GeometricCoefficients, SignalModel,
                           TwoSparseCoefficients, _draw_coefficient_rows,
                           _skipped, generate_batch, hadamard_matrix,
                           make_dirac_hadamard, make_random_sphere,
                           make_spurious_estimate, noise_std_for_snr,
                           perturbed_dictionary, rng_from_seed)

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
    s_max = model.coeffs.sparsity
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
        # einsum, as the draw: for a single column np.sum reduces the d
        # squares pairwise instead of in turn, and the last bits may differ
        scale = np.sqrt(1.0 + np.einsum("ij,ij->j", noise, noise))
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


# Wide supports, S_max up to 64: generate_batch draws coefficient rows
# 8 * ceil(S_max / 8) wide, the reference K wide, and K = 136 and 192 take
# numpy's recursive pairwise sum (above 128 entries) at width K.
WIDE_COEFFS = {
    "paper": GeometricCoefficients(0.9, 1.0, 6),
    "geometric_9": GeometricCoefficients(0.8, 1.0, 9),
    "geometric_64": GeometricCoefficients(0.95, 1.0, 64),
    "mixture_wide": CoefficientMixture(((0.25, GeometricCoefficients(0.97, 1.0, 57)),
                                        (0.5, BalancedCoefficients(17)),
                                        (0.25, TwoSparseCoefficients()))),
}


def _dense_reference_cases():
    """(d, K, coeffs, noise, outliers, n); the wide geometries' ids start
    with d x K."""
    for noise, outliers in ((0.0, 0.0), (0.1, 0.0), (0.0, 0.2), (0.1, 0.2)):
        for n in (1, KEY_ROWS - 1, KEY_ROWS, 2 * KEY_ROWS + 5,
                  2 * PRODUCT_COLS + 5, 3 * PRODUCT_COLS - 1):
            for c in sorted(ORACLE_COEFFS):
                yield pytest.param(12, 20, c, noise, outliers, n,
                                   id=f"{c}-{noise}-{outliers}-{n}")
        for d, k in ((64, 136), (128, 192)):
            for n in (1, KEY_ROWS + 3, PRODUCT_COLS + 5):
                for c in sorted(WIDE_COEFFS):
                    yield pytest.param(d, k, c, noise, outliers, n,
                                       id=f"{d}x{k}-{c}-{noise}-{outliers}-{n}")


@pytest.mark.parametrize("d,k,coeffs,noise,outliers,n", _dense_reference_cases())
def test_generate_batch_bytes_match_dense_reference(d, k, coeffs, noise, outliers, n):
    dico = random_dictionary(d, k, np.random.default_rng(3))
    model = SignalModel(dictionary=dico, coeffs={**ORACLE_COEFFS, **WIDE_COEFFS}[coeffs],
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


@pytest.mark.parametrize("s", [1, 6, 8, 9, 33, 57, 64, 65, 72, 100])
def test_coefficient_rows_keep_the_bytes_of_width_k(s):
    # generate_batch draws the rows narrower than K where numpy's summation
    # order allows (see there); its truth must still be the first columns of
    # rows drawn K wide
    for k in range(max(s, 8), 301):
        model = SignalModel(dictionary=random_dictionary(s, k, np.random.default_rng(k)),
                            coeffs=GeometricCoefficients(0.9, 1.0, s), seed=k)
        got = generate_batch(model, 32).truth.coeffs
        want, _ = _draw_coefficient_rows(model.coeffs, k, 32, rng_from_seed(k))
        assert got.tobytes() == want[:, :s].tobytes(), k


@pytest.mark.parametrize("n", [2 * PRODUCT_COLS + 5, 3 * PRODUCT_COLS - 1])
def test_clean_product_chunks_keep_whole_product_bytes(n):
    # at this geometry a product of a few columns, or one starting off an
    # 8-column boundary, took other BLAS kernels than the whole product and
    # changed the last bits; the chunks of generate_batch must not
    dico = make_random_sphere(64, 96, rng_from_seed(8, 1))
    model = SignalModel(dictionary=dico, coeffs=GeometricCoefficients(0.9, 1.0, 6), seed=8)
    batch = generate_batch(model, n)
    t = batch.truth
    x = np.zeros((n, dico.K))
    np.put_along_axis(x, t.support.astype(np.int64), t.signs * t.coeffs, axis=1)
    assert batch.signals.tobytes() == (dico.atoms @ x.T).tobytes()


def test_generate_batch_peak_below_half_a_dense_coefficient_matrix():
    # the coefficient rows are S_max wide (rounded up to 8), and the keys
    # and the clean product go one block at a time, so no (n, K) array is
    # ever formed
    n, d, k = 60000, 16, 192
    model = SignalModel(dictionary=make_random_sphere(d, k, rng_from_seed(9, 1)),
                        coeffs=GeometricCoefficients(0.9, 1.0, 6),
                        noise_std_per_component=noise_std_for_snr(16.0, d),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / d, seed=9)
    tracemalloc.start()
    try:
        generate_batch(model, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8 / 2


def test_same_seed_bit_identical_batch_pinned():
    # sha256 of the ground truth of a noisy, outlier-bearing batch of two
    # product chunks, and of the next 4 raw words of its generator (the
    # literal was computed before the draw was split across threads).  These
    # bytes pass through no BLAS call, and this coefficient model takes no
    # power (np.power's SIMD loop and libm's pow differ in the last bit), so
    # the literal holds for any BLAS build and thread count.
    model = SignalModel(dictionary=make_random_sphere(12, 20, rng_from_seed(5, 1)),
                        coeffs=TwoSparseCoefficients(), noise_std_per_component=0.1,
                        outlier_rate=0.2, outlier_std_per_component=0.3, seed=21)
    rng = rng_from_seed(21, 1)
    t = generate_batch(model, 2 * PRODUCT_COLS + 5, rng=rng).truth
    h = hashlib.sha256()
    for a in (t.support, t.signs, t.coeffs, t.sparsity, t.is_outlier,
              rng.bit_generator.random_raw(4)):
        h.update(a.tobytes())
    assert h.hexdigest() == \
        "a9fab93d6d9e2bf9b0377b972867c1ce0c88e96767ac07f964826673bf425c53"


# --- the draw split across two threads ----------------------------------------

def _state(bitgen):
    st = bitgen.state
    return (st["state"]["counter"].tobytes(), st["state"]["key"].tobytes(),
            st["buffer"].tobytes(), st["buffer_pos"], st["has_uint32"], st["uinteger"])


@pytest.mark.parametrize("half_word", [False, True])
@pytest.mark.parametrize("words", range(10))
@pytest.mark.parametrize("buffer_pos", range(5))
def test_skip_ahead_gives_the_serial_stream(buffer_pos, words, half_word):
    serial = np.random.Philox(7)
    serial.random_raw(4)          # buffer filled and used up
    serial.state = {**serial.state, "buffer_pos": buffer_pos,
                    "has_uint32": int(half_word), "uinteger": 12345 if half_word else 0}
    skipped = _skipped(serial, words)
    serial.random_raw(words)
    assert skipped.random_raw(9).tobytes() == serial.random_raw(9).tobytes()
    assert _state(skipped) == _state(serial)


class EagerHelper(Executor):
    """Runs each job to its end on a thread of its own before ``submit``
    returns, so a job handed to it never runs on the caller."""

    def submit(self, fn, *args, **kwargs):
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn, *args, **kwargs)


class RecordingPool(ThreadPoolExecutor):
    """A single-worker pool that keeps every future it hands out."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def tail_threads(monkeypatch):
    """The thread of each ``_draw_tail`` call, in call order."""
    threads = []
    real = signals._draw_tail

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)
    monkeypatch.setattr(signals, "_draw_tail", recording)
    return threads


def _batch_bytes(model, n, helper=None):
    rng = rng_from_seed(model.seed, n)
    batch = generate_batch(model, n, rng=rng, helper=helper)
    t = batch.truth
    return [a.tobytes() for a in (batch.signals, t.support, t.signs, t.coeffs,
                                  t.sparsity, t.is_outlier)] + [_state(rng.bit_generator)]


@pytest.mark.parametrize("n", [1, 3 * KEY_ROWS + 7, 2 * PRODUCT_COLS + 5])
@pytest.mark.parametrize("noise,outliers", [(0.0, 0.0), (0.1, 0.0),
                                            (0.0, 0.2), (0.1, 0.2)])
def test_split_draw_same_bytes_with_and_without_helper(noise, outliers, n, tail_threads):
    main = threading.current_thread()
    model = SignalModel(dictionary=random_dictionary(12, 20, np.random.default_rng(3)),
                        coeffs=ORACLE_COEFFS["mixture"], noise_std_per_component=noise,
                        outlier_rate=outliers, outlier_std_per_component=0.3, seed=5)
    want = _batch_bytes(model, n)
    assert tail_threads == [main]
    tail_threads.clear()
    assert _batch_bytes(model, n, EagerHelper()) == want
    # a model without noise and outliers has nothing to hand over
    assert len(tail_threads) == 1
    assert (tail_threads[0] is main) == (noise == outliers == 0)
    with ThreadPoolExecutor(max_workers=1) as idle:
        assert _batch_bytes(model, n, idle) == want
    with ThreadPoolExecutor(max_workers=1) as blocked:
        release = threading.Event()
        blocked.submit(release.wait, 60)
        tail_threads.clear()
        try:
            assert _batch_bytes(model, n, blocked) == want
        finally:
            release.set()
    # the helper was busy, so the tail ran here
    assert tail_threads == [main]


def test_split_draw_error_reaches_caller(monkeypatch):
    error = RuntimeError("tail failed")

    def failing(*args, **kwargs):
        time.sleep(0.05)
        raise error
    monkeypatch.setattr(signals, "_draw_tail", failing)
    model = _model(random_dictionary(8, 10, np.random.default_rng(1)), noise=0.1)
    with RecordingPool() as helper:
        with pytest.raises(RuntimeError) as info:
            generate_batch(model, 300, rng=rng_from_seed(1), helper=helper)
        assert info.value is error
        assert len(helper.futures) == 1 and helper.futures[0].done()


def test_generate_batch_needs_philox():
    assert isinstance(rng_from_seed(1).bit_generator, np.random.Philox)
    model = _model(random_dictionary(8, 10, np.random.default_rng(1)))
    for rng in (np.random.default_rng(1), np.random.Generator(np.random.MT19937(1)),
                np.random.RandomState(1)):
        with pytest.raises(TypeError, match="Philox"):
            generate_batch(model, 10, rng=rng)


@pytest.mark.parametrize("field", ["noise_std_per_component", "outlier_std_per_component"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_signal_model_rejects_bad_noise_level(field, value):
    dico = random_dictionary(8, 10, np.random.default_rng(1))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SignalModel(dictionary=dico, coeffs=BalancedCoefficients(2), **{field: value})


@pytest.mark.parametrize("d,k", [(3, 10), (10, 3)])
def test_signal_model_rejects_sparsity_above_min_d_k(d, k):
    dico = random_dictionary(d, k, np.random.default_rng(1))
    with pytest.raises(ValueError, match=r"exceeds min\(d, K\)"):
        SignalModel(dictionary=dico, coeffs=GeometricCoefficients(0.9, 1.0, 4))
    SignalModel(dictionary=dico, coeffs=GeometricCoefficients(0.9, 1.0, 3))


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


@pytest.mark.parametrize("triple", [(0, 2, 9), (10, 2, 1), (-1, 2, 1), (0, -9, 1)])
def test_spurious_estimate_rejects_index_outside_dictionary(triple):
    # too large an index would fail on the array, a negative one would wrap
    dico = Dictionary(np.eye(9))
    with pytest.raises(ValueError, match=r"\[0, 9\)"):
        make_spurious_estimate(dico, [triple])


def test_spurious_estimate_rejects_no_triple():
    # without a triple the "spurious" estimate is the generating dictionary
    with pytest.raises(ValueError, match="at least one triple"):
        make_spurious_estimate(Dictionary(np.eye(9)), [])


def test_perturbed_dictionary_rejects_single_dimension():
    # at d = 1 no direction is orthogonal to an atom
    with pytest.raises(ValueError, match="d >= 2"):
        perturbed_dictionary(Dictionary(np.ones((1, 3))), 0.1, rng_from_seed(1))
