import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from itkrm import engine
from itkrm.adaptive import AdaptiveConfig, run_adaptive
from itkrm.candidates import ReplacementPolicy, draw_candidates
from itkrm.engine import (EngineConfig, FixedCorpus, FreshBatches,
                          round_half_up, run_iteration, run_learning,
                          threshold_support, top_s_indices)
from itkrm.linalg import Dictionary, Support, asym_distance
from itkrm.signals import (BalancedCoefficients, GeometricCoefficients,
                           SignalBatch, SignalModel, TwoSparseCoefficients,
                           generate_batch, make_dirac_hadamard,
                           make_random_sphere, noise_std_for_snr,
                           rng_from_seed)

from conftest import random_dictionary
from per_signal_reference import (StreamCandidates, candidate_signal_update,
                                  oracle_residual, signal_update)


def test_round_half_up():
    assert round_half_up(5.7) == 6
    assert round_half_up(2.5) == 3
    assert round_half_up(0.49) == 0


# --- thresholding ----------------------------------------------------------

def test_threshold_support_orthonormal_simple(rng):
    dico = Dictionary(np.eye(6))
    y = dico.atoms[:, 0] + 0.5 * dico.atoms[:, 1]
    assert threshold_support(dico, y, 2).indices.tolist() == [0, 1]


def test_threshold_support_matches_exhaustive_search(rng):
    # oracle: argmax over all size-S supports of || sub_gram_ip ||_1
    d, k, s = 8, 10, 3
    dico = random_dictionary(d, k, rng)
    for _ in range(200):
        y = rng.standard_normal(d)
        got = set(threshold_support(dico, y, s).indices.tolist())
        best, best_val = None, -1.0
        for sup in itertools.combinations(range(k), s):
            val = np.abs(dico.atoms[:, sup].T @ y).sum()
            if val > best_val + 1e-14:
                best, best_val = set(sup), val
        assert got == best


def test_threshold_support_recovers_exact_sparse_support():
    # S*mu < 1/2 guarantees thresholding succeeds with the generating dictionary
    dico = make_dirac_hadamard(32, 48)
    rng = rng_from_seed(8)
    model = SignalModel(dictionary=dico, coeffs=TwoSparseCoefficients(), seed=8)
    batch = generate_batch(model, 100)
    for n in range(batch.n):
        truth = set(batch.truth.support[n, :2].tolist())
        got = set(threshold_support(dico, batch.signals[:, n], 2).indices.tolist())
        assert got == truth


def test_threshold_support_scale_invariant(rng):
    dico = random_dictionary(9, 14, rng)
    y = rng.standard_normal(9)
    a = threshold_support(dico, y, 4).indices
    b = threshold_support(dico, 7.3 * y, 4).indices
    assert np.array_equal(a, b)


def test_threshold_ties_go_to_lowest_index():
    dico = Dictionary(np.eye(5))
    y = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    assert threshold_support(dico, y, 2).indices.tolist() == [0, 1]
    # zero signal: every inner product ties at zero
    assert threshold_support(dico, np.zeros(5), 3).indices.tolist() == [0, 1, 2]


def test_top_s_indices_full_selection():
    vals = np.abs(np.random.default_rng(0).standard_normal((4, 6)))
    idx = top_s_indices(vals, 4)
    assert np.array_equal(idx, np.tile(np.arange(4)[:, None], (1, 6)))


def _top_s_oracle(a, s):
    return np.sort(np.argsort(-a, axis=0, kind="stable")[:s], axis=0)


@st.composite
def _tied_columns(draw):
    """(K, N) arrays of a small value set with random signs, some columns
    zero."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (k, n),
                    elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])))
    a[draw(arrays(np.bool_, (k, n)))] *= -1.0
    zero = draw(arrays(np.bool_, (n,)))
    a[:, zero] = 0.0
    s = draw(st.sampled_from(sorted({1, max(1, k - 1), k,
                                     draw(st.integers(1, k))})))
    return a, s


@settings(max_examples=150, deadline=None)
@given(_tied_columns())
@example((np.zeros((5, 1)), 1))
@example((np.zeros((5, 3)), 4))
@example((np.array([[1.0], [2.0], [2.0], [0.0]]), 3))
@example((np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), 3))
def test_top_s_indices_matches_stable_sort_oracle(case):
    a, s = case
    before = a.copy()
    got = top_s_indices(a, s)
    assert got.dtype == np.int64
    assert np.array_equal(got, _top_s_oracle(np.abs(a), s))
    assert np.array_equal(a, before)       # the input is not modified


# --- per-signal reference ---------------------------------------------------

def _cfg(s, variant="plain", m_obs=None):
    return EngineConfig(sparsity=s, variant=variant, min_observations=m_obs)


def test_signal_update_zero_residual_reinforces_atoms(rng):
    dico = Dictionary(np.eye(10))
    sup = np.array([1, 5, 8])
    y = dico.atoms[:, sup] @ np.array([1.0, -0.8, 0.5])
    contrib = signal_update(dico, y, _cfg(3), batch_size=1)
    assert contrib.selected.indices.tolist() == [1, 5, 8]
    assert np.linalg.norm(contrib.residual) <= 1e-10
    for row, k in enumerate(contrib.selected.indices):
        ip = dico.atoms[:, k] @ y
        assert np.allclose(contrib.atom_increments[row], abs(ip) * dico.atoms[:, k],
                           atol=1e-9)


def test_signal_update_balanced_orthonormal_counts_sparsity():
    d, s = 16, 4
    dico = Dictionary(np.eye(d))
    rng = rng_from_seed(3)
    model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(s), seed=3)
    batch = generate_batch(model, 50)
    cfg = EngineConfig(sparsity=s, variant="adaptive", min_observations=4)
    for n in range(batch.n):
        contrib = signal_update(dico, batch.signals[:, n], cfg, batch_size=50)
        assert contrib.sparsity_hits == s
        assert contrib.score_hits.all()


def test_signal_update_pure_noise_residual_hits_below_half():
    # with the generating dictionary and pure-noise signals, the expected
    # number of residual inner products above theta stays below 1/2
    d, k, n = 64, 64, 10000
    dico = Dictionary(np.eye(d))
    rng = rng_from_seed(17)
    noise = rng.standard_normal((d, n))
    cfg = EngineConfig(sparsity=4, variant="adaptive", min_observations=d)
    theta_hits = []
    atoms = dico.atoms
    for i in range(n):
        y = noise[:, i]
        contrib = signal_update(dico, y, cfg, batch_size=n)
        resid = contrib.residual
        theta = (2 * math.log(4 * k) * (resid @ resid)
                 + (y - resid) @ (y - resid)) / d
        hits = np.count_nonzero((atoms.T @ resid) ** 2 >= theta)
        theta_hits.append(hits)
    assert np.mean(theta_hits) < 0.5


def test_signal_update_sign_invariance(rng):
    dico = random_dictionary(8, 10, rng)
    y = rng.standard_normal(8)
    flipped_atoms = dico.atoms.copy()
    flipped_atoms[:, 3] *= -1
    flipped = Dictionary(flipped_atoms)
    a = signal_update(dico, y, _cfg(3), batch_size=1)
    b = signal_update(flipped, y, _cfg(3), batch_size=1)
    assert np.array_equal(a.selected.indices, b.selected.indices)
    assert np.allclose(np.abs(a.coeffs), np.abs(b.coeffs), atol=1e-10)
    assert np.allclose(a.residual, b.residual, atol=1e-10)
    assert np.allclose(a.atom_increments, b.atom_increments, atol=1e-10)


# --- full iteration --------------------------------------------------------

def _small_batch(rng, d=12, k=16, s=3, n=150, noise_snr=16.0, seed=5):
    dico = random_dictionary(d, k, rng)
    model = SignalModel(dictionary=dico,
                        coeffs=GeometricCoefficients(0.9, 1.0, s),
                        noise_std_per_component=noise_std_for_snr(noise_snr, d),
                        seed=seed)
    return dico, generate_batch(model, n)


def _estimate_with_pair(rng, eps):
    """Random 12 x 16 estimate whose atom 5 is atom 4 plus eps noise."""
    atoms = random_dictionary(12, 16, rng).atoms
    atoms[:, 5] = atoms[:, 4] + eps * rng.standard_normal(12)
    return Dictionary.from_columns(atoms, normalize=True)


# noise of the near-duplicate atom; at 4e-6 and 1e-5 the pair's Cholesky
# pivot lies above EIG_TRUNCATION but below engine.EIGH_PIVOT_MARGIN
NEAR_DUPLICATE_EPS = {"near_duplicate_pair": 1e-6, "near_duplicate_pair_4e-6": 4e-6,
                      "near_duplicate_pair_1e-5": 1e-5}


# batches of N <= m = 3 signals
TINY_BATCHES = {"one_signal": 1, "tiny_batch": 2, "n_equals_m": 3}


def _reference_inputs(rng, case):
    """(estimate, batch) of one input of the per-signal reference test."""
    if case in TINY_BATCHES:
        dico, batch = _small_batch(rng, n=TINY_BATCHES[case])
        return random_dictionary(12, 16, rng), batch
    dico, batch = _small_batch(rng)
    if case == "duplicate_pair":
        return _estimate_with_pair(rng, 0.0), batch
    if case in NEAR_DUPLICATE_EPS:
        return _estimate_with_pair(rng, NEAR_DUPLICATE_EPS[case]), batch
    return random_dictionary(12, 16, rng), batch


@pytest.mark.parametrize("variant,case", [
    pytest.param(variant, case, id=variant if case == "random" else f"{variant}-{case}")
    for case in ("random", "duplicate_pair", *NEAR_DUPLICATE_EPS, *TINY_BATCHES)
    for variant in ("plain", "replacement", "adaptive")])
def test_run_iteration_matches_per_signal_reference(rng, variant, case):
    est, batch = _reference_inputs(rng, case)
    cfg = EngineConfig(sparsity=3, variant=variant, min_observations=10,
                       candidate_subbatches=3)
    cands = draw_candidates(12, 2, rng_from_seed(1)) if variant != "plain" else None
    out = run_iteration(est, batch, cfg, candidates=cands,
                        rng=rng_from_seed(2) if cands else None)

    # reference path: accumulate per-signal contributions
    k = est.K
    raw = np.zeros((12, k))
    scores = np.zeros(k, dtype=np.int64)
    sbar = 0
    cands2 = None
    if variant != "plain":
        cands2 = StreamCandidates(draw_candidates(12, 2, rng_from_seed(1)).atoms,
                                  subbatch_size=max(1, batch.n // 3))
    redraw_rng = rng_from_seed(2)
    for n in range(batch.n):
        y = batch.signals[:, n]
        contrib = signal_update(est, y, cfg, batch_size=batch.n)
        for row, idx in enumerate(contrib.selected.indices):
            raw[:, idx] += contrib.atom_increments[row]
            scores[idx] += int(contrib.score_hits[row])
        sbar += contrib.sparsity_hits
        if cands2 is not None:
            candidate_signal_update(
                cands2, contrib.residual,
                "adaptive" if variant == "adaptive" else "replacement",
                dictionary_size=k, training_subbatches=3, rng=redraw_rng,
                zero_tol=1e-10 * np.linalg.norm(y))
    norms = np.linalg.norm(raw, axis=0)
    assert np.allclose(out.raw_norms, norms, rtol=1e-9, atol=1e-12)
    alive = norms >= 1e-3
    assert np.allclose(out.new_dictionary.atoms[:, alive],
                       raw[:, alive] / norms[alive], rtol=1e-9, atol=1e-9)
    expected_scores = scores.copy()
    expected_scores[~alive] = 0
    assert np.array_equal(out.atom_scores, expected_scores)
    if variant == "adaptive":
        assert out.sparsity_accumulator == sbar
    if cands2 is not None:
        assert np.allclose(cands.atoms, cands2.atoms, atol=1e-9)
        assert np.array_equal(cands.scores, cands2.scores)


def test_eigh_fallback_gets_only_degenerate_columns(rng, monkeypatch):
    # the sub-Grams run_iteration hands to the truncated-eigh solver
    solve = engine.solve_normal_equations
    handed = []

    def counting_solve(gram, rhs):
        handed.append(gram)
        return solve(gram, rhs)

    monkeypatch.setattr(engine, "solve_normal_equations", counting_solve)
    cfg = EngineConfig(sparsity=3, variant="adaptive", min_observations=10,
                       candidate_subbatches=3)
    _, batch = _small_batch(rng)
    run_iteration(random_dictionary(12, 16, rng), batch, cfg)
    assert handed == []

    est = _estimate_with_pair(rng, 0.0)
    run_iteration(est, batch, cfg)
    sel = top_s_indices(est.atoms.T @ batch.signals, 3)
    both = int(np.count_nonzero((sel == 4).any(axis=0) & (sel == 5).any(axis=0)))
    assert both > 0
    assert sum(g.shape[0] for g in handed) == both
    for gram in handed:
        assert np.all(np.isclose(gram, 1.0).sum(axis=(1, 2)) == 5)


def test_run_iteration_dead_atom_keeps_direction(rng):
    # an atom orthogonal to every signal is never selected: frozen, score 0
    d = 6
    atoms = np.eye(d)
    dico = Dictionary(atoms)
    signals = atoms[:, :3] @ rng.standard_normal((3, 80))
    from itkrm.signals import SignalBatch
    batch = SignalBatch(signals=signals)
    out = run_iteration(dico, batch, EngineConfig(sparsity=3, variant="plain"))
    assert np.allclose(out.new_dictionary.atoms[:, 5], atoms[:, 5])
    assert out.raw_norms[5] < 1e-3
    assert out.atom_scores[5] == 0


def test_run_iteration_deterministic(rng):
    dico, batch = _small_batch(rng)
    est = random_dictionary(12, 16, rng)
    cfg = EngineConfig(sparsity=3)
    a = run_iteration(est, batch, cfg)
    b = run_iteration(est, batch, cfg)
    assert np.array_equal(a.new_dictionary.atoms, b.new_dictionary.atoms)
    assert np.array_equal(a.atom_scores, b.atom_scores)


# --- selections on the helper thread -------------------------------------

class EagerHelper(Executor):
    """Runs each job to its end on a thread of its own before ``submit``
    returns, so every selection but the first comes from another thread."""

    def submit(self, fn, *args, **kwargs):
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn, *args, **kwargs)


def _iteration_bytes(variant, helper=None):
    """Every output of one iteration over four sub-batches, as bytes."""
    rng = np.random.default_rng(21)
    _, batch = _small_batch(rng, n=400)
    est = random_dictionary(12, 16, rng)
    cfg = EngineConfig(sparsity=3, variant=variant, min_observations=10,
                       candidate_subbatches=4)
    cands = draw_candidates(12, 3, rng_from_seed(1)) if variant != "plain" else None
    out = run_iteration(est, batch, cfg, candidates=cands,
                        rng=rng_from_seed(2) if cands else None, helper=helper)
    got = [out.new_dictionary.atoms.tobytes(), out.raw_norms.tobytes(),
           out.atom_scores.tobytes(), out.sparsity_accumulator, out.s_t_accumulator]
    if cands is not None:
        got += [cands.atoms.tobytes(), cands.scores.tobytes()]
    return got


@pytest.fixture
def selecting_threads(monkeypatch):
    """The thread of each ``top_s_indices`` call, in call order."""
    threads = []
    real = engine.top_s_indices

    def recording(*args, **kwargs):
        threads.append(threading.current_thread())
        return real(*args, **kwargs)
    monkeypatch.setattr(engine, "top_s_indices", recording)
    return threads


@pytest.mark.parametrize("variant", ["plain", "replacement", "adaptive"])
def test_run_iteration_same_bytes_whoever_selects(variant, selecting_threads):
    main = threading.current_thread()
    want = _iteration_bytes(variant)
    with ThreadPoolExecutor(max_workers=1) as idle:
        assert _iteration_bytes(variant, idle) == want
    selecting_threads.clear()
    assert _iteration_bytes(variant, EagerHelper()) == want
    assert len(selecting_threads) == 4 and selecting_threads[0] is main
    assert all(t is not main for t in selecting_threads[1:])
    selecting_threads.clear()
    with ThreadPoolExecutor(max_workers=1) as blocked:
        release = threading.Event()
        blocked.submit(release.wait, 60)
        try:
            assert _iteration_bytes(variant, blocked) == want
        finally:
            release.set()
    assert selecting_threads == [main] * 4


def test_concurrent_iterations_keep_their_bytes():
    # more runs than cores, each with its own helper, and thread switches
    # forced often: a buffer shared between calls, or a selection read
    # before it ended, would change some run's bytes
    want = _iteration_bytes("adaptive")
    got = [None] * 4

    def run(i):
        got[i] = _iteration_bytes("adaptive")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [want] * 4


@pytest.mark.parametrize("helper", [None, "run"])
def test_selection_error_reaches_caller(helper, monkeypatch):
    real = engine.top_s_indices
    calls = []
    error = RuntimeError("selection failed")

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return real(*args, **kwargs)
    monkeypatch.setattr(engine, "top_s_indices", failing)
    rng = np.random.default_rng(22)
    _, batch = _small_batch(rng, n=400)
    cfg = EngineConfig(sparsity=3, candidate_subbatches=4)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        if helper is None:
            run_iteration(random_dictionary(12, 16, rng), batch, cfg)
        else:
            run_learning(random_dictionary(12, 16, rng), FixedCorpus(batch), cfg, 2)
    assert info.value is error
    assert threading.active_count() == before


def test_run_iteration_near_fixed_point_noiseless():
    # generating dictionary is a near fixed point on exact-sparse data
    dico = make_dirac_hadamard(32, 48)
    model = SignalModel(dictionary=dico, coeffs=TwoSparseCoefficients(), seed=31)
    batch = generate_batch(model, 20000)
    out = run_iteration(dico, batch, EngineConfig(sparsity=2))
    dist, _ = asym_distance(dico, out.new_dictionary)
    assert dist < 0.02


def test_run_iteration_sign_invariance(rng):
    dico, batch = _small_batch(rng)
    est = random_dictionary(12, 16, rng)
    flipped_atoms = est.atoms.copy()
    flipped_atoms[:, 7] *= -1.0
    a = run_iteration(est, batch, EngineConfig(sparsity=3))
    b = run_iteration(Dictionary(flipped_atoms), batch, EngineConfig(sparsity=3))
    assert np.allclose(np.abs(a.new_dictionary.atoms), np.abs(b.new_dictionary.atoms),
                       atol=1e-9)
    assert np.array_equal(a.atom_scores, b.atom_scores)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(4, 12),
       extra=st.integers(0, 8), s=st.integers(1, 3), n=st.integers(1, 160),
       variant=st.sampled_from(["plain", "replacement", "adaptive"]),
       with_candidates=st.booleans())
def test_run_iteration_equivariant_under_permutation_and_sign_flips(
        seed, d, extra, s, n, variant, with_candidates):
    # permuting and flipping the input atoms permutes and flips the output
    # atoms and permutes their scores; the residuals, and so the candidates
    # and the sparsity count, stay the same
    rng = rng_from_seed(seed)
    k = d + extra
    est = random_dictionary(d, k, rng)
    batch = SignalBatch(signals=rng.standard_normal((d, n)))
    perm = rng.permutation(k)
    flips = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    moved = Dictionary(est.atoms[:, perm] * flips)
    cfg = EngineConfig(sparsity=s, variant=variant, min_observations=10,
                       candidate_subbatches=3)

    def iterate(dico):
        cands = draw_candidates(d, 2, rng_from_seed(seed, 1)) if with_candidates else None
        out = run_iteration(dico, batch, cfg, candidates=cands,
                            rng=rng_from_seed(seed, 2))
        return out, cands

    (a, a_cands), (b, b_cands) = iterate(est), iterate(moved)
    assert np.allclose(b.new_dictionary.atoms, a.new_dictionary.atoms[:, perm] * flips,
                       rtol=0, atol=1e-9)
    assert np.allclose(b.raw_norms, a.raw_norms[perm], rtol=0, atol=1e-9)
    assert np.array_equal(b.atom_scores, a.atom_scores[perm])
    assert b.sparsity_accumulator == a.sparsity_accumulator
    live = a.raw_norms >= engine.DEAD_ATOM_FLOOR
    assert np.allclose(np.linalg.norm(a.new_dictionary.atoms[:, live], axis=0), 1.0,
                       rtol=0, atol=1e-12)
    if with_candidates:
        assert np.allclose(b_cands.atoms, a_cands.atoms, rtol=0, atol=1e-9)
        assert np.array_equal(b_cands.scores, a_cands.scores)


# --- oracle residual ---------------------------------------------------------

def test_oracle_residual_noiseless_identity(rng):
    dico = random_dictionary(9, 12, rng)
    sup = Support(np.array([2, 6, 10]))
    signs = np.array([1.0, -1.0, 1.0])
    coeffs = np.array([0.9, 0.5, 0.4])
    y = dico.atoms[:, sup.indices] @ (signs * coeffs)
    got = oracle_residual(dico, y, sup, signs, 6)
    atom = dico.atoms[:, 6]
    expected = (atom @ y) * atom * signs[1]
    assert np.allclose(got, expected, atol=1e-9)


def test_oracle_residual_matches_thresholding_path(rng):
    # when thresholding recovers the generating support and signs, the oracle
    # residual equals the thresholding update direction of run_iteration
    dico = make_dirac_hadamard(16, 24)
    model = SignalModel(dictionary=dico, coeffs=TwoSparseCoefficients(), seed=9)
    batch = generate_batch(model, 40)
    checked = 0
    for n in range(batch.n):
        y = batch.signals[:, n]
        out = run_iteration(dico, SignalBatch(signals=y[:, None]), _cfg(2))
        selected = top_s_indices(dico.atoms.T @ y[:, None], 2)[:, 0]
        truth_sup = np.sort(batch.truth.support[n, :2])
        if not np.array_equal(selected, truth_sup):
            continue
        # one signal: the raw update of a selected atom is its increment
        increments = out.raw_norms * out.new_dictionary.atoms
        for k in selected:
            where = np.nonzero(batch.truth.support[n] == k)[0][0]
            sigma = float(batch.truth.signs[n, where])
            sup = Support(batch.truth.support[n, :2])
            oracle = oracle_residual(dico, y, sup,
                                     batch.truth.signs[n, np.argsort(batch.truth.support[n, :2])].astype(float),
                                     int(k))
            ip_sign = 1.0 if dico.atoms[:, k] @ y >= 0 else -1.0
            if ip_sign == sigma:
                assert np.allclose(oracle, increments[:, k], atol=1e-9)
                checked += 1
    assert checked > 0


def test_oracle_residual_mean_aligns_with_atom(rng):
    dico = random_dictionary(16, 20, rng)
    model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(3), seed=23)
    batch = generate_batch(model, 4000)
    k = 4
    acc = np.zeros(16)
    used = 0
    for n in range(batch.n):
        sup = batch.truth.support[n, :3]
        if k not in sup:
            continue
        signs = batch.truth.signs[n, np.argsort(sup)].astype(float)
        acc += oracle_residual(dico, batch.signals[:, n], Support(sup), signs, k)
        used += 1
    mean = acc / used
    alignment = abs(mean @ dico.atoms[:, k]) / np.linalg.norm(mean)
    assert alignment > 0.95


def test_oracle_residual_requires_support_membership(rng):
    dico = random_dictionary(6, 8, rng)
    with pytest.raises(ValueError):
        oracle_residual(dico, np.ones(6), Support(np.array([0, 1])),
                        np.array([1.0, 1.0]), 5)


# --- learning loop ----------------------------------------------------------

def test_run_learning_zero_iterations_identity(rng):
    dico, _ = _small_batch(rng)
    model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(2), seed=0)
    traj = run_learning(dico, FreshBatches(model, 50), EngineConfig(sparsity=2), 0)
    assert traj.dictionary is dico
    assert traj.records == []


def test_run_learning_keeps_candidate_installed_in_dead_slot():
    # Atom 5 = normalize(e0 + 0.5 e5) is coherent with e0 and never selected,
    # so it dies.  replace_coherent merges it into slot 0 and installs a
    # candidate along e5 that carries its score; replace_unused must not swap
    # that candidate out again on the strength of the dead atom's norm.
    eye = np.eye(6)
    tail = eye[:, 0] + 0.5 * eye[:, 5]
    dico = Dictionary(np.column_stack([eye[:, :5], tail / np.linalg.norm(tail)]))
    rng = np.random.default_rng(0)
    n = 600
    idx = rng.integers(0, 5, n)
    y = eye[:, idx] * rng.choice([-1.0, 1.0], n)
    y[5] = np.where(idx != 0, 0.6 * rng.choice([-1.0, 1.0], n), 0.0)
    y /= np.linalg.norm(y, axis=0)
    traj = run_learning(dico, FixedCorpus(SignalBatch(y)),
                        EngineConfig(sparsity=1, variant="replacement"), 1,
                        policy=ReplacementPolicy(0.7, "merge"), seed=3)
    assert traj.replacement_events == [(1, "coherent", 0, 5, 118, 0)]
    assert traj.records[0].replaced == 1


def test_run_learning_fixed_seed_reproducible(rng):
    dico, _ = _small_batch(rng)
    init = random_dictionary(12, 16, rng)
    model = SignalModel(dictionary=dico,
                        coeffs=GeometricCoefficients(0.9, 1.0, 3),
                        noise_std_per_component=noise_std_for_snr(16, 12),
                        seed=77)
    source = FreshBatches(model, 300)
    cfg = EngineConfig(sparsity=3)
    a = run_learning(init, source, cfg, 3, reference=dico, seed=5)
    b = run_learning(init, source, cfg, 3, reference=dico, seed=5)
    assert np.array_equal(a.dictionary.atoms, b.dictionary.atoms)
    assert [r.distance for r in a.records] == [r.distance for r in b.records]


# --- batch prefetch ----------------------------------------------------------

def _prefetch_model(seed=11):
    gen = make_random_sphere(12, 16, rng_from_seed(seed, 1))
    return SignalModel(dictionary=gen, coeffs=GeometricCoefficients(0.9, 1.0, 3),
                       noise_std_per_component=noise_std_for_snr(16, 12),
                       outlier_rate=0.05, outlier_std_per_component=1 / 12,
                       seed=seed)


class SerialBatches(FreshBatches):
    """Each batch drawn on the calling thread when its iteration starts; the
    run's helper is not used."""

    def batches(self, iterations, helper=None):
        for t in range(1, iterations + 1):
            yield self.batch(t)


class FailingBatches(FreshBatches):
    """Raises from the draw of iteration 2."""

    error = RuntimeError("draw failed")

    def batch(self, iteration):
        if iteration == 2:
            raise self.error
        return super().batch(iteration)


@pytest.fixture
def draw_count(monkeypatch):
    calls = []
    real = engine.generate_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(engine, "generate_batch", counting)
    return calls


def _same_records(a, b):
    strip = [{**vars(r), "wallclock_ms": None} for r in a.records]
    assert strip == [{**vars(r), "wallclock_ms": None} for r in b.records]
    assert a.dictionary.atoms.tobytes() == b.dictionary.atoms.tobytes()


def test_fresh_batches_yields_the_seeded_draws():
    model = _prefetch_model()
    got = list(FreshBatches(model, 200).batches(3))
    assert len(got) == 3
    for t, batch in enumerate(got, start=1):
        want = generate_batch(model, 200, rng=rng_from_seed(model.seed, t))
        assert batch.signals.tobytes() == want.signals.tobytes()
        for name in ("support", "signs", "coeffs", "sparsity", "is_outlier"):
            assert getattr(batch.truth, name).tobytes() == \
                getattr(want.truth, name).tobytes()


def test_prefetched_learning_equals_serial_draws():
    model = _prefetch_model()
    init = make_random_sphere(12, 16, rng_from_seed(12))
    cfg = EngineConfig(sparsity=3, variant="replacement")
    a, b = (run_learning(init, source(model, 300), cfg, 4,
                         reference=model.dictionary,
                         policy=ReplacementPolicy(0.7, "merge"), seed=5)
            for source in (FreshBatches, SerialBatches))
    _same_records(a, b)
    assert a.replacement_events == b.replacement_events


def test_prefetched_adaptive_equals_serial_draws():
    model = _prefetch_model()
    init = make_random_sphere(12, 24, rng_from_seed(13))
    a, b = (run_adaptive(init, source(model, 600), AdaptiveConfig(), 8,
                         reference=model.dictionary, seed=5)
            for source in (FreshBatches, SerialBatches))
    _same_records(a, b)


def test_draw_error_reaches_run_adaptive():
    model = _prefetch_model()
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_adaptive(model.dictionary, FailingBatches(model, 100),
                     AdaptiveConfig(), 3, seed=1)
    assert info.value is FailingBatches.error
    assert threading.active_count() == before


def test_prefetch_draws_one_batch_per_iteration(draw_count):
    model = _prefetch_model()
    run_learning(model.dictionary, FreshBatches(model, 100),
                 EngineConfig(sparsity=3), 5, seed=1)
    assert len(draw_count) == 5


def test_early_stop_draws_at_most_one_batch_ahead(draw_count):
    model = _prefetch_model()
    before = threading.active_count()
    traj = run_learning(model.dictionary, FreshBatches(model, 100),
                        EngineConfig(sparsity=3), 10, reference=model.dictionary,
                        recovery_threshold=0.9, stop_at_full_recovery=True,
                        seed=1)
    assert len(traj.records) == 1
    assert len(draw_count) <= len(traj.records) + 1
    assert threading.active_count() == before


def test_iteration_error_leaves_no_prefetch_thread():
    model = _prefetch_model()
    before = threading.active_count()
    with pytest.raises(ValueError, match="batch dimension"):
        run_learning(make_random_sphere(8, 16, rng_from_seed(1)),
                     FreshBatches(model, 100), EngineConfig(sparsity=3), 5)
    assert threading.active_count() == before


def test_adaptive_iteration_peak_memory():
    # (K, nc) temporaries are freed once used, so that a batch drawn on the
    # prefetch thread fits beside the iteration: one adaptive iteration
    # peaks at about 2.8 of them (6.8 when each lived to the end of its
    # sub-batch and thresholding made a second absolute copy).
    d, k, n, m = 16, 128, 4000, 4
    model = SignalModel(dictionary=make_random_sphere(d, k, rng_from_seed(1)),
                        coeffs=GeometricCoefficients(0.9, 1.0, 3),
                        noise_std_per_component=0.02, seed=3)
    batch = generate_batch(model, n, rng=rng_from_seed(3, 1))
    init = make_random_sphere(d, k, rng_from_seed(2))
    cfg = EngineConfig(sparsity=3, variant="adaptive", candidate_subbatches=m,
                       min_observations=40)
    cands = draw_candidates(d, 3, rng_from_seed(4))
    tracemalloc.start()
    try:
        run_iteration(init, batch, cfg, candidates=cands, rng=rng_from_seed(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * k * (n // m) * 8
