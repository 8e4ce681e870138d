import math

import numpy as np
import pytest

from itkrm.candidates import (CandidateSet, ReplacementPolicy, draw_candidates,
                              replace_coherent, replace_unused)
from itkrm.engine import EngineConfig, run_iteration
from itkrm.linalg import Dictionary, coherence
from itkrm.signals import SignalBatch, rng_from_seed

from conftest import random_dictionary
from per_signal_reference import candidate_threshold


def _cands(atoms, scores=None):
    atoms = np.asarray(atoms, dtype=float)
    return CandidateSet(atoms=atoms, scores=scores)


def _learn(atoms, signals, cands, *, sparsity=1, variant="replacement"):
    """``cands`` after one iteration of the dictionary ``atoms`` over
    ``signals``, which updates it in place; the d rows of ``atoms`` set the
    m = round(log d) candidate sub-batches (d <= 4: one, 5 <= d <= 12:
    two), and redraws come from seed 2."""
    cfg = EngineConfig(sparsity=sparsity, variant=variant, min_observations=4)
    run_iteration(Dictionary(atoms), SignalBatch(signals=signals), cfg,
                  candidates=cands, rng=rng_from_seed(2))
    return cands


def _sphere_draw(d, count):
    fresh = rng_from_seed(2).standard_normal((d, count))
    return fresh / np.linalg.norm(fresh, axis=0)


# --- candidate updates (inside run_iteration) -----------------------------------

def test_zero_residual_is_noop_but_advances(rng):
    # signals on their selected atoms leave zero residuals: nothing is
    # attributed; with one sub-batch (d = 4) the candidates stay, with two
    # (d = 6) the sub-batch boundary comes and redraws every candidate,
    # since none received a residual
    for d in (4, 6):
        atoms = np.eye(d)[:, :d - 2]
        signals = atoms[:, [0, 1]] @ rng.standard_normal((2, 10))
        cands = draw_candidates(d, 3, rng)
        before = cands.atoms.copy()
        got = _learn(atoms, signals, cands, sparsity=2)
        assert np.array_equal(got.atoms, before if d == 4 else _sphere_draw(d, 3))
        assert np.all(got.scores == 0)


def test_winner_accumulates_signed_residual(rng):
    atoms = np.eye(5)[:, 3:]            # d = 5: two sub-batches
    a = np.array([-0.7, 0.1, 0.0, 0.0, 0.0])
    # the first signal leaves residual a, the second none; the boundary
    # after the first turns the accumulators into the candidates
    signals = np.column_stack([atoms[:, 0] + a, atoms[:, 1]])
    got = _learn(atoms, signals, _cands(np.eye(5)[:, :2]))
    # winner is candidate 0 (|ip| = 0.7); it accumulated a * sign(ip) = -a
    assert np.allclose(got.atoms[:, 0], -a / np.linalg.norm(a))
    # candidate 1 accumulated nothing and was redrawn
    assert np.array_equal(got.atoms[:, 1], _sphere_draw(5, 1)[:, 0])


def test_strong_match_scores_weak_match_does_not(rng):
    d = 4                               # one sub-batch
    atoms = np.eye(d)[:, 2:]            # K = 2 atoms
    combo = (np.eye(d)[:, 0] - np.eye(d)[:, 1]) / math.sqrt(2)
    # residual exactly along the candidate: |ip|/||a|| = 1 >= tau
    strong = (atoms[:, 0] + 0.4 * combo)[:, None]
    got = _learn(atoms, strong, _cands(combo.reshape(-1, 1)))
    assert got.scores[0] == 1
    # orthogonal residual: winner by default but no score
    weak = (atoms[:, 1] + 0.3 * (np.eye(d)[:, 0] + np.eye(d)[:, 1]))[:, None]
    got = _learn(atoms, weak, _cands(combo.reshape(-1, 1)))
    assert got.scores[0] == 0


def _sphere_tail(dim, tau, points=100_000):
    """P(u_1^2 >= tau) for u uniform on the unit sphere of R^dim, whose
    first coordinate has density proportional to (1 - t^2)^((dim - 3) / 2)
    on [-1, 1]; midpoint sums over [sqrt(tau), 1] and [0, 1]."""
    mid = (np.arange(points) + 0.5) / points

    def mass(lo):
        t = lo + (1.0 - lo) * mid
        return (1.0 - lo) * np.mean((1.0 - t * t) ** ((dim - 3) / 2))
    return mass(math.sqrt(tau)) / mass(0.0)


def test_pure_noise_score_rate_bounded():
    # A noise residual is y minus its projection on the S selected atoms, so
    # its direction is close to uniform on the unit sphere of the
    # (d - S)-dimensional complement, and a unit candidate's share of it is
    # at most such a sphere's first coordinate.  A candidate scores only
    # when that squared share reaches tau_gamma = 2 log(2K) / d, so its
    # score over N signals is about a binomial count with mean at most N p,
    # p the sphere's exact tail (here N p = 9.8; the scores are 9-14).
    d, k, l, n, s = 32, 48, 4, 6000, 1
    assert _sphere_tail(3, 0.25) == pytest.approx(0.5)   # u_1 uniform on [-1, 1]
    mean = n * _sphere_tail(d - s, candidate_threshold("replacement",
                                                       dictionary_size=k, d=d))
    rng = rng_from_seed(5)
    dico = random_dictionary(d, k, rng)
    cands = draw_candidates(d, l, rng)
    noise = rng.standard_normal((d, n))
    got = _learn(dico.atoms, noise, cands, sparsity=s)
    assert np.all(got.scores <= mean + 3 * math.sqrt(mean))


def test_subbatch_normalization_and_adaptive_score_reset(rng):
    d = 8
    atoms = np.eye(d)[:, :3]
    target = np.eye(d)[:, 3]
    signals = np.tile((atoms[:, 0] + 0.5 * target)[:, None], (1, 6))
    got = _learn(atoms, signals, draw_candidates(d, 2, rng), variant="adaptive")
    # first boundary (after 3 signals) normalized the accumulator into atoms
    winner = np.argmax(np.abs(got.atoms.T @ target))
    assert abs(got.atoms[:, winner] @ target) == pytest.approx(1.0, abs=1e-12)
    # adaptive variant reset scores at the boundary; only 3 counted since
    assert got.scores[winner] == 3


def test_candidate_threshold_values():
    # the per-signal reference's thresholds, which run_iteration computes inline
    assert candidate_threshold("replacement", dictionary_size=48, d=32) == \
        pytest.approx(2 * math.log(96) / 32)
    assert candidate_threshold("adaptive", subbatch_size=4000, d=64) == \
        pytest.approx(2 * math.log(125) / 64)


# --- replacing coherent atoms ------------------------------------------------

def test_replace_coherent_identity_when_incoherent(rng):
    dico = Dictionary(np.eye(6))
    scores = np.arange(6)
    cands = draw_candidates(6, 2, rng)
    out, v, rest, count = replace_coherent(dico, scores, cands,
                                           ReplacementPolicy(0.7, "merge"))
    assert count == 0
    assert np.array_equal(out.atoms, dico.atoms)
    assert np.array_equal(v, scores)
    assert rest.L == 2


def test_replace_coherent_duplicate_pair_merge():
    # two identical atoms; one incoherent candidate takes the freed slot
    base = np.eye(5)
    atoms = base[:, [0, 0, 1, 2, 3]]
    dico = Dictionary(atoms)
    gamma = base[:, 4].reshape(-1, 1)
    cands = _cands(gamma, scores=np.array([12]))
    scores = np.array([10, 10, 3, 3, 3])
    out, v, rest, count = replace_coherent(dico, scores, cands,
                                           ReplacementPolicy(0.7, "merge"))
    assert count == 1
    assert np.allclose(np.abs(out.atoms[:, 0]), base[:, 0])  # merged double
    assert np.allclose(out.atoms[:, 1], base[:, 4])          # candidate installed
    assert v[0] == 20
    assert v[1] == 12
    assert rest.L == 0


@pytest.mark.parametrize("combine,expected_dir", [
    ("delete", "low"),     # keeps the higher-scored atom psi_k
    ("merge", "weighted"),
    ("add", "balanced"),
])
def test_combine_modes_geometry(combine, expected_dir):
    # coherent pair at angle with known geometry, v = (30, 10)
    e1, e2 = np.eye(2)
    psi_k = e1
    psi_kp = 0.9 * e1 + math.sqrt(1 - 0.81) * e2
    dico = Dictionary(np.column_stack([psi_k, psi_kp]))
    cand = np.array([[0.0], [1.0]])
    cands = _cands(cand, scores=np.array([5]))
    out, v, _, count = replace_coherent(dico, np.array([30, 10]), cands,
                                        ReplacementPolicy(0.7, combine))
    assert count == 1
    merged = out.atoms[:, 0]
    if combine == "delete":
        assert np.allclose(np.abs(merged), psi_k)
    elif combine == "merge":
        expected = 10 * psi_kp + 30 * psi_k
        assert np.allclose(merged, expected / np.linalg.norm(expected))
    else:
        expected = psi_kp + psi_k
        assert np.allclose(merged, expected / np.linalg.norm(expected))
    assert v[0] == 40
    assert v[1] == 5


def _pair_at(base, i, j, coh):
    vec = coh * base[:, i] + math.sqrt(1 - coh ** 2) * base[:, j]
    return vec / np.linalg.norm(vec)


def test_replace_coherent_discards_coherent_candidates():
    base = np.eye(5)
    # pair (0,1) at coherence 0.8; atoms 2,3 untouched
    atoms = np.column_stack([base[:, 0], _pair_at(base, 0, 4, 0.8),
                             base[:, 1], base[:, 2]])
    dico = Dictionary(atoms)
    # candidate 0 nearly copies atom 2 (mu = 0.95 > 0.8: discarded despite
    # the higher score); candidate 1 is incoherent and gets installed
    c0 = _pair_at(base, 1, 4, 0.95)
    c1 = base[:, 3]
    cands = _cands(np.column_stack([c0, c1]), scores=np.array([50, 20]))
    out, v, rest, count = replace_coherent(dico, np.zeros(4, dtype=int), cands,
                                           ReplacementPolicy(0.7, "add"))
    assert count == 1
    assert np.allclose(out.atoms[:, 1], c1)
    assert v[1] == 20
    assert rest.L == 0


def test_replace_coherent_no_install_when_candidates_exhausted():
    base = np.eye(4)
    atoms = np.column_stack([base[:, 0], _pair_at(base, 0, 3, 0.9), base[:, 1]])
    dico = Dictionary(atoms)
    # only candidate nearly copies the rest of the dictionary (mu > 0.9):
    # it is discarded, so the coherent pair stays untouched
    cands = _cands(_pair_at(base, 1, 3, 0.95).reshape(-1, 1),
                   scores=np.array([9]))
    out, v, rest, count = replace_coherent(dico, np.array([1, 1, 1]), cands,
                                           ReplacementPolicy(0.7, "merge"))
    assert count == 0
    assert np.array_equal(out.atoms, dico.atoms)
    assert rest.L == 0


def test_replace_coherent_drives_coherence_below_threshold(rng):
    # enough incoherent candidates: final coherence <= mu_max
    base = np.eye(8)
    atoms = base[:, [0, 0, 1, 1, 2, 3]]
    dico = Dictionary(atoms)
    cands = _cands(base[:, 4:8][:, :3], scores=np.array([7, 6, 5]))
    out, v, rest, count = replace_coherent(dico, np.ones(6, dtype=int), cands,
                                           ReplacementPolicy(0.5, "merge"))
    assert count == 2
    assert coherence(out) <= 0.5


def test_replace_event_log_rows():
    base = np.eye(5)
    dico = Dictionary(base[:, [0, 0, 1, 2]])
    cands = _cands(base[:, 4].reshape(-1, 1), scores=np.array([12]))
    events = []
    replace_coherent(dico, np.array([10, 7, 1, 1]), cands,
                     ReplacementPolicy(0.7, "merge"), event_log=events)
    assert events == [("coherent", 0, 1, 10, 7)]
    cands2 = _cands(base[:, 3].reshape(-1, 1), scores=np.array([3]))
    events2 = []
    replace_unused(Dictionary(base[:, :3]), np.array([4, 0, 4]), cands2,
                   ReplacementPolicy(0.7, "merge"), event_log=events2)
    assert events2 == [("unused", 1, 1, 0, 0)]


def test_replace_unused_swaps_dead_atom(rng):
    base = np.eye(5)
    dico = Dictionary(base[:, :4])
    cands = _cands(base[:, 4].reshape(-1, 1), scores=np.array([3]))
    scores = np.array([5, 0, 7, 2])
    out, count = replace_unused(dico, scores, cands, ReplacementPolicy(0.7, "merge"))
    assert count == 1
    assert np.allclose(out.atoms[:, 1], base[:, 4])


def test_replace_unused_no_candidates_keeps_atom():
    dico = Dictionary(np.eye(3))
    cands = _cands(np.zeros((3, 0)))
    out, count = replace_unused(dico, np.array([0, 1, 1]), cands,
                                ReplacementPolicy(0.7, "merge"))
    assert count == 0
    assert np.array_equal(out.atoms, dico.atoms)


def test_replace_unused_skips_coherent_candidates():
    base = np.eye(4)
    dico = Dictionary(base)
    # candidate nearly equal to atom 0 fails the coherence test
    near = np.column_stack([0.999 * base[:, 0] + 0.0447 * base[:, 1]])
    near /= np.linalg.norm(near)
    cands = _cands(near, scores=np.array([4]))
    out, count = replace_unused(dico, np.array([1, 0, 1, 1]), cands,
                                ReplacementPolicy(0.7, "merge"))
    assert count == 0
    assert np.array_equal(out.atoms, dico.atoms)
