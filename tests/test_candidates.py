import math

import numpy as np
import pytest

from itkrm.candidates import (CandidateSet, ReplacementPolicy,
                              candidate_signal_update, candidate_threshold,
                              draw_candidates, replace_coherent, replace_unused)
from itkrm.linalg import Dictionary, coherence
from itkrm.signals import rng_from_seed


def _cands(atoms, scores=None, n_gamma=0):
    atoms = np.asarray(atoms, dtype=float)
    return CandidateSet(atoms=atoms, scores=scores, subbatch_size=n_gamma)


# --- candidate updates -------------------------------------------------------

def test_zero_residual_is_noop_but_advances(rng):
    cands = draw_candidates(6, 3, rng)
    before = cands.atoms.copy()
    candidate_signal_update(cands, np.zeros(6), "replacement",
                            dictionary_size=10, training_subbatches=2)
    assert np.array_equal(cands.atoms, before)
    assert np.all(cands.accumulator == 0)
    assert np.all(cands.scores == 0)
    assert cands.signals_seen == 1


def test_winner_accumulates_signed_residual(rng):
    atoms = np.eye(4)[:, :2]
    cands = _cands(atoms, n_gamma=100)
    a = np.array([-0.7, 0.1, 0.0, 0.0])
    candidate_signal_update(cands, a, "replacement", dictionary_size=8,
                            training_subbatches=2)
    # winner is candidate 0 (|ip| = 0.7); accumulates a * sign(ip) = -a
    assert np.allclose(cands.accumulator[:, 0], -a)
    assert np.all(cands.accumulator[:, 1] == 0)


def test_strong_match_scores_weak_match_does_not(rng):
    d, k = 16, 24
    phi = np.zeros(d)
    phi[0] = 1.0
    psi = np.zeros(d)
    psi[1] = 1.0
    combo = (phi - psi) / math.sqrt(2)
    cands = _cands(combo.reshape(-1, 1), n_gamma=100)
    # residual exactly along the 1:1 complement: |ip|/||a|| = 1 >= tau
    residual = 0.4 * combo
    candidate_signal_update(cands, residual, "replacement", dictionary_size=k,
                            training_subbatches=2)
    assert cands.scores[0] == 1
    # orthogonal residual: winner by default but no score
    ortho = np.zeros(d)
    ortho[2] = 0.3
    candidate_signal_update(cands, ortho, "replacement", dictionary_size=k,
                            training_subbatches=2)
    assert cands.scores[0] == 1


def test_pure_noise_score_rate_bounded():
    # noise residuals score each candidate at most ~ N/K times
    d, k, l, n = 32, 48, 4, 6000
    rng = rng_from_seed(5)
    cands = draw_candidates(d, l, rng)
    cands.subbatch_size = n + 1
    noise = rng.standard_normal((d, n))
    for i in range(n):
        candidate_signal_update(cands, noise[:, i], "replacement",
                                dictionary_size=k, training_subbatches=1)
    bound = n / k + 3 * math.sqrt(n / k)
    assert np.all(cands.scores <= bound)


def test_subbatch_normalization_and_adaptive_score_reset(rng):
    d = 8
    cands = draw_candidates(d, 2, rng)
    cands.subbatch_size = 3
    target = np.zeros(d)
    target[3] = 1.0
    for i in range(6):
        candidate_signal_update(cands, 0.5 * target, "adaptive",
                                training_subbatches=2, rng=rng)
    # first boundary (after 3 signals) normalized the accumulator into atoms
    winner = np.argmax(np.abs(cands.atoms.T @ target))
    assert abs(cands.atoms[:, winner] @ target) == pytest.approx(1.0, abs=1e-12)
    # adaptive variant reset scores at the boundary; only 3 counted since
    assert cands.scores[winner] == 3
    assert cands.signals_seen == 6


def test_candidate_threshold_values():
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
