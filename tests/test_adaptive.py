import math

import numpy as np

from itkrm.adaptive import (AdaptiveConfig, add_atoms, prune_coherent,
                            prune_unused, run_adaptive, update_sparsity)
from itkrm.candidates import CandidateSet
from itkrm.engine import FreshBatches
from itkrm.linalg import Dictionary, coherence
from itkrm.signals import (BalancedCoefficients, SignalModel,
                           make_random_sphere, rng_from_seed)


def _history(scores_2d):
    """(K, m) score window, newest scores in column 0."""
    return np.asarray(scores_2d, dtype=np.int64)


# --- sparsity update ---------------------------------------------------------

def test_update_sparsity_steps_of_one():
    assert update_sparsity(3, 3, max_level=10) == 3
    assert update_sparsity(1, 4, max_level=10) == 2
    assert update_sparsity(3, 1, max_level=10) == 2


def test_update_sparsity_clamps():
    assert update_sparsity(1, 0, max_level=10) == 1
    assert update_sparsity(5, 9, max_level=5) == 5


# --- coherent pruning ----------------------------------------------------------

def test_prune_coherent_identity_on_incoherent():
    dico = Dictionary(np.eye(5))
    hist = _history(np.ones((5, 3)))
    out, h, merges = prune_coherent(dico, hist, 0.7)
    assert merges == 0
    assert out.K == 5


def test_prune_coherent_duplicate_pair_scores_add():
    base = np.eye(4)
    atoms = base[:, [0, 0, 1, 2]]
    hist = _history([[10, 1, 1], [30, 2, 2], [5, 5, 5], [5, 5, 5]])
    out, h, merges = prune_coherent(Dictionary(atoms), hist, 0.7)
    assert hist[0, 0] == 10      # the caller's window is left as it was
    assert merges == 1
    assert out.K == 3
    assert np.allclose(np.abs(out.atoms[:, 0]), base[:, 0])
    assert h[0, 0] == 40
    # older window entries stay the keeper's
    assert h[0, 1] == 1


def test_prune_coherent_merge_direction_weighted_by_recent_scores():
    e1, e2 = np.eye(2)
    a = e1
    b = 0.8 * e1 + 0.6 * e2
    hist = _history([[10, 0], [30, 0]])
    out, h, merges = prune_coherent(Dictionary(np.column_stack([a, b])), hist, 0.7)
    expected = 30 * b + 10 * a
    expected /= np.linalg.norm(expected)
    assert merges == 1
    assert np.allclose(out.atoms[:, 0], expected)


def test_prune_coherent_single_merge_per_atom_per_call():
    # three mutually coherent atoms: zeroed rows prevent chained merges
    base = np.eye(5)
    v = base[:, 0]
    w = 0.95 * base[:, 0] + math.sqrt(1 - 0.95 ** 2) * base[:, 1]
    u = 0.95 * base[:, 0] - math.sqrt(1 - 0.95 ** 2) * base[:, 1]
    dico = Dictionary(np.column_stack([v, w, u]))
    hist = _history(np.ones((3, 2)))
    out, h, merges = prune_coherent(dico, hist, 0.7)
    assert merges == 1
    assert out.K == 2


# --- unused pruning ------------------------------------------------------------

def test_prune_unused_no_deletion_above_threshold():
    dico = Dictionary(np.eye(4))
    hist = _history(np.full((4, 3), 50))
    out, h, n = prune_unused(dico, hist, 50, 2)
    assert n == 0


def test_prune_unused_caps_at_delta_with_smallest_scores():
    dico = Dictionary(np.eye(8))
    scores = np.array([[1], [2], [3], [4], [5], [6], [100], [100]])
    hist = _history(np.repeat(scores, 2, axis=1))
    out, h, n = prune_unused(dico, hist, 50, 5)
    assert n == 5
    assert out.K == 3
    # the three survivors are the two reliable atoms plus the best of the rest
    assert np.array_equal(h.max(axis=1), np.array([6, 100, 100]))


def test_prune_unused_window_grace_period_protects_fresh_atoms():
    # an atom added with a window of M survives m - 1 zero-score pushes and
    # goes with the m-th, when no entry of M is left
    base = np.eye(6)
    m, big_m = 3, 10
    dico = Dictionary(base[:, :3])
    hist = _history(np.full((3, m), 50))
    cands = CandidateSet(atoms=base[:, [3]], scores=np.array([20]))
    dico, hist, added = add_atoms(dico, hist, cands, 0.7, add_threshold=5,
                                  initial_score=big_m)
    assert added == 1
    for push in range(1, m + 1):
        pushed = np.column_stack([np.array([50, 50, 50, 0]), hist[:, :-1]])
        out, h, n = prune_unused(dico, pushed, big_m, 3)
        if push < m:
            assert n == 0 and out.K == 4
        else:
            assert n == 1 and out.K == 3
            assert np.array_equal(out.atoms, base[:, :3])
        hist = pushed


def test_prune_unused_undercomplete_guard():
    # K=4 < d/10: at most half the atoms go
    dico = Dictionary(np.eye(64)[:, :4])
    hist = _history(np.zeros((4, 2)))
    out, h, n = prune_unused(dico, hist, 10, 10)
    assert n == 2
    assert out.K == 2


def test_prune_unused_never_empties_dictionary():
    dico = Dictionary(np.eye(3))
    hist = _history(np.zeros((3, 1)))
    out, h, n = prune_unused(dico, hist, 10, 99)
    assert out.K >= 1


# --- adding atoms ----------------------------------------------------------------

def test_add_atoms_threshold_and_coherence():
    base = np.eye(6)
    dico = Dictionary(base[:, :3])
    hist = _history(np.full((3, 2), 9))
    cands = CandidateSet(atoms=base[:, [3, 4]], scores=np.array([100, 5]))
    out, h, added = add_atoms(dico, hist, cands, 0.7, add_threshold=50,
                              initial_score=77)
    assert added == 1
    assert out.K == 4
    assert np.allclose(out.atoms[:, 3], base[:, 3])
    assert np.all(h[3] == 77)


def test_add_atoms_second_coherent_candidate_rejected():
    base = np.eye(6)
    dico = Dictionary(base[:, :3])
    hist = _history(np.full((3, 2), 9))
    good = base[:, 3]
    near = 0.9 * base[:, 3] + math.sqrt(1 - 0.81) * base[:, 4]
    cands = CandidateSet(atoms=np.column_stack([good, near]),
                         scores=np.array([80, 60]))
    out, h, added = add_atoms(dico, hist, cands, 0.7, add_threshold=50,
                              initial_score=1)
    assert added == 1  # second candidate is coherent with the first, rejected


def test_add_atoms_no_candidate_reaches_threshold():
    dico = Dictionary(np.eye(4))
    hist = _history(np.ones((4, 2)))
    cands = CandidateSet(atoms=np.eye(4)[:, :2], scores=np.array([3, 2]))
    out, h, added = add_atoms(dico, hist, cands, 0.7, add_threshold=10,
                              initial_score=1)
    assert added == 0


# --- full adaptive loop -----------------------------------------------------------

def test_run_adaptive_zero_iterations():
    rng = rng_from_seed(1)
    dico = make_random_sphere(16, 20, rng)
    model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(2), seed=3)
    traj = run_adaptive(dico, FreshBatches(model, 100), AdaptiveConfig(), 0)
    assert traj.dictionary is dico
    assert traj.records == []


def test_run_adaptive_small_synthetic_recovers_size():
    # grows from K_e=64 past K, prunes back to the exact size, finds S;
    # d must be large enough that 2*log(4K)/d stays well below 1/S
    d, k, s = 64, 96, 4
    gen = make_random_sphere(d, k, rng_from_seed(40))
    model = SignalModel(dictionary=gen, coeffs=BalancedCoefficients(s),
                        noise_std_per_component=1.0 / math.sqrt(16 * d),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / d,
                        seed=41)
    init = make_random_sphere(d, 64, rng_from_seed(42))
    cfg = AdaptiveConfig(min_observations=round(d * math.log(d) / 2))
    traj = run_adaptive(init, FreshBatches(model, 8000), cfg, 40,
                        reference=gen, seed=43)
    final = traj.records[-1]
    assert final.n_atoms == k
    assert final.recovery_rate == 1.0
    assert final.sparsity == s


def test_run_adaptive_sparsity_moves_by_at_most_one():
    d, k = 16, 20
    gen = make_random_sphere(d, k, rng_from_seed(50))
    model = SignalModel(dictionary=gen, coeffs=BalancedCoefficients(4), seed=51)
    init = make_random_sphere(d, k, rng_from_seed(52))
    traj = run_adaptive(init, FreshBatches(model, 2000), AdaptiveConfig(), 12,
                        reference=gen, seed=53)
    levels = [r.sparsity for r in traj.records]
    assert levels[0] == 1
    assert all(abs(b - a) <= 1 for a, b in zip(levels, levels[1:]))


def test_run_adaptive_atom_count_accounting():
    d, k = 16, 24
    gen = make_random_sphere(d, k, rng_from_seed(60))
    model = SignalModel(dictionary=gen, coeffs=BalancedCoefficients(3), seed=61)
    init = make_random_sphere(d, 12, rng_from_seed(62))
    traj = run_adaptive(init, FreshBatches(model, 3000), AdaptiveConfig(), 20,
                        reference=gen, seed=63)
    k_prev = 12
    for rec in traj.records:
        assert rec.n_atoms == k_prev - rec.merges - rec.pruned_unused + rec.added
        k_prev = rec.n_atoms
        assert rec.n_atoms >= 1


def test_run_adaptive_pinned_trajectory():
    # integer trajectory of one small seeded run: merges, unused prunes and
    # adds all happen; any change to the random stream or to a decision
    # rule shows here
    d = 16
    gen = make_random_sphere(d, 24, rng_from_seed(7, 1))
    init = make_random_sphere(d, 30, rng_from_seed(7, 2))
    model = SignalModel(dictionary=gen, coeffs=BalancedCoefficients(1),
                        noise_std_per_component=1.0 / math.sqrt(16 * d),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / d,
                        seed=7)
    cfg = AdaptiveConfig(min_observations=16, candidate_add_threshold=8,
                         freeze_add_tail=2)
    traj = run_adaptive(init, FreshBatches(model, 600), cfg, 12,
                        reference=gen, seed=7)

    def column(name):
        return [getattr(r, name) for r in traj.records]

    assert column("n_atoms") == [21, 21, 24, 25, 28, 28, 27, 28, 25, 26, 25, 24]
    assert column("sparsity") == [1] * 12
    assert column("s_bar") == [0] + [1] * 11
    assert column("merges") == [9, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert column("pruned_unused") == [0, 0, 0, 0, 0, 3, 3, 2, 3, 1, 1, 1]
    assert column("added") == [0, 0, 3, 1, 3, 3, 2, 3, 2, 2, 0, 0]


def test_adaptive_config_resolution():
    cfg = AdaptiveConfig().resolve(128)
    assert cfg.min_observations == round(128 * math.log(128))
    assert cfg.candidate_add_threshold == 128
    assert cfg.freeze_add_tail == 15
