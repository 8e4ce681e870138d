"""Adaptive selection of sparsity level and dictionary size.

Each iteration of the adaptive learner runs the engine (adaptive counters),
then prunes coherent atom pairs by merging, prunes atoms that have not been
reliably observed within the score window, appends promising candidates, and
moves the working sparsity level one step towards the batch estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Optional

import numpy as np

from .candidates import CandidateSet, combine_atoms, draw_candidates
from .engine import (EngineConfig, Trajectory, default_candidate_count,
                     learning_loop, round_half_up, run_iteration)
from .linalg import Dictionary, sign_pm
from .signals import rng_from_seed


@dataclass(frozen=True)
class AdaptiveConfig:
    """Thresholds and schedule for adaptive runs; None fields get their
    dimension-dependent defaults from :meth:`resolve`.  The candidate add
    threshold M_Gamma = d is a rule, not a setting (:func:`run_adaptive`)."""

    mu_max: float = 0.7
    min_observations: Optional[int] = None      # M; default round(d log d)
    freeze_add_tail: Optional[int] = None       # default 3m, m = round(log d)

    def __post_init__(self):
        if not (0.0 < self.mu_max < 1.0):
            raise ValueError("mu_max must lie in (0, 1)")
        for name in ("min_observations", "freeze_add_tail"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")

    def resolve(self, d: int) -> "AdaptiveConfig":
        return dc_replace(
            self,
            min_observations=self.min_observations
            if self.min_observations is not None else round_half_up(d * math.log(d)),
            freeze_add_tail=self.freeze_add_tail
            if self.freeze_add_tail is not None else 3 * default_candidate_count(d),
        )


def update_sparsity(level: int, s_bar: float, *, max_level: int) -> int:
    """Move the level one step towards the batch estimate, clamped to
    [1, max_level]."""
    step = int(sign_pm(s_bar - level)) if s_bar != level else 0
    return min(max(level + step, 1), max(1, max_level))


def prune_coherent(dico: Dictionary, window: np.ndarray, mu_max: float):
    """Merge atom pairs above mu_max, weighting by the most recent scores.

    ``window`` is the (K, m) int64 score window, newest scores in column 0.
    Works on a hollowed absolute Gram matrix; after a merge both rows and
    columns are zeroed so every atom participates in at most one merge per
    call.  The keeper (lower index) inherits the summed most-recent score;
    the other atom and its window row are deleted.

    Returns (dictionary, window, merge_count).
    """
    atoms = dico.atoms.copy()
    window = window.copy()
    k = atoms.shape[1]
    if k < 2:
        return dico, window, 0
    gram = atoms.T @ atoms
    hollow = np.abs(gram)
    np.fill_diagonal(hollow, 0.0)
    to_delete = []
    while True:
        flat = int(np.argmax(hollow))
        i, j = divmod(flat, k)
        if hollow[i, j] <= mu_max:
            break
        a, b = (i, j) if i < j else (j, i)
        h = float(sign_pm(gram[a, b]))
        atoms[:, a] = combine_atoms("merge", atoms[:, a], atoms[:, b],
                                    float(window[a, 0]), float(window[b, 0]), h)
        window[a, 0] += window[b, 0]
        to_delete.append(b)
        hollow[[a, b], :] = 0.0
        hollow[:, [a, b]] = 0.0
    if not to_delete:
        return dico, window, 0
    keep = np.ones(k, dtype=bool)
    keep[to_delete] = False
    return Dictionary(atoms[:, keep]), window[keep], len(to_delete)


def prune_unused(dico: Dictionary, window: np.ndarray, min_observations: int,
                 max_pruned: int):
    """Delete atoms whose maximum over the (K, m) score window stayed below
    ``min_observations``.

    At most ``max_pruned`` atoms go per call (the ones with the smallest
    window maxima), at most half the dictionary when it is very
    undercomplete (K < d/10), and never the whole dictionary.  An atom that
    :func:`add_atoms` gave a window of ``min_observations`` keeps a maximum
    of at least that until m real scores have replaced it: that is its
    grace period.

    Returns (dictionary, window, pruned_count).
    """
    k = dico.K
    v_hat = window.max(axis=1)
    eligible = np.flatnonzero(v_hat < min_observations)
    cap = max_pruned
    if k < dico.d / 10:
        cap = min(cap, k // 2)
    cap = min(cap, k - 1)
    if eligible.size > cap:
        order = np.argsort(v_hat[eligible], kind="stable")
        eligible = eligible[order[:cap]]
    if eligible.size == 0:
        return dico, window, 0
    keep = np.ones(k, dtype=bool)
    keep[eligible] = False
    return Dictionary(dico.atoms[:, keep]), window[keep], int(eligible.size)


def add_atoms(dico: Dictionary, window: np.ndarray, cands: CandidateSet,
              mu_max: float, add_threshold: int, initial_score: int):
    """Append candidates scoring at least the threshold, best first, when
    they stay incoherent (<= mu_max) to the growing dictionary.

    Added atoms get a window row full of ``initial_score``.

    Returns (dictionary, window, added_count).
    """
    if cands.L == 0:
        return dico, window, 0
    order = np.argsort(-cands.scores, kind="stable")
    order = order[cands.scores[order] >= add_threshold]
    if order.size == 0:
        return dico, window, 0
    atoms = dico.atoms
    added = 0
    for idx in order:
        gamma = cands.atoms[:, idx]
        if float(np.abs(gamma @ atoms).max()) <= mu_max:
            atoms = np.column_stack([atoms, gamma])
            added += 1
    if added == 0:
        return dico, window, 0
    fresh = np.full((added, window.shape[1]), initial_score, dtype=np.int64)
    return Dictionary(atoms), np.vstack([window, fresh]), added


def run_adaptive(dico0: Dictionary, signal_source, cfg: AdaptiveConfig,
                 iterations: int, *, reference: Optional[Dictionary] = None,
                 recovery_threshold: float = 0.99, seed: int = 0) -> Trajectory:
    """Adaptive learning: ``engine.learning_loop`` with the adaptive step.

    Per iteration: engine pass with adaptive counters and fresh candidates,
    coherent-pair pruning (every iteration), unused-atom pruning of at most
    round(d/5) atoms (from iteration 2m), candidate adding (from iteration
    m, frozen during the last ``freeze_add_tail`` iterations, 3m by
    default), then the one-step sparsity update (from iteration m).  Two
    rules are fixed, not settings: each iteration draws m = round(log d)
    candidates and learns them over m sub-batches, and a candidate is
    added once its score over the last sub-batch reaches d.  The score
    window holds each atom's scores of the last m iterations; an added
    atom's row starts full of ``min_observations``, so it cannot be pruned
    as unused during its first m iterations.  The sparsity level starts
    at 1.
    """
    d = dico0.d
    cfg = cfg.resolve(d)
    rng = rng_from_seed(seed, 0xADA)
    m = default_candidate_count(d)
    max_pruned = max(1, round_half_up(d / 5))
    window = np.zeros((dico0.K, m), dtype=np.int64)
    level = 1

    def step(t, dico, batch, helper):
        nonlocal window, level
        engine_cfg = EngineConfig(sparsity=min(level, d, dico.K), variant="adaptive",
                                  min_observations=cfg.min_observations)
        cands = draw_candidates(d, m, rng)
        out = run_iteration(dico, batch, engine_cfg, candidates=cands, rng=rng,
                            helper=helper)
        window = np.column_stack([out.atom_scores, window[:, :-1]])
        dico, window, merges = prune_coherent(out.new_dictionary, window, cfg.mu_max)
        pruned = 0
        if t >= 2 * m:
            dico, window, pruned = prune_unused(
                dico, window, cfg.min_observations, max_pruned)
        added = 0
        if m <= t <= iterations - cfg.freeze_add_tail:
            dico, window, added = add_atoms(dico, window, cands, cfg.mu_max, d,
                                            cfg.min_observations)
        if t >= m:    # until then the level stays 1
            level = update_sparsity(level, out.s_bar, max_level=min(d, dico.K))
        return dico, {"sparsity": level, "s_bar": out.s_bar,
                      "pruned": merges + pruned, "added": added,
                      "s_bar_raw": out.sparsity_accumulator / out.signals_used,
                      "s_t": out.s_t, "merges": merges, "pruned_unused": pruned}

    return learning_loop(dico0, signal_source, iterations, step,
                         reference=reference, recovery_threshold=recovery_threshold)
