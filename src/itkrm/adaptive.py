"""Adaptive selection of sparsity level and dictionary size.

Each iteration of the adaptive learner runs the engine (adaptive counters),
then prunes coherent atom pairs by merging, prunes atoms that have not been
reliably observed over the score memory, appends promising candidates, and
moves the working sparsity level one step towards the batch estimate.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass, replace as dc_replace
from typing import Optional

import numpy as np

from .candidates import CandidateSet, combine_atoms, draw_candidates
from .engine import (EngineConfig, IterationRecord, Trajectory,
                     default_candidate_count, metrics_against, round_half_up,
                     run_iteration)
from .linalg import Dictionary, sign_pm
from .signals import rng_from_seed


@dataclass
class ScoreHistory:
    """Rolling window of the last m per-atom scores plus atom birthdays.

    Column 0 holds the most recent iteration's scores; rows track atoms and
    are kept aligned with the dictionary through merges, deletions and adds.
    """

    scores: np.ndarray          # (K, m) int64
    birth: np.ndarray           # (K,) iteration at which the atom appeared
    filled: int = 0             # iterations pushed so far, capped at m

    @classmethod
    def empty(cls, n_atoms: int, memory: int) -> "ScoreHistory":
        return cls(scores=np.zeros((n_atoms, memory), dtype=np.int64),
                   birth=np.zeros(n_atoms, dtype=np.int64))

    @property
    def memory(self) -> int:
        return self.scores.shape[1]

    def push(self, new_scores: np.ndarray) -> None:
        new_scores = np.asarray(new_scores, dtype=np.int64)
        if new_scores.shape != (self.scores.shape[0],):
            raise ValueError("need one score per atom")
        self.scores[:, 1:] = self.scores[:, :-1]
        self.scores[:, 0] = new_scores
        self.filled = min(self.filled + 1, self.memory)

    def max_scores(self) -> np.ndarray:
        return self.scores.max(axis=1)

    def copy(self) -> "ScoreHistory":
        return ScoreHistory(scores=self.scores.copy(), birth=self.birth.copy(),
                            filled=self.filled)

    def delete(self, indices) -> None:
        keep = np.ones(self.scores.shape[0], dtype=bool)
        keep[np.asarray(indices, dtype=np.int64)] = False
        self.scores = self.scores[keep]
        self.birth = self.birth[keep]

    def append(self, count: int, initial_score: int, iteration: int) -> None:
        block = np.full((count, self.memory), initial_score, dtype=np.int64)
        self.scores = np.vstack([self.scores, block])
        self.birth = np.concatenate(
            [self.birth, np.full(count, iteration, dtype=np.int64)])


@dataclass(frozen=True)
class AdaptiveConfig:
    """Thresholds and schedule for adaptive runs; None fields get their
    dimension-dependent defaults from :meth:`resolve`."""

    mu_max: float = 0.7
    min_observations: Optional[int] = None      # M; default round(d log d)
    candidate_add_threshold: Optional[int] = None  # M_Gamma; default d
    freeze_add_tail: Optional[int] = None       # default 3m, m = round(log d)
    candidate_count: Optional[int] = None       # L; default round(log d)

    def __post_init__(self):
        if not (0.0 < self.mu_max < 1.0):
            raise ValueError("mu_max must lie in (0, 1)")
        for name in ("min_observations", "candidate_add_threshold",
                     "freeze_add_tail", "candidate_count"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")

    def resolve(self, d: int) -> "AdaptiveConfig":
        m = default_candidate_count(d)
        return dc_replace(
            self,
            min_observations=self.min_observations
            if self.min_observations is not None else round_half_up(d * math.log(d)),
            candidate_add_threshold=self.candidate_add_threshold
            if self.candidate_add_threshold is not None else d,
            freeze_add_tail=self.freeze_add_tail
            if self.freeze_add_tail is not None else 3 * m,
            candidate_count=self.candidate_count
            if self.candidate_count is not None else m,
        )


def update_sparsity(level: int, s_bar: float, *, max_level: int) -> int:
    """Move the level one step towards the batch estimate, clamped to
    [1, max_level]."""
    step = int(sign_pm(s_bar - level)) if s_bar != level else 0
    return min(max(level + step, 1), max(1, max_level))


def prune_coherent(dico: Dictionary, history: ScoreHistory, mu_max: float):
    """Merge atom pairs above mu_max, weighting by the most recent scores.

    Works on a hollowed absolute Gram matrix; after a merge both rows and
    columns are zeroed so every atom participates in at most one merge per
    call.  The keeper (lower index) inherits the summed most-recent score;
    the other atom and its history row are deleted.

    Returns (dictionary, history, merge_count).
    """
    atoms = dico.atoms.copy()
    hist = history.copy()
    k = atoms.shape[1]
    if k < 2:
        return dico, hist, 0
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
                                    float(hist.scores[a, 0]),
                                    float(hist.scores[b, 0]), h)
        hist.scores[a, 0] += hist.scores[b, 0]
        to_delete.append(b)
        hollow[[a, b], :] = 0.0
        hollow[:, [a, b]] = 0.0
    if not to_delete:
        return dico, hist, 0
    keep = np.ones(k, dtype=bool)
    keep[to_delete] = False
    hist.delete(to_delete)
    return Dictionary(atoms[:, keep]), hist, len(to_delete)


def prune_unused(dico: Dictionary, history: ScoreHistory, min_observations: int,
                 max_pruned: int, *, iteration: int, ambient_dim: int):
    """Delete atoms whose last-m max score stayed below the threshold.

    Freshly added atoms are embargoed for ``memory`` iterations; at most
    ``max_pruned`` atoms go per call (the ones with the smallest max
    scores), at most half the dictionary when it is very undercomplete
    (K < d/10), and never the whole dictionary.  Inert until the score
    window is full.

    Returns (dictionary, history, pruned_count).
    """
    k = dico.K
    if history.filled < history.memory:
        return dico, history, 0
    v_hat = history.max_scores()
    age = iteration - history.birth
    eligible = np.nonzero((v_hat < min_observations) & (age >= history.memory))[0]
    if eligible.size == 0:
        return dico, history, 0
    cap = max_pruned
    if k < ambient_dim / 10:
        cap = min(cap, k // 2)
    cap = min(cap, k - 1)
    if eligible.size > cap:
        order = np.argsort(v_hat[eligible], kind="stable")
        eligible = eligible[order[:cap]]
    if eligible.size == 0:
        return dico, history, 0
    keep = np.ones(k, dtype=bool)
    keep[eligible] = False
    hist = history.copy()
    hist.delete(eligible)
    return Dictionary(dico.atoms[:, keep]), hist, int(eligible.size)


def add_atoms(dico: Dictionary, history: ScoreHistory, cands: CandidateSet,
              mu_max: float, add_threshold: int, initial_score: int, *,
              iteration: int):
    """Append candidates scoring at least the threshold, best first, when
    they stay incoherent (<= mu_max) to the growing dictionary.

    Added atoms get a full history window of ``initial_score`` and the
    current iteration as birthday.

    Returns (dictionary, history, added_count).
    """
    if cands.L == 0:
        return dico, history, 0
    order = np.argsort(-cands.scores, kind="stable")
    order = order[cands.scores[order] >= add_threshold]
    if order.size == 0:
        return dico, history, 0
    atoms = dico.atoms
    added = 0
    for idx in order:
        gamma = cands.atoms[:, idx]
        if float(np.abs(gamma @ atoms).max()) <= mu_max:
            atoms = np.column_stack([atoms, gamma])
            added += 1
    if added == 0:
        return dico, history, 0
    hist = history.copy()
    hist.append(added, initial_score, iteration)
    return Dictionary(atoms), hist, added


def run_adaptive(dico0: Dictionary, signal_source, cfg: AdaptiveConfig,
                 iterations: int, *, reference: Optional[Dictionary] = None,
                 recovery_threshold: float = 0.99, seed: int = 0) -> Trajectory:
    """Full adaptive learning loop.

    Per iteration: engine pass with adaptive counters and fresh candidates,
    coherent-pair pruning (every iteration), unused-atom pruning of at most
    round(d/5) atoms (from iteration 2m), candidate adding (from iteration
    m, frozen during the last ``freeze_add_tail`` iterations, 3m by
    default), then the one-step sparsity update (from iteration m).  The
    score memory is m = round(log d) iterations.  The sparsity level starts
    at 1.
    """
    d = dico0.d
    cfg = cfg.resolve(d)
    rng = rng_from_seed(seed, 0xADA)
    m = default_candidate_count(d)
    max_pruned = max(1, round_half_up(d / 5))
    dico = dico0
    history = ScoreHistory.empty(dico.K, m)
    level = 1
    traj = Trajectory()
    t0 = time.perf_counter()
    with closing(signal_source.batches(iterations)) as batches:
        for t, batch in enumerate(batches, start=1):
            engine_cfg = EngineConfig(
                sparsity=min(level, d, dico.K),
                variant="adaptive",
                candidate_count=cfg.candidate_count,
                candidate_subbatches=m,
                min_observations=cfg.min_observations,
            )
            cands = draw_candidates(d, cfg.candidate_count, rng)
            out = run_iteration(dico, batch, engine_cfg, candidates=cands, rng=rng)
            dico = out.new_dictionary
            history.push(out.atom_scores)
            dico, history, merges = prune_coherent(dico, history, cfg.mu_max)
            pruned = 0
            if t >= 2 * m:
                dico, history, pruned = prune_unused(
                    dico, history, cfg.min_observations, max_pruned,
                    iteration=t, ambient_dim=d)
            added = 0
            if m <= t <= iterations - cfg.freeze_add_tail:
                dico, history, added = add_atoms(
                    dico, history, out.candidate_state, cfg.mu_max,
                    cfg.candidate_add_threshold, cfg.min_observations, iteration=t)
            s_bar_raw = out.sparsity_accumulator / out.signals_used
            if t >= m:
                level = update_sparsity(level, out.s_bar, max_level=min(d, dico.K))
            else:
                level = min(level, max(1, min(d, dico.K)))
            dist, mean_dist, rate = metrics_against(reference, dico, recovery_threshold)
            now = time.perf_counter()
            traj.records.append(IterationRecord(
                iteration=t, distance=dist, mean_atom_distance=mean_dist,
                recovery_rate=rate, n_atoms=dico.K, sparsity=level,
                s_bar=out.s_bar, replaced=0, pruned=merges + pruned, added=added,
                wallclock_ms=(now - t0) * 1e3,
                s_bar_raw=s_bar_raw, s_t=out.s_t, merges=merges,
                pruned_unused=pruned))
            t0 = now
    traj.dictionary = dico
    return traj
