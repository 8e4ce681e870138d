"""Core learning engine: thresholding, residual means, per-signal updates and
full iterations.

One iteration processes every signal of a batch: threshold to the sparsity
level, project, and push each selected atom towards its signed residual plus
its own contribution.  Depending on the variant the iteration additionally
maintains atom value counters (replacement: every selection counts;
adaptive: only selections whose coefficient clears a noise-calibrated
threshold), learns replacement candidates from the residuals in sub-batches,
and accumulates the recoverable-sparsity estimate that drives the adaptive
sparsity update.

The batched implementation walks the signals in sub-batch chunks whose walls
coincide with the candidate renormalization boundaries, and combines the
per-chunk partial sums with a pairwise tree.  Thresholding picks the S
largest absolute inner products of each signal by S rounds of first-maximum
argmax with the winner masked, so ties go to the lowest atom index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .candidates import (CandidateSet, ReplacementPolicy, candidate_threshold,
                         draw_candidates, normalize_subbatch, replace_coherent,
                         replace_unused)
from .linalg import (Dictionary, Support, asym_distance, mean_atom_distance,
                     recovery_rate, sign_pm, solve_normal_equations)
from .signals import SignalBatch, SignalModel, generate_batch, rng_from_seed

# Residuals below this fraction of the signal norm count as zero for
# candidate attribution.
RESIDUAL_ZERO_REL = 1e-10

# Pre-normalization atom norms below this floor freeze the atom for the
# iteration and zero its value counter, which marks it unused for replacement.
DEAD_ATOM_FLOOR = 1e-3

VARIANTS = ("plain", "replacement", "adaptive")


def round_half_up(x: float) -> int:
    """Nearest integer, halves away from zero (for nonnegative input)."""
    return int(math.floor(x + 0.5))


def default_candidate_count(d: int) -> int:
    return max(1, round_half_up(math.log(d)))


@dataclass(frozen=True)
class EngineConfig:
    """Per-iteration engine settings."""

    sparsity: int
    variant: str = "plain"
    candidate_count: Optional[int] = None       # L, default round(log d)
    candidate_subbatches: Optional[int] = None  # m, default round(log d)
    min_observations: Optional[int] = None      # M, adaptive counter only

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "adaptive" and not self.min_observations:
            raise ValueError("adaptive variant needs min_observations")
        if self.candidate_count is not None and self.candidate_count < 0:
            raise ValueError("candidate_count must be >= 0")
        if self.candidate_subbatches is not None and self.candidate_subbatches < 1:
            raise ValueError("candidate_subbatches must be >= 1")


@dataclass
class IterationOutput:
    """Result of one engine iteration over a batch."""

    new_dictionary: Dictionary
    raw_norms: np.ndarray            # pre-normalization atom norms
    atom_scores: np.ndarray          # value counter v(k), dead atoms zeroed
    candidate_state: Optional[CandidateSet]
    sparsity_accumulator: int        # numerator of the average sparsity level
    signals_used: int
    s_t_accumulator: int             # numerator of the correct-atom diagnostic

    @property
    def s_bar(self) -> int:
        """Rounded average recoverable sparsity over the batch."""
        return round_half_up(self.sparsity_accumulator / self.signals_used)

    @property
    def s_t(self) -> float:
        """Average number of above-threshold coefficients per signal."""
        return self.s_t_accumulator / self.signals_used


def top_s_indices(abs_ip: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s largest entries per column, ties to the lowest index.

    Input is (K, N) and nonnegative (absolute inner products); output is
    (s, N) with each column sorted ascending.  Each of s rounds takes the
    row-wise argmax of a contiguous (N, K) copy and masks the winner with
    -inf; argmax returns the first maximum, so ties go to the lowest index.
    """
    k, n = abs_ip.shape
    if s > k:
        raise ValueError("sparsity exceeds the number of atoms")
    if s == k:
        return np.tile(np.arange(k, dtype=np.int64)[:, None], (1, n))
    vals = abs_ip.T.copy()
    rows = np.arange(n)
    picked = np.empty((s, n), dtype=np.int64)
    for r in range(s):
        picked[r] = np.argmax(vals, axis=1)
        vals[rows, picked[r]] = -np.inf
    return np.sort(picked, axis=0)


def threshold_support(dico: Dictionary, y: np.ndarray, s: int) -> Support:
    """Support of the s atoms with largest absolute inner products with y.

    Equals the argmax over all size-s supports of the l1 norm of the
    sub-dictionary inner products.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if y.shape[0] != dico.d:
        raise ValueError("signal length does not match dictionary dimension")
    idx = top_s_indices(np.abs(dico.atoms.T @ y), s)
    return Support(idx[:, 0])


@dataclass(frozen=True)
class SignalContribution:
    """Per-signal pieces of an iteration, aligned with ``selected.indices``."""

    selected: Support
    coeffs: np.ndarray           # pseudo-inverse coefficients on the support
    residual: np.ndarray         # y minus its projection on the selected span
    atom_increments: np.ndarray  # (s, d) update vector per selected atom
    score_hits: np.ndarray       # (s,) bool, counter increments
    sparsity_hits: int           # recoverable-sparsity count (adaptive)


def signal_update(dico: Dictionary, y: np.ndarray, cfg: EngineConfig,
                  batch_size: int) -> SignalContribution:
    """Reference per-signal computation of one iteration's contribution."""
    y = np.asarray(y, dtype=np.float64).ravel()
    support = threshold_support(dico, y, cfg.sparsity)
    sub = dico.atoms[:, support.indices]
    ip = sub.T @ y
    coeffs = solve_normal_equations(sub.T @ sub, ip)
    approx = sub @ coeffs
    residual = y - approx
    signs = sign_pm(ip)
    increments = residual[None, :] * signs[:, None] \
        + np.abs(ip)[:, None] * sub.T
    res_sq = float(residual @ residual)
    app_sq = float(approx @ approx)
    d = dico.d
    if cfg.variant == "adaptive":
        tau = (2.0 * math.log(2.0 * batch_size / cfg.min_observations) * res_sq
               + app_sq) / d
    else:
        tau = 0.0
    score_hits = coeffs ** 2 >= tau
    sparsity_hits = 0
    if cfg.variant == "adaptive":
        theta = (2.0 * math.log(4.0 * dico.K) * res_sq + app_sq) / d
        sparsity_hits = int(np.count_nonzero(coeffs ** 2 >= theta))
        res_ip = dico.atoms.T @ residual
        sparsity_hits += int(np.count_nonzero(res_ip ** 2 >= theta))
    return SignalContribution(support, coeffs, residual, increments,
                              score_hits, sparsity_hits)


def oracle_residual(dico: Dictionary, y: np.ndarray, support: Support,
                    signs: np.ndarray, k: int) -> np.ndarray:
    """Residual-mean update for atom k using the generating support and sign."""
    y = np.asarray(y, dtype=np.float64).ravel()
    where = np.nonzero(support.indices == k)[0]
    if where.size == 0:
        raise ValueError(f"atom {k} is not in the generating support")
    signs = np.asarray(signs, dtype=np.float64).ravel()
    if signs.size != support.size:
        raise ValueError("one sign per support index required")
    sub = dico.atoms[:, support.indices]
    proj, _ = _project(sub, y)
    atom = dico.atoms[:, k]
    return (y - proj + (atom @ y) * atom) * signs[where[0]]


def _project(sub: np.ndarray, y: np.ndarray):
    coeffs = solve_normal_equations(sub.T @ sub, sub.T @ y)
    return sub @ coeffs, coeffs


def _batch_coefficients(sub_gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched normal-equation solve for the iteration hot path.

    Plain LU is an order of magnitude faster than the eigendecomposition
    route and its error on near-singular sub-Grams stays confined to the
    near-null direction, which cancels in the reconstruction; exactly
    singular batches (duplicate atoms) fall back to the truncated solver.
    """
    try:
        x = np.linalg.solve(sub_gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return solve_normal_equations(sub_gram, rhs)
    if not np.isfinite(x).all():
        return solve_normal_equations(sub_gram, rhs)
    return x


def _pairwise_sum(parts: List[np.ndarray]) -> np.ndarray:
    """Pairwise-tree sum of equally shaped arrays."""
    if not parts:
        raise ValueError("nothing to sum")
    while len(parts) > 1:
        nxt = [parts[i] + parts[i + 1] for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


def run_iteration(dico: Dictionary, batch: SignalBatch, cfg: EngineConfig,
                  candidates: Optional[CandidateSet] = None,
                  rng: Optional[np.random.Generator] = None) -> IterationOutput:
    """One full iteration over the batch.

    Candidate learning runs iff ``candidates`` is given: the candidate
    accumulator is renormalized at each of the first m-1 sub-batch
    boundaries, so the returned candidate atoms are the ones scored by the
    final window.  Atoms whose raw update stays below DEAD_ATOM_FLOOR keep
    their previous direction and get value 0.
    """
    d, k = dico.d, dico.K
    y_all = batch.signals
    if y_all.shape[0] != d:
        raise ValueError("batch dimension does not match dictionary")
    n = y_all.shape[1]
    s = cfg.sparsity
    if s > min(d, k):
        raise ValueError("sparsity exceeds min(d, K)")
    m = cfg.candidate_subbatches or default_candidate_count(d)
    n_gamma = max(1, n // m)
    if candidates is not None:
        if candidates.d != d:
            raise ValueError("candidate dimension does not match dictionary")
        candidates.subbatch_size = n_gamma
        if candidates.L and rng is None:
            raise ValueError("candidate learning needs an rng for redraws")
        tau_gamma = candidate_threshold(
            cfg.variant if cfg.variant != "plain" else "replacement",
            dictionary_size=k, subbatch_size=n_gamma, d=d)

    atoms = dico.atoms
    gram = atoms.T @ atoms
    adaptive = cfg.variant == "adaptive"
    if adaptive:
        log_tau = 2.0 * math.log(2.0 * n / cfg.min_observations)
        log_theta = 2.0 * math.log(4.0 * k)

    boundaries = {j * n_gamma for j in range(1, m) if j * n_gamma <= n}
    walls = sorted({0, n} | boundaries)
    acc_parts: List[np.ndarray] = []
    colsum_parts: List[np.ndarray] = []
    score_parts: List[np.ndarray] = []
    sbar_acc = 0
    st_acc = 0

    for lo, hi in zip(walls[:-1], walls[1:]):
        if hi > lo:
            y = y_all[:, lo:hi]
            nc = hi - lo
            cols = np.arange(nc)
            ip = atoms.T @ y
            sel = top_s_indices(np.abs(ip), s)              # (s, nc)
            sel_t = sel.T                                   # (nc, s)
            sub_gram = gram[sel_t[:, :, None], sel_t[:, None, :]]
            b = np.take_along_axis(ip, sel, axis=0).T       # (nc, s)
            x = _batch_coefficients(sub_gram, b)
            coef = np.zeros((k, nc))
            coef[sel, cols[None, :]] = x.T
            approx = atoms @ coef
            resid = y - approx
            res_sq = np.einsum("ij,ij->j", resid, resid)
            app_sq = np.einsum("ij,ij->j", approx, approx)

            signed = np.zeros((k, nc))
            signed[sel, cols[None, :]] = sign_pm(b).T
            acc_parts.append(resid @ signed.T)
            colsum_parts.append(
                np.bincount(sel_t.ravel(), weights=np.abs(b).ravel(), minlength=k))

            tau = (log_tau * res_sq + app_sq) / d if adaptive else np.zeros(nc)
            hits = x ** 2 >= tau[:, None]
            score_parts.append(np.bincount(sel_t[hits], minlength=k))

            if adaptive:
                theta = (log_theta * res_sq + app_sq) / d
                coeff_hits = np.count_nonzero(x ** 2 >= theta[:, None], axis=1)
                res_ip = atoms.T @ resid
                resid_hits = np.count_nonzero(res_ip ** 2 >= theta[None, :], axis=0)
                sbar_acc += int(coeff_hits.sum() + resid_hits.sum())
                st_acc += int(coeff_hits.sum())

            if candidates is not None and candidates.L:
                y_sq = np.einsum("ij,ij->j", y, y)
                valid = res_sq > (RESIDUAL_ZERO_REL ** 2) * y_sq
                ipc = candidates.atoms.T @ resid            # (L, nc)
                winners = np.argmax(np.abs(ipc), axis=0)
                wvals = ipc[winners, cols]
                weights = np.zeros((nc, candidates.L))
                weights[cols[valid], winners[valid]] = sign_pm(wvals[valid])
                candidates.accumulator += resid @ weights
                passed = valid & (wvals ** 2 >= tau_gamma * res_sq)
                candidates.scores += np.bincount(winners[passed],
                                                 minlength=candidates.L)
            if candidates is not None:
                candidates.signals_seen += nc

        if candidates is not None and hi in boundaries:
            # sub-batch boundary: renormalize candidates for the next window
            normalize_subbatch(candidates, rng,
                               reset_scores=(cfg.variant == "adaptive"))

    raw = _pairwise_sum(acc_parts) + atoms * _pairwise_sum(colsum_parts)
    scores = _pairwise_sum(score_parts).astype(np.int64)
    raw_norms = np.linalg.norm(raw, axis=0)
    dead = raw_norms < DEAD_ATOM_FLOOR
    new_atoms = np.where(dead[None, :], atoms,
                         raw / np.where(dead, 1.0, raw_norms)[None, :])
    scores[dead] = 0
    return IterationOutput(
        new_dictionary=Dictionary(new_atoms),
        raw_norms=raw_norms,
        atom_scores=scores,
        candidate_state=candidates,
        sparsity_accumulator=sbar_acc,
        signals_used=n,
        s_t_accumulator=st_acc,
    )


# ---------------------------------------------------------------------------
# multi-iteration learning


class FreshBatches:
    """Signal source drawing a fresh seeded batch every iteration."""

    def __init__(self, model: SignalModel, n: int):
        self.model = model
        self.n = n

    def batch(self, iteration: int) -> SignalBatch:
        return generate_batch(self.model, self.n,
                              rng=rng_from_seed(self.model.seed, iteration))


class FixedCorpus:
    """Signal source reusing the same batch every iteration (image data)."""

    def __init__(self, batch: SignalBatch):
        self._batch = batch

    def batch(self, iteration: int) -> SignalBatch:
        return self._batch


@dataclass
class IterationRecord:
    """One trajectory row; optional metrics stay None without a reference."""

    iteration: int
    distance: Optional[float]
    mean_atom_distance: Optional[float]
    recovery_rate: Optional[float]
    n_atoms: int
    sparsity: int
    s_bar: Optional[int]
    replaced: int
    pruned: int
    added: int
    wallclock_ms: float
    s_bar_raw: Optional[float] = None
    s_t: Optional[float] = None
    merges: int = 0
    pruned_unused: int = 0


@dataclass
class Trajectory:
    records: List[IterationRecord] = field(default_factory=list)
    dictionary: Optional[Dictionary] = None
    # (iteration, kind, slot_kept, slot_replaced, score_kept, score_replaced)
    replacement_events: List[tuple] = field(default_factory=list)

    @property
    def final_record(self) -> Optional[IterationRecord]:
        return self.records[-1] if self.records else None


def metrics_against(reference: Optional[Dictionary], estimate: Dictionary,
                    threshold: float):
    if reference is None:
        return None, None, None
    dist, _ = asym_distance(reference, estimate)
    return dist, mean_atom_distance(reference, estimate), \
        recovery_rate(reference, estimate, threshold)


def run_learning(dico0: Dictionary, signal_source, cfg: EngineConfig,
                 iterations: int, *, reference: Optional[Dictionary] = None,
                 policy: Optional[ReplacementPolicy] = None,
                 candidate_source: str = "learned",
                 recovery_threshold: float = 0.99,
                 stop_at_full_recovery: bool = False,
                 seed: int = 0) -> Trajectory:
    """Run plain or replacement learning for a number of iterations.

    With ``cfg.variant == "replacement"`` and a policy, each iteration is
    followed by coherent-atom replacement and unused-atom replacement; the
    replacement pool is either the candidates learned inside the iteration
    or, with ``candidate_source == "random"``, their fresh random
    initializations (the random-replacement baseline).  Candidates are
    redrawn from the sphere at the start of every iteration.
    """
    if cfg.variant == "adaptive":
        raise ValueError("use run_adaptive for the adaptive variant")
    if cfg.variant == "replacement" and policy is None:
        raise ValueError("replacement variant needs a ReplacementPolicy")
    if candidate_source not in ("learned", "random"):
        raise ValueError(f"unknown candidate source {candidate_source!r}")
    rng = rng_from_seed(seed, 0x1752)
    dico = dico0
    traj = Trajectory()
    for t in range(1, iterations + 1):
        t0 = time.perf_counter()
        batch = signal_source.batch(t)
        replaced = 0
        if cfg.variant == "replacement":
            count = cfg.candidate_count
            if count is None:
                count = default_candidate_count(dico.d)
            cands = draw_candidates(dico.d, count, rng)
            learned = cands if candidate_source == "learned" else None
            out = run_iteration(dico, batch, cfg, candidates=learned, rng=rng)
            dico = out.new_dictionary
            pool = out.candidate_state if candidate_source == "learned" else cands
            events: List[tuple] = []
            dico, v, pool, replaced = replace_coherent(dico, out.atom_scores,
                                                       pool, policy,
                                                       event_log=events)
            dico, swapped = replace_unused(dico, v, pool, policy,
                                           event_log=events)
            replaced += swapped
            traj.replacement_events += [(t,) + ev for ev in events]
        else:
            out = run_iteration(dico, batch, cfg)
            dico = out.new_dictionary
        dist, mean_dist, rate = metrics_against(reference, dico, recovery_threshold)
        traj.records.append(IterationRecord(
            iteration=t, distance=dist, mean_atom_distance=mean_dist,
            recovery_rate=rate, n_atoms=dico.K, sparsity=cfg.sparsity,
            s_bar=None, replaced=replaced, pruned=0, added=0,
            wallclock_ms=(time.perf_counter() - t0) * 1e3))
        if stop_at_full_recovery and rate is not None and rate >= 1.0:
            break
    traj.dictionary = dico
    return traj
