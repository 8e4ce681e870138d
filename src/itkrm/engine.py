"""Core learning engine: thresholding, residual means and full iterations.

One iteration processes every signal of a batch: threshold to the sparsity
level, project, and push each selected atom towards its signed residual plus
its own contribution.  Depending on the variant the iteration additionally
maintains atom value counters (replacement: every selection counts;
adaptive: only selections whose coefficient clears a noise-calibrated
threshold), learns replacement candidates from the residuals in sub-batches,
and accumulates the recoverable-sparsity estimate that drives the adaptive
sparsity update.

The batched implementation walks the signals in sub-batch chunks whose walls
coincide with the candidate renormalization boundaries, and adds each chunk's
partial sums to running totals.  Each chunk has two stages.  Its selection
(Phi^T Y, thresholding, the sub-Gram solve) depends only on the dictionary
and the signals, so the selection of chunk j+1 runs on a helper thread
while the calling thread runs the update of chunk j (residuals, sums,
counters, candidates); every sum is added in chunk order on the calling
thread, and only that thread draws random numbers, so the bytes do not
depend on which thread ran a selection.  A learning run shares one helper
between these selections and the batch prefetch.  Thresholding picks the S
largest absolute inner products of each signal by S rounds of first-maximum
argmax with the winner masked, so ties go to the lowest atom index.  The
normal equations of all signals of a chunk are solved by the batched
Cholesky kernel of ``linalg``; only signals whose support holds duplicate or
near-duplicate atoms (a pivot not above EIGH_PIVOT_MARGIN) go to the
truncated-eigh solver, which decides whether to truncate.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from .candidates import (CandidateSet, ReplacementPolicy, draw_candidates,
                         normalize_subbatch, replace_coherent, replace_unused)
from .linalg import (Dictionary, Support, asym_distance, cholesky_append,
                     cholesky_back_substitute, mean_atom_distance, recovery_rate,
                     sign_pm, solve_normal_equations)
from .signals import SignalBatch, SignalModel, generate_batch, rng_from_seed

# Residuals below this fraction of the signal norm count as zero for
# candidate attribution.
RESIDUAL_ZERO_REL = 1e-10

# Pre-normalization atom norms below this floor freeze the atom for the
# iteration and zero its value counter, which marks it unused for replacement.
DEAD_ATOM_FLOOR = 1e-3

# A signal whose Cholesky factor has a pivot at or below this margin is
# solved by truncated eigh instead, so the truncation decision is eigh's.
EIGH_PIVOT_MARGIN = 1e-6

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
    candidate_subbatches: Optional[int] = None  # m, default round(log d)
    min_observations: Optional[int] = None      # M, adaptive counter only

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "adaptive" and not self.min_observations:
            raise ValueError("adaptive variant needs min_observations")
        if self.candidate_subbatches is not None and self.candidate_subbatches < 1:
            raise ValueError("candidate_subbatches must be >= 1")


@dataclass
class IterationOutput:
    """Result of one engine iteration over a batch."""

    new_dictionary: Dictionary
    raw_norms: np.ndarray            # pre-normalization atom norms
    atom_scores: np.ndarray          # value counter v(k), dead atoms zeroed
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


def top_s_indices(ip: np.ndarray, s: int,
                  scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices of the s largest absolute entries per column, ties to the
    lowest index.

    Input is (K, N) (inner products); output is (s, N) with each column
    sorted ascending.  Each of s rounds takes the row-wise argmax of one
    contiguous (N, K) array of absolute values and masks the winner with
    -inf; argmax returns the first maximum, so ties go to the lowest index.
    That array is ``scratch`` when given, a new one otherwise.
    """
    k, n = ip.shape
    if s > k:
        raise ValueError("sparsity exceeds the number of atoms")
    if s == k:
        return np.tile(np.arange(k, dtype=np.int64)[:, None], (1, n))
    if scratch is None:
        scratch = np.empty((n, k))
    vals = np.abs(ip.T, out=scratch)
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
    idx = top_s_indices(dico.atoms.T @ y, s)
    return Support(idx[:, 0])


def _select(atoms: np.ndarray, gram: np.ndarray, y: np.ndarray, s: int,
            ip: np.ndarray, scratch: np.ndarray):
    """Selection stage of one sub-batch: threshold the (d, nc) signals ``y``
    and solve their normal equations.

    ``ip`` (K, nc) receives Phi^T y and ``scratch`` (nc, K) its absolute
    values; the caller owns both and may reuse them once this returns.
    Returns (sel, b, x): the (s, nc) supports, their inner products and
    their coefficients.
    """
    np.matmul(atoms.T, y, out=ip)
    sel = top_s_indices(ip, s, scratch)                 # (s, nc)
    sub_gram = gram[sel[:, None, :], sel[None, :, :]]   # (s, s, nc)
    b = np.take_along_axis(ip, sel, axis=0)             # (s, nc)
    nc = y.shape[1]
    chol = np.zeros((s, s, nc))
    rdiag = np.empty((s, nc))
    x = np.empty((s, nc))                               # z = L^-1 b, then x
    live = np.logical_and.reduce([
        cholesky_append(chol, rdiag, x, j, sub_gram[:j, j], sub_gram[j, j], b[j])
        for j in range(s)])
    cholesky_back_substitute(chol, rdiag, x, s, out=x)
    # rdiag is 1/sqrt(pivot), and 0 for a pivot not above EIG_TRUNCATION
    near = (rdiag >= EIGH_PIVOT_MARGIN ** -0.5).any(axis=0)
    degenerate = np.flatnonzero(~live | near)
    if degenerate.size:
        # duplicate or near-duplicate atoms: the coefficients feed the value
        # counters, so these signals get eigh's answer
        x[:, degenerate] = solve_normal_equations(
            sub_gram[:, :, degenerate].transpose(2, 0, 1),
            b[:, degenerate].T).T
    return sel, b, x


def _run_ahead(jobs: Sequence[Callable], helper: Optional[Executor]) -> Iterator:
    """The results of ``jobs`` in order; job j+1 runs on ``helper`` (a
    single-worker executor, opened here when None) while the caller works
    on the result of job j.

    A job the helper has not started when its result is due, because the
    helper is busy with other work, is cancelled and run by the caller, so
    at most one of these jobs runs at a time.  A job's error is raised
    where its result is taken.  Closing the generator early cancels the
    next job, or waits for it if it is running.
    """
    with ExitStack() as stack:
        if helper is None:
            helper = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        pending = None
        try:
            for j, job in enumerate(jobs):
                result = job() if pending is None or pending.cancel() \
                    else pending.result()
                pending = helper.submit(jobs[j + 1]) if j + 1 < len(jobs) else None
                yield result
        finally:
            if pending is not None and not pending.cancel():
                wait((pending,))


def run_iteration(dico: Dictionary, batch: SignalBatch, cfg: EngineConfig,
                  candidates: Optional[CandidateSet] = None,
                  rng: Optional[np.random.Generator] = None, *,
                  helper: Optional[Executor] = None) -> IterationOutput:
    """One full iteration over the batch.

    Candidate learning runs iff ``candidates`` is given, and updates that
    set in place: the candidate accumulator is renormalized at each of the
    first m-1 sub-batch boundaries, so the candidate atoms end as the ones
    scored by the final window.  Atoms whose raw update stays below
    DEAD_ATOM_FLOOR keep their previous direction and get value 0.

    The selection of sub-batch j+1 runs on ``helper`` (a single-worker
    executor, opened for this call when not given; see ``_run_ahead``)
    while this thread runs the update of sub-batch j.  The bytes are those
    of running every selection on this thread.
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
    adaptive = cfg.variant == "adaptive"
    if candidates is not None:
        if candidates.d != d:
            raise ValueError("candidate dimension does not match dictionary")
        if candidates.L and rng is None:
            raise ValueError("candidate learning needs an rng for redraws")
        cand_acc = np.zeros((d, candidates.L))   # signed residual sums
        # squared-score threshold of the candidate value counter
        if adaptive:
            tau_gamma = 2.0 * math.log(2.0 * n_gamma / d) / d
        else:
            tau_gamma = 2.0 * math.log(2.0 * k) / d

    atoms = dico.atoms
    gram = atoms.T @ atoms
    if adaptive:
        log_tau = 2.0 * math.log(2.0 * n / cfg.min_observations)
        log_theta = 2.0 * math.log(4.0 * k)

    boundaries = {j * n_gamma for j in range(1, m) if j * n_gamma <= n}
    # nothing reads the candidate accumulator after the last boundary
    last_boundary = max(boundaries, default=0)
    walls = sorted({0, n} | boundaries)
    chunks = list(zip(walls[:-1], walls[1:]))
    acc = np.zeros((d, k))           # sum of signed residuals per atom
    colsum = np.zeros(k)             # sum of |<atom, y>| over its selections
    scores = np.zeros(k, dtype=np.int64)
    sbar_acc = 0
    st_acc = 0

    # The (K, nc) product and its (nc, K) absolute copy are allocated once,
    # on this thread, and reused by every selection (at most one runs at a
    # time): arrays the helper allocated stayed in its malloc arena and
    # raised the peak RSS.
    width = max((hi - lo for lo, hi in chunks), default=0)
    ip_buf = np.empty(k * width)
    scratch_buf = np.empty(k * width)

    def select(lo, hi):
        nc = hi - lo
        return _select(atoms, gram, y_all[:, lo:hi], s,
                       ip_buf[:k * nc].reshape(k, nc),
                       scratch_buf[:k * nc].reshape(nc, k))

    jobs = [partial(select, lo, hi) for lo, hi in chunks]
    with closing(_run_ahead(jobs, helper)) as selections:
        for (lo, hi), (sel, b, x) in zip(chunks, selections):
            y = y_all[:, lo:hi]
            nc = hi - lo
            cols = np.arange(nc)
            # each (K, nc) temporary goes as soon as it is used, so that
            # a batch drawn on the helper fits beside the iteration
            coef = np.zeros((k, nc))
            coef[sel, cols[None, :]] = x
            approx = atoms @ coef
            del coef
            resid = y - approx
            res_sq = np.einsum("ij,ij->j", resid, resid)
            app_sq = np.einsum("ij,ij->j", approx, approx)

            signed = np.zeros((k, nc))
            signed[sel, cols[None, :]] = sign_pm(b)
            acc += resid @ signed.T
            del signed
            colsum += np.bincount(sel.T.ravel(), weights=np.abs(b).T.ravel(),
                                  minlength=k)

            tau = (log_tau * res_sq + app_sq) / d if adaptive else np.zeros(nc)
            scores += np.bincount(sel[x ** 2 >= tau], minlength=k)

            if adaptive:
                theta = (log_theta * res_sq + app_sq) / d
                coeff_hits = np.count_nonzero(x ** 2 >= theta, axis=0)
                res_ip = atoms.T @ resid
                res_ip **= 2
                resid_hits = np.count_nonzero(res_ip >= theta[None, :], axis=0)
                del res_ip
                sbar_acc += int(coeff_hits.sum() + resid_hits.sum())
                st_acc += int(coeff_hits.sum())

            if candidates is not None and candidates.L:
                y_sq = np.einsum("ij,ij->j", y, y)
                valid = res_sq > (RESIDUAL_ZERO_REL ** 2) * y_sq
                ipc = candidates.atoms.T @ resid            # (L, nc)
                winners = np.argmax(np.abs(ipc), axis=0)
                wvals = ipc[winners, cols]
                if hi <= last_boundary:
                    weights = np.zeros((nc, candidates.L))
                    weights[cols[valid], winners[valid]] = sign_pm(wvals[valid])
                    cand_acc += resid @ weights
                passed = valid & (wvals ** 2 >= tau_gamma * res_sq)
                candidates.scores += np.bincount(winners[passed],
                                                 minlength=candidates.L)

            if candidates is not None and hi in boundaries:
                # sub-batch boundary: renormalize candidates for the next window
                normalize_subbatch(candidates, cand_acc, rng, reset_scores=adaptive)

    raw = acc + atoms * colsum
    raw_norms = np.linalg.norm(raw, axis=0)
    dead = raw_norms < DEAD_ATOM_FLOOR
    new_atoms = np.where(dead[None, :], atoms,
                         raw / np.where(dead, 1.0, raw_norms)[None, :])
    scores[dead] = 0
    return IterationOutput(
        new_dictionary=Dictionary(new_atoms),
        raw_norms=raw_norms,
        atom_scores=scores,
        sparsity_accumulator=sbar_acc,
        signals_used=n,
        s_t_accumulator=st_acc,
    )


# ---------------------------------------------------------------------------
# multi-iteration learning


class FreshBatches:
    """Signal source drawing a fresh seeded batch every iteration.

    Batch t comes from its own generator, ``rng_from_seed(model.seed, t)``,
    so it does not depend on iteration t-1.  ``batches`` therefore draws
    batch t+1 on a helper thread while the caller runs iteration t; the
    bytes are those of drawing one batch after the other.  No batch past
    the last iteration is drawn, and a caller that stops early waits for at
    most the one draw in flight.
    """

    def __init__(self, model: SignalModel, n: int):
        self.model = model
        self.n = n

    def batch(self, iteration: int) -> SignalBatch:
        return generate_batch(self.model, self.n,
                              rng=rng_from_seed(self.model.seed, iteration))

    def batches(self, iterations: int,
                helper: Optional[Executor] = None) -> Iterator[SignalBatch]:
        """The batches of iterations 1..iterations; batch t+1 is drawn on
        ``helper`` (a single-worker executor, opened here when not given)
        while the caller works on batch t.

        A learning run passes the helper its iterations submit selections
        to, so the draw and the selections share one thread; a selection
        queued behind a draw runs on the caller instead.  An error of a
        draw is raised where its batch is taken.  Closing the generator
        early waits for the draw in flight.
        """
        return _run_ahead([partial(self.batch, t) for t in range(1, iterations + 1)],
                          helper)


class FixedCorpus:
    """Signal source reusing the same batch every iteration (image data)."""

    def __init__(self, batch: SignalBatch):
        self._batch = batch

    def batches(self, iterations: int,
                helper: Optional[Executor] = None) -> Iterator[SignalBatch]:
        for _ in range(iterations):
            yield self._batch


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
    wallclock_ms: float              # since the previous record, batch wait included
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
    redrawn from the sphere at the start of every iteration.  The run opens
    one helper thread, which draws the next fresh batch and runs sub-batch
    selections; it ends with the run.
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
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as helper, \
            closing(signal_source.batches(iterations, helper)) as batches:
        for t, batch in enumerate(batches, start=1):
            replaced = 0
            if cfg.variant == "replacement":
                cands = draw_candidates(dico.d, default_candidate_count(dico.d), rng)
                learned = cands if candidate_source == "learned" else None
                out = run_iteration(dico, batch, cfg, candidates=learned, rng=rng,
                                    helper=helper)
                dico = out.new_dictionary
                events: List[tuple] = []
                dico, v, pool, replaced = replace_coherent(dico, out.atom_scores,
                                                           cands, policy,
                                                           event_log=events)
                dico, swapped = replace_unused(dico, v, pool, policy,
                                               event_log=events)
                replaced += swapped
                traj.replacement_events += [(t,) + ev for ev in events]
            else:
                out = run_iteration(dico, batch, cfg, helper=helper)
                dico = out.new_dictionary
            dist, mean_dist, rate = metrics_against(reference, dico, recovery_threshold)
            now = time.perf_counter()
            traj.records.append(IterationRecord(
                iteration=t, distance=dist, mean_atom_distance=mean_dist,
                recovery_rate=rate, n_atoms=dico.K, sparsity=cfg.sparsity,
                s_bar=None, replaced=replaced, pruned=0, added=0,
                wallclock_ms=(now - t0) * 1e3))
            t0 = now
            if stop_at_full_recovery and rate is not None and rate >= 1.0:
                break
    traj.dictionary = dico
    return traj
