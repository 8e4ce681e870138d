"""Core learning engine: thresholding, residual means, iterations and runs.

One iteration processes every signal of a batch: threshold to the sparsity
level, project, and push each selected atom towards its signed residual plus
its own contribution.  Depending on the variant the iteration additionally
maintains atom value counters (replacement: every selection counts;
adaptive: only selections whose coefficient clears a noise-calibrated
threshold), learns replacement candidates from the residuals in sub-batches,
and accumulates the recoverable-sparsity estimate that drives the adaptive
sparsity update.  Every run is one ``learning_loop``: its step runs the
iteration, then, in ``run_learning``, coherent and unused atom replacement,
or, in ``adaptive.run_adaptive``, pruning, adding and the sparsity step.

The batched implementation walks the signals in sub-batch chunks whose walls
coincide with the candidate renormalization boundaries.  Only the candidate
chain and the running sums must go in chunk order; everything else about a
chunk depends only on the dictionary and its signals.  So each chunk is one
job, ``_subbatch``, run by whichever of two threads is free (``run_in_order``
at depth 2), and the calling thread adds its ``Partials`` to the running
totals in chunk order and runs the candidate pass and the redraws, so the
bytes do not depend on which thread ran a job.  The loop opens the run's one
helper, a single-worker executor, and shares it between these jobs and the
signal source: batch t+1 is taken there while iteration t runs, and every
draw is handed the helper for its noise and outliers (``generate_batch``);
batch 1, taken on the caller, gives them to the idle helper, and a later
draw, running on the helper, finds them not started and draws them itself.
A job the busy helper has not started runs on the caller.  The normal
equations of all signals of a chunk are solved by the batched Cholesky
kernel of ``linalg``; only signals whose support holds duplicate or
near-duplicate atoms (a pivot not above EIGH_PIVOT_MARGIN) go to the
truncated-eigh solver, which decides whether to truncate.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from .candidates import (CandidateSet, ReplacementPolicy, draw_candidates,
                         normalize_subbatch, replace_coherent, replace_unused)
from .linalg import (SIGNAL_BLOCK, Dictionary, Support, asym_distance,
                     cholesky_append, cholesky_back_substitute,
                     mean_atom_distance, recovery_rate, sign_pm,
                     solve_normal_equations)
from .signals import (SignalBatch, SignalModel, generate_batch, require_finite,
                      rng_from_seed)

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
    """m = round(log d), at least 1: the candidates drawn per iteration and
    the candidate sub-batches every iteration walks."""
    return max(1, round_half_up(math.log(d)))


@dataclass(frozen=True)
class EngineConfig:
    """Per-iteration engine settings; the sub-batch count m is a rule of
    the dimension, not a setting (``default_candidate_count``)."""

    sparsity: int
    variant: str = "plain"
    min_observations: Optional[int] = None      # M, adaptive counter only

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "adaptive" and not self.min_observations:
            raise ValueError("adaptive variant needs min_observations")


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
    sorted ascending.  The columns are taken in blocks: each of s rounds
    takes the row-wise argmax of one contiguous (block, K) array of absolute
    values and masks the winner with -inf; argmax returns the first maximum,
    so ties go to the lowest index.  That array lives in ``scratch`` when
    given, whose rows set the block width, and is otherwise
    (min(N, SIGNAL_BLOCK), K).
    """
    k, n = ip.shape
    if s > k:
        raise ValueError("sparsity exceeds the number of atoms")
    if scratch is None:
        scratch = np.empty((min(n, SIGNAL_BLOCK), k))
    width = scratch.shape[0]
    picked = np.empty((s, n), dtype=np.int64)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        vals = np.abs(ip[:, lo:hi].T, out=scratch[:hi - lo])
        rows = np.arange(hi - lo)
        for r in range(s):
            won = picked[r, lo:hi]
            np.argmax(vals, axis=1, out=won)
            vals[rows, won] = -np.inf
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

    ``ip`` (K, nc) receives Phi^T y and ``scratch``, (block, K), the
    absolute values of one block of it at a time (``top_s_indices``).
    Returns (sel, b, x): the (s, nc) supports, their inner products and
    their coefficients.
    """
    np.matmul(atoms.T, y, out=ip)
    sel = top_s_indices(ip, s, scratch)                 # (s, nc)
    b = np.take_along_axis(ip, sel, axis=0)             # (s, nc)
    nc = y.shape[1]
    chol = np.zeros((s, s, nc))
    rdiag = np.empty((s, nc))
    x = np.empty((s, nc))                               # z = L^-1 b, then x
    # the sub-Gram columns are gathered one step at a time, so no (s, s, nc)
    # array sits beside the other thread's job
    live = np.logical_and.reduce([
        cholesky_append(chol, rdiag, x, j, gram[sel[:j], sel[j]],
                        gram[sel[j], sel[j]], b[j])
        for j in range(s)])
    cholesky_back_substitute(chol, rdiag, x, s, out=x)
    # rdiag is 1/sqrt(pivot), and 0 for a pivot not above EIG_TRUNCATION
    near = (rdiag >= EIGH_PIVOT_MARGIN ** -0.5).any(axis=0)
    degenerate = np.flatnonzero(~live | near)
    if degenerate.size:
        # duplicate or near-duplicate atoms: the coefficients feed the value
        # counters, so these signals get eigh's answer
        sub = sel[:, degenerate]
        x[:, degenerate] = solve_normal_equations(
            gram[sub[:, None, :], sub[None, :, :]].transpose(2, 0, 1),
            b[:, degenerate].T).T
    return sel, b, x


def _ran(job: Callable) -> Future:
    """A finished future holding ``job()``'s result or error."""
    done: Future = Future()
    try:
        done.set_result(job())
    except Exception as exc:
        done.set_exception(exc)
    return done


def run_in_order(jobs: Sequence[Callable], helper: Optional[Executor] = None,
                 depth: int = 1) -> Iterator:
    """The results of ``jobs`` in order, the jobs run by the caller and by
    ``helper`` (a single-worker executor, opened here when None).

    When result j is due, the caller runs job j itself if the helper has not
    started it; while the helper runs job j, the caller runs jobs j+1 ..
    j+depth-1 that the helper has not started, in order, until job j ends.
    Jobs go to the helper in order: through job j + depth - 1 while result
    j is due, and through job j + depth once the caller runs a job ahead or
    holds result j.  So at depth 1 the caller never runs ahead, two jobs
    that run at once are at most depth - 1 apart, and the jobs started and
    not yet released by the caller are at most depth + 1 consecutive ones.
    A job's error is raised where its result is taken.  Closing the
    generator early cancels the jobs not started and waits for those
    running.
    """
    with ExitStack() as stack:
        if helper is None:
            helper = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        pending = {}                     # job index -> Future
        submitted = 1                    # job 0 is the caller's

        def submit_through(last):
            nonlocal submitted
            while submitted <= min(last, len(jobs) - 1):
                pending[submitted] = helper.submit(jobs[submitted])
                submitted += 1
        try:
            submit_through(depth - 1)
            for j, job in enumerate(jobs):
                future = pending.pop(j, None)
                if future is None or future.cancel():
                    result = job()
                else:
                    for i in range(j + 1, min(j + depth, len(jobs))):
                        if future.done():
                            break
                        if pending[i].cancel():
                            submit_through(j + depth)
                            pending[i] = _ran(jobs[i])
                    result = future.result()
                submit_through(j + depth)
                yield result
        finally:
            wait([future for future in pending.values() if not future.cancel()])


class Partials(NamedTuple):
    """One sub-batch's share of an iteration; nc is its signal count."""

    acc: np.ndarray         # (d, K) signed residuals summed per selected atom
    colsum: np.ndarray      # (K,) |<atom, y>| summed over the atom's selections
    scores: np.ndarray      # (K,) int64 value-counter hits
    coeff_hits: int         # coefficients with x^2 >= theta; 0 outside adaptive
    resid_hits: int         # atoms with <atom, r>^2 >= theta; 0 outside adaptive
    resid: np.ndarray       # (d, nc) residuals y - Phi x, in the caller's buffer
    res_sq: np.ndarray      # (nc,) squared residual norms
    valid: np.ndarray       # (nc,) bool: residual above RESIDUAL_ZERO_REL |y|


def _subbatch(atoms: np.ndarray, gram: np.ndarray, y: np.ndarray, s: int,
              log_tau: Optional[float], log_theta: Optional[float],
              ip_buf: np.ndarray, resid_buf: np.ndarray, block: int) -> Partials:
    """The job of the (d, nc) sub-batch ``y``: its selection (Phi^T y,
    thresholding, the sub-Gram solve), its residuals, and its partial sums
    and counters.  A value hit needs x^2 >= tau = (log_tau |r|^2 + |Phi x|^2)
    / d, or tau = 0 with ``log_tau`` None (outside adaptive); with
    ``log_theta`` given, theta of that form sets the recoverable-sparsity
    counts.  ``run_iteration`` assigns the flat buffers ``ip_buf`` and
    ``resid_buf`` (see there).
    """
    d, nc = y.shape
    k = atoms.shape[1]
    scatter = ip_buf[:k * nc].reshape(k, nc)
    sel, b, x = _select(atoms, gram, y, s, scatter,
                        resid_buf[:k * block].reshape(block, k))
    # entry (sel[r, i], i) of the zeroed (K, nc) scatter holds the
    # coefficients, then their signs
    flat = sel * nc + np.arange(nc)
    scatter.fill(0.0)
    ip_buf[flat] = x
    resid = resid_buf[:d * nc].reshape(d, nc)
    np.matmul(atoms, scatter, out=resid)                # Phi x, then y - Phi x
    app_sq = np.einsum("ij,ij->j", resid, resid)
    np.subtract(y, resid, out=resid)
    res_sq = np.einsum("ij,ij->j", resid, resid)
    ip_buf[flat] = sign_pm(b)
    acc = resid @ scatter.T
    colsum = np.bincount(sel.T.ravel(), weights=np.abs(b).T.ravel(), minlength=k)
    tau = 0.0 if log_tau is None else (log_tau * res_sq + app_sq) / d
    scores = np.bincount(sel[x ** 2 >= tau], minlength=k)
    coeff_hits = resid_hits = 0
    if log_theta is not None:
        theta = (log_theta * res_sq + app_sq) / d
        coeff_hits = int(np.count_nonzero(x ** 2 >= theta))
        # Phi^T r takes the scatter's storage
        res_ip = np.matmul(atoms.T, resid, out=scatter)
        res_ip **= 2
        resid_hits = int(np.count_nonzero(res_ip >= theta[None, :]))
    valid = res_sq > (RESIDUAL_ZERO_REL ** 2) * np.einsum("ij,ij->j", y, y)
    return Partials(acc, colsum, scores, coeff_hits, resid_hits, resid, res_sq, valid)


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
    The sub-batch jobs run on the caller and on ``helper`` (see the module
    docstring).
    """
    d, k = dico.d, dico.K
    y_all = batch.signals
    if y_all.shape[0] != d:
        raise ValueError("batch dimension does not match dictionary")
    n = y_all.shape[1]
    s = cfg.sparsity
    if s > min(d, k):
        raise ValueError("sparsity exceeds min(d, K)")
    m = default_candidate_count(d)
    n_gamma = max(1, n // m)
    adaptive = cfg.variant == "adaptive"
    learn = candidates is not None and candidates.L > 0
    if candidates is not None and candidates.d != d:
        raise ValueError("candidate dimension does not match dictionary")
    if learn and rng is None:
        raise ValueError("candidate learning needs an rng for redraws")
    # tau's and theta's log factors (_subbatch), and the candidate threshold
    if adaptive:
        log_tau = 2.0 * math.log(2.0 * n / cfg.min_observations)
        log_theta = 2.0 * math.log(4.0 * k)
        tau_gamma = 2.0 * math.log(2.0 * n_gamma / d) / d
    else:
        log_tau = log_theta = None
        tau_gamma = 2.0 * math.log(2.0 * k) / d

    boundaries = {j * n_gamma for j in range(1, m) if j * n_gamma <= n}
    # nothing reads the candidate accumulator after the last boundary
    last_boundary = max(boundaries, default=0)
    walls = sorted({0, n} | boundaries)
    chunks = list(zip(walls[:-1], walls[1:]))

    # Buffers, allocated on this thread (arrays the helper allocated stayed
    # in its malloc arena and raised the peak RSS) and reused by the jobs.
    # At depth 2 two jobs that run at once are consecutive, and at most
    # three hold a residual: the one whose partials the caller adds and the
    # two after it.  So job j takes (K, nc) buffer j % 2, its Phi^T Y and
    # then, zeroed, its scatter, and residual buffer j % 3, which first
    # holds thresholding's (block, K) scratch.
    depth = 2
    width = max((hi - lo for lo, hi in chunks), default=0)
    block = max(1, min(SIGNAL_BLOCK, d * width // k))
    ip_bufs = [np.empty(k * width) for _ in range(min(depth, len(chunks)))]
    resid_bufs = [np.empty(max(d * width, k * block))
                  for _ in range(min(depth + 1, len(chunks)))]
    atoms = dico.atoms
    gram = atoms.T @ atoms
    jobs = [partial(_subbatch, atoms, gram, y_all[:, lo:hi], s, log_tau, log_theta,
                    ip_bufs[j % len(ip_bufs)], resid_bufs[j % len(resid_bufs)], block)
            for j, (lo, hi) in enumerate(chunks)]

    acc = np.zeros((d, k))           # sum of signed residuals per atom
    colsum = np.zeros(k)             # sum of |<atom, y>| over its selections
    scores = np.zeros(k, dtype=np.int64)
    sbar_acc = 0
    st_acc = 0
    if learn:
        cand_acc = np.zeros((d, candidates.L))   # signed residual sums
    with closing(run_in_order(jobs, helper, depth)) as parts:
        for (lo, hi), part in zip(chunks, parts):
            # the sums, in sub-batch order, and the candidate chain
            acc += part.acc
            colsum += part.colsum
            scores += part.scores
            sbar_acc += part.coeff_hits + part.resid_hits
            st_acc += part.coeff_hits
            if learn:
                cols = np.arange(hi - lo)
                ipc = candidates.atoms.T @ part.resid           # (L, nc)
                winners = np.argmax(np.abs(ipc), axis=0)
                wvals = ipc[winners, cols]
                if hi <= last_boundary:
                    weights = np.zeros((hi - lo, candidates.L))
                    weights[cols, winners] = np.where(part.valid, sign_pm(wvals), 0.0)
                    cand_acc += part.resid @ weights
                passed = part.valid & (wvals ** 2 >= tau_gamma * part.res_sq)
                candidates.scores += np.bincount(winners[passed],
                                                 minlength=candidates.L)
                if hi in boundaries:
                    normalize_subbatch(candidates, cand_acc, rng,
                                       reset_scores=adaptive)

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
    so it does not depend on iteration t-1 and can be drawn ahead.
    """

    def __init__(self, model: SignalModel, n: int):
        self.model = model
        self.n = n

    def batch(self, t: int, helper: Optional[Executor] = None) -> SignalBatch:
        return generate_batch(self.model, self.n,
                              rng=rng_from_seed(self.model.seed, t), helper=helper)


class FixedCorpus:
    """Signal source reusing the same batch every iteration (image data).

    A signal with a NaN or infinite entry raises ValueError.
    """

    def __init__(self, batch: SignalBatch):
        require_finite(batch.signals)
        self._batch = batch

    def batch(self, t: int, helper: Optional[Executor] = None) -> SignalBatch:
        return self._batch


@dataclass(kw_only=True)
class IterationRecord:
    """One trajectory row; a field the run does not set keeps its default."""

    iteration: int
    distance: Optional[float]
    mean_atom_distance: Optional[float]
    recovery_rate: Optional[float]
    n_atoms: int
    sparsity: int
    s_bar: Optional[int] = None
    replaced: int = 0
    pruned: int = 0
    added: int = 0
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


def learning_loop(dico: Dictionary, signal_source, iterations: int, step: Callable, *,
                  reference: Optional[Dictionary], recovery_threshold: float,
                  stop_at_full_recovery: bool = False) -> Trajectory:
    """Run ``step(t, dico, batch, helper) -> (dico, record fields)`` on each
    ``signal_source.batch(t, helper)`` and record it; the metrics against
    ``reference`` stay None without one.

    Batch t+1 is taken on the helper while step t runs (``run_in_order`` at depth 1), so
    no batch past the last iteration is taken, and a run that stops early,
    also on an error, waits for at most the one draw in flight before its
    helper ends.
    """
    traj = Trajectory()
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as helper, \
            closing(run_in_order([partial(signal_source.batch, t, helper)
                                  for t in range(1, iterations + 1)], helper)) as batches:
        for t, batch in enumerate(batches, start=1):
            dico, record_fields = step(t, dico, batch, helper)
            dist = mean_dist = rate = None
            if reference is not None:
                dist, _ = asym_distance(reference, dico)
                mean_dist = mean_atom_distance(reference, dico)
                rate = recovery_rate(reference, dico, recovery_threshold)
            now = time.perf_counter()
            traj.records.append(IterationRecord(
                iteration=t, distance=dist, mean_atom_distance=mean_dist,
                recovery_rate=rate, n_atoms=dico.K,
                wallclock_ms=(now - t0) * 1e3, **record_fields))
            t0 = now
            if stop_at_full_recovery and rate is not None and rate >= 1.0:
                break
    traj.dictionary = dico
    return traj


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
    events: List[tuple] = []

    def step(t, dico, batch, helper):
        if cfg.variant != "replacement":
            out = run_iteration(dico, batch, cfg, helper=helper)
            return out.new_dictionary, {"sparsity": cfg.sparsity}
        cands = draw_candidates(dico.d, default_candidate_count(dico.d), rng)
        learned = cands if candidate_source == "learned" else None
        out = run_iteration(dico, batch, cfg, candidates=learned, rng=rng,
                            helper=helper)
        log: List[tuple] = []
        dico, v, pool, replaced = replace_coherent(out.new_dictionary,
                                                   out.atom_scores, cands, policy,
                                                   event_log=log)
        dico, swapped = replace_unused(dico, v, pool, policy, event_log=log)
        events.extend((t,) + ev for ev in log)
        return dico, {"sparsity": cfg.sparsity, "replaced": replaced + swapped}

    traj = learning_loop(dico0, signal_source, iterations, step,
                         reference=reference, recovery_threshold=recovery_threshold,
                         stop_at_full_recovery=stop_at_full_recovery)
    traj.replacement_events = events
    return traj
