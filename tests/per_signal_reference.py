"""Per-signal reference of one ITKrM iteration, the oracle of ``run_iteration``.

The paper states each update one signal at a time; this module does the
same, in the most direct form: threshold, project, push each selected atom
towards its signed residual, count the value hits, and feed the residual to
the candidate stream.  ``engine.run_iteration`` computes the same quantities
for a whole batch at once, and ``test_run_iteration_matches_per_signal_reference``
checks the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from itkrm.candidates import CandidateSet, normalize_subbatch
from itkrm.engine import EngineConfig, threshold_support
from itkrm.linalg import (Dictionary, Support, project_onto_span, sign_pm,
                          solve_normal_equations)


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
    """One signal's contribution to an iteration."""
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
    proj, _ = project_onto_span(dico, support, y)
    atom = dico.atoms[:, k]
    return (y - proj + (atom @ y) * atom) * signs[where[0]]


@dataclass
class StreamCandidates(CandidateSet):
    """Candidates plus the state of a per-signal stream: the running residual
    sums, the sub-batch size N_gamma and the count of signals seen."""

    accumulator: np.ndarray = None         # (d, L) raw residual sums
    subbatch_size: int = 0
    signals_seen: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.accumulator is None:
            self.accumulator = np.zeros_like(self.atoms)


def candidate_threshold(variant: str, *, dictionary_size: int | None = None,
                        subbatch_size: int | None = None, d: int) -> float:
    """Squared-score threshold tau for candidate value counting."""
    if variant == "replacement":
        return 2.0 * math.log(2.0 * dictionary_size) / d
    if variant == "adaptive":
        return 2.0 * math.log(2.0 * subbatch_size / d) / d
    raise ValueError(f"no candidate threshold for variant {variant!r}")


def candidate_signal_update(cands: StreamCandidates, residual: np.ndarray,
                            variant: str, *, dictionary_size: int | None = None,
                            training_subbatches: int = 1,
                            rng: np.random.Generator | None = None,
                            zero_tol: float = 1e-12) -> StreamCandidates:
    """Process one residual: attribute it to the best-matching candidate.

    The winning candidate's accumulator receives the signed residual and its
    score increments when the match clears the variant's threshold.  A
    (numerically) zero residual attributes nothing but still advances the
    sub-batch stream, whose boundaries renormalize the accumulator for the
    first ``training_subbatches`` sub-batches (the adaptive variant also
    restarts the scores there, so the final scores cover the last window).
    """
    residual = np.asarray(residual, dtype=np.float64).ravel()
    res_norm = float(np.linalg.norm(residual))
    if cands.L and res_norm > zero_tol:
        ip = cands.atoms.T @ residual
        winner = int(np.argmax(np.abs(ip)))
        cands.accumulator[:, winner] += residual * float(sign_pm(ip[winner]))
        tau = candidate_threshold(variant, dictionary_size=dictionary_size,
                                  subbatch_size=cands.subbatch_size, d=cands.d)
        if ip[winner] ** 2 >= tau * res_norm ** 2:
            cands.scores[winner] += 1
    cands.signals_seen += 1
    n_gamma = cands.subbatch_size
    if n_gamma and cands.signals_seen % n_gamma == 0 \
            and cands.signals_seen < training_subbatches * n_gamma:
        normalize_subbatch(cands, cands.accumulator, rng,
                           reset_scores=(variant == "adaptive"))
    return cands
