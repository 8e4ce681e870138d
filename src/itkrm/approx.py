"""Orthogonal Matching Pursuit and approximation-quality evaluation.

`omp` is the single-signal reference; `approximation_power` runs Batch-OMP
with a progressive Cholesky factor over a whole batch of signals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import (Dictionary, Support, cholesky_append,
                     cholesky_back_substitute, solve_normal_equations)
from .signals import SignalBatch

OMP_RESIDUAL_TOL = 1e-12


def omp(dico: Dictionary, y: np.ndarray, s: int):
    """Greedy sparse approximation with re-projection after every pick.

    Selects the atom with the largest absolute residual inner product (ties
    to the lowest index), re-solves the normal equations on the selected
    span, and stops after ``s`` picks or when the residual drops below
    1e-12 times the signal norm.

    Returns (support, coefficients, residual); coefficients are aligned with
    the ascending support indices.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != dico.d:
        raise ValueError("signal length does not match dictionary dimension")
    if s < 1 or s > min(dico.d, dico.K):
        raise ValueError("sparsity must lie in [1, min(d, K)]")
    atoms = dico.atoms
    y_norm = np.linalg.norm(y)
    selected: list[int] = []
    residual = y.copy()
    coeffs = np.zeros(0)
    for _ in range(s):
        if np.linalg.norm(residual) < OMP_RESIDUAL_TOL * y_norm:
            break
        ip = np.abs(atoms.T @ residual)
        ip[selected] = -1.0
        selected.append(int(np.argmax(ip)))
        sub = atoms[:, selected]
        coeffs = solve_normal_equations(sub.T @ sub, sub.T @ y)
        residual = y - sub @ coeffs
    support = Support(np.array(selected))
    order = np.argsort(np.array(selected))
    return support, coeffs[order], residual


@dataclass(frozen=True)
class ApproxReport:
    """Relative Frobenius approximation error per sparsity level."""

    sparsity_levels: np.ndarray
    relative_errors: np.ndarray
    n_signals: int


def _batched_omp_errors(atoms: np.ndarray, y: np.ndarray, s_max: int,
                        preselect: Optional[int] = None) -> np.ndarray:
    """Squared residual norms after 1..s_max greedy picks, per signal.

    Batch-OMP (R. Rubinstein, M. Zibulevsky, M. Elad, Technion CS-2008-08):
    the residual itself is never formed.  Each signal keeps a lower-triangular
    Cholesky factor L of its support's sub-Gram and z = L^-1 Phi_I^T y, both
    grown by one row per pick with ``linalg.cholesky_append``; the squared
    residual then falls by z_j^2 per pick.  The next pick maximizes
    |Phi^T y - G gamma| over the atoms not yet taken (ties to the lowest
    index), with gamma = L^-T z: one (N, K) x (K, K) product per pick.

    A pick whose pivot is not above EIG_TRUNCATION lies in the span of the
    atoms already taken (a duplicate atom, or any pick once the support spans
    R^d); the kernel drops it from z and gamma.  The errors depend only on the
    span, so unlike the learning iteration they need no eigh fallback.

    ``preselect`` forces one atom into every support before the greedy picks
    (used for the always-included flat atom); its projection is not counted
    as one of the s_max picks.
    """
    n = y.shape[1]
    gram = atoms.T @ atoms
    diag = np.diag(gram)
    alpha0 = y.T @ atoms                        # (N, K): Phi^T y per signal
    steps = ([preselect] if preselect is not None else []) + [None] * s_max
    m = len(steps)
    cols = np.arange(n)
    sel = np.zeros((m, n), dtype=np.int64)      # pick j of each signal
    chol = np.zeros((m, m, n))                  # chol[j, :j]: row j of L
    rdiag = np.zeros((m, n))                    # 1 / L[j, j], 0 when degenerate
    z = np.zeros((m, n))
    gamma = np.zeros((m, n))
    scatter = np.zeros((n, atoms.shape[1]))     # gamma on the support, 0 elsewhere
    alpha = np.empty_like(scatter)
    err = np.einsum("ij,ij->j", y, y)
    out = np.empty((s_max, n))
    row = 0
    for j, forced in enumerate(steps):
        if forced is not None:
            winners = np.full(n, forced, dtype=np.int64)
        else:
            if j:
                cholesky_back_substitute(chol, rdiag, z, j, out=gamma)
                scatter[cols, sel[:j]] = gamma[:j]
                np.matmul(scatter, gram, out=alpha)
                np.subtract(alpha0, alpha, out=alpha)
                np.abs(alpha, out=alpha)
                alpha[cols, sel[:j]] = -1.0
            else:
                np.abs(alpha0, out=alpha)
            winners = np.argmax(alpha, axis=1)
        sel[j] = winners
        cholesky_append(chol, rdiag, z, j, gram[sel[:j], winners], diag[winners],
                        alpha0[cols, winners])
        err -= z[j] ** 2
        np.maximum(err, 0.0, out=err)
        if forced is None:
            out[row] = err
            row += 1
    return out


def approximation_power(dico: Dictionary, batch: SignalBatch,
                        s_range: Sequence[int], augment_flat: bool = True,
                        force_flat: bool = False) -> ApproxReport:
    """Relative approximation error of OMP over a range of sparsity levels.

    With ``augment_flat`` the constant atom 1/sqrt(d) is prepended and
    available to OMP like any other atom; ``force_flat`` additionally places
    it in every support before the s greedy picks.  Errors are measured as
    sum of squared residuals over the squared Frobenius norm of the batch.
    A signal with a NaN or infinite entry raises ValueError.
    """
    y = batch.signals
    if not np.isfinite(y).all():
        bad = int(np.argmin(np.isfinite(y).all(axis=0)))
        raise ValueError(f"signal column {bad} has a non-finite entry")
    levels = np.array(sorted(set(int(s) for s in s_range)), dtype=np.int64)
    if levels.size == 0 or levels[0] < 1:
        raise ValueError("sparsity levels must be positive")
    if y.shape[1] == 0:
        zeros = np.zeros(levels.size)
        return ApproxReport(levels, zeros, 0)
    atoms = dico.atoms
    preselect = None
    if augment_flat:
        flat = np.full((dico.d, 1), 1.0 / np.sqrt(dico.d))
        atoms = np.hstack([flat, atoms])
        if force_flat:
            preselect = 0
    s_max = int(levels.max())
    if s_max > min(y.shape[0], atoms.shape[1]):
        raise ValueError("sparsity level exceeds min(d, K)")
    errors_sq = _batched_omp_errors(atoms, y, s_max, preselect=preselect)
    total = float(np.einsum("ij,ij->", y, y))
    rel = errors_sq[levels - 1].sum(axis=1) / total
    return ApproxReport(levels, rel, y.shape[1])
