"""Orthogonal Matching Pursuit and approximation-quality evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import Dictionary, Support, solve_normal_equations
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

    ``preselect`` forces one atom into every support before the greedy picks
    (used for the always-included flat atom); its projection is not counted
    as one of the s_max picks.
    """
    d, n = y.shape
    k = atoms.shape[1]
    gram = atoms.T @ atoms
    ip0 = atoms.T @ y
    cols = np.arange(n)
    residual = y.copy()
    selected = np.zeros((n, 0), dtype=np.int64)
    taken = np.zeros((k, n), dtype=bool)
    out = np.empty((s_max, n))
    steps = ([preselect] if preselect is not None else []) + [None] * s_max
    row = 0
    for forced in steps:
        if forced is not None:
            winners = np.full(n, forced, dtype=np.int64)
        else:
            ip = np.abs(atoms.T @ residual)
            ip[taken] = -1.0
            winners = np.argmax(ip, axis=0)
        taken[winners, cols] = True
        selected = np.column_stack([selected, winners])
        sub_gram = gram[selected[:, :, None], selected[:, None, :]]
        rhs = np.take_along_axis(ip0, selected.T, axis=0).T
        coeffs = solve_normal_equations(sub_gram, rhs)
        scatter = np.zeros((k, n))
        scatter[selected.T, cols[None, :]] = coeffs.T
        residual = y - atoms @ scatter
        if forced is None:
            out[row] = np.einsum("ij,ij->j", residual, residual)
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
    """
    levels = np.array(sorted(set(int(s) for s in s_range)), dtype=np.int64)
    if levels.size == 0 or levels[0] < 1:
        raise ValueError("sparsity levels must be positive")
    y = batch.signals
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
