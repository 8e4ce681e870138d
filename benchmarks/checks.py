"""Seed-independent correctness checks and the trajectory digest.

The checks hold for any seed and any geometry, so they can judge every run
of the benchmark: dictionaries are finite with unit-norm atoms, the size K
is at least 1, the working sparsity S_e lies in [1, min(d, K)], and
approximation errors lie in [0, 1] and never increase with the sparsity
level.  The digest hashes the integer part of a trajectory; it is
information for "stream-identical" claims, not a check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

UNIT_NORM_TOL = 1e-9
MONOTONE_TOL = 1e-12


def dictionary_problems(atoms) -> list[str]:
    atoms = np.asarray(atoms, dtype=np.float64)
    if atoms.ndim != 2 or atoms.shape[1] < 1:
        return [f"dictionary shape {atoms.shape} has no atoms"]
    if not np.isfinite(atoms).all():
        return ["dictionary has non-finite entries"]
    worst = float(np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max())
    if worst > UNIT_NORM_TOL:
        return [f"atom norm deviates from 1 by {worst:.3e}"]
    return []


def record_problems(record, d: int) -> list[str]:
    k, s_e = record.n_atoms, record.sparsity
    problems = []
    if k < 1:
        problems.append(f"iteration {record.iteration}: K={k} < 1")
    if not 1 <= s_e <= min(d, k):
        problems.append(f"iteration {record.iteration}: S_e={s_e} outside [1, min({d}, {k})]")
    return problems


def error_curve_problems(errors) -> list[str]:
    errors = np.asarray(errors, dtype=np.float64)
    problems = []
    if errors.size == 0 or not np.isfinite(errors).all():
        problems.append("approximation errors missing or non-finite")
    elif errors.min() < 0.0 or errors.max() > 1.0:
        problems.append("approximation error outside [0, 1]")
    elif np.any(np.diff(errors) > MONOTONE_TOL):
        problems.append("approximation error increases with the sparsity level")
    return problems


DIGEST_FIELDS = ("n_atoms", "sparsity", "s_bar", "replaced", "merges",
                 "pruned_unused", "added")


def trajectory_digest(records) -> str:
    """Hash of (K, S_e, S_bar, replaced, merges, pruned_unused, added) per
    iteration; a missing S_bar hashes as -1."""
    rows = [[-1 if getattr(r, f) is None else int(getattr(r, f))
             for f in DIGEST_FIELDS] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
