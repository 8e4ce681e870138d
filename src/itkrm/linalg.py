"""Dense linear algebra on dictionaries with unit-norm columns.

Everything here is a pure function of its inputs; dictionaries are treated
as immutable d x K matrices whose columns (atoms) have Euclidean norm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for the unit-norm column invariant.
NORM_TOL = 1e-10

# Eigenvalues of a sub-Gram matrix below this fraction of the largest one
# are truncated when solving the normal equations (Moore-Penrose behaviour).
EIG_TRUNCATION = 1e-10

# Signals per block of the per-signal kernels (top-S thresholding and
# Batch-OMP): a (block, K) float64 array stays about the size of an L2 cache.
SIGNAL_BLOCK = 2048


def column_blocks(n: int, width: int):
    """(lo, hi) walls of n columns in blocks that start at multiples of
    ``width`` and are at least that wide, the last taking the remainder
    (one block when n < width).

    On OpenBLAS 0.3.31 a product over a block under ~20 columns wide, or
    one starting off an 8-column boundary, took other kernel paths and
    changed the last bits; whether these blocks keep the bytes of the whole
    product depends on the product, the kernel family and the BLAS thread
    count (README, "Determinism").
    """
    starts = list(range(0, n - width + 1, width)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def sign_pm(x):
    """Sign with the convention sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class Dictionary:
    """A collection of K unit-norm atoms in R^d, stored as a d x K matrix."""

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=np.float64))
        if atoms.ndim != 2:
            raise ValueError("atoms must be a 2-d array, got shape %r" % (atoms.shape,))
        d, k = atoms.shape
        if d < 1 or k < 1:
            raise ValueError("dictionary needs at least one row and one column")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms must be finite")
        norms = np.linalg.norm(atoms, axis=0)
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(f"columns must be unit norm (worst deviation {worst:.3e})")
        object.__setattr__(self, "atoms", atoms)

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def K(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def from_columns(cls, matrix) -> "Dictionary":
        """Build a dictionary from the normalized columns of a d x K matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        norms = np.linalg.norm(matrix, axis=0)
        if np.any(norms <= 0):
            raise ValueError("cannot normalize a zero column")
        return cls(matrix / norms)

    def gram(self) -> np.ndarray:
        return self.atoms.T @ self.atoms


@dataclass(frozen=True)
class Support:
    """An ordered (ascending) set of distinct atom indices."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.sort(np.asarray(self.indices, dtype=np.int64).ravel())
        if idx.size < 1:
            raise ValueError("support must contain at least one index")
        if idx[0] < 0:
            raise ValueError("support indices must be nonnegative")
        if np.any(np.diff(idx) == 0):
            raise ValueError("support indices must be distinct")
        object.__setattr__(self, "indices", idx)

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Coherence / operator-norm / cross-Gram dominance diagnostics of an
    estimate against a generating dictionary, computed after matching atoms."""

    coherence: float              # mu of the estimate
    operator_norm_sq: float       # squared operator norm of the estimate
    cross_coherence: float        # max off-diagonal |<phi_k, psi_match(j)>|
    alpha_min: float              # min matched |<phi_k, psi_match(k)>|
    alpha_max: float
    diag_dominance_ratio: float   # alpha_min / max(cross_coherence, mu(reference))
    reference_operator_norm_sq: float
    matching: np.ndarray          # estimate index matched to each reference atom
    diagonally_dominant: bool     # matching is injective and alpha_min dominates


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for symmetric PSD ``gram`` by eigendecomposition.

    Eigenvalues below EIG_TRUNCATION times the largest are truncated, so
    rank-deficient sub-dictionaries yield the minimum-norm solution.  Works
    batched: ``gram`` may be (..., S, S) with ``rhs`` (..., S).
    """
    w, v = np.linalg.eigh(gram)
    lam_max = np.maximum(w[..., -1:], 0.0)
    keep = w > EIG_TRUNCATION * lam_max
    w_inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    proj = np.einsum("...kj,...k->...j", v, rhs)
    return np.einsum("...kj,...j->...k", v, w_inv * proj)


def cholesky_append(chol: np.ndarray, rdiag: np.ndarray, z: np.ndarray, j: int,
                    gram_col: np.ndarray, gram_diag: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """Grow row j of N Cholesky factors L and entry j of z = L^-1 b.

    N is the last, contiguous axis, so each substitution step is one vector
    op: ``chol[i, :i]`` is row i of L below the diagonal, ``rdiag[i]`` is
    1 / L[i, i].  The new atom brings its Gram column against the j earlier
    atoms ``gram_col`` (j, N), its squared norm ``gram_diag`` and its entry
    ``rhs`` of b.  A pivot ``gram_diag - |L^-1 gram_col|^2`` not above
    EIG_TRUNCATION (a duplicate atom) gets reciprocal 0, so the atom adds
    nothing to z or x.  Returns the (N,) mask of pivots above EIG_TRUNCATION.
    """
    w = chol[j, :j]
    w[...] = gram_col
    for i in range(j):
        w[i] -= np.einsum("ij,ij->j", chol[i, :i], w[:i])
        w[i] *= rdiag[i]
    pivot = gram_diag - np.einsum("ij,ij->j", w, w)
    live = pivot > EIG_TRUNCATION
    rdiag[j] = np.where(live, 1.0 / np.sqrt(np.where(live, pivot, 1.0)), 0.0)
    z[j] = (rhs - np.einsum("ij,ij->j", w, z[:j])) * rdiag[j]
    return live


def cholesky_back_substitute(chol: np.ndarray, rdiag: np.ndarray, z: np.ndarray,
                             j: int, out: np.ndarray) -> np.ndarray:
    """Solve L^T x = z[:j] with the factors of :func:`cholesky_append`;
    x goes to ``out[:j]``, which may be ``z``."""
    for i in range(j - 1, -1, -1):
        out[i] = z[i] - np.einsum("ij,ij->j", chol[i + 1:j, i], out[i + 1:j])
        out[i] *= rdiag[i]
    return out


def coherence(dico: Dictionary) -> float:
    """Maximal absolute inner product between two distinct atoms."""
    if dico.K < 2:
        raise ValueError("coherence needs at least two atoms")
    g = np.abs(dico.gram())
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def _abs_cross(reference: Dictionary, estimate: Dictionary) -> np.ndarray:
    """|<ref_k, est_l>| clipped to 1, shape (K_ref, K_est)."""
    if reference.d != estimate.d:
        raise ValueError(f"ambient dimensions differ: {reference.d} vs {estimate.d}")
    return np.minimum(np.abs(reference.atoms.T @ estimate.atoms), 1.0)


def asym_distance(reference: Dictionary, estimate: Dictionary):
    """Asymmetric dictionary distance and per-reference-atom matching.

    Returns ``(max_k min_l sqrt(2 - 2|<ref_k, est_l>|), matching)`` where
    ``matching[k]`` is the estimate atom closest (up to sign) to reference
    atom k.  Invariant under column permutations and sign flips; sizes may
    differ.  Not symmetric in its arguments.
    """
    c = _abs_cross(reference, estimate)
    matching = np.argmax(c, axis=1)
    best = c[np.arange(c.shape[0]), matching]
    dists = np.sqrt(np.maximum(2.0 - 2.0 * best, 0.0))
    return float(dists.max()), matching


def atom_distances(reference: Dictionary, estimate: Dictionary) -> np.ndarray:
    """Per-reference-atom distance to the closest estimate atom (up to sign)."""
    c = _abs_cross(reference, estimate)
    best = c.max(axis=1)
    return np.sqrt(np.maximum(2.0 - 2.0 * best, 0.0))


def mean_atom_distance(reference: Dictionary, estimate: Dictionary) -> float:
    """Average over reference atoms of the distance to their best match."""
    return float(atom_distances(reference, estimate).mean())


def recovery_rate(reference: Dictionary, estimate: Dictionary, threshold: float) -> float:
    """Fraction of reference atoms with max absolute inner product >= threshold."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("recovery threshold must lie in (0, 1]")
    c = _abs_cross(reference, estimate)
    return float(np.mean(c.max(axis=1) >= threshold))


def project_onto_span(dico: Dictionary, support: Support, y: np.ndarray):
    """Orthogonal projection of y onto the span of the supported atoms.

    Returns ``(projection, coefficients)`` with ``projection = atoms_I @
    coefficients``; the coefficients solve the (regularized) normal equations,
    so near-singular sub-dictionaries are handled gracefully.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != dico.d:
        raise ValueError(f"signal length {y.size} does not match dimension {dico.d}")
    if support.indices[-1] >= dico.K:
        raise ValueError("support index out of range")
    sub = dico.atoms[:, support.indices]
    coeffs = solve_normal_equations(sub.T @ sub, sub.T @ y)
    return sub @ coeffs, coeffs


def operator_norm_sq(dico: Dictionary) -> float:
    """Squared operator norm (largest squared singular value) of the atom matrix."""
    a = dico.atoms
    g = a @ a.T if dico.d <= dico.K else a.T @ a
    return float(np.linalg.eigvalsh(g)[-1])


def dictionary_diagnostics(generating: Dictionary, estimate: Dictionary) -> DiagnosticsReport:
    """Diagnostics of an estimate against a generating dictionary of equal size.

    Matches each generating atom to its closest estimate atom (as in
    asym_distance) and reports the quantities that control whether one
    learning iteration contracts: coherence and operator norm of the
    estimate, matched diagonal range [alpha_min, alpha_max] of the
    cross-Gram matrix, and its worst off-diagonal entry.  A non-injective
    matching is reported via the flag, never raised.
    """
    if generating.d != estimate.d:
        raise ValueError("ambient dimensions differ")
    if generating.K != estimate.K:
        raise ValueError("diagnostics need dictionaries of equal size")
    c = _abs_cross(generating, estimate)
    matching = np.argmax(c, axis=1)
    alpha = c[np.arange(c.shape[0]), matching]
    rearranged = c[:, matching]
    off = rearranged.copy()
    np.fill_diagonal(off, 0.0)
    cross_coh = float(off.max())
    mu_ref = coherence(generating) if generating.K >= 2 else 0.0
    denom = max(cross_coh, mu_ref)
    alpha_min = float(alpha.min())
    injective = np.unique(matching).size == matching.size
    return DiagnosticsReport(
        coherence=coherence(estimate) if estimate.K >= 2 else 0.0,
        operator_norm_sq=operator_norm_sq(estimate),
        cross_coherence=cross_coh,
        alpha_min=alpha_min,
        alpha_max=float(alpha.max()),
        diag_dominance_ratio=float(alpha_min / denom) if denom > 0 else float("inf"),
        reference_operator_norm_sq=operator_norm_sq(generating),
        matching=matching,
        diagonally_dominant=bool(injective and alpha_min > cross_coh),
    )
