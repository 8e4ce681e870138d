"""Replacement candidates learned from residuals, and coherent/unused atom
replacement.

Candidates are a small side dictionary trained with 1-sparse updates on the
residuals of the main iteration (``engine.run_iteration``), renormalized
every sub-batch.  Their value scores count residuals they matched above a
noise-calibrated threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Dictionary, sign_pm
from .signals import make_random_sphere

# Accumulator columns smaller than this are considered never used and redrawn.
ZERO_ACC_TOL = 1e-12


@dataclass
class CandidateSet:
    """L candidate atoms with their value scores."""

    atoms: np.ndarray                      # (d, L) unit columns
    scores: np.ndarray = field(default=None)       # (L,) int64

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        if self.atoms.ndim != 2:
            raise ValueError("candidate atoms must be a d x L matrix")
        if self.scores is None:
            self.scores = np.zeros(self.L, dtype=np.int64)
        else:
            self.scores = np.asarray(self.scores, dtype=np.int64)
        norms = np.linalg.norm(self.atoms, axis=0)
        if self.L and np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValueError("candidate atoms must be unit norm")

    @property
    def d(self) -> int:
        return self.atoms.shape[0]

    @property
    def L(self) -> int:
        return self.atoms.shape[1]


def draw_candidates(d: int, count: int, rng: np.random.Generator) -> CandidateSet:
    """Fresh candidates drawn i.i.d. from the unit sphere."""
    return CandidateSet(atoms=make_random_sphere(d, count, rng).atoms)


def normalize_subbatch(cands: CandidateSet, accumulator: np.ndarray,
                       rng: np.random.Generator, reset_scores: bool) -> None:
    """Turn the (d, L) residual ``accumulator`` into the new candidate atoms
    and reset it.

    Candidates whose accumulator never received a residual are redrawn from
    the sphere instead of dividing by zero.
    """
    norms = np.linalg.norm(accumulator, axis=0)
    good = norms > ZERO_ACC_TOL
    cands.atoms[:, good] = accumulator[:, good] / norms[good]
    if np.any(~good):
        redrawn = make_random_sphere(cands.d, int((~good).sum()), rng)
        cands.atoms[:, ~good] = redrawn.atoms
    accumulator[:] = 0.0
    if reset_scores:
        cands.scores[:] = 0


# ---------------------------------------------------------------------------
# replacement of coherent and unused atoms


@dataclass(frozen=True)
class ReplacementPolicy:
    """Coherence threshold and combination mode for merging coherent atoms."""

    mu_max: float = 0.7
    combine: str = "merge"   # delete | merge | add

    def __post_init__(self):
        if not (0.0 < self.mu_max < 1.0):
            raise ValueError("mu_max must lie in (0, 1)")
        if self.combine not in ("delete", "merge", "add"):
            raise ValueError(f"unknown combine mode {self.combine!r}")


def combine_atoms(mode: str, atom_k: np.ndarray, atom_kp: np.ndarray,
                  v_k: float, v_kp: float, h: float) -> np.ndarray:
    """Merged replacement for a coherent pair, normalized.

    ``mode`` is a ReplacementPolicy combine mode: delete keeps the
    higher-scored atom (ties keep the first), merge weights by scores, add
    combines unweighted.
    """
    if mode == "delete":
        vec = h * atom_k if v_k >= v_kp else atom_kp
    elif mode == "merge":
        if v_k + v_kp <= 0:
            vec = atom_kp + h * atom_k
        else:
            vec = v_kp * atom_kp + h * v_k * atom_k
    else:
        vec = atom_kp + h * atom_k
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        # exactly cancelling weighted pair; keep the first atom
        return atom_k.copy()
    return vec / norm


def _most_coherent_pair(atoms: np.ndarray):
    gram = atoms.T @ atoms
    k = atoms.shape[1]
    iu = np.triu_indices(k, 1)
    vals = np.abs(gram[iu])
    best = int(np.argmax(vals))
    return int(iu[0][best]), int(iu[1][best]), float(vals[best]), float(gram[iu][best])


def replace_coherent(dico: Dictionary, scores: np.ndarray, cands: CandidateSet,
                     policy: ReplacementPolicy, event_log: list | None = None):
    """Replace coherent atom pairs with merged atoms plus the best candidates.

    While some pair exceeds mu_max and candidates remain: merge the most
    coherent pair into the first slot (scores add up), discard candidates
    more coherent with the remaining dictionary than the pair itself, and
    install the best surviving candidate in the freed slot (score taken over
    if it clears mu_max, else zero so it is preferentially replaced again).
    Each replacement appends a row to ``event_log`` when given.

    Returns (dictionary, scores, remaining candidates, replaced_count).
    """
    atoms = dico.atoms.copy()
    v = np.asarray(scores, dtype=np.int64).copy()
    if v.shape != (dico.K,):
        raise ValueError("scores must have one entry per atom")
    order = np.argsort(-cands.scores, kind="stable")
    c_atoms = cands.atoms[:, order].copy()
    c_scores = cands.scores[order].copy()
    replaced = 0
    while atoms.shape[1] >= 2 and c_atoms.shape[1] > 0:
        k, kp, pair_coh, pair_ip = _most_coherent_pair(atoms)
        if pair_coh <= policy.mu_max:
            break
        h = float(sign_pm(pair_ip))
        merged = combine_atoms(policy.combine, atoms[:, k], atoms[:, kp],
                               v[k], v[kp], h)
        rest = np.ones(atoms.shape[1], dtype=bool)
        rest[[k, kp]] = False
        if rest.any():
            mus = np.abs(c_atoms.T @ atoms[:, rest]).max(axis=1)
        else:
            mus = np.zeros(c_atoms.shape[1])
        keep = mus <= pair_coh
        c_atoms, c_scores, mus = c_atoms[:, keep], c_scores[keep], mus[keep]
        if c_atoms.shape[1] == 0:
            break
        if event_log is not None:
            event_log.append(("coherent", k, kp, int(v[k]), int(v[kp])))
        atoms[:, k] = merged
        v[k] += v[kp]
        atoms[:, kp] = c_atoms[:, 0]
        v[kp] = c_scores[0] if mus[0] < policy.mu_max else 0
        c_atoms, c_scores = c_atoms[:, 1:], c_scores[1:]
        replaced += 1
    return Dictionary(atoms), v, CandidateSet(c_atoms, c_scores), replaced


def replace_unused(dico: Dictionary, scores: np.ndarray, cands: CandidateSet,
                   policy: ReplacementPolicy, event_log: list | None = None):
    """Swap leftover candidates into atoms that were never reliably used.

    An atom counts as unused when its score is zero.  Candidates are
    consumed in score order and must pass the mu_max coherence test against
    the rest of the dictionary; unused atoms beyond the candidate supply stay
    unchanged.

    Returns (dictionary, replaced_count).
    """
    unused = np.asarray(scores) == 0
    if not unused.any() or cands.L == 0:
        return dico, 0
    atoms = dico.atoms.copy()
    order = np.argsort(-cands.scores, kind="stable")
    queue = [cands.atoms[:, j] for j in order]
    count = 0
    for slot in np.nonzero(unused)[0]:
        installed = False
        while queue and not installed:
            gamma = queue.pop(0)
            rest = np.ones(atoms.shape[1], dtype=bool)
            rest[slot] = False
            mu = float(np.abs(gamma @ atoms[:, rest]).max()) if rest.any() else 0.0
            if mu < policy.mu_max:
                if event_log is not None:
                    event_log.append(("unused", int(slot), int(slot),
                                      int(np.asarray(scores)[slot]), 0))
                atoms[:, slot] = gamma
                count += 1
                installed = True
        if not queue and not installed:
            break
    return Dictionary(atoms), count
