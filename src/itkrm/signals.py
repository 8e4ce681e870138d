"""Synthetic training-signal generation, special dictionaries and adversarial
initializations.

Signals follow the generative model ``y = (Phi x + r) / sqrt(1 + ||r||^2)``
where ``x`` places a drawn, non-increasing, l2-normalized coefficient
sequence at uniformly permuted positions with i.i.d. +-1 signs, and ``r`` is
i.i.d. Gaussian noise.  A configurable fraction of signals is replaced by
pure Gaussian outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .linalg import Dictionary

# Sign draws tried by _balanced_perturbation before it gives up.
PERTURBATION_DRAWS = 100

# Signals per row block of generate_batch: uniform position keys are drawn,
# and coefficient rows normalized, this many rows at a time.
KEY_ROWS = 1024


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed plus stream indices."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# coefficient models


@dataclass(frozen=True)
class GeometricCoefficients:
    """c_i proportional to q^(i-1) for i <= sparsity, q drawn in [q_min, q_max]."""

    q_min: float
    q_max: float
    sparsity: int

    def __post_init__(self):
        if not (0.0 < self.q_min <= self.q_max <= 1.0):
            raise ValueError("need 0 < q_min <= q_max <= 1")
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")


@dataclass(frozen=True)
class TwoSparseCoefficients:
    """c = (1, b) / sqrt(1 + b^2) with b drawn uniformly in [b_min, b_max]."""

    b_min: float = 0.9
    b_max: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.b_min <= self.b_max <= 1.0):
            raise ValueError("need 0 < b_min <= b_max <= 1")

    @property
    def sparsity(self) -> int:
        return 2


@dataclass(frozen=True)
class BalancedCoefficients:
    """c_i = 1/sqrt(sparsity) for i <= sparsity."""

    sparsity: int

    def __post_init__(self):
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")


@dataclass(frozen=True)
class CoefficientMixture:
    """Weighted mixture of coefficient models; one component drawn per signal."""

    components: Tuple[Tuple[float, "CoefficientModel"], ...]

    def __post_init__(self):
        weights = np.array([w for w, _ in self.components], dtype=np.float64)
        if weights.size == 0 or np.any(weights < 0):
            raise ValueError("mixture weights must be nonnegative and nonempty")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")

    @property
    def max_sparsity(self) -> int:
        return max(_model_sparsity(m) for _, m in self.components)


CoefficientModel = Union[
    GeometricCoefficients, TwoSparseCoefficients, BalancedCoefficients, CoefficientMixture
]


def _model_sparsity(model: CoefficientModel) -> int:
    if isinstance(model, CoefficientMixture):
        return model.max_sparsity
    return model.sparsity


def _draw_coefficient_rows(model: CoefficientModel, size: int, n: int,
                           rng: np.random.Generator):
    """Vectorized draw of n coefficient rows of length ``size``.

    Returns (c, s) where c is (n, size) nonnegative non-increasing with unit
    l2 norm per row and s is the per-row effective sparsity.
    """
    c = np.zeros((n, size), dtype=np.float64)
    if isinstance(model, GeometricCoefficients):
        s = model.sparsity
        if s > size:
            raise ValueError("sparsity exceeds coefficient length")
        q = rng.uniform(model.q_min, model.q_max, size=n)
        c[:, :s] = q[:, None] ** np.arange(s)[None, :]
        sparsities = np.full(n, s, dtype=np.int64)
    elif isinstance(model, TwoSparseCoefficients):
        if size < 2:
            raise ValueError("two-sparse model needs length >= 2")
        b = rng.uniform(model.b_min, model.b_max, size=n)
        c[:, 0] = 1.0
        c[:, 1] = b
        sparsities = np.full(n, 2, dtype=np.int64)
    elif isinstance(model, BalancedCoefficients):
        s = model.sparsity
        if s > size:
            raise ValueError("sparsity exceeds coefficient length")
        c[:, :s] = 1.0
        sparsities = np.full(n, s, dtype=np.int64)
    elif isinstance(model, CoefficientMixture):
        weights = np.array([w for w, _ in model.components])
        choice = rng.choice(len(model.components), size=n, p=weights)
        sparsities = np.zeros(n, dtype=np.int64)
        for i, (_, sub) in enumerate(model.components):
            rows = np.nonzero(choice == i)[0]
            if rows.size:
                sub_c, sub_s = _draw_coefficient_rows(sub, size, rows.size, rng)
                c[rows] = sub_c
                sparsities[rows] = sub_s
    else:
        raise TypeError(f"unknown coefficient model {type(model).__name__}")
    # each row's norm is reduced alone, so row blocks give the bytes of one
    # whole-array norm without its (n, size) temporary of squares
    for lo in range(0, n, KEY_ROWS):
        block = c[lo:lo + KEY_ROWS]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
    return c, sparsities


# ---------------------------------------------------------------------------
# signal model and batches


@dataclass(frozen=True)
class SignalModel:
    """Generative model: dictionary, coefficient law, noise and outliers."""

    dictionary: Dictionary
    coeffs: CoefficientModel
    noise_std_per_component: float = 0.0
    outlier_rate: float = 0.0
    outlier_std_per_component: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_std_per_component < 0 or self.outlier_std_per_component < 0:
            raise ValueError("noise levels must be nonnegative")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier rate must lie in [0, 1)")


def noise_std_for_snr(snr: float, d: int) -> float:
    """Per-component noise std giving E||r||^2 = 1/snr for unit-energy signals."""
    if snr <= 0:
        return 0.0
    return 1.0 / math.sqrt(snr * d)


@dataclass(frozen=True)
class BatchTruth:
    """Ground truth per generated signal (padded with -1 beyond the sparsity)."""

    support: np.ndarray      # (N, S_max) int32, ordered by coefficient rank
    signs: np.ndarray        # (N, S_max) int8
    coeffs: np.ndarray       # (N, S_max) float64 coefficient values
    sparsity: np.ndarray     # (N,) int32 effective sparsity (0 for outliers)
    is_outlier: np.ndarray   # (N,) bool
    noise_std: float


@dataclass(frozen=True)
class SignalBatch:
    """N signals in R^d, with ground truth when synthetically generated."""

    signals: np.ndarray
    truth: Optional[BatchTruth] = None

    @property
    def d(self) -> int:
        return self.signals.shape[0]

    @property
    def n(self) -> int:
        return self.signals.shape[1]


def generate_batch(model: SignalModel, n: int,
                   rng: Optional[np.random.Generator] = None) -> SignalBatch:
    """Draw a batch of n signals from the model.

    The draw order is fixed (coefficients, support positions, signs, noise,
    outlier mask, outlier values) so a given generator state always yields
    the same batch.  The support positions of a signal are the S_max
    smallest of K uniform keys, taken in increasing key order; the keys are
    drawn and searched KEY_ROWS signals at a time, which consumes the
    generator exactly as one (n, K) draw would.
    """
    if n < 1:
        raise ValueError("need at least one signal")
    if rng is None:
        rng = rng_from_seed(model.seed)
    dico = model.dictionary
    d, k = dico.d, dico.K
    s_max = _model_sparsity(model.coeffs)
    if s_max > min(d, k):
        raise ValueError("model sparsity exceeds min(d, K)")

    c_rows, sparsities = _draw_coefficient_rows(model.coeffs, k, n, rng)
    # only the first s_max columns are nonzero; the (n, K) rows, like x
    # below, are freed early to bound the peak memory of a large batch
    coeff_block = c_rows[:, :s_max].copy()
    del c_rows
    positions = np.empty((n, s_max), dtype=np.int32)
    for lo in range(0, n, KEY_ROWS):
        block = positions[lo:lo + KEY_ROWS]
        keys = rng.random((len(block), k))
        rows = np.arange(len(block))
        for r in range(s_max):
            block[:, r] = np.argmin(keys, axis=1)
            keys[rows, block[:, r]] = np.inf
    signs = np.where(rng.random((n, s_max)) < 0.5, -1, 1).astype(np.int8)

    rank = np.arange(s_max)[None, :]
    active = rank < sparsities[:, None]

    x = np.zeros((n, k), dtype=np.float64)
    np.put_along_axis(
        x, positions.astype(np.int64),
        np.where(active, coeff_block * signs, 0.0), axis=1,
    )
    y = dico.atoms @ x.T
    del x

    if model.noise_std_per_component > 0:
        noise = rng.standard_normal((d, n))
        noise *= model.noise_std_per_component
        scale = np.sqrt(1.0 + np.einsum("ij,ij->j", noise, noise))
        y += noise
        y /= scale

    is_outlier = np.zeros(n, dtype=bool)
    if model.outlier_rate > 0:
        is_outlier = rng.random(n) < model.outlier_rate
        n_out = int(is_outlier.sum())
        if n_out:
            y[:, is_outlier] = model.outlier_std_per_component * rng.standard_normal((d, n_out))

    support = np.where(active, positions, -1).astype(np.int32)
    out_signs = np.where(active, signs, 0).astype(np.int8)
    out_coeffs = np.where(active, coeff_block, 0.0)
    sparsity = sparsities.astype(np.int32)
    if is_outlier.any():
        support[is_outlier] = -1
        out_signs[is_outlier] = 0
        out_coeffs[is_outlier] = 0.0
        sparsity[is_outlier] = 0

    truth = BatchTruth(
        support=support,
        signs=out_signs,
        coeffs=out_coeffs,
        sparsity=sparsity,
        is_outlier=is_outlier,
        noise_std=model.noise_std_per_component,
    )
    return SignalBatch(signals=np.ascontiguousarray(y), truth=truth)


# ---------------------------------------------------------------------------
# special dictionaries and adversarial initializations


def hadamard_matrix(d: int) -> np.ndarray:
    """Unnormalized +-1 Hadamard matrix of power-of-two order (Sylvester)."""
    if d < 1 or d & (d - 1):
        raise ValueError("order must be a positive power of two")
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h


def make_dirac_hadamard(d: int, k: int) -> Dictionary:
    """Identity columns followed by the first k-d normalized Hadamard columns."""
    if k < d or k > 2 * d:
        raise ValueError("need d <= K <= 2d")
    atoms = np.zeros((d, k))
    atoms[:, :d] = np.eye(d)
    if k > d:
        h = hadamard_matrix(d) / math.sqrt(d)
        atoms[:, d:] = h[:, : k - d]
    return Dictionary(atoms)


def make_random_sphere(d: int, k: int, rng: np.random.Generator) -> Dictionary:
    """Atoms drawn i.i.d. from the unit sphere."""
    atoms = rng.standard_normal((d, k))
    return Dictionary.from_columns(atoms, normalize=True)


def make_spurious_estimate(generating: Dictionary, triples) -> Dictionary:
    """Estimate with double atoms and 1:1 combined atoms.

    Each triple (double_idx, lost_idx, partner_idx) duplicates the atom at
    double_idx into the partner's slot and replaces the lost atom's slot by
    the normalized combination of partner and lost atoms, so the estimate
    misses exactly two generating atoms per triple.
    """
    atoms = generating.atoms.copy()
    used = set()
    for double_idx, lost_idx, partner_idx in triples:
        trio = {int(double_idx), int(lost_idx), int(partner_idx)}
        if len(trio) != 3:
            raise ValueError("triple indices must be distinct")
        if trio & used:
            raise ValueError("triples must not overlap")
        used |= trio
        phi_d = generating.atoms[:, double_idx]
        phi_l = generating.atoms[:, lost_idx]
        phi_p = generating.atoms[:, partner_idx]
        h = 1.0 if float(phi_p @ phi_l) >= 0 else -1.0
        combo = phi_p + h * phi_l
        atoms[:, partner_idx] = phi_d
        atoms[:, lost_idx] = combo / np.linalg.norm(combo)
    return Dictionary(atoms)


def _balanced_perturbation(generating: Dictionary, j: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Unit vector orthogonal to atom j, built from a signed sum of the others.

    A degenerate draw (the signed sum lies along atom j) is retried with
    fresh signs, at most PERTURBATION_DRAWS times.
    """
    atoms = generating.atoms
    phi = atoms[:, j]
    for _ in range(PERTURBATION_DRAWS):
        signs = np.where(rng.random(generating.K) < 0.5, -1.0, 1.0)
        signs[j] = 0.0
        z = atoms @ signs
        z = z - (phi @ z) * phi
        norm = np.linalg.norm(z)
        if norm >= 1e-12:
            return z / norm
    raise ValueError(f"no signed sum of the other atoms leaves the span of "
                     f"atom {j} in {PERTURBATION_DRAWS} draws")


def make_bad_initialization(generating: Dictionary, alpha: float, pair_count: int,
                            rng: np.random.Generator) -> Dictionary:
    """Incoherent initialization in which atom pairs point to shared atoms.

    The first ``pair_count`` generating atoms each receive two estimators
    ``alpha * phi_j +- omega * z_j`` (omega = sqrt(1 - alpha^2), z_j a
    normalized balanced signed sum of the other atoms, orthogonal to phi_j);
    the remaining slots are single estimators perturbed at the same alpha.
    Generating atoms pair_count..2*pair_count-1 end up with no estimator.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    k = generating.K
    if 2 * pair_count > k:
        raise ValueError("2 * pair_count exceeds the dictionary size")
    omega = math.sqrt(max(1.0 - alpha * alpha, 0.0))
    atoms = np.empty_like(generating.atoms)
    for j in range(pair_count):
        z = _balanced_perturbation(generating, j, rng)
        phi = generating.atoms[:, j]
        atoms[:, 2 * j] = alpha * phi + omega * z
        atoms[:, 2 * j + 1] = alpha * phi - omega * z
    for slot in range(2 * pair_count, k):
        z = _balanced_perturbation(generating, slot, rng)
        atoms[:, slot] = alpha * generating.atoms[:, slot] + omega * z
    return Dictionary.from_columns(atoms, normalize=True)


def perturbed_dictionary(generating: Dictionary, eps: float,
                         rng: np.random.Generator) -> Dictionary:
    """Per-atom perturbation at chord distance eps with random directions."""
    if not (0.0 <= eps <= math.sqrt(2.0)):
        raise ValueError("eps must lie in [0, sqrt(2)]")
    alpha = 1.0 - eps * eps / 2.0
    omega = math.sqrt(max(eps * eps - eps ** 4 / 4.0, 0.0))
    atoms = np.empty_like(generating.atoms)
    for j in range(generating.K):
        phi = generating.atoms[:, j]
        z = rng.standard_normal(generating.d)
        z -= (phi @ z) * phi
        z /= np.linalg.norm(z)
        atoms[:, j] = alpha * phi + omega * z
    return Dictionary.from_columns(atoms, normalize=True)
