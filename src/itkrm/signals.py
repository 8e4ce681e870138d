"""Synthetic training-signal generation and special dictionaries.

Signals follow the generative model ``y = (Phi x + r) / sqrt(1 + ||r||^2)``
where ``x`` places a drawn, non-increasing, l2-normalized coefficient
sequence at uniformly permuted positions with i.i.d. +-1 signs, and ``r`` is
i.i.d. Gaussian noise.  A configurable fraction of signals is replaced by
pure Gaussian outliers.
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import Executor, wait
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .linalg import Dictionary, column_blocks

# Signals per row block of generate_batch: uniform position keys are drawn
# and searched this many rows at a time.
KEY_ROWS = 1024

# Signals per column chunk of the clean product of generate_batch; the last
# chunk also takes the remainder, so no chunk is narrower (see there).
PRODUCT_COLS = 8 * KEY_ROWS


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
    def sparsity(self) -> int:
        """The largest sparsity of any component."""
        return max(m.sparsity for _, m in self.components)


CoefficientModel = Union[
    GeometricCoefficients, TwoSparseCoefficients, BalancedCoefficients, CoefficientMixture
]


def _draw_coefficient_rows(model: CoefficientModel, size: int, n: int,
                           rng: np.random.Generator):
    """Vectorized draw of n coefficient rows of length ``size`` >= the sparsity.

    Returns (c, s) where c is (n, size) nonnegative non-increasing with unit
    l2 norm per row and s is the per-row effective sparsity.
    """
    c = np.zeros((n, size), dtype=np.float64)
    if isinstance(model, GeometricCoefficients):
        s = model.sparsity
        q = rng.uniform(model.q_min, model.q_max, size=n)
        c[:, :s] = q[:, None] ** np.arange(s)[None, :]
        sparsities = np.full(n, s, dtype=np.int64)
    elif isinstance(model, TwoSparseCoefficients):
        b = rng.uniform(model.b_min, model.b_max, size=n)
        c[:, 0] = 1.0
        c[:, 1] = b
        sparsities = np.full(n, 2, dtype=np.int64)
    elif isinstance(model, BalancedCoefficients):
        s = model.sparsity
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
    c /= np.linalg.norm(c, axis=1, keepdims=True)
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
        levels = (self.noise_std_per_component, self.outlier_std_per_component)
        if not all(math.isfinite(v) and v >= 0 for v in levels):
            raise ValueError("noise levels must be finite and nonnegative")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier rate must lie in [0, 1)")
        if self.coeffs.sparsity > min(self.dictionary.d, self.dictionary.K):
            raise ValueError("model sparsity exceeds min(d, K)")


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


def require_finite(signals: np.ndarray) -> None:
    """Raise ValueError naming the first column of the (d, N) ``signals``
    that has a NaN or infinite entry."""
    finite = np.isfinite(signals).all(axis=0)
    if not finite.all():
        raise ValueError(f"signal column {int(np.argmin(finite))} has a non-finite entry")


def _skipped(bitgen: np.random.Philox, words: int) -> np.random.Philox:
    """A copy of ``bitgen`` moved past its next ``words`` 64-bit outputs.

    Philox turns each counter value into 4 buffered outputs: the copy uses
    up the rest of the buffer, ``advance`` skips whole counter values, and
    at most 3 draws step into the next one.
    """
    state = bitgen.state
    skipped = copy.deepcopy(bitgen)
    buffered = 4 - state["buffer_pos"]
    if words >= buffered:
        skipped.advance((words - buffered) // 4)
        # advance also drops a saved 32-bit half-word, which 64-bit draws keep
        skipped.state = {**skipped.state, "has_uint32": state["has_uint32"],
                         "uinteger": state["uinteger"]}
        words = (words - buffered) % 4
    skipped.random_raw(words)
    return skipped


def _draw_tail(model: SignalModel, d: int, n: int,
               rng: Optional[np.random.Generator]):
    """The draws after the signs, in order: the scaled noise with its
    normalization, the outlier mask and the outlier values.

    Returns (noise, scale, is_outlier, outliers), None where the model has
    no such part; ``rng`` may be None when it has neither.
    """
    noise = scale = outliers = None
    if model.noise_std_per_component > 0:
        noise = rng.standard_normal((d, n))
        noise *= model.noise_std_per_component
        scale = np.sqrt(1.0 + np.einsum("ij,ij->j", noise, noise))
    is_outlier = np.zeros(n, dtype=bool)
    if model.outlier_rate > 0:
        is_outlier = rng.random(n) < model.outlier_rate
        n_out = int(is_outlier.sum())
        if n_out:
            outliers = model.outlier_std_per_component * rng.standard_normal((d, n_out))
    return noise, scale, is_outlier, outliers


def generate_batch(model: SignalModel, n: int,
                   rng: Optional[np.random.Generator] = None,
                   helper: Optional[Executor] = None) -> SignalBatch:
    """Draw a batch of n signals from the model.

    The draw order is fixed (coefficients, support positions, signs, noise,
    outlier mask, outlier values) so a given generator state always yields
    the same batch, and ``rng`` ends where drawing in that order leaves it.
    The support positions of a signal are the S_max smallest of K uniform
    keys, taken in increasing key order; the keys are drawn and searched
    KEY_ROWS signals at a time, which consumes the generator exactly as one
    (n, K) draw would.

    ``rng`` must be a Philox generator (``rng_from_seed``), because the
    draws from the noise on come from a copy of it moved past the n*K key
    and n*S_max sign words.  With ``helper``, an executor, that part runs
    there while this thread draws the keys and signs and forms the clean
    signals; a part the helper has not started when it is needed runs
    here.  Either way the bytes are the same.
    """
    if n < 1:
        raise ValueError("need at least one signal")
    if rng is None:
        rng = rng_from_seed(model.seed)
    if not isinstance(getattr(rng, "bit_generator", None), np.random.Philox):
        raise TypeError("generate_batch skips ahead in the random stream, so it "
                        "needs a Philox generator such as rng_from_seed gives, "
                        f"not {type(getattr(rng, 'bit_generator', rng)).__name__}")
    dico = model.dictionary
    d, k = dico.d, dico.K
    s_max = model.coeffs.sparsity

    # The coefficient rows are drawn 8 * ceil(S_max / 8) columns wide (at
    # most K) and keep the bytes of rows K wide: numpy sums a contiguous
    # float64 row into 8 partial sums (every 8th entry each), splitting a row
    # of over 128 entries in halves at multiples of 8 first.  With S_max <= 64
    # the nonzeros fall into the same partial sums at both widths and each
    # zero after them adds exactly +0.0 to the row norm.  Above 64 a halving
    # may split the nonzeros (K=136 with S_max=72 changed the last bits), so
    # there the rows are K wide.
    width = k if s_max > 64 else min(k, 8 * -(-s_max // 8))
    c_rows, sparsities = _draw_coefficient_rows(model.coeffs, width, n, rng)
    coeffs = c_rows[:, :s_max]

    tail_rng = tail = None
    if model.noise_std_per_component > 0 or model.outlier_rate > 0:
        tail_rng = np.random.Generator(_skipped(rng.bit_generator, n * (k + s_max)))
        if helper is not None:
            tail = helper.submit(_draw_tail, model, d, n, tail_rng)
    try:
        positions = np.empty((n, s_max), dtype=np.int32)
        for lo in range(0, n, KEY_ROWS):
            block = positions[lo:lo + KEY_ROWS]
            keys = rng.random((len(block), k))
            rows = np.arange(len(block))
            for r in range(s_max):
                block[:, r] = np.argmin(keys, axis=1)
                keys[rows, block[:, r]] = np.inf
        signs = np.where(rng.random((n, s_max)) < 0.5, -1, 1).astype(np.int8)

        active = np.arange(s_max) < sparsities[:, None]
        values = np.where(active, coeffs * signs, 0.0)
        # Phi x one column chunk at a time, so no dense (n, K) x exists.
        # Each chunk must keep the bytes of the whole product
        # (``column_blocks``).  These chunks kept them for d x K from 4 x 8
        # to 128 x 192 with the Sandybridge, Haswell, Zen and SkylakeX-family
        # kernels at 1 and 2 BLAS threads, though not with the Nehalem
        # kernels at 2 threads.
        y = np.empty((d, n))
        for lo, hi in column_blocks(n, PRODUCT_COLS):
            x = np.zeros((hi - lo, k))
            np.put_along_axis(x, positions[lo:hi].astype(np.int64), values[lo:hi], axis=1)
            np.matmul(dico.atoms, x.T, out=y[:, lo:hi])
            del x       # so no two chunks' x are alive at once
        del values

        noise, scale, is_outlier, outliers = \
            _draw_tail(model, d, n, tail_rng) if tail is None or tail.cancel() \
            else tail.result()
    finally:
        if tail is not None and not tail.cancel():
            wait((tail,))
    if tail_rng is not None:
        rng.bit_generator.state = tail_rng.bit_generator.state
    if noise is not None:
        y += noise
        y /= scale
    if outliers is not None:
        y[:, is_outlier] = outliers

    keep = active & ~is_outlier[:, None]
    truth = BatchTruth(
        support=np.where(keep, positions, -1).astype(np.int32),
        signs=np.where(keep, signs, 0).astype(np.int8),
        coeffs=np.where(keep, coeffs, 0.0),
        sparsity=np.where(is_outlier, 0, sparsities).astype(np.int32),
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
    return Dictionary.from_columns(atoms)


def make_spurious_estimate(generating: Dictionary, triples) -> Dictionary:
    """Estimate with double atoms and 1:1 combined atoms.

    Each triple (double_idx, lost_idx, partner_idx) duplicates the atom at
    double_idx into the partner's slot and replaces the lost atom's slot by
    the normalized combination of partner and lost atoms, so the estimate
    misses exactly two generating atoms per triple; no triple raises
    ValueError.
    """
    atoms = generating.atoms.copy()
    used = set()
    for double_idx, lost_idx, partner_idx in triples:
        trio = {int(double_idx), int(lost_idx), int(partner_idx)}
        if not all(0 <= i < generating.K for i in trio):
            raise ValueError(f"triple indices must lie in [0, {generating.K})")
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
    if not used:
        raise ValueError("need at least one triple")
    return Dictionary(atoms)


def perturbed_dictionary(generating: Dictionary, eps: float,
                         rng: np.random.Generator) -> Dictionary:
    """Per-atom perturbation at chord distance eps with random directions,
    which need d >= 2."""
    if generating.d < 2:
        raise ValueError("perturbing an atom needs d >= 2")
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
    return Dictionary.from_columns(atoms)
