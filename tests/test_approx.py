import itertools
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itkrm.approx import _batched_omp_errors, approximation_power, omp
from itkrm.linalg import Dictionary, solve_normal_equations
from itkrm.signals import SignalBatch, make_dirac_hadamard

from conftest import random_dictionary


def test_omp_orthonormal_selects_top_inner_products(rng):
    dico = Dictionary(np.eye(8))
    y = np.array([0.1, 3.0, 0.2, -2.0, 0.0, 0.5, 0.0, 0.0])
    support, coeffs, residual = omp(dico, y, 3)
    assert support.indices.tolist() == [1, 3, 5]
    assert np.allclose(coeffs, y[[1, 3, 5]])
    assert np.linalg.norm(residual) ** 2 == pytest.approx(
        np.linalg.norm(y) ** 2 - 3.0 ** 2 - 2.0 ** 2 - 0.5 ** 2)


def test_omp_exact_recovery_incoherent(rng):
    # exact s-sparse signal in a dictionary with s * mu < 1/2
    dico = make_dirac_hadamard(64, 96)
    sup = np.array([3, 40, 70])
    y = dico.atoms[:, sup] @ np.array([1.0, -0.9, 0.8])
    support, coeffs, residual = omp(dico, y, 3)
    assert set(support.indices.tolist()) == set(sup.tolist())
    assert np.linalg.norm(residual) <= 1e-10


def test_omp_residual_orthogonal_and_monotone(rng):
    dico = random_dictionary(10, 16, rng)
    y = rng.standard_normal(10)
    prev = np.linalg.norm(y)
    for s in range(1, 7):
        support, coeffs, residual = omp(dico, y, s)
        norm = np.linalg.norm(residual)
        assert norm <= prev + 1e-12
        prev = norm
        for k in support.indices:
            assert abs(residual @ dico.atoms[:, k]) <= 1e-8 * np.linalg.norm(y)


def test_omp_error_bounded_by_exhaustive_best_term(rng):
    # OMP is greedy: its error is never below the best s-term approximation
    d, k, s = 6, 8, 2
    for trial in range(50):
        dico = random_dictionary(d, k, rng)
        y = rng.standard_normal(d)
        _, _, residual = omp(dico, y, s)
        omp_err = np.linalg.norm(residual)
        best = np.inf
        for sup in itertools.combinations(range(k), s):
            sub = dico.atoms[:, sup]
            coeffs, *_ = np.linalg.lstsq(sub, y, rcond=None)
            best = min(best, np.linalg.norm(y - sub @ coeffs))
        assert omp_err >= best - 1e-10


def test_omp_validates_sparsity(rng):
    dico = random_dictionary(4, 6, rng)
    with pytest.raises(ValueError):
        omp(dico, np.ones(4), 5)


# --- approximation power -----------------------------------------------------

def test_constant_patches_fit_by_flat_atom(rng):
    d = 16
    dico = random_dictionary(d, 4, rng)
    signals = np.ones((d, 10)) * rng.standard_normal(10)
    batch = SignalBatch(signals=signals)
    report = approximation_power(dico, batch, [1], augment_flat=True)
    assert report.relative_errors[0] <= 1e-10


def test_zero_signals_degenerate(rng):
    dico = random_dictionary(5, 5, rng)
    report = approximation_power(dico, SignalBatch(signals=np.zeros((5, 0))), [1, 2])
    assert report.n_signals == 0
    assert np.all(report.relative_errors == 0)


def test_errors_monotone_in_sparsity(rng):
    dico = random_dictionary(12, 20, rng)
    batch = SignalBatch(signals=rng.standard_normal((12, 60)))
    report = approximation_power(dico, batch, range(1, 9), augment_flat=True)
    errs = report.relative_errors
    assert np.all(np.diff(errs) <= 1e-12)
    assert np.all((errs >= -1e-12) & (errs <= 1.0 + 1e-12))


def test_batched_errors_match_single_signal_omp(rng):
    dico = random_dictionary(9, 13, rng)
    signals = rng.standard_normal((9, 25))
    batch = SignalBatch(signals=signals)
    report = approximation_power(dico, batch, [3], augment_flat=False)
    total = 0.0
    for n in range(25):
        _, _, residual = omp(dico, signals[:, n], 3)
        total += np.linalg.norm(residual) ** 2
    assert report.relative_errors[0] == pytest.approx(
        total / np.sum(signals ** 2), rel=1e-9)


def test_force_flat_includes_constant_atom(rng):
    d = 9
    dico = random_dictionary(d, 6, rng)
    # signals with a large mean component
    signals = rng.standard_normal((d, 20)) + 5.0
    batch = SignalBatch(signals=signals)
    free = approximation_power(dico, batch, [2], augment_flat=True)
    forced = approximation_power(dico, batch, [2], augment_flat=True,
                                 force_flat=True)
    # the flat atom dominates these signals, so both should use it
    assert forced.relative_errors[0] <= free.relative_errors[0] + 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_signal_is_rejected(rng, bad):
    dico = random_dictionary(6, 8, rng)
    signals = rng.standard_normal((6, 20))
    signals[3, 7] = bad
    signals[0, 12] = bad
    with pytest.raises(ValueError, match="column 7"):
        approximation_power(dico, SignalBatch(signals=signals), [1, 2, 3])


# --- Batch-OMP against the per-step re-solve --------------------------------

def reference_batched_omp_errors(atoms: np.ndarray, y: np.ndarray, s_max: int,
                                 preselect: Optional[int] = None) -> np.ndarray:
    """Batched OMP that forms the residual and re-solves the whole support
    with the truncated eigendecomposition at every step.

    The oracle for the Batch-OMP in ``_batched_omp_errors``: same selection
    rule, same ``preselect`` handling, dense K x N scatters.
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


def _with_flat(atoms):
    d = atoms.shape[0]
    return np.hstack([np.full((d, 1), 1.0 / np.sqrt(d)), atoms])


def _oracle_case(case, rng):
    """(atoms, signals, preselect) for one oracle comparison."""
    atoms = random_dictionary(9, 13, rng).atoms
    y = rng.standard_normal((9, 40))
    if case == "random":
        return atoms, y, None
    if case in ("flat", "flat_forced"):
        # 9 picks plus the forced flat atom overfill R^9: the last pick is
        # degenerate for every signal
        return _with_flat(atoms), y + 2.0, 0 if case == "flat_forced" else None
    if case == "zero_columns":
        y[:, ::3] = 0.0
        return _with_flat(atoms), y, None
    if case == "in_span":
        for n in range(y.shape[1]):
            sup = rng.choice(13, size=1 + n % 3, replace=False)
            y[:, n] = atoms[:, sup] @ rng.standard_normal(sup.size)
        return atoms, y, None
    if case == "duplicate_atom":
        # 7 atoms in R^12, atom 4 a copy of atom 1: with s_max = 7 every
        # signal takes both copies, so every signal meets a zero pivot
        atoms = random_dictionary(12, 7, rng).atoms
        atoms[:, 4] = atoms[:, 1]
        y = rng.standard_normal((12, 40))
        y[:, ::5] = 0.0
        return atoms, y, None
    raise ValueError(case)


@pytest.mark.parametrize("case", ["random", "flat", "flat_forced", "zero_columns",
                                  "in_span", "duplicate_atom"])
def test_batched_errors_match_reference(case, rng):
    atoms, y, preselect = _oracle_case(case, rng)
    s_max = min(atoms.shape)
    got = _batched_omp_errors(atoms, y, s_max, preselect=preselect)
    want = reference_batched_omp_errors(atoms, y, s_max, preselect=preselect)
    norms = np.einsum("ij,ij->j", y, y)
    assert got.shape == want.shape == (s_max, y.shape[1])
    assert np.all(np.abs(got - want) <= 1e-10 * norms)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 8), k=st.integers(1, 10), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), zero_share=st.sampled_from([0.0, 0.5]),
       duplicate=st.booleans(), forced=st.booleans())
def test_batched_errors_bounded_and_nonincreasing(d, k, n, seed, zero_share,
                                                  duplicate, forced):
    rng = np.random.default_rng(seed)
    atoms = random_dictionary(d, k, rng).atoms
    if duplicate and k > 1:
        atoms[:, -1] = atoms[:, 0]
    y = rng.standard_normal((d, n)) * rng.uniform(1e-3, 1e3, n)
    y[:, rng.random(n) < zero_share] = 0.0
    errs = _batched_omp_errors(atoms, y, min(d, k), preselect=0 if forced else None)
    norms = np.einsum("ij,ij->j", y, y)
    assert np.all(errs >= 0.0)
    assert np.all(errs <= norms)
    assert np.all(np.diff(errs, axis=0) <= 0.0)
