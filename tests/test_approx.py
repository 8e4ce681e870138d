import itertools

import numpy as np
import pytest

from itkrm.approx import approximation_power, omp
from itkrm.linalg import Dictionary
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
