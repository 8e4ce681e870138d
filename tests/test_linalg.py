import math

import numpy as np
import pytest

from itkrm.linalg import (Dictionary, Support, asym_distance, atom_distances,
                          coherence, dictionary_diagnostics,
                          mean_atom_distance, operator_norm_sq,
                          project_onto_span, recovery_rate)
from itkrm.signals import (make_dirac_hadamard, make_spurious_estimate,
                           perturbed_dictionary)

from conftest import random_dictionary


def test_dictionary_rejects_non_unit_columns():
    with pytest.raises(ValueError):
        Dictionary(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_dictionary_from_columns_normalizes():
    dico = Dictionary.from_columns(np.array([[3.0], [4.0]]))
    assert np.allclose(dico.atoms[:, 0], [0.6, 0.8])


def test_support_sorts_and_rejects_duplicates():
    s = Support(np.array([4, 1, 2]))
    assert s.indices.tolist() == [1, 2, 4]
    with pytest.raises(ValueError):
        Support(np.array([1, 1]))


# --- coherence -------------------------------------------------------------

def test_coherence_orthonormal_basis_is_zero():
    assert coherence(Dictionary(np.eye(5))) == 0.0


def test_coherence_dirac_hadamard():
    dico = make_dirac_hadamard(32, 48)
    assert coherence(dico) == pytest.approx(1.0 / math.sqrt(32), abs=1e-12)


def test_coherence_two_atoms_at_45_degrees():
    atoms = np.array([[1.0, 1.0 / math.sqrt(2)], [0.0, 1.0 / math.sqrt(2)]])
    assert coherence(Dictionary(atoms)) == pytest.approx(1.0 / math.sqrt(2))


def test_coherence_single_atom_raises():
    with pytest.raises(ValueError):
        coherence(Dictionary(np.eye(3)[:, :1]))


# --- cross-Gram (as the distances see it) ----------------------------------

def test_cross_gram_self_has_unit_diagonal(rng):
    dico = random_dictionary(6, 9, rng)
    assert np.allclose(atom_distances(dico, dico), 0.0, atol=1e-7)
    _, matching = asym_distance(dico, dico)
    assert np.array_equal(matching, np.arange(dico.K))


def test_cross_gram_sign_flip_negates(rng):
    dico = random_dictionary(5, 7, rng)
    flipped = Dictionary(-dico.atoms)
    assert np.array_equal(atom_distances(dico, flipped), atom_distances(dico, dico))
    assert asym_distance(dico, flipped)[0] == asym_distance(dico, dico)[0]


def test_cross_gram_matches_double_loop_oracle(rng):
    a = random_dictionary(4, 5, rng)
    b = random_dictionary(4, 6, rng)
    got = atom_distances(a, b)
    for k in range(a.K):
        ips = [abs(sum(a.atoms[i, k] * b.atoms[i, l] for i in range(4)))
               for l in range(b.K)]
        assert abs(got[k] - math.sqrt(2.0 - 2.0 * max(ips))) < 1e-12


def test_cross_gram_dimension_mismatch():
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        asym_distance(Dictionary(np.eye(3)), Dictionary(np.eye(4)))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        atom_distances(Dictionary(np.eye(3)), Dictionary(np.eye(4)))


# --- distances -------------------------------------------------------------

def test_asym_distance_zero_for_self_and_sign_flip(rng):
    dico = random_dictionary(8, 10, rng)
    assert asym_distance(dico, dico)[0] == pytest.approx(0.0, abs=1e-7)
    assert asym_distance(dico, Dictionary(-dico.atoms))[0] == pytest.approx(0.0, abs=1e-7)


def test_asym_distance_canonical_basis_example():
    # basis vs estimate with psi_1 = (e1+e2)/sqrt2 and psi_2 = sum(e_i)/sqrt(d)
    d = 16
    est = np.eye(d)
    est[:, 0] = 0.0
    est[0, 0] = est[1, 0] = 1.0 / math.sqrt(2)
    est[:, 1] = 1.0 / math.sqrt(d)
    basis = Dictionary(np.eye(d))
    estimate = Dictionary(est)
    fwd, _ = asym_distance(basis, estimate)
    bwd, _ = asym_distance(estimate, basis)
    assert fwd == pytest.approx(math.sqrt(2 - 2 / math.sqrt(2)), abs=1e-12)
    assert bwd == pytest.approx(math.sqrt(2 - 2 / math.sqrt(d)), abs=1e-12)


def test_asym_distance_matches_brute_force(rng):
    ref = random_dictionary(5, 3, rng)
    est = random_dictionary(5, 4, rng)
    got, matching = asym_distance(ref, est)
    per_atom = []
    for k in range(ref.K):
        options = [math.sqrt(max(2 - 2 * abs(ref.atoms[:, k] @ est.atoms[:, l]), 0.0))
                   for l in range(est.K)]
        per_atom.append(min(options))
        assert options[matching[k]] == pytest.approx(min(options), abs=1e-12)
    assert got == pytest.approx(max(per_atom), abs=1e-12)


def test_asym_distance_permutation_invariance(rng):
    ref = random_dictionary(6, 8, rng)
    est = random_dictionary(6, 8, rng)
    perm = rng.permutation(8)
    signs = np.where(rng.random(8) < 0.5, -1.0, 1.0)
    shuffled = Dictionary(est.atoms[:, perm] * signs)
    assert asym_distance(ref, shuffled)[0] == pytest.approx(
        asym_distance(ref, est)[0], abs=1e-12)


def test_asym_distance_zero_iff_atoms_contained(rng):
    # distance 0 exactly when every reference atom appears (up to sign)
    ref = random_dictionary(7, 4, rng)
    extra = random_dictionary(7, 3, rng)
    contained = Dictionary(np.column_stack([-ref.atoms[:, ::-1], extra.atoms]))
    assert asym_distance(ref, contained)[0] == pytest.approx(0.0, abs=1e-7)
    missing = Dictionary(np.column_stack([ref.atoms[:, :3], extra.atoms]))
    assert asym_distance(ref, missing)[0] > 0.1


def test_mean_atom_distance_identical_is_zero(rng):
    dico = random_dictionary(7, 7, rng)
    assert mean_atom_distance(dico, dico) == pytest.approx(0.0, abs=1e-7)


def test_mean_atom_distance_two_atom_hand_case():
    # one atom moved by chord length 0.2, the other untouched: mean = 0.1
    chord = 0.2
    angle = 2 * math.asin(chord / 2)
    atoms_ref = np.eye(2)
    atoms_est = np.array([[math.cos(angle), 0.0], [math.sin(angle), 1.0]])
    got = mean_atom_distance(Dictionary(atoms_ref), Dictionary(atoms_est))
    assert got == pytest.approx(0.1, abs=1e-12)


def test_atom_distances_identical_and_spurious():
    dico = make_dirac_hadamard(32, 48)
    assert np.allclose(atom_distances(dico, dico), 0.0, atol=1e-7)
    est = make_spurious_estimate(dico, [(0, 2, 1)])
    errs = np.sort(atom_distances(dico, est))
    # all but two atoms exact; the two missing ones at sqrt(2 - sqrt(2))
    assert np.allclose(errs[:46], 0.0, atol=1e-7)
    assert np.allclose(errs[46:], math.sqrt(2 - math.sqrt(2)), atol=1e-7)


# --- recovery rate ---------------------------------------------------------

def test_recovery_rate_exact(rng):
    dico = random_dictionary(12, 16, rng)
    assert recovery_rate(dico, dico, 0.99) == 1.0


def test_recovery_rate_two_missing_of_48():
    dico = make_dirac_hadamard(32, 48)
    est = make_spurious_estimate(dico, [(0, 2, 1)])
    assert recovery_rate(dico, est, 0.99) == pytest.approx(46 / 48)


def test_recovery_rate_below_threshold():
    a = Dictionary(np.array([[1.0], [0.0]]))
    b = Dictionary(np.array([[0.98], [math.sqrt(1 - 0.98 ** 2)]]))
    assert recovery_rate(a, b, 0.99) == 0.0


def test_recovery_rate_threshold_validation(rng):
    dico = random_dictionary(4, 4, rng)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            recovery_rate(dico, dico, bad)


# --- projections -----------------------------------------------------------

def test_project_orthonormal_coefficients_are_inner_products(rng):
    dico = Dictionary(np.eye(6))
    y = rng.standard_normal(6)
    proj, coeffs = project_onto_span(dico, Support(np.array([1, 3])), y)
    assert np.allclose(coeffs, [y[1], y[3]])
    expected = np.zeros(6)
    expected[[1, 3]] = y[[1, 3]]
    assert np.allclose(proj, expected)


def test_project_idempotent_and_orthogonal_residual(rng):
    dico = random_dictionary(8, 12, rng)
    sup = Support(np.array([0, 4, 7]))
    y = rng.standard_normal(8)
    proj, _ = project_onto_span(dico, sup, y)
    again, _ = project_onto_span(dico, sup, proj)
    assert np.linalg.norm(again - proj) <= 1e-10 * max(np.linalg.norm(proj), 1)
    residual = y - proj
    for k in sup.indices:
        assert abs(residual @ dico.atoms[:, k]) <= 1e-8 * np.linalg.norm(y)


def test_project_in_span_signal_has_tiny_residual(rng):
    dico = random_dictionary(7, 9, rng)
    sup = Support(np.array([2, 5, 6]))
    y = dico.atoms[:, sup.indices] @ rng.standard_normal(3)
    proj, _ = project_onto_span(dico, sup, y)
    assert np.linalg.norm(y - proj) <= 1e-8 * np.linalg.norm(y)


def test_project_matches_independent_svd_solver(rng):
    # oracle: dense least squares via SVD on the raw sub-dictionary
    for _ in range(25):
        dico = random_dictionary(6, 10, rng)
        sup = Support(rng.choice(10, size=3, replace=False))
        y = rng.standard_normal(6)
        _, coeffs = project_onto_span(dico, sup, y)
        oracle, *_ = np.linalg.lstsq(dico.atoms[:, sup.indices], y, rcond=None)
        assert np.linalg.norm(coeffs - oracle) <= 1e-8


def test_project_handles_duplicate_atoms(rng):
    atom = rng.standard_normal(5)
    atom /= np.linalg.norm(atom)
    dico = Dictionary(np.column_stack([atom, atom]))
    y = rng.standard_normal(5)
    proj, coeffs = project_onto_span(dico, Support(np.array([0, 1])), y)
    assert np.all(np.isfinite(coeffs))
    assert np.allclose(proj, (atom @ y) * atom)


# --- operator norm -----------------------------------------------------------

def test_operator_norm_orthonormal_and_tight_frame():
    assert operator_norm_sq(Dictionary(np.eye(5))) == pytest.approx(1.0)
    # two orthonormal bases side by side form a tight frame with norm^2 = 2
    dico = make_dirac_hadamard(8, 16)
    assert operator_norm_sq(dico) == pytest.approx(2.0, abs=1e-10)


def test_operator_norm_matches_eigenvalue_oracle(rng):
    dico = random_dictionary(6, 9, rng)
    oracle = max(np.linalg.eigvalsh(dico.atoms @ dico.atoms.T))
    assert operator_norm_sq(dico) == pytest.approx(float(oracle), abs=1e-10)


# --- diagnostics report ----------------------------------------------------

def test_diagnostics_identity_estimate(rng):
    dico = random_dictionary(10, 14, rng)
    report = dictionary_diagnostics(dico, dico)
    assert report.alpha_min == pytest.approx(1.0)
    assert report.alpha_max == pytest.approx(1.0)
    assert report.cross_coherence == pytest.approx(coherence(dico), abs=1e-12)
    assert report.diagonally_dominant


def test_diagnostics_epsilon_perturbation(rng):
    d, k, eps = 128, 128, 0.3
    dico = random_dictionary(d, k, rng)
    est = perturbed_dictionary(dico, eps, rng)
    report = dictionary_diagnostics(dico, est)
    assert report.alpha_min == pytest.approx(1 - eps ** 2 / 2, abs=1e-10)
    assert report.alpha_max == pytest.approx(1 - eps ** 2 / 2, abs=1e-10)
    assert report.diagonally_dominant


def test_diagnostics_flags_non_injective_matching():
    # two estimate atoms equal: some generating atom unmatched
    base = np.eye(3)
    est = base.copy()
    est[:, 1] = base[:, 0]
    report = dictionary_diagnostics(Dictionary(base), Dictionary(est))
    assert not report.diagonally_dominant


def test_diagnostics_requires_equal_sizes(rng):
    with pytest.raises(ValueError):
        dictionary_diagnostics(random_dictionary(4, 4, rng),
                               random_dictionary(4, 5, rng))
