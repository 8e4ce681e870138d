"""The benchmark's workloads, built only from public ``itkrm`` calls.

Each workload makes its inputs from the seed in ``__init__`` (the set-up)
and runs one fixed unit of work per ``run_pass`` call.  Functions are
looked up on their ``itkrm`` module at call time so that the traced run's
rebinding sees every call.  ``tiny`` shrinks the geometry for smoke tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import itkrm
import itkrm.container
import itkrm.engine
import itkrm.experiments

SNR = 16.0
OUTLIER_RATE = 0.05
MU_MAX = 0.7


@dataclass
class PassOutput:
    trajectory: itkrm.Trajectory
    learn_s: float                      # wall time of the learning loop
    signals: int                        # signals per learning iteration
    d: int
    eval_s: Optional[float] = None      # wall time of approximation_power
    errors: Optional[np.ndarray] = None  # relative error per sparsity 1..S
    corpus: Optional[itkrm.SignalBatch] = None  # the fixed training corpus


def _model(generating, coeffs, seed):
    d = generating.d
    return itkrm.SignalModel(
        dictionary=generating, coeffs=coeffs,
        noise_std_per_component=itkrm.noise_std_for_snr(SNR, d),
        outlier_rate=OUTLIER_RATE, outlier_std_per_component=1.0 / d, seed=seed)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class PaperReplacement:
    """One replacement iteration plus its batch draw at the paper's synthetic
    geometry."""

    name = "paper_replacement"
    fresh_batches = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        d, k, s, n, self.iterations = (16, 24, 3, 2000, 1) if tiny \
            else (128, 192, 6, 120000, 1)
        self.seed = seed
        self.generating = itkrm.make_random_sphere(d, k, itkrm.rng_from_seed(seed, 1))
        self.initial = itkrm.make_random_sphere(d, k, itkrm.rng_from_seed(seed, 2))
        self.model = _model(self.generating, itkrm.GeometricCoefficients(0.9, 1.0, s), seed)
        self.cfg = itkrm.EngineConfig(sparsity=s, variant="replacement")
        self.policy = itkrm.ReplacementPolicy(MU_MAX, "merge")
        self.n = n

    @property
    def operations(self) -> int:
        return self.iterations

    def run_pass(self) -> PassOutput:
        traj, learn_s = _timed(
            itkrm.run_learning, self.initial, itkrm.FreshBatches(self.model, self.n),
            self.cfg, self.iterations, reference=self.generating,
            policy=self.policy, seed=self.seed)
        return PassOutput(traj, learn_s, self.n, self.generating.d)


class AdaptiveSynthetic:
    """Adaptive size and sparsity learning on a coefficient mixture, fresh
    batch each iteration (the criterion-4 geometry)."""

    name = "adaptive_synthetic"
    fresh_batches = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        d, k_gen, k_init, n, self.iterations = (16, 24, 48, 3000, 6) if tiny \
            else (64, 96, 256, 30000, 24)
        self.seed = seed
        self.generating = itkrm.make_random_sphere(d, k_gen, itkrm.rng_from_seed(seed, 1))
        self.initial = itkrm.make_random_sphere(d, k_init, itkrm.rng_from_seed(seed, 2))
        mixture = itkrm.CoefficientMixture(components=tuple(
            (w, itkrm.GeometricCoefficients(0.9, 1.0, s))
            for w, s in ((0.25, 4), (0.5, 6), (0.25, 8))))
        self.model = _model(self.generating, mixture, seed)
        self.cfg = itkrm.AdaptiveConfig(
            mu_max=MU_MAX,
            min_observations=itkrm.engine.round_half_up(d * math.log(d)))
        self.n = n

    @property
    def operations(self) -> int:
        return self.iterations

    def run_pass(self) -> PassOutput:
        traj, learn_s = _timed(
            itkrm.run_adaptive, self.initial, itkrm.FreshBatches(self.model, self.n),
            self.cfg, self.iterations, reference=self.generating, seed=self.seed)
        return PassOutput(traj, learn_s, self.n, self.generating.d)


def textured_image(side: int, seed: int, tile: int = 32) -> np.ndarray:
    """Mosaic of oriented sinusoid tiles over a gradient, quantized to 8 bits
    (the construction of the test suite's ``textured_image``)."""
    rng = itkrm.rng_from_seed(seed)
    img = np.zeros((side, side))
    yy, xx = np.mgrid[0:side, 0:side] / side
    img += 0.25 * yy
    for by in range(side // tile):
        for bx in range(side // tile):
            theta = rng.uniform(0, math.pi)
            freq = rng.uniform(2, 10)
            phase = rng.uniform(0, 2 * math.pi)
            ys = slice(by * tile, (by + 1) * tile)
            xs = slice(bx * tile, (bx + 1) * tile)
            u = np.cos(theta) * xx[ys, xs] + np.sin(theta) * yy[ys, xs]
            img[ys, xs] += 0.3 * np.sin(2 * math.pi * freq * u * side / tile + phase)
    img += 0.05 * rng.standard_normal((side, side))
    img = (img - img.min()) / (img.max() - img.min())
    return np.rint(img * 255) / 255.0


class ImagePipeline:
    """The adaptive_image scenario as library calls: load, patches, adaptive
    learning on the fixed corpus, OMP evaluation, CSV and dictionary output.

    A saturated black band over the top rows makes some mean-removed
    patches exactly zero, as clipped regions do in 8-bit photos.
    """

    name = "image_pipeline"
    fresh_batches = False
    patch_side = 8

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        side, band, k_init, self.iterations, self.s_max = (32, 4, 16, 4, 4) if tiny \
            else (256, 16, 64, 20, 10)
        self.seed = seed
        self.workdir = Path(workdir)
        img = textured_image(side, seed)
        img[:band, :] = 0.0
        self.image_path = self.workdir / "image.pgm"
        itkrm.save_image_pgm(self.image_path, img)
        d = self.patch_side ** 2
        self.initial = itkrm.make_random_sphere(d, k_init, itkrm.rng_from_seed(seed, 2))
        self.cfg = itkrm.AdaptiveConfig(
            mu_max=MU_MAX,
            min_observations=itkrm.engine.round_half_up(2 * d * math.log(d)))

    @property
    def operations(self) -> int:
        return self.iterations + 1   # learning iterations plus one evaluation

    def run_pass(self) -> PassOutput:
        img = itkrm.load_image_gray(self.image_path)
        patches = itkrm.extract_patches(img, itkrm.PatchConfig(patch_side=self.patch_side))
        traj, learn_s = _timed(
            itkrm.run_adaptive, self.initial, itkrm.FixedCorpus(patches), self.cfg,
            self.iterations, seed=self.seed)
        report, eval_s = _timed(
            itkrm.approximation_power, traj.dictionary, patches,
            range(1, self.s_max + 1), augment_flat=True)
        itkrm.experiments.write_trajectory_csv(self.workdir / "trajectory.csv", traj)
        itkrm.container.write_dictionary(self.workdir / "dictionary.dict", traj.dictionary)
        return PassOutput(traj, learn_s, patches.n, patches.d, eval_s=eval_s,
                          errors=report.relative_errors, corpus=patches)


WORKLOADS = {w.name: w for w in (PaperReplacement, AdaptiveSynthetic, ImagePipeline)}
