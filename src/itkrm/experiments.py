"""Reproducible experiment driver: scenarios, manifests, CSV output.

Every experiment is described by a flat ExperimentSpec; running one writes a
JSON manifest (enough to re-run it, plus the environment its bytes depend
on), per-trial trajectory CSVs, an aggregate CSV with mean/std across
trials, and the final dictionaries in the binary container format.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import platform
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace as dc_replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import container
from .adaptive import AdaptiveConfig, run_adaptive
from .approx import approximation_power
from .candidates import ReplacementPolicy
from .engine import (EngineConfig, FixedCorpus, FreshBatches, IterationRecord,
                     Trajectory, round_half_up, run_iteration, run_learning)
from .images import PatchConfig, add_image_noise, extract_patches, load_image_gray
from .linalg import Dictionary, asym_distance
from .signals import (CoefficientMixture, GeometricCoefficients, SignalModel,
                      make_dirac_hadamard, make_random_sphere, make_spurious_estimate,
                      noise_std_for_snr, perturbed_dictionary, rng_from_seed)

# Scenario -> its CLI subcommand and its results.csv columns (none: no
# results.csv); the first scenario of a subcommand is its default.
Scenario = namedtuple("Scenario", "command columns")
SCENARIOS = {
    "replacement_compare": Scenario("learn", ()),
    "plain_recovery": Scenario("learn", ("trial", "recovered", "K")),
    "adaptive_synthetic": Scenario("learn", ()),
    "adaptive_image": Scenario("learn", ("trial", "S", "relative_error")),
    "fixedpoint_probe": Scenario("probe", ("trial", "recovered", "K")),
    "contraction_sweep": Scenario("probe", ("trial", "eps", "distance_before",
                                            "distance_after", "ratio")),
}

# CSV header, one column per IterationRecord field in field order; these
# fields get the paper's symbol as column name, the others keep their own.
_COLUMN_NAMES = {"iteration": "iter", "n_atoms": "K", "sparsity": "S_e",
                 "s_bar": "S_bar", "s_bar_raw": "S_bar_raw", "s_t": "S_t"}
TRAJECTORY_COLUMNS = tuple(_COLUMN_NAMES.get(f.name, f.name)
                           for f in fields(IterationRecord))


class SpecError(ValueError):
    """Invalid experiment specification; the message names the field."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Flat experiment description; defaults follow the synthetic setup of
    the replacement and adaptive experiments (d=128, K=192, S=6, N=120000,
    SNR 16, 5% outliers, mu_max 0.7)."""

    scenario: str = "replacement_compare"
    output_dir: str = "runs/experiment"
    trials: int = 20
    seed: int = 1
    scale: float = 1.0
    d: int = 128
    n_atoms: int = 192
    init_atoms: Optional[int] = None         # K_e, defaults to n_atoms
    dict_kind: str = "random-sphere"
    sparsity: int = 6                        # S_e handed to the engine
    gen_sparsity: Tuple[int, ...] = (6,)     # generating sparsity levels
    gen_weights: Tuple[float, ...] = (1.0,)
    q_min: float = 0.9
    q_max: float = 1.0
    snr: float = 16.0
    outlier_rate: float = 0.05
    iterations: int = 100
    signals: int = 120000
    mu_max: float = 0.7
    combine: str = "merge"
    compare: Tuple[str, ...] = ("candidate", "random", "none")
    min_obs: str = "dlogd"
    recovery_threshold: float = 0.99
    epsilons: Tuple[float, ...] = (0.1, 0.3)
    init_kind: str = "random"                # random | spurious (probe)
    spurious_triples: int = 1
    image_path: Optional[str] = None
    patch_side: int = 8
    image_sigma: float = 0.0
    s_range: Tuple[int, ...] = tuple(range(1, 11))
    stop_at_full_recovery: bool = False

    def validate(self) -> "_Trial":
        """Build trial 0 at the scaled geometry and return its objects, so
        every constructor check applies; the checks here are the others."""
        if self.scenario not in SCENARIOS:
            raise SpecError(f"scenario: unknown value {self.scenario!r}")
        if self.trials < 0:
            raise SpecError("trials: must be >= 0")
        if not 0 < self.scale < math.inf:
            raise SpecError("scale: must be positive and finite")
        for variant in self.compare:
            if variant not in ("candidate", "random", "none"):
                raise SpecError(f"compare: unknown variant {variant!r}")
        if self.iterations < 0 or self.signals < 1:
            raise SpecError("iterations/signals: out of range")
        if not (0 < self.recovery_threshold <= 1):
            raise SpecError("recovery_threshold: must lie in (0, 1]")
        if not all(0 < eps <= math.sqrt(2) for eps in self.epsilons):
            raise SpecError("epsilons: must lie in (0, sqrt(2)]")
        if self.init_kind not in ("random", "spurious"):
            raise SpecError(f"init_kind: unknown value {self.init_kind!r}")
        if self.scenario == "adaptive_image" and not self.image_path:
            raise SpecError("image_path: required for adaptive_image")
        if self.scenario == "contraction_sweep" and self.dict_kind != "random-sphere":
            raise SpecError("dict_kind: contraction_sweep draws a random-sphere "
                            "generating dictionary per trial")
        trial = _build_trial(self.scaled(), 0)
        if trial.adaptive is None and any(self.sparsity > min(est.d, est.K)
                                          for est in trial.init):
            raise SpecError("sparsity: exceeds min(d, K) of the estimate")
        return trial

    def scaled(self) -> "ExperimentSpec":
        """Shrink d, K and N proportionally by the scale factor."""
        if self.scale == 1.0:
            return self
        f = self.scale
        return dc_replace(
            self, scale=1.0,
            d=max(1, round_half_up(self.d * f)),
            n_atoms=max(1, round_half_up(self.n_atoms * f)),
            init_atoms=None if self.init_atoms is None
            else max(1, round_half_up(self.init_atoms * f)),
            signals=max(1, round_half_up(self.signals * f)),
        )


def resolve_min_obs(mode: str, d: int) -> int:
    if mode == "d":
        return d
    if mode == "dlogd":
        return round_half_up(d * math.log(d))
    if mode == "2dlogd":
        return round_half_up(2 * d * math.log(d))
    return int(mode)


def derive_seed(base: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def coefficient_model(spec: ExperimentSpec):
    total = float(sum(spec.gen_weights))
    if not total > 0:
        raise ValueError("weights need a positive sum")
    parts = [(w / total, GeometricCoefficients(spec.q_min, spec.q_max, s))
             for s, w in zip(spec.gen_sparsity, spec.gen_weights, strict=True)]
    if len(parts) == 1:
        return parts[0][1]
    return CoefficientMixture(components=tuple(parts))


def generating_dictionary(spec: ExperimentSpec, rng: np.random.Generator) -> Dictionary:
    if spec.dict_kind == "dirac-hadamard":
        return make_dirac_hadamard(spec.d, spec.n_atoms)
    if spec.dict_kind == "random-sphere":
        return make_random_sphere(spec.d, spec.n_atoms, rng)
    raise ValueError(f"unknown dictionary kind {spec.dict_kind!r}")


def signal_model(spec: ExperimentSpec, generating: Dictionary,
                 trial: int) -> SignalModel:
    return SignalModel(
        dictionary=generating,
        coeffs=coefficient_model(spec),
        noise_std_per_component=noise_std_for_snr(spec.snr, spec.d),
        outlier_rate=spec.outlier_rate,
        outlier_std_per_component=1.0 / spec.d,
        seed=derive_seed(spec.seed, 0x51F, trial),
    )


# ---------------------------------------------------------------------------
# CSV / manifest output


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return "" if value is None else str(value)


def record_row(rec: IterationRecord) -> list:
    return [getattr(rec, f.name) for f in fields(IterationRecord)]


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    write_rows_csv(path, TRAJECTORY_COLUMNS, [record_row(r) for r in trajectory.records])


def write_rows_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def aggregate_trajectories(trajectories: List[Trajectory]):
    """Per-iteration mean/std over trials; wallclock is excluded."""
    stat_cols = [c for c in TRAJECTORY_COLUMNS if c not in ("iter", "wallclock_ms")]
    header = ["iter", "n"]
    for col in stat_cols:
        header += [f"{col}_mean", f"{col}_std"]
    max_len = max((len(t.records) for t in trajectories), default=0)
    rows = []
    for i in range(max_len):
        recs = [t.records[i] for t in trajectories if len(t.records) > i]
        row = [recs[0].iteration, len(recs)]
        full = [record_row(r) for r in recs]
        for j, col in enumerate(TRAJECTORY_COLUMNS):
            if col not in stat_cols:
                continue
            vals = [r[j] for r in full]
            vals = [v for v in vals if v is not None
                    and not (isinstance(v, float) and math.isnan(v))]
            if vals:
                arr = np.array(vals, dtype=np.float64)
                row += [float(arr.mean()), float(arr.std())]
            else:
                row += [None, None]
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# scenarios (one trial each)


# A trial's objects; patches only for an image, a resolved adaptive config for adaptive_*
_Trial = namedtuple("_Trial", "generating source init engine policy patches adaptive")


@contextmanager
def _reading(names: str):
    """Raise a constructor's ValueError as a SpecError naming the spec fields."""
    try:
        yield
    except ValueError as exc:
        raise SpecError(f"{names}: {exc}") from exc


def _build_trial(spec: ExperimentSpec, trial: int) -> _Trial:
    """Build a trial's objects without drawing a batch.  ``init`` holds the
    estimates the engine starts from: a learning scenario's one, with
    ``init_atoms`` random atoms (64 for an image) or spurious triples;
    contraction_sweep's one per epsilon, drawn after its random-sphere
    generating dictionary from the same (seed, 0xC0, trial) generator."""
    sweep = spec.scenario == "contraction_sweep"
    rng = rng_from_seed(derive_seed(spec.seed, 0xC0, trial) if sweep
                        else derive_seed(spec.seed, 0xD1C0))
    with _reading("dict_kind, d, n_atoms, seed"):
        generating = generating_dictionary(spec, rng)
    with _reading("gen_sparsity, gen_weights, q_min, q_max, snr, outlier_rate, seed"):
        source = FreshBatches(signal_model(spec, generating, trial), spec.signals)
    image = spec.scenario == "adaptive_image"
    with _reading("patch_side"):
        patches = PatchConfig(patch_side=spec.patch_side) if image else None
    d, k = (spec.patch_side ** 2, 64) if image else (spec.d, spec.n_atoms)
    if sweep:
        with _reading("d, epsilons"):
            init = tuple(perturbed_dictionary(generating, eps, rng) for eps in spec.epsilons)
    elif spec.scenario == "fixedpoint_probe" and spec.init_kind == "spurious":
        with _reading("spurious_triples"):
            init = (make_spurious_estimate(generating, [
                (3 * i, 3 * i + 2, 3 * i + 1) for i in range(spec.spurious_triples)]),)
    else:
        with _reading("init_atoms"):
            init = (make_random_sphere(d, k if spec.init_atoms is None else spec.init_atoms,
                                       rng_from_seed(derive_seed(spec.seed, 0x171, trial))),)
    with _reading("sparsity"):
        engine = EngineConfig(sparsity=spec.sparsity)
    with _reading("mu_max, combine"):
        policy = ReplacementPolicy(mu_max=spec.mu_max, combine=spec.combine)
    with _reading("mu_max, min_obs"):
        min_obs = resolve_min_obs(spec.min_obs, d)
        adaptive = AdaptiveConfig(mu_max=spec.mu_max, min_observations=min_obs).resolve(d) \
            if spec.scenario.startswith("adaptive") else None
    return _Trial(generating, source, init, engine, policy, patches, adaptive)


def run_trial(spec: ExperimentSpec, trial: int):
    """Run one trial; returns (labelled trajectories, results.csv rows): one
    iteration per estimate for the sweep, else one run per label.  Each
    compare label is replacement from the learned ("candidate") or random
    ("random") candidate pool, or none."""
    generating, source, init, engine, policy, patches, adaptive = _build_trial(spec, trial)
    seed = derive_seed(spec.seed, 0xE, trial)
    trajectories: List[Tuple[str, Trajectory]] = []
    rows: List[list] = []
    if spec.scenario == "contraction_sweep":
        batch = source.batch(1)
        for eps, estimate in zip(spec.epsilons, init):
            out = run_iteration(estimate, batch, engine)
            d_before, _ = asym_distance(generating, estimate)
            d_after, _ = asym_distance(generating, out.new_dictionary)
            rows.append([trial, eps, d_before, d_after, d_after / d_before])
    elif adaptive is not None:
        reference = generating
        if patches is not None:
            clean = load_image_gray(spec.image_path)
            noisy = add_image_noise(clean, spec.image_sigma,
                                    rng_from_seed(derive_seed(spec.seed, 0x10, trial)))
            source, reference = FixedCorpus(extract_patches(noisy, patches)), None
        traj = run_adaptive(init[0], source, adaptive, spec.iterations, seed=seed,
                            reference=reference, recovery_threshold=spec.recovery_threshold)
        trajectories.append(("adaptive", traj))
        if patches is not None:
            report = approximation_power(traj.dictionary, extract_patches(clean, patches),
                                         spec.s_range, augment_flat=True)
            for s, err in zip(report.sparsity_levels, report.relative_errors):
                rows.append([trial, int(s), float(err)])
    else:
        labels = spec.compare if spec.scenario == "replacement_compare" else ("plain",)
        for label in labels:
            replacing = label in ("candidate", "random")
            cfg = dc_replace(engine, variant="replacement") if replacing else engine
            traj = run_learning(
                init[0], source, cfg, spec.iterations, reference=generating,
                policy=policy, recovery_threshold=spec.recovery_threshold, seed=seed,
                candidate_source="random" if label == "random" else "learned",
                stop_at_full_recovery=replacing and spec.stop_at_full_recovery)
            trajectories.append((label, traj))
            if label == "plain" and traj.final_record is not None:
                recovered = int(round(traj.final_record.recovery_rate * generating.K))
                rows.append([trial, recovered, generating.K])
    return trajectories, rows


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("ITKRM_WORKERS", "1")))
    except ValueError as exc:
        raise RuntimeError(f"ITKRM_WORKERS: {exc}") from None


# The same seed gives the same bytes at a fixed BLAS thread count, which
# these variables set; a different count may change the last bits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_core() -> Optional[str]:
    """The kernel family ("SkylakeX", "Haswell", ...) numpy's OpenBLAS chose
    at run time, which decides the BLAS bytes, looked up through numpy's
    linalg extension; None for a BLAS without scipy-openblas's
    ``scipy_openblas_get_corename64_``."""
    try:
        get = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    get.argtypes = []
    get.restype = ctypes.c_char_p
    return get().decode()


def environment() -> dict:
    """What a run's bytes depend on besides its spec; ``simd`` and ``blas``
    are None for a numpy whose ``show_config`` has no dict mode, and
    ``blas_core`` for a BLAS that does not report its kernel family."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas")
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count(), "simd": config.get("SIMD Extensions"),
           "blas": {k: blas.get(k) for k in ("name", "version")} if blas else None,
           "blas_core": _blas_core()}
    env.update((name, os.environ.get(name)) for name in BLAS_THREAD_VARS)
    return env


def run_experiment(spec: ExperimentSpec) -> Path:
    """Run all trials of a spec and write the artifact directory."""
    adaptive = spec.validate().adaptive
    spec = spec.scaled()
    workers = worker_count()
    out_dir = Path(spec.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory not writable: {exc}") from exc

    manifest = {"spec": asdict(spec), "version": 1, "environment": environment()}
    if adaptive is not None:
        manifest["adaptive_config"] = asdict(adaptive)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")
    if spec.trials == 0:
        return out_dir

    if workers > 1 and spec.trials > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # spawned, not forked: a fork would copy this process's thread
        # state into each worker, without the threads behind it
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            futures = [pool.submit(run_trial, spec, t) for t in range(spec.trials)]
            results = [f.result() for f in futures]
    else:
        results = [run_trial(spec, t) for t in range(spec.trials)]

    by_label: dict[str, List[Trajectory]] = {}
    extra_rows: List[list] = []
    event_rows: List[list] = []
    for trial, (trajectories, rows) in enumerate(results):
        for label, traj in trajectories:
            by_label.setdefault(label, []).append(traj)
            write_trajectory_csv(out_dir / f"trial_{trial:03d}_{label}.csv", traj)
            container.write_dictionary(
                out_dir / f"trial_{trial:03d}_{label}.dict", traj.dictionary)
            for it, kind, kept, gone, v_kept, v_gone in traj.replacement_events:
                event_rows.append([trial, label, it, kind, f"{kept}:{gone}",
                                   f"{v_kept}:{v_gone}"])
        extra_rows.extend(rows)
    if event_rows:
        write_rows_csv(out_dir / "replacement_events.csv",
                       ("trial", "label", "iter", "kind", "pair", "scores"),
                       event_rows)
    for label, trajectories in by_label.items():
        header, rows = aggregate_trajectories(trajectories)
        write_rows_csv(out_dir / f"aggregate_{label}.csv", header, rows)
    if extra_rows:
        write_rows_csv(out_dir / "results.csv", SCENARIOS[spec.scenario].columns,
                       extra_rows)
    return out_dir
