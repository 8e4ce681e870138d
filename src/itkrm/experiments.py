"""Reproducible experiment driver: scenarios, manifests, CSV output.

Every experiment is described by a flat ExperimentSpec; running one writes a
JSON manifest (enough to re-run it, plus the environment its bytes depend
on), per-trial trajectory CSVs, an aggregate CSV with mean/std across
trials, and the final dictionaries in the binary container format.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
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
                      generate_batch, make_dirac_hadamard, make_random_sphere,
                      make_spurious_estimate, noise_std_for_snr,
                      perturbed_dictionary, rng_from_seed)

# Scenario -> CLI subcommand; the first scenario of a subcommand is its default.
SCENARIOS = {"replacement_compare": "learn", "plain_recovery": "learn",
             "adaptive_synthetic": "learn", "adaptive_image": "learn",
             "fixedpoint_probe": "probe", "contraction_sweep": "probe"}

DICT_KINDS = ("random-sphere", "dirac-hadamard")

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

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise SpecError(f"scenario: unknown value {self.scenario!r}")
        if self.dict_kind not in DICT_KINDS:
            raise SpecError(f"dict_kind: unknown value {self.dict_kind!r}")
        if self.trials < 0:
            raise SpecError("trials: must be >= 0")
        if self.scale <= 0:
            raise SpecError("scale: must be positive")
        if self.d < 1 or self.n_atoms < 1:
            raise SpecError("d/n_atoms: must be positive")
        if self.sparsity < 1:
            raise SpecError("sparsity: must be >= 1")
        if len(self.gen_sparsity) != len(self.gen_weights):
            raise SpecError("gen_weights: must match gen_sparsity in length")
        if not (0 <= self.outlier_rate < 1):
            raise SpecError("outlier_rate: must lie in [0, 1)")
        if not (0 < self.mu_max < 1):
            raise SpecError("mu_max: must lie in (0, 1)")
        if self.combine not in ("delete", "merge", "add"):
            raise SpecError(f"combine: unknown value {self.combine!r}")
        for variant in self.compare:
            if variant not in ("candidate", "random", "none"):
                raise SpecError(f"compare: unknown variant {variant!r}")
        if self.iterations < 0 or self.signals < 1:
            raise SpecError("iterations/signals: out of range")
        if not (0 < self.recovery_threshold <= 1):
            raise SpecError("recovery_threshold: must lie in (0, 1]")
        if self.init_kind not in ("random", "spurious"):
            raise SpecError(f"init_kind: unknown value {self.init_kind!r}")
        if self.scenario == "adaptive_image" and not self.image_path:
            raise SpecError("image_path: required for adaptive_image")
        if self.min_obs not in ("d", "dlogd", "2dlogd") and not _is_int(self.min_obs):
            raise SpecError(f"min_obs: unknown value {self.min_obs!r}")

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


def _is_int(text) -> bool:
    try:
        int(text)
        return True
    except (TypeError, ValueError):
        return False


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
    parts = []
    total = float(sum(spec.gen_weights))
    for s, w in zip(spec.gen_sparsity, spec.gen_weights):
        parts.append((w / total, GeometricCoefficients(spec.q_min, spec.q_max, s)))
    if len(parts) == 1:
        return parts[0][1]
    return CoefficientMixture(components=tuple(parts))


def generating_dictionary(spec: ExperimentSpec) -> Dictionary:
    if spec.dict_kind == "dirac-hadamard":
        return make_dirac_hadamard(spec.d, spec.n_atoms)
    return make_random_sphere(spec.d, spec.n_atoms,
                              rng_from_seed(derive_seed(spec.seed, 0xD1C0)))


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
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def record_row(rec: IterationRecord) -> list:
    return [getattr(rec, f.name) for f in fields(IterationRecord)]


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for rec in trajectory.records:
            writer.writerow([_fmt(v) for v in record_row(rec)])


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


def _initial_estimate(spec: ExperimentSpec, generating: Dictionary,
                      trial: int) -> Dictionary:
    k_init = spec.init_atoms if spec.init_atoms is not None else spec.n_atoms
    if spec.scenario == "fixedpoint_probe" and spec.init_kind == "spurious":
        triples = [(3 * i, 3 * i + 2, 3 * i + 1)
                   for i in range(spec.spurious_triples)]
        return make_spurious_estimate(generating, triples)
    return make_random_sphere(spec.d, k_init,
                              rng_from_seed(derive_seed(spec.seed, 0x171, trial)))


def _adaptive_config(spec: ExperimentSpec, d: int) -> AdaptiveConfig:
    return AdaptiveConfig(mu_max=spec.mu_max,
                          min_observations=resolve_min_obs(spec.min_obs, d))


def run_trial(spec: ExperimentSpec, trial: int):
    """Run one trial; returns (labelled trajectories, extra csv rows)."""
    generating = generating_dictionary(spec)
    model_seed_source = FreshBatches(signal_model(spec, generating, trial),
                                     spec.signals)
    init = _initial_estimate(spec, generating, trial)
    trajectories: List[Tuple[str, Trajectory]] = []
    rows: List[list] = []

    def learn(label: str) -> Trajectory:
        """Plain learning for "plain"/"none", else candidate replacement
        from the learned ("candidate") or random ("random") pool."""
        replacing = label in ("candidate", "random")
        cfg = EngineConfig(sparsity=spec.sparsity,
                           variant="replacement" if replacing else "plain")
        return run_learning(
            init, model_seed_source, cfg, spec.iterations, reference=generating,
            policy=ReplacementPolicy(mu_max=spec.mu_max, combine=spec.combine),
            candidate_source="random" if label == "random" else "learned",
            recovery_threshold=spec.recovery_threshold,
            stop_at_full_recovery=replacing and spec.stop_at_full_recovery,
            seed=derive_seed(spec.seed, 0xE, trial))

    if spec.scenario in ("plain_recovery", "fixedpoint_probe"):
        traj = learn("plain")
        trajectories.append(("plain", traj))
        if traj.final_record is not None:
            recovered = int(round(traj.final_record.recovery_rate * generating.K))
            rows.append([trial, recovered, generating.K])

    elif spec.scenario == "replacement_compare":
        trajectories += [(label, learn(label)) for label in spec.compare]

    elif spec.scenario == "adaptive_synthetic":
        traj = run_adaptive(init, model_seed_source,
                            _adaptive_config(spec, spec.d), spec.iterations,
                            reference=generating,
                            recovery_threshold=spec.recovery_threshold,
                            seed=derive_seed(spec.seed, 0xE, trial))
        trajectories.append(("adaptive", traj))

    elif spec.scenario == "adaptive_image":
        clean = load_image_gray(spec.image_path)
        img = add_image_noise(clean, spec.image_sigma,
                              rng_from_seed(derive_seed(spec.seed, 0x10, trial)))
        patches = extract_patches(img, PatchConfig(patch_side=spec.patch_side))
        d = spec.patch_side ** 2
        k_init = spec.init_atoms if spec.init_atoms is not None else 64
        init = make_random_sphere(
            d, k_init, rng_from_seed(derive_seed(spec.seed, 0x171, trial)))
        traj = run_adaptive(init, FixedCorpus(patches), _adaptive_config(spec, d),
                            spec.iterations, seed=derive_seed(spec.seed, 0xE, trial))
        trajectories.append(("adaptive", traj))
        clean_patches = extract_patches(clean,
                                        PatchConfig(patch_side=spec.patch_side))
        report = approximation_power(traj.dictionary, clean_patches,
                                     spec.s_range, augment_flat=True)
        for s, err in zip(report.sparsity_levels, report.relative_errors):
            rows.append([trial, int(s), float(err)])

    elif spec.scenario == "contraction_sweep":
        rng = rng_from_seed(derive_seed(spec.seed, 0xC0, trial))
        generating = make_random_sphere(spec.d, spec.n_atoms, rng)
        model = signal_model(spec, generating, trial)
        for eps in spec.epsilons:
            estimate = perturbed_dictionary(generating, eps, rng)
            batch = generate_batch(model, spec.signals,
                                   rng=rng_from_seed(model.seed, 1))
            cfg = EngineConfig(sparsity=spec.sparsity, variant="plain")
            out = run_iteration(estimate, batch, cfg)
            d_before, _ = asym_distance(generating, estimate)
            d_after, _ = asym_distance(generating, out.new_dictionary)
            rows.append([trial, eps, d_before, d_after, d_after / d_before])
    else:
        raise SpecError(f"scenario: unknown value {spec.scenario!r}")
    return trajectories, rows


_EXTRA_HEADERS = {
    "plain_recovery": ("trial", "recovered", "K"),
    "fixedpoint_probe": ("trial", "recovered", "K"),
    "adaptive_image": ("trial", "S", "relative_error"),
    "contraction_sweep": ("trial", "eps", "distance_before", "distance_after",
                          "ratio"),
}


def worker_count() -> int:
    return max(1, int(os.environ.get("ITKRM_WORKERS", "1")))


# The same seed gives the same bytes at a fixed BLAS thread count, which
# these variables set; a different count may change the last bits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """What a run's bytes depend on besides its spec."""
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count()}
    env.update((name, os.environ.get(name)) for name in BLAS_THREAD_VARS)
    return env


def run_experiment(spec: ExperimentSpec) -> Path:
    """Run all trials of a spec and write the artifact directory."""
    spec.validate()
    spec = spec.scaled()
    out_dir = Path(spec.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory not writable: {exc}") from exc

    manifest = {"spec": asdict(spec), "version": 1, "environment": environment()}
    if spec.scenario.startswith("adaptive"):
        d_eff = spec.patch_side ** 2 if spec.scenario == "adaptive_image" else spec.d
        cfg = _adaptive_config(spec, d_eff).resolve(d_eff)
        manifest["adaptive_config"] = asdict(cfg)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                      sort_keys=True) + "\n")
    if spec.trials == 0:
        return out_dir

    results = []
    workers = worker_count()
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
        write_rows_csv(out_dir / "results.csv",
                       _EXTRA_HEADERS.get(spec.scenario, ()), extra_rows)
    return out_dir
