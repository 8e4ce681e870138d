import json
import math
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itkrm
from itkrm import container, engine, experiments, signals
from itkrm.engine import EngineConfig, IterationRecord, Trajectory, run_iteration
from itkrm.experiments import (TRAJECTORY_COLUMNS, ExperimentSpec, SpecError,
                               aggregate_trajectories, coefficient_model,
                               derive_seed, record_row, resolve_min_obs,
                               run_experiment, run_trial, signal_model,
                               write_rows_csv, write_trajectory_csv)
from itkrm.linalg import asym_distance
from itkrm.signals import (CoefficientMixture, GeometricCoefficients,
                           make_random_sphere, perturbed_dictionary, rng_from_seed)


def tiny_spec(tmp_path, **kw):
    defaults = dict(
        scenario="plain_recovery", output_dir=str(tmp_path / "run"), trials=2,
        seed=3, d=16, n_atoms=20, sparsity=2, gen_sparsity=(2,),
        gen_weights=(1.0,), snr=16.0, outlier_rate=0.0, iterations=2,
        signals=400, dict_kind="random-sphere")
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_spec_validation_names_field(tmp_path):
    with pytest.raises(SpecError, match="scenario"):
        tiny_spec(tmp_path, scenario="nope").validate()
    with pytest.raises(SpecError, match="mu_max"):
        tiny_spec(tmp_path, mu_max=1.5).validate()
    with pytest.raises(SpecError, match="image_path"):
        tiny_spec(tmp_path, scenario="adaptive_image").validate()


def _mostly(valid, outside):
    """A value of ``valid`` five times in six, else one of ``outside``."""
    return st.integers(0, 5).flatmap(lambda i: valid if i else st.sampled_from(outside))


@st.composite
def tiny_specs(draw):
    """A one-trial spec of every scenario but adaptive_image, its fields
    drawn at and just outside the edges of their ranges."""
    d, k = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    init_atoms = draw(st.none() | _mostly(st.integers(1, 10), [0]))
    k_e = init_atoms or k
    levels = draw(st.lists(_mostly(st.integers(1, min(d, k)), [0, min(d, k) + 1]),
                           min_size=1, max_size=2))
    return ExperimentSpec(
        scenario=draw(st.sampled_from(["replacement_compare", "plain_recovery",
                                       "adaptive_synthetic", "fixedpoint_probe",
                                       "contraction_sweep"])),
        output_dir="unused", trials=1, iterations=2, d=d, n_atoms=k,
        init_atoms=init_atoms,
        dict_kind=draw(_mostly(st.just("random-sphere"), ["dirac-hadamard"])),
        sparsity=draw(_mostly(st.integers(1, min(d, k_e)), [0, min(d, k_e) + 1])),
        gen_sparsity=tuple(levels), gen_weights=(1.0,) * len(levels),
        q_min=draw(_mostly(st.sampled_from([0.5, 1.0]), [0.0, 1.5])),
        outlier_rate=draw(st.sampled_from([0.0, 0.5])),
        signals=draw(st.integers(1, 40)),
        min_obs=draw(_mostly(st.sampled_from(["d", "dlogd", "2dlogd", "1"]),
                             ["0", "-1", "x"])),
        epsilons=draw(st.sampled_from([(0.1, 0.3), (math.sqrt(2),)])),
        init_kind=draw(st.sampled_from(["random", "spurious"])),
        spurious_triples=draw(_mostly(st.integers(1, max(1, k // 3)), [-1, 0, k // 3 + 1])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=tiny_specs())
def test_every_spec_validate_accepts_runs_a_trial(spec):
    # validate builds the trial's objects and raises only SpecError, so a
    # spec it lets through gets through the trial as well
    try:
        spec.validate()
    except SpecError:
        return
    run_trial(spec, 0)


def test_single_atom_plain_recovery_validates_and_runs(tmp_path):
    # the adaptive config, whose default M = round(d log d) is 0 at d=1, is
    # built for the adaptive scenarios only
    spec = tiny_spec(tmp_path, d=1, n_atoms=1, sparsity=1, gen_sparsity=(1,),
                     signals=20, trials=1)
    spec.validate()
    out = run_experiment(spec)
    assert (out / "results.csv").read_text().splitlines()[1:] == ["0,1,1"]
    with pytest.raises(SpecError, match="min_obs"):
        tiny_spec(tmp_path, scenario="adaptive_synthetic", d=1, n_atoms=1, sparsity=1,
                  gen_sparsity=(1,)).validate()


def test_scale_shrinks_proportionally(tmp_path):
    spec = tiny_spec(tmp_path, d=128, n_atoms=192, signals=120000, scale=0.5)
    scaled = spec.scaled()
    assert (scaled.d, scaled.n_atoms, scaled.signals) == (64, 96, 60000)
    assert scaled.scale == 1.0


def test_resolve_min_obs():
    assert resolve_min_obs("d", 64) == 64
    assert resolve_min_obs("dlogd", 64) == 266
    assert resolve_min_obs("2dlogd", 64) == 532
    assert resolve_min_obs("123", 64) == 123


def test_coefficient_model_single_and_mixture(tmp_path):
    single = coefficient_model(tiny_spec(tmp_path))
    assert isinstance(single, GeometricCoefficients)
    mix = coefficient_model(tiny_spec(tmp_path, gen_sparsity=(4, 6, 8),
                                      gen_weights=(1.0, 2.0, 1.0)))
    assert isinstance(mix, CoefficientMixture)
    assert [w for w, _ in mix.components] == [0.25, 0.5, 0.25]


def test_trials_zero_writes_manifest_only(tmp_path):
    out = run_experiment(tiny_spec(tmp_path, trials=0))
    files = sorted(p.name for p in out.iterdir())
    assert files == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["scenario"] == "plain_recovery"


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = run_experiment(tiny_spec(tmp_path, trials=0))
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "cpu_count", "simd", "blas", "blas_core",
                        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["OMP_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None
    config = np.show_config(mode="dicts")
    assert env["simd"] == config["SIMD Extensions"]
    blas = config["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}


def test_manifest_simd_is_the_level_numpy_runs_at():
    # the level numpy dispatches to at run time, not only the one it was
    # built for: features turned off by NPY_DISABLE_CPU_FEATURES show as
    # not found
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found")
    if not found:
        pytest.skip("numpy dispatches to no SIMD level above its baseline here")
    code = ("import json; from itkrm.experiments import environment; "
            "print(json.dumps(environment()['simd']))")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(found),
           "PYTHONPATH": str(Path(itkrm.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert set(found) <= set(json.loads(out.stdout)["not found"])


def test_manifest_blas_core_is_the_kernel_family_openblas_runs():
    # the family OpenBLAS picked at run time, not the build target that
    # show_config reports: forcing one through OPENBLAS_CORETYPE shows it
    if experiments._blas_core() is None:
        pytest.skip("numpy's BLAS does not report its kernel family")
    code = ("import json; from itkrm.experiments import environment; "
            "print(json.dumps(environment()['blas_core']))")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": str(Path(itkrm.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == "Sandybridge"


@pytest.mark.parametrize("lookup", ["missing_symbol", "no_library"])
def test_manifest_blas_core_none_without_the_symbol(tmp_path, monkeypatch, lookup):
    def cdll(path):
        if lookup == "no_library":
            raise OSError(f"{path}: cannot open shared object file")
        return types.SimpleNamespace()          # a library without the symbol
    monkeypatch.setattr(experiments.ctypes, "CDLL", cdll)
    out = run_experiment(tiny_spec(tmp_path, trials=0))
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["blas_core"] is None


def test_manifest_environment_without_dict_mode_config(tmp_path, monkeypatch):
    def show_config():              # numpy before dict mode only prints
        print("numpy build configuration")
    monkeypatch.setattr(np, "show_config", show_config)
    out = run_experiment(tiny_spec(tmp_path, trials=0))
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert env["simd"] is None and env["blas"] is None
    assert env["numpy"] == np.__version__


def test_plain_recovery_artifacts(tmp_path):
    out = run_experiment(tiny_spec(tmp_path))
    names = {p.name for p in out.iterdir()}
    assert "manifest.json" in names
    assert "trial_000_plain.csv" in names
    assert "trial_001_plain.dict" in names
    assert "aggregate_plain.csv" in names
    assert "results.csv" in names
    dico = container.read_dictionary(out / "trial_000_plain.dict")
    assert dico.d == 16 and dico.K == 20
    header = (out / "trial_000_plain.csv").read_text().splitlines()[0]
    assert header.startswith("iter,distance,mean_atom_distance,recovery_rate,K,S_e")


def test_same_spec_same_bytes(tmp_path):
    a = run_experiment(tiny_spec(tmp_path, output_dir=str(tmp_path / "a")))
    b = run_experiment(tiny_spec(tmp_path, output_dir=str(tmp_path / "b")))
    for name in ("aggregate_plain.csv", "results.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # per-trial rows identical apart from the wallclock column
    for name in ("trial_000_plain.csv", "trial_001_plain.csv"):
        rows_a = [line.split(",") for line in (a / name).read_text().splitlines()]
        rows_b = [line.split(",") for line in (b / name).read_text().splitlines()]
        wall = rows_a[0].index("wallclock_ms")
        for ra, rb in zip(rows_a, rows_b):
            del ra[wall], rb[wall]
            assert ra == rb
    assert (a / "trial_000_plain.dict").read_bytes() == \
        (b / "trial_000_plain.dict").read_bytes()


def test_fixedpoint_probe_spurious_estimate_stays_stable(tmp_path):
    # the paper's stable spurious fixed point: from an estimate with a
    # double atom and a 1:1 combined atom per triple, plain learning keeps
    # the two generating atoms of each triple missing
    triples = 2
    spec = tiny_spec(tmp_path, scenario="fixedpoint_probe", d=32, n_atoms=48,
                     dict_kind="dirac-hadamard", init_kind="spurious",
                     spurious_triples=triples, gen_sparsity=(2,), signals=2000,
                     iterations=3, trials=2)
    out = run_experiment(spec)
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "trial,recovered,K"
    assert rows[1:] == [f"{t},{48 - 2 * triples},48" for t in range(2)]


def test_plain_and_replacement_rows_keep_adaptive_defaults(tmp_path):
    spec = tiny_spec(tmp_path, scenario="replacement_compare", trials=1,
                     compare=("candidate", "none"))
    out = run_experiment(spec)
    for label in ("candidate", "none"):
        lines = (out / f"trial_000_{label}.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + spec.iterations
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert (row["S_bar"], row["S_bar_raw"], row["S_t"]) == ("", "", "")
            assert [row[c] for c in ("merges", "pruned", "pruned_unused",
                                     "added")] == ["0"] * 4


def test_replacement_compare_labels(tmp_path):
    spec = tiny_spec(tmp_path, scenario="replacement_compare", trials=1,
                     compare=("candidate", "none"), iterations=2)
    out = run_experiment(spec)
    names = {p.name for p in out.iterdir()}
    assert "trial_000_candidate.csv" in names
    assert "trial_000_none.csv" in names
    assert "aggregate_candidate.csv" in names


def test_adaptive_synthetic_artifacts(tmp_path):
    spec = tiny_spec(tmp_path, scenario="adaptive_synthetic", trials=1,
                     d=16, n_atoms=20, init_atoms=16, iterations=3,
                     signals=500, min_obs="16")
    out = run_experiment(spec)
    lines = (out / "trial_000_adaptive.csv").read_text().splitlines()
    assert len(lines) == 4
    assert "S_bar_raw" in lines[0]
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = manifest["adaptive_config"]
    assert cfg["min_observations"] == 16
    assert cfg["freeze_add_tail"] == 9  # 3 round(log 16)


def test_replacement_events_csv(tmp_path):
    # force replacements: start from an estimate with duplicated atoms
    spec = tiny_spec(tmp_path, scenario="replacement_compare", trials=1,
                     d=16, n_atoms=20, sparsity=2, iterations=2, signals=500,
                     compare=("candidate",))
    out = run_experiment(spec)
    path = out / "replacement_events.csv"
    if path.exists():
        header = path.read_text().splitlines()[0]
        assert header == "trial,label,iter,kind,pair,scores"


def test_adaptive_image_artifacts(tmp_path):
    from itkrm.images import save_image_pgm
    from test_images import synthetic_image
    img_path = tmp_path / "img.pgm"
    save_image_pgm(img_path, synthetic_image(32, seed=5))
    spec = tiny_spec(tmp_path, scenario="adaptive_image", trials=1,
                     iterations=3, image_path=str(img_path), patch_side=4,
                     init_atoms=12, min_obs="40", s_range=(1, 2))
    out = run_experiment(spec)
    assert (out / "trial_000_adaptive.csv").exists()
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "trial,S,relative_error"
    assert len(rows) == 3


def test_contraction_sweep_rows(tmp_path):
    spec = tiny_spec(tmp_path, scenario="contraction_sweep", trials=2,
                     d=24, n_atoms=32, sparsity=3, signals=600,
                     epsilons=(0.1, 0.3))
    out = run_experiment(spec)
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "trial,eps,distance_before,distance_after,ratio"
    assert len(rows) == 1 + 2 * 2


def test_contraction_sweep_draws_one_batch_per_trial(tmp_path, monkeypatch):
    # every epsilon of a trial runs on the one batch (seed, 1), and the rows
    # are those of drawing that batch again for each epsilon
    spec = tiny_spec(tmp_path, scenario="contraction_sweep", trials=2,
                     d=24, n_atoms=32, sparsity=3, signals=600,
                     epsilons=(0.1, 0.3))
    draws = []
    real = signals.generate_batch

    def counting(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)
    for module in (engine, experiments):
        monkeypatch.setattr(module, "generate_batch", counting, raising=False)
    monkeypatch.delenv("ITKRM_WORKERS", raising=False)
    out = run_experiment(spec)
    assert len(draws) == spec.trials

    rows = []
    for trial in range(spec.trials):
        rng = rng_from_seed(derive_seed(spec.seed, 0xC0, trial))
        generating = make_random_sphere(spec.d, spec.n_atoms, rng)
        model = signal_model(spec, generating, trial)
        for eps in spec.epsilons:
            estimate = perturbed_dictionary(generating, eps, rng)
            batch = real(model, spec.signals, rng=rng_from_seed(model.seed, 1))
            learned = run_iteration(estimate, batch, EngineConfig(sparsity=spec.sparsity))
            before, _ = asym_distance(generating, estimate)
            after, _ = asym_distance(generating, learned.new_dictionary)
            rows.append([trial, eps, before, after, after / before])
    write_rows_csv(tmp_path / "want.csv",
                   ("trial", "eps", "distance_before", "distance_after", "ratio"), rows)
    assert (out / "results.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_worker_pool_matches_serial(tmp_path, monkeypatch):
    serial = run_experiment(tiny_spec(tmp_path, output_dir=str(tmp_path / "s")))
    monkeypatch.setenv("ITKRM_WORKERS", "2")
    pooled = run_experiment(tiny_spec(tmp_path, output_dir=str(tmp_path / "p")))
    assert (serial / "aggregate_plain.csv").read_bytes() == \
        (pooled / "aggregate_plain.csv").read_bytes()
    assert (serial / "trial_001_plain.dict").read_bytes() == \
        (pooled / "trial_001_plain.dict").read_bytes()


def test_worker_pool_spawns_workers(tmp_path, monkeypatch):
    import concurrent.futures
    contexts = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            contexts.append(mp_context)
            super().__init__(max_workers, mp_context, **kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("ITKRM_WORKERS", "2")
    run_experiment(tiny_spec(tmp_path))
    assert [c.get_start_method() for c in contexts] == ["spawn"]


def test_manifest_suffices_to_rerun(tmp_path):
    from itkrm.cli import parse_spec
    spec = tiny_spec(tmp_path)
    out = run_experiment(spec)
    stored = json.loads((out / "manifest.json").read_text())["spec"]
    rebuilt = parse_spec(stored)
    assert rebuilt == spec.scaled()


def test_aggregate_handles_unequal_lengths(tmp_path):
    def rec(i, dist):
        return IterationRecord(iteration=i, distance=dist, mean_atom_distance=None,
                               recovery_rate=None, n_atoms=4, sparsity=1,
                               s_bar=None, replaced=0, pruned=0, added=0,
                               wallclock_ms=1.0)
    t1 = Trajectory(records=[rec(1, 0.5), rec(2, 0.4)])
    t2 = Trajectory(records=[rec(1, 0.3)])
    header, rows = aggregate_trajectories([t1, t2])
    assert rows[0][1] == 2 and rows[1][1] == 1
    i = header.index("distance_mean")
    assert rows[0][i] == pytest.approx(0.4)
    assert rows[1][i] == pytest.approx(0.4)


def test_trajectory_columns_one_per_record_field(tmp_path):
    assert len(TRAJECTORY_COLUMNS) == len(fields(IterationRecord))
    rec = IterationRecord(iteration=3, distance=0.5, mean_atom_distance=0.25,
                          recovery_rate=1.0, n_atoms=7, sparsity=2, s_bar=2,
                          replaced=1, pruned=4, added=5, wallclock_ms=9.0,
                          s_bar_raw=2.5, s_t=1.5, merges=3, pruned_unused=1)
    row = dict(zip(TRAJECTORY_COLUMNS, record_row(rec)))
    assert (row["iter"], row["K"], row["S_e"], row["S_bar"]) == (3, 7, 2, 2)
    assert (row["merges"], row["pruned_unused"], row["added"]) == (3, 1, 5)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, Trajectory(records=[rec]))
    assert path.read_text().splitlines()[0] == (
        "iter,distance,mean_atom_distance,recovery_rate,K,S_e,S_bar,replaced,"
        "pruned,added,wallclock_ms,S_bar_raw,S_t,merges,pruned_unused")
