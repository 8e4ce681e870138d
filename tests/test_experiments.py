import json
import os
from dataclasses import fields

import numpy as np
import pytest

from itkrm import container
from itkrm.engine import IterationRecord, Trajectory
from itkrm.experiments import (TRAJECTORY_COLUMNS, ExperimentSpec, SpecError,
                               aggregate_trajectories, coefficient_model,
                               record_row, resolve_min_obs, run_experiment,
                               write_trajectory_csv)
from itkrm.signals import CoefficientMixture, GeometricCoefficients


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
    assert set(env) == {"python", "numpy", "cpu_count", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["OMP_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None


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
