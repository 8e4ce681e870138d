import json
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from itkrm import container
from itkrm.cli import (_spec_from_args, build_parser, main, parse_spec,
                       read_config_file)
from itkrm.experiments import ExperimentSpec, SpecError
from itkrm.images import save_image_pgm
from itkrm.linalg import Dictionary
from itkrm.signals import make_random_sphere, rng_from_seed

from test_images import synthetic_image


def test_parse_spec_defaults_match_reference_setup():
    spec = parse_spec({})
    assert (spec.d, spec.n_atoms, spec.sparsity) == (128, 192, 6)
    assert spec.signals == 120000
    assert spec.snr == 16.0
    assert spec.outlier_rate == 0.05
    assert spec.mu_max == 0.7


def test_parse_spec_flag_overrides():
    spec = parse_spec({"d": 32, "n_atoms": 48, "dict_kind": "dirac-hadamard",
                       "sparsity": 2})
    assert (spec.d, spec.n_atoms, spec.sparsity) == (32, 48, 2)
    assert spec.dict_kind == "dirac-hadamard"


def test_parse_spec_rejects_unknown_key():
    with pytest.raises(SpecError, match="unknown specification key"):
        parse_spec({"bogus_key": 3})


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[model]\nd = 24\nn_atoms = 30\n# comment\nsnr = 8\n")
    spec = _spec_from_args(build_parser().parse_args(
        ["learn", "--config", str(cfg), "--d", "16"]))
    assert spec.d == 16          # flag wins
    assert spec.n_atoms == 30    # config wins over default
    assert spec.snr == 8.0


def test_config_file_rejects_malformed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    with pytest.raises(SpecError):
        read_config_file(cfg)


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("notakey = 5\n")
    with pytest.raises(SpecError, match="notakey"):
        _spec_from_args(build_parser().parse_args(["learn", "--config", str(cfg)]))


def test_cli_learn_runs_tiny_experiment(tmp_path, capsys):
    code = main(["learn", "--scenario", "plain_recovery",
                 "--d", "12", "--K", "16", "--S", "2", "--N", "300",
                 "--T", "1", "--trials", "1", "--outlier-rate", "0",
                 "--output", str(tmp_path / "out"), "--seed", "4"])
    assert code == 0
    out_dir = Path(capsys.readouterr().out.strip())
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "trial_000_plain.csv").exists()


def test_cli_spec_error_exit_code(tmp_path, capsys):
    code = main(["learn", "--scenario", "plain_recovery", "--mu-max", "7",
                 "--output", str(tmp_path)])
    assert code == 2
    assert "mu_max" in capsys.readouterr().err


_PROBE = ["probe", "--d", "32"]
_PLAIN = ["learn", "--scenario", "plain_recovery", "--d", "16", "--K", "20"]


# Every value exits 2 before anything is written.  From the fifth row on,
# but for -1 spurious triples and the dict_kind row, the check is a
# constructor's, which validate reaches by building the first trial's
# objects.
@pytest.mark.parametrize("argv,field", [
    ([*_PROBE, "--scenario", "contraction_sweep", "--epsilons", "2.0"], "epsilons"),
    ([*_PROBE, "--scenario", "contraction_sweep", "--epsilons", "0"], "epsilons"),
    ([*_PROBE, "--init-kind", "spurious", "--spurious-triples", "20", "--K", "48"],
     "spurious_triples"),
    # 3 triples fit in K=12, not in the K=6 left after scaling
    ([*_PROBE, "--init-kind", "spurious", "--spurious-triples", "3", "--K", "12",
      "--scale", "0.5"], "spurious_triples"),
    ([*_PLAIN, "--init-atoms", "0"], "init_atoms"),
    ([*_PLAIN, "--gen-sparsity", "0"], "gen_sparsity"),
    ([*_PLAIN, "--q-min", "2"], "q_min"),
    ([*_PLAIN, "--S", "30"], "sparsity"),
    ([*_PLAIN, "--gen-sparsity", "30"], "gen_sparsity"),
    ([*_PLAIN, "--gen-weights", "0"], "gen_weights"),
    ([*_PLAIN, "--dict", "dirac-hadamard", "--K", "40"], "n_atoms"),
    (["learn", "--scenario", "adaptive_synthetic", "--d", "16", "--K", "20",
      "--min-obs", "0"], "min_obs"),
    (["probe", "--d", "16", "--K", "20", "--init-kind", "spurious",
      "--spurious-triples", "-1"], "spurious_triples"),
    (["probe", "--d", "16", "--K", "20", "--init-kind", "spurious",
      "--spurious-triples", "7"], "spurious_triples"),
    # a valid dirac-hadamard geometry, refused rather than silently ignored
    ([*_PROBE, "--scenario", "contraction_sweep", "--dict", "dirac-hadamard",
      "--K", "64"], "dict_kind"),
    # perturbing an atom needs a second dimension
    (["probe", "--scenario", "contraction_sweep", "--d", "1", "--S", "1",
      "--gen-sparsity", "1"], "d"),
])
def test_cli_probe_spec_error_exit_code(argv, field, tmp_path, capsys):
    """Exit 2 naming the field, for learn as for probe."""
    out = tmp_path / "run"
    code = main([*argv, "--N", "200", "--T", "1", "--trials", "1", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("spec error: ")
    named = err.removeprefix("spec error: ").split(": ")[0].split(", ")
    assert field in named, err
    assert not out.exists()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    code = main(["eval", "--dict", str(tmp_path / "missing.dict"),
                 "--image", str(tmp_path / "missing.pgm")])
    assert code == 3


@pytest.mark.parametrize("flag,field", [("--patch-side", "patch_side"),
                                        ("--s-range", "s_range")])
def test_cli_eval_flag_error_exit_code(flag, field, tmp_path, capsys):
    """A zero patch side or sparsity level exits 2 naming its field, and
    writes no CSV; the 64-dimensional dictionary fits the default side 8."""
    img_path, dict_path = tmp_path / "img.pgm", tmp_path / "d.dict"
    save_image_pgm(img_path, synthetic_image(24, seed=3))
    container.write_dictionary(dict_path, make_random_sphere(64, 12, rng_from_seed(0)))
    out = tmp_path / "eval.csv"
    code = main(["eval", "--dict", str(dict_path), "--image", str(img_path),
                 flag, "0", "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spec error: {field}: "), err
    assert not out.exists()


def test_cli_malformed_worker_count_exits_3_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ITKRM_WORKERS", "two")
    out = tmp_path / "run"
    code = main([*_PLAIN, "--N", "200", "--T", "1", "--trials", "1", "--output", str(out)])
    assert code == 3
    assert "ITKRM_WORKERS" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eval_writes_csv(tmp_path, capsys):
    img = synthetic_image(24, seed=3)
    img_path = tmp_path / "img.pgm"
    save_image_pgm(img_path, img)
    rng = np.random.default_rng(0)
    dico = Dictionary.from_columns(rng.standard_normal((16, 12)))
    dict_path = tmp_path / "d.dict"
    container.write_dictionary(dict_path, dico)
    code = main(["eval", "--dict", str(dict_path), "--image", str(img_path),
                 "--patch-side", "4", "--s-range", "1,2,3",
                 "--output", str(tmp_path / "eval.csv")])
    assert code == 0
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert lines[0] == "S,relative_error"
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_cli_probe_contraction(tmp_path, capsys):
    code = main(["probe", "--scenario", "contraction_sweep", "--d", "16",
                 "--K", "20", "--S", "2", "--N", "400", "--trials", "1",
                 "--epsilons", "0.2", "--outlier-rate", "0",
                 "--output", str(tmp_path / "probe"), "--seed", "9"])
    assert code == 0
    out_dir = Path(capsys.readouterr().out.strip())
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert len(rows) == 2


# --- generated flags ----------------------------------------------------------

# Every spelling the hand-written parser accepted, with the value it parsed to.
FLAG_SPELLINGS = [
    ("--scenario", "plain_recovery", "scenario", "plain_recovery"),
    ("--output-dir", "runs/a", "output_dir", "runs/a"),
    ("--output", "runs/b", "output_dir", "runs/b"),
    ("--trials", "3", "trials", 3),
    ("--seed", "7", "seed", 7),
    ("--scale", "0.5", "scale", 0.5),
    ("--d", "32", "d", 32),
    ("--n-atoms", "48", "n_atoms", 48),
    ("--K", "40", "n_atoms", 40),
    ("--init-atoms", "64", "init_atoms", 64),
    ("--dict", "dirac-hadamard", "dict_kind", "dirac-hadamard"),
    ("--sparsity", "3", "sparsity", 3),
    ("--S", "2", "sparsity", 2),
    ("--gen-sparsity", "4", "gen_sparsity", (4,)),
    ("--gen-weights", "2", "gen_weights", (2.0,)),
    ("--q-min", "0.8", "q_min", 0.8),
    ("--q-max", "0.95", "q_max", 0.95),
    ("--snr", "8", "snr", 8.0),
    ("--outlier-rate", "0", "outlier_rate", 0.0),
    ("--iterations", "30", "iterations", 30),
    ("--T", "25", "iterations", 25),
    ("--signals", "5000", "signals", 5000),
    ("--N", "6912", "signals", 6912),
    ("--mu-max", "0.6", "mu_max", 0.6),
    ("--combine", "add", "combine", "add"),
    ("--compare", "candidate,none", "compare", ("candidate", "none")),
    ("--min-obs", "2dlogd", "min_obs", "2dlogd"),
    ("--recovery-threshold", "0.9", "recovery_threshold", 0.9),
    ("--epsilons", "0.1,0.3", "epsilons", (0.1, 0.3)),
    ("--init-kind", "spurious", "init_kind", "spurious"),
    ("--spurious-triples", "2", "spurious_triples", 2),
    ("--image", "mandrill.pgm", "image_path", "mandrill.pgm"),
    ("--patch-side", "6", "patch_side", 6),
    ("--image-sigma", "20", "image_sigma", 20.0),
    ("--s-range", "1,2,4,8", "s_range", (1, 2, 4, 8)),
    ("--stop-at-full-recovery", None, "stop_at_full_recovery", True),
]


@pytest.mark.parametrize("flag,text,name,expected", FLAG_SPELLINGS)
def test_flag_spellings_parse_to_same_values(flag, text, name, expected):
    argv = ["learn", flag] + ([] if text is None else [text])
    spec = _spec_from_args(build_parser().parse_args(argv))
    assert repr(getattr(spec, name)) == repr(expected)


def test_config_flag_reads_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("d = 24\n")
    spec = _spec_from_args(build_parser().parse_args(["probe", "--config",
                                                      str(cfg)]))
    assert (spec.d, spec.scenario) == (24, "fixedpoint_probe")


def test_config_scenario_wins_over_subcommand_default(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = plain_recovery\n")
    out = tmp_path / "out"
    assert main(["learn", "--config", str(cfg), "--trials", "0",
                 "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["scenario"] == "plain_recovery"


def test_config_scenario_of_other_subcommand_is_spec_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("scenario = fixedpoint_probe\n")
    code = main(["learn", "--config", str(cfg), "--trials", "0",
                 "--output", str(tmp_path / "out")])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["learn", "probe"])
def test_every_spec_field_has_a_flag(command):
    parser = build_parser()
    for f in fields(ExperimentSpec):
        flag = "--" + f.name.replace("_", "-")
        value = [] if isinstance(f.default, bool) else ["1"]
        args = parser.parse_args([command, flag, *value])
        assert getattr(args, f.name) is not None, flag


# --- values are read by declared field type -----------------------------------

def test_config_int_for_float_field_writes_same_manifest_as_flag(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("snr = 8\n")
    out = str(tmp_path / "out")
    assert main(["learn", "--config", str(cfg), "--trials", "0",
                 "--output", out]) == 0
    from_config = (tmp_path / "out" / "manifest.json").read_bytes()
    assert main(["learn", "--snr", "8", "--trials", "0", "--output", out]) == 0
    assert (tmp_path / "out" / "manifest.json").read_bytes() == from_config
    assert json.loads(from_config)["spec"]["snr"] == 8.0


def test_config_float_for_int_field_is_spec_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 2.5\n")
    code = main(["learn", "--config", str(cfg), "--output", str(tmp_path)])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_malformed_flag_value_is_spec_error(tmp_path, capsys):
    code = main(["learn", "--gen-sparsity", "4,x", "--trials", "0",
                 "--output", str(tmp_path)])
    assert code == 2
    assert "gen_sparsity" in capsys.readouterr().err


def test_config_numeric_text_field_stays_text(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("image_path = 2024\nmin_obs = 40\n")
    spec = _spec_from_args(build_parser().parse_args(["learn", "--config", str(cfg)]))
    assert spec.image_path == "2024"
    assert spec.min_obs == "40"


# --- README examples ------------------------------------------------------------

def _readme_cli_commands(subcommands):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines
            if line.startswith("itkrm ") and line.split()[1] in subcommands]


@pytest.mark.parametrize("command", _readme_cli_commands(("learn", "probe")))
def test_readme_cli_example_writes_manifest(command, tmp_path, capsys):
    argv = shlex.split(command)[1:] + ["--trials", "0", "--output",
                                       str(tmp_path / "run")]
    assert main(argv) == 0
    assert (tmp_path / "run" / "manifest.json").exists()


def test_readme_eval_example_writes_error_curve(tmp_path, capsys):
    # the README's eval command, its dictionary, image and output swapped
    # for a 64 x 16 random-sphere dictionary, a small image and a temporary
    # file
    [command] = _readme_cli_commands(("eval",))
    paths = {"--dict": tmp_path / "image.dict", "--image": tmp_path / "image.pgm",
             "--output": tmp_path / "approx.csv"}
    container.write_dictionary(paths["--dict"], make_random_sphere(64, 16, rng_from_seed(0)))
    save_image_pgm(paths["--image"], synthetic_image(32, seed=3))
    argv = shlex.split(command)[1:]
    assert set(paths) <= set(argv)
    argv = [str(paths[flag]) if flag in paths else arg
            for flag, arg in zip([None] + argv, argv)]
    assert main(argv) == 0
    lines = paths["--output"].read_text().splitlines()
    assert lines[0] == "S,relative_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(s) for s, _ in rows] == [1, 2, 4, 8]
    errs = [float(err) for _, err in rows]
    assert all(0.0 <= err <= 1.0 for err in errs)
    assert errs == sorted(errs, reverse=True)
