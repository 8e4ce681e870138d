"""Command line interface: learn / eval / probe.

The learn and probe flags are generated from the ExperimentSpec fields: each
field is set by ``--field-name``, and seven fields keep a short spelling
(``_SHORT``).  Every value, from a flag, a config file or a stored manifest,
is read by the field's declared type.  ExperimentSpec.validate() builds the
first trial's objects, so every check, its own or a constructor's, exits 2
before anything is written.  Config-file values override the defaults (the
subcommand's default scenario included) and flags override both.  Exit
codes: 0 success, 2 invalid specification, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import fields
from pathlib import Path

from . import container
from .approx import approximation_power
from .experiments import (SCENARIOS, ExperimentSpec, SpecError, _reading, run_experiment,
                          write_rows_csv)
from .images import PatchConfig, extract_patches, load_image_gray

_FIELD_TYPES = typing.get_type_hints(ExperimentSpec)
_SHORT = {"output_dir": "--output", "n_atoms": "--K", "dict_kind": "--dict",
          "sparsity": "--S", "iterations": "--T", "signals": "--N",
          "image_path": "--image"}


def _read_scalar(kind, value):
    if kind is not bool:
        return kind(str(value))
    if isinstance(value, bool):
        return value
    text = str(value).lower()
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _cast_field(name: str, value):
    """Read a flag, config-file or manifest value as the field's declared type.

    Text lists are comma separated; a malformed value raises SpecError.
    """
    if name not in _FIELD_TYPES:
        raise SpecError(f"{name}: unknown specification key")
    kind = _FIELD_TYPES[name]
    if typing.get_origin(kind) is typing.Union:        # Optional[X]
        kind = typing.get_args(kind)[0]
    try:
        if typing.get_origin(kind) is tuple:
            items = value if isinstance(value, (tuple, list)) else \
                [v.strip() for v in str(value).split(",") if v.strip()]
            return tuple(_read_scalar(typing.get_args(kind)[0], v) for v in items)
        return _read_scalar(kind, value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{name}: cannot read {value!r}: {exc}") from exc


def read_config_file(path) -> dict:
    """Flat key = value config; [section] headers are allowed and ignored."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip('"')
        if key in values:
            raise SpecError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def parse_spec(values: dict) -> ExperimentSpec:
    """Read each given value by its field type over the defaults; validate."""
    spec = ExperimentSpec(**{k: _cast_field(k, v) for k, v in values.items()
                             if v is not None})
    spec.validate()
    return spec


def _spec_from_args(args) -> ExperimentSpec:
    values = read_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items()
                  if k in _FIELD_TYPES and v is not None)
    values.setdefault("scenario", next(s for s, scenario in SCENARIOS.items()
                                       if scenario.command == args.command))
    spec = parse_spec(values)
    if SCENARIOS[spec.scenario].command != args.command:
        raise SpecError(f"scenario: {spec.scenario!r} is not a "
                        f"{args.command} scenario")
    return spec


def _cmd_experiment(args) -> int:
    print(run_experiment(_spec_from_args(args)))
    return 0


def _cmd_eval(args) -> int:
    with _reading("patch_side"):
        config = PatchConfig(patch_side=args.patch_side)
    s_range = _cast_field("s_range", args.s_range)
    dico = container.read_dictionary(args.dictionary)
    patches = extract_patches(load_image_gray(args.image), config)
    if patches.d != dico.d:
        raise SpecError("patch dimension does not match the dictionary")
    with _reading("s_range"):
        report = approximation_power(dico, patches, s_range, augment_flat=not args.no_flat,
                                     force_flat=args.force_flat)
    out = Path(args.output_dir)
    if out.is_dir():
        out = out / "approximation.csv"
    write_rows_csv(out, ("S", "relative_error"),
                   list(zip(report.sparsity_levels.tolist(),
                            report.relative_errors.tolist())))
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itkrm",
        description="Dictionary learning experiments: thresholding + residual "
                    "means with candidate replacement and adaptive sizing")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, about in (("learn", "run a learning experiment"),
                           ("probe", "fixed-point and contraction probes")):
        cmd = sub.add_parser(command, help=about)
        cmd.add_argument("--config", metavar="FILE",
                         help="key = value config file")
        for f in fields(ExperimentSpec):
            spellings = ["--" + f.name.replace("_", "-")]
            spellings += [_SHORT[f.name]] if f.name in _SHORT else []
            shown = ",".join(map(str, f.default)) \
                if isinstance(f.default, tuple) else f.default
            switch = {"action": "store_const", "const": True} \
                if _FIELD_TYPES[f.name] is bool else {}
            cmd.add_argument(*spellings, dest=f.name, help=f"default: {shown}",
                             **switch)
        cmd.set_defaults(func=_cmd_experiment)

    ev = sub.add_parser("eval", help="approximation power of a saved dictionary")
    ev.add_argument("--dictionary", "--dict", required=True)
    ev.add_argument("--image", required=True)
    ev.add_argument("--patch-side", type=int, default=8)
    ev.add_argument("--s-range", default="1,2,3,4,5,6,7,8")
    ev.add_argument("--no-flat", action="store_true",
                    help="do not prepend the constant atom")
    ev.add_argument("--force-flat", action="store_true",
                    help="force the constant atom into every support")
    ev.add_argument("--output-dir", "--output", dest="output_dir", default="eval.csv")
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 3
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
