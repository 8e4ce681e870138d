"""Benchmark of the itkrm package: one workload, one run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload paper_replacement --seed 1 \\
        --seconds 40 --trace 0

Each run starts fresh child processes (``child.py``) pinned to one
BLAS/OpenMP thread, with the checkout's ``src`` first on the path.  Several
children only set up (imports, inputs from the seed, the image file), half
of them before the measuring child and half after; the measuring child
times its own set-up and one more after every pass.  ``setup_s`` is the
median of all these set-up times.  With ``--trace 1``, which does not
report ``setup_s``, none of these extra set-ups run.  Spreading them over the run averages
out the host's speed changes, which last seconds to minutes.  The measuring
child repeats whole passes of the workload for
``--seconds`` and checks every output.  The run prints each metric with its
unit, the environment and the trajectory digest, writes the full result
under ``bench_out/``, and ends with one JSON line: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_replacement", "adaptive_synthetic", "image_pipeline")
SETUP_SAMPLES_AT_ENDS = 8  # set-up-only children, half before and half after
                           # the measuring child
RUN_LIMIT_S = 170.0        # the whole run, children included

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "signals_per_s": "1/s",
    "iter_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, out_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for another child")
    spawned_at = time.monotonic()
    # A session of its own, so that a timeout also ends the set-up children
    # the measuring child starts.
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"child exceeded {timeout:.0f} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child exited with {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(args, result: dict, units: dict, values: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['info']['passes']}  setup samples {len(result['setup_samples'])}")
    for name, value in values.items():
        print(f"  {name:<44} {_fmt(value):>14} {units[name]}")
    info = dict(result["info"])
    info["failed_frac"] = f"{info['failed_frac']:.6g} ({result['failed']}/{result['attempted']} operations)"
    for name, value in info.items():
        print(f"  info {name:<39} {_fmt(value):>14}")
    print(f"  result_digest {result['result_digest']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "itkrm" / "__init__.py").is_file():
        print(f"{ROOT}: no itkrm sources under src/itkrm", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    half = 0 if args.trace else SETUP_SAMPLES_AT_ENDS // 2   # no setup_s when traced
    try:
        before = [run_child(args, out_dir, deadline, True)["setup_s"] for _ in range(half)]
        result = run_child(args, out_dir, deadline, False)
        after = [run_child(args, out_dir, deadline, True)["setup_s"] for _ in range(half)]
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups = before + result["setup_samples"] + after
    result["setup_samples"] = setups

    if args.trace:
        import spans
        units = spans.per_layer_units()
        values = {name: result["per_layer"].get(name) for name in units}
    else:
        units = END_TO_END_UNITS
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        values = {name: values[name] for name in units}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(args, result, units, values)
    print(json.dumps({
        "correct": bool(result["correct"]) and None not in values.values(),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
