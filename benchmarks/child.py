"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script with one BLAS/OpenMP thread and ``src`` on
the path.  It builds the workload's inputs from the seed (the set-up), then
repeats whole passes of the workload until ``--seconds`` are used (at least
one).  With ``--trace 1`` passes alternate untraced and traced, and the
per-layer metrics come from the traced ones.  Untraced, it times the
set-up once more after every pass in a fresh ``--setup-only`` sibling, so
the set-up samples cover the whole run and not only its ends.  The result is
one JSON line on stdout; with ``--setup-only`` it holds just the set-up
time.

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
start, so the set-up time covers interpreter start and imports as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import checks
import itkrm
import itkrm.engine
import spans
from workloads import WORKLOADS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "ITKRM_WORKERS")


def environment(root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _one_pass(workload, tracer=None):
    """Run one pass; returns (output, wall seconds), output None if it raised."""
    try:
        with spans.rebound(tracer) if tracer else nullcontext():
            t0 = time.perf_counter()
            with tracer.span(spans.ROOT) if tracer else nullcontext():
                out = workload.run_pass()
            return out, time.perf_counter() - t0
    except Exception:  # a failed pass is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, 0.0


def _judge(workload, out) -> tuple[int, list[str]]:
    """Failed operations of a pass and what failed."""
    records = out.trajectory.records
    problems, bad = [], []
    for rec in records:
        found = checks.record_problems(rec, out.d)
        problems += found
        bad.append(bool(found))
    found = checks.dictionary_problems(out.trajectory.dictionary.atoms)
    if found:
        problems += found
        if bad:
            bad[-1] = True   # the final dictionary belongs to the last iteration
    failed = sum(bad) + max(0, workload.iterations - len(records))
    if out.errors is not None:
        found = checks.error_curve_problems(out.errors)
        problems += found
        failed += bool(found)
    return failed, problems


def _trace_problems(workload, summary: dict, layer: dict) -> list[str]:
    """The traced pass saw the nested calls it must see."""
    iterations = summary["iterations"]
    expected = {
        "engine.top_s_indices.calls":
            iterations * itkrm.engine.default_candidate_count(summary["d"]),
        "signals.generate_batch.calls": iterations if workload.fresh_batches else 0,
        "engine.run_iteration.calls": iterations,
    }
    return [f"{name} = {layer[name]}, expected {want}"
            for name, want in expected.items() if layer[name] != want]


def _gemm_timer():
    """Seconds of one bare ``atoms.T @ Y`` per shape, median of three."""
    rng = np.random.default_rng(0)
    cache = {}

    def seconds(d, k, n):
        if (d, k, n) not in cache:
            atoms, y = rng.standard_normal((d, k)), rng.standard_normal((d, n))
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                atoms.T @ y
                times.append(time.perf_counter() - t0)
            cache[d, k, n] = statistics.median(times)
        return cache[d, k, n]
    return seconds


def _time_to_recovery(records):
    elapsed = 0.0
    for rec in records:
        elapsed += rec.wallclock_ms / 1e3
        if rec.recovery_rate is not None and rec.recovery_rate >= 1.0:
            return elapsed
    return None


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _summary(wall: float, out) -> dict:
    """The scalars the metrics need from one pass, so that no pass's arrays
    stay alive while the next pass runs."""
    records = out.trajectory.records
    return {
        "wall": wall,
        "iterations": len(records),
        "d": out.d,
        "signals_per_s": out.signals * len(records) / out.learn_s,
        "iter_ms": [r.wallclock_ms for r in records],
        "time_to_recovery_s": _time_to_recovery(records),
        "eval_signals_per_s": out.signals / out.eval_s if out.eval_s else None,
    }


def _first_info(out) -> dict:
    """Quality figures of the first pass (every pass gives the same)."""
    final = out.trajectory.final_record
    return {
        "iterations_per_pass": len(out.trajectory.records),
        "recovery_rate": final.recovery_rate,
        "atom_error": final.mean_atom_distance,
        "approx_rel_err": None if out.errors is None else float(out.errors[-1]),
        "zero_patch_share": None if out.corpus is None else
            float((~out.corpus.signals.any(axis=0)).mean()),
        "final_K": final.n_atoms,
        "final_S_e": final.sparsity,
    }


def _setup_sampler(args):
    """Seconds of one set-up in a fresh process with this run's arguments."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(args.root), "--out", str(args.out),
           "--setup-only"]

    def sample() -> float:
        spawned_at = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return sample


def measure(workload, seconds: float, trace: bool, spans_out=None,
            sample_setup=None) -> dict:
    """Repeat passes (or untraced/traced pairs) until ``seconds`` are used,
    calling ``sample_setup`` after each; its time counts against ``seconds``."""
    deadline = time.perf_counter() + seconds
    runs = {False: [], True: []}       # traced? -> [pass summary]
    traced_spans = []
    attempted = failed = 0
    problems, digests = [], set()
    unit_times, setup_samples = [], []
    first = None
    while True:
        t_unit = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            tracer = spans.Tracer() if traced else None
            out, wall = _one_pass(workload, tracer)
            attempted += workload.operations
            if out is None:
                failed += workload.operations
                problems.append("pass raised")
                continue
            bad, found = _judge(workload, out)
            failed += bad
            problems += found
            digests.add(checks.trajectory_digest(out.trajectory.records))
            if first is None:
                first = _first_info(out)
            runs[traced].append(_summary(wall, out))
            if traced:
                traced_spans.append(tracer.spans)
            del out
        if sample_setup is not None:
            setup_samples.append(sample_setup())
        unit_times.append(time.perf_counter() - t_unit)
        if time.perf_counter() + statistics.median(unit_times) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(digests) > 1:
        problems.append(f"same inputs gave different trajectories: {sorted(digests)}")
    plain = runs[False]
    if not plain:
        raise RuntimeError("no pass completed: " + "; ".join(problems[:5]))

    metrics = {
        "wall_s": statistics.median(p["wall"] for p in plain),
        "signals_per_s": statistics.median(p["signals_per_s"] for p in plain),
        "iter_ms_p50": statistics.median(ms for p in plain for ms in p["iter_ms"]),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "passes": len(plain),
        "failed_frac": failed / attempted,
        "time_to_recovery_s": _median_or_none(p["time_to_recovery_s"] for p in plain),
        "eval_signals_per_s": _median_or_none(p["eval_signals_per_s"] for p in plain),
        **first,
    }
    result = {"workload": workload.name, "metrics": metrics, "info": info,
              "pass_wall_s": [p["wall"] for p in plain],
              "setup_samples": setup_samples,
              "result_digest": sorted(digests)[0] if digests else None,
              "attempted": attempted, "failed": failed}
    if trace:
        result["per_layer"] = _per_layer(workload, runs[True], traced_spans,
                                         plain, problems)
        if spans_out is not None:
            _write_spans(spans_out, traced_spans)
    result["problems"] = problems[:20]
    result["correct"] = not problems and failed == 0
    return result


def _per_layer(workload, traced_runs, traced_spans, plain, problems) -> dict:
    if not traced_runs:
        problems.append("no traced pass completed")
        return {}
    gemm_seconds = _gemm_timer()
    per_pass = []
    for summary, pass_spans in zip(traced_runs, traced_spans):
        layer = spans.pass_metrics(pass_spans, gemm_seconds)
        problems += _trace_problems(workload, summary, layer)
        per_pass.append(layer)
    merged = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    merged["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced_runs)
        / statistics.median(p["wall"] for p in plain) - 1.0)
    return merged


def _write_spans(path: Path, traced_spans) -> None:
    with open(path, "w") as fh:
        for index, pass_spans in enumerate(traced_spans):
            for span in pass_spans:
                fh.write(json.dumps({"pass": index, "name": span.name,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent, "counts": span.counts}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    if src not in Path(itkrm.__file__).resolve().parents:
        print(f"itkrm imported from {itkrm.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        spans_out = args.out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result = measure(workload, args.seconds, bool(args.trace),
                         spans_out if args.trace else None,
                         None if args.trace else _setup_sampler(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_samples"].insert(0, setup_s)
    result["env"] = environment(args.root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
