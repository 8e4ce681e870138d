"""Pinned digests of small runs: a change that moves a chosen support, a
counter or the last bit of a learned dictionary fails here.

Each run splits into an integer part (supports, sizes K, sparsity levels
S_e, scores, counters and events), which holds on any host, and a float part
(dictionaries, signals and the records' metrics, ``wallclock_ms`` left out),
whose bytes depend on the BLAS kernel family and numpy's SIMD level (README,
"Determinism").  So the float digests are keyed by the ``(blas_core, simd)``
of ``experiments.environment()``; a host whose key has no float digest
checks the integer part and warns, naming the key it lacks.  Every run goes at one
BLAS thread.

``python tests/pins.py`` prints the digests of the host it runs on.  A
change meant to move bytes pastes them into PINS, and the diff of the
literals is its before-and-after record.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from itkrm import engine
from itkrm.adaptive import AdaptiveConfig, run_adaptive
from itkrm.candidates import ReplacementPolicy, draw_candidates
from itkrm.engine import (EngineConfig, FixedCorpus, FreshBatches, run_iteration,
                          run_learning)
from itkrm.experiments import SCENARIOS, ExperimentSpec, environment, run_trial
from itkrm.images import PatchConfig, extract_patches, save_image_pgm
from itkrm.linalg import Dictionary
from itkrm.signals import (PRODUCT_COLS, GeometricCoefficients, SignalModel,
                           generate_batch, make_random_sphere,
                           make_spurious_estimate, noise_std_for_snr,
                           rng_from_seed)

from conftest import random_dictionary
from test_images import synthetic_image


def float_key() -> tuple:
    """(blas_core, simd) of this host: the kernel family OpenBLAS runs and
    the SIMD extensions numpy uses (its baseline and those found)."""
    env = environment()
    simd = env["simd"]
    return (env["blas_core"],
            None if simd is None else " ".join(simd["baseline"] + simd["found"]))


def _walk(value, ints: list, floats: list) -> None:
    """Append the integer and float leaves of ``value`` as bytes, in order."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        leaf = f"{data.dtype.str}{data.shape}".encode() + data.tobytes()
        (floats if data.dtype.kind in "fc" else ints).append(leaf)
    elif isinstance(value, float):
        floats.append(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _walk(item, ints, floats)
    elif isinstance(value, Dictionary):
        _walk(value.atoms, ints, floats)
    elif is_dataclass(value):
        for f in fields(value):
            if f.name != "wallclock_ms":
                _walk(getattr(value, f.name), ints, floats)
    else:                                   # int, bool, str, None
        ints.append(repr(value).encode())


def digests(result) -> tuple:
    """(integer digest, float digest) of a run's result: sha256 prefixes."""
    ints, floats = [], []
    _walk(result, ints, floats)

    def digest(leaves):
        h = hashlib.sha256()
        for leaf in leaves:
            h.update(len(leaf).to_bytes(8, "little") + leaf)
        return h.hexdigest()[:16]
    return digest(ints), digest(floats)


# --- the runs ----------------------------------------------------------------

def _iteration(variant: str, workdir: Path):
    """One iteration at d = 40 (m = 4 sub-batches) with three candidates,
    and the supports its selections chose, in signal order."""
    rng = np.random.default_rng(31)
    generating = random_dictionary(40, 48, rng)
    model = SignalModel(dictionary=generating, coeffs=GeometricCoefficients(0.9, 1.0, 3),
                        noise_std_per_component=noise_std_for_snr(16.0, 40),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / 40, seed=32)
    batch = generate_batch(model, 500, rng=rng_from_seed(33))
    est = random_dictionary(40, 48, rng)
    cands = draw_candidates(40, 3, rng_from_seed(34))
    cfg = EngineConfig(sparsity=3, variant=variant, min_observations=10)
    base = batch.signals.__array_interface__["data"][0]
    chosen = {}
    select = engine._select

    def recording(atoms, gram, y, *args):
        sel, b, x = select(atoms, gram, y, *args)
        chosen[(y.__array_interface__["data"][0] - base) // y.itemsize] = sel
        return sel, b, x
    with mock.patch.object(engine, "_select", recording):
        out = run_iteration(est, batch, cfg, candidates=cands, rng=rng_from_seed(35))
    assert len(chosen) == 4
    return [np.hstack([chosen[lo] for lo in sorted(chosen)]), out, cands]


_TINY = dict(output_dir="unused", trials=1, seed=3, d=16, n_atoms=20, sparsity=2,
             gen_sparsity=(2,), outlier_rate=0.05, iterations=4, signals=400)
_SCENARIO_SPECS = {
    "replacement_compare": {},
    "plain_recovery": {},
    "adaptive_synthetic": dict(gen_sparsity=(2, 3), gen_weights=(0.5, 0.5),
                               init_atoms=28, iterations=8, signals=600),
    "adaptive_image": dict(patch_side=4, init_atoms=24, min_obs="40", s_range=(1, 2, 3)),
    "fixedpoint_probe": dict(init_kind="spurious", spurious_triples=2),
    "contraction_sweep": dict(epsilons=(0.1, 0.3)),
}


def _trial(scenario: str, workdir: Path):
    """Trial 0 of a tiny spec of ``scenario``: its trajectories and rows."""
    spec = ExperimentSpec(scenario=scenario, **{**_TINY, **_SCENARIO_SPECS[scenario]})
    if scenario == "adaptive_image":
        path = workdir / "image.pgm"
        save_image_pgm(path, synthetic_image(24, seed=5))
        spec = replace(spec, image_path=str(path))
    return run_trial(spec, 0)


def _replacement_events(workdir: Path):
    """A replacement run from an estimate with doubled atoms, so coherent
    replacement has pairs to merge."""
    generating = make_random_sphere(16, 20, rng_from_seed(41))
    model = SignalModel(dictionary=generating, coeffs=GeometricCoefficients(0.9, 1.0, 2),
                        noise_std_per_component=noise_std_for_snr(16.0, 16),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / 16, seed=42)
    init = make_spurious_estimate(generating, [(0, 2, 1), (3, 5, 4), (6, 8, 7)])
    traj = run_learning(init, FreshBatches(model, 400),
                        EngineConfig(sparsity=2, variant="replacement"), 4,
                        reference=generating, policy=ReplacementPolicy(0.7, "merge"),
                        seed=43)
    assert traj.replacement_events
    return traj


def _zero_patches(workdir: Path):
    """An adaptive run over a fixed corpus whose flat band gives exactly
    zero patches."""
    img = synthetic_image(24, seed=6)
    img[:6, :] = 0.0
    corpus = extract_patches(img, PatchConfig(patch_side=4))
    assert not np.any(corpus.signals[:, 0])
    init = make_random_sphere(16, 24, rng_from_seed(51))
    return run_adaptive(init, FixedCorpus(corpus), AdaptiveConfig(min_observations=40),
                        8, seed=52)


def _split_draw(workdir: Path):
    """A batch above 2 PRODUCT_COLS, drawn split across two threads with a
    chunked clean product, and one replacement iteration over it."""
    generating = make_random_sphere(8, 12, rng_from_seed(61))
    model = SignalModel(dictionary=generating, coeffs=GeometricCoefficients(0.9, 1.0, 2),
                        noise_std_per_component=noise_std_for_snr(16.0, 8),
                        outlier_rate=0.05, outlier_std_per_component=1.0 / 8, seed=62)
    with ThreadPoolExecutor(max_workers=1) as helper:
        batch = generate_batch(model, 2 * PRODUCT_COLS + 123, rng=rng_from_seed(63),
                               helper=helper)
        cands = draw_candidates(8, 2, rng_from_seed(64))
        out = run_iteration(make_random_sphere(8, 12, rng_from_seed(65)), batch,
                            EngineConfig(sparsity=2, variant="replacement"),
                            candidates=cands, rng=rng_from_seed(66), helper=helper)
    return [batch, out, cands]


RUNS = {
    **{f"iteration_{v}": lambda w, v=v: _iteration(v, w)
       for v in ("plain", "replacement", "adaptive")},
    **{f"trial_{s}": lambda w, s=s: _trial(s, w) for s in SCENARIOS},
    "replacement_events": _replacement_events,
    "zero_patches": _zero_patches,
    "split_draw": _split_draw,
}

# name -> (integer digest, {(blas_core, simd): float digest})
PINS = {
    'iteration_adaptive': ('c30e918c7c35858d', {
        ('Haswell', 'X86_V2 X86_V3'): '994a81c4236f1d50',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '2820912265c6b1b4',
        ('SkylakeX', 'X86_V2 X86_V3'): 'e1b6173930794640',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'c4b77315f04cf93d'}),
    'iteration_plain': ('e30aad4f7b65d0b0', {
        ('Haswell', 'X86_V2 X86_V3'): '994a81c4236f1d50',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '2820912265c6b1b4',
        ('SkylakeX', 'X86_V2 X86_V3'): 'e1b6173930794640',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'c4b77315f04cf93d'}),
    'iteration_replacement': ('e30aad4f7b65d0b0', {
        ('Haswell', 'X86_V2 X86_V3'): '994a81c4236f1d50',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '2820912265c6b1b4',
        ('SkylakeX', 'X86_V2 X86_V3'): 'e1b6173930794640',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'c4b77315f04cf93d'}),
    'replacement_events': ('8ab2470b0141a37f', {
        ('Haswell', 'X86_V2 X86_V3'): '259eaa7c28dfaee0',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '259eaa7c28dfaee0',
        ('SkylakeX', 'X86_V2 X86_V3'): 'ede39e3e3a60bc08',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'ede39e3e3a60bc08'}),
    'split_draw': ('4239cb7958e7f088', {
        ('Haswell', 'X86_V2 X86_V3'): '052fdf6c342d8cd6',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '052fdf6c342d8cd6',
        ('SkylakeX', 'X86_V2 X86_V3'): 'dd6846ff19eda137',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'dd6846ff19eda137'}),
    'trial_adaptive_image': ('8fd3abdd7e46eb9b', {
        ('Haswell', 'X86_V2 X86_V3'): '64055945da7bf042',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '64055945da7bf042',
        ('SkylakeX', 'X86_V2 X86_V3'): '46deb4b0f9c73e7c',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '46deb4b0f9c73e7c'}),
    'trial_adaptive_synthetic': ('11a8140204012d96', {
        ('Haswell', 'X86_V2 X86_V3'): '81a2518b32e22227',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '8ff616b8a7a39ddf',
        ('SkylakeX', 'X86_V2 X86_V3'): '0fbf8ceb96e4d2a8',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '833f606d65f7365d'}),
    'trial_contraction_sweep': ('83e1ea1bf24ff5c3', {
        ('Haswell', 'X86_V2 X86_V3'): 'f66eeb5fce48f370',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'f66eeb5fce48f370',
        ('SkylakeX', 'X86_V2 X86_V3'): 'f66eeb5fce48f370',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'f66eeb5fce48f370'}),
    'trial_fixedpoint_probe': ('6ac756e59bd5f9a4', {
        ('Haswell', 'X86_V2 X86_V3'): '9f66e63957c61a21',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '9f66e63957c61a21',
        ('SkylakeX', 'X86_V2 X86_V3'): 'fdf544e3023a169c',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'fdf544e3023a169c'}),
    'trial_plain_recovery': ('1955f4f35bb276e9', {
        ('Haswell', 'X86_V2 X86_V3'): 'f2b0013a01a8f3bf',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'f2b0013a01a8f3bf',
        ('SkylakeX', 'X86_V2 X86_V3'): '7b3020e749d1b1e9',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '7b3020e749d1b1e9'}),
    'trial_replacement_compare': ('4c8063b48a54c725', {
        ('Haswell', 'X86_V2 X86_V3'): 'f9b906a3e55109a0',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'f9b906a3e55109a0',
        ('SkylakeX', 'X86_V2 X86_V3'): 'ef9e3aa1cbcbbadd',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): 'ef9e3aa1cbcbbadd'}),
    'zero_patches': ('440443241cab1420', {
        ('Haswell', 'X86_V2 X86_V3'): '9f6a283ed9190011',
        ('Haswell', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '9f6a283ed9190011',
        ('SkylakeX', 'X86_V2 X86_V3'): '2f3c96505365dca9',
        ('SkylakeX', 'X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR'): '2f3c96505365dca9'}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_run(name, one_blas_thread, tmp_path):
    want_ints, want_floats = PINS[name]
    got_ints, got_floats = digests(RUNS[name](tmp_path))
    assert got_ints == want_ints
    key = float_key()
    if key in want_floats:
        assert got_floats == want_floats[key]
    else:
        warnings.warn(f"{name}: integer part checked; no float pin for "
                      f"(blas_core, simd) = {key}")


def test_every_run_is_pinned():
    assert sorted(PINS) == sorted(RUNS)
