import math

import numpy as np
import pytest

from itkrm.images import (PatchConfig, add_image_noise, extract_patches,
                          load_image_gray, psnr, save_image_pgm)
from itkrm.signals import rng_from_seed


def synthetic_image(side=256, seed=0):
    """Smooth gradients plus texture, values in [0, 1]."""
    rng = rng_from_seed(seed)
    x = np.linspace(0, 1, side)
    img = 0.4 * np.outer(x, 1 - x) + 0.3 * np.sin(8 * math.pi * x)[None, :] ** 2
    img += 0.1 * rng.random((side, side))
    img = (img - img.min()) / (img.max() - img.min())
    return np.rint(img * 255) / 255.0


def textured_image(side=256, seed=0, tile=32):
    """Mosaic of oriented sinusoid tiles over a gradient; patch-diverse."""
    rng = rng_from_seed(seed)
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


# --- loading -----------------------------------------------------------------

def test_load_pgm_byte_fixture(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 127, 64]))
    img = load_image_gray(path)
    assert img.shape == (2, 2)
    assert np.allclose(img, np.array([[0, 255], [127, 64]]) / 255.0)


def test_load_pgm_with_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
    img = load_image_gray(path)
    assert np.allclose(img, np.array([[10, 20]]) / 255.0)


def test_load_raw_square_file(tmp_path):
    path = tmp_path / "zeros.raw"
    path.write_bytes(bytes(4))
    assert np.array_equal(load_image_gray(path), np.zeros((2, 2)))


def test_load_rejects_non_square_raw(tmp_path):
    path = tmp_path / "bad.raw"
    path.write_bytes(bytes(7))
    with pytest.raises(ValueError):
        load_image_gray(path)


def test_pgm_roundtrip(tmp_path):
    img = synthetic_image(32)
    path = tmp_path / "img.pgm"
    save_image_pgm(path, img)
    assert np.allclose(load_image_gray(path), img, atol=1 / 510)


def test_load_256_square(tmp_path):
    img = synthetic_image(256)
    path = tmp_path / "big.pgm"
    save_image_pgm(path, img)
    assert load_image_gray(path).shape == (256, 256)


# --- noise and psnr ------------------------------------------------------------

def test_zero_noise_is_identity():
    img = synthetic_image(16)
    out = add_image_noise(img, 0.0, rng_from_seed(1))
    assert np.array_equal(out, img)


@pytest.mark.parametrize("sigma,expected", [(5, 34.15), (10, 28.13),
                                            (15, 24.61), (20, 22.11)])
def test_noise_psnr_calibration(sigma, expected):
    img = synthetic_image(256)
    noisy = add_image_noise(img, sigma, rng_from_seed(sigma))
    assert psnr(img, noisy) == pytest.approx(expected, abs=0.1)


def test_noise_reproducible():
    img = synthetic_image(16)
    a = add_image_noise(img, 10, rng_from_seed(7))
    b = add_image_noise(img, 10, rng_from_seed(7))
    assert np.array_equal(a, b)


def test_psnr_identical_and_offset():
    img = synthetic_image(16)
    assert psnr(img, img) == float("inf")
    assert psnr(img, img + 0.1) == pytest.approx(20.0, abs=1e-9)


# --- patches ---------------------------------------------------------------------

def test_patch_count_256():
    img = synthetic_image(256)
    batch = extract_patches(img, PatchConfig(patch_side=8))
    assert batch.n == 249 ** 2 == 62001
    assert batch.d == 64


def test_patch_count_small():
    img = np.arange(9, dtype=float).reshape(3, 3) / 9
    batch = extract_patches(img, PatchConfig(patch_side=2))
    assert batch.n == 4
    # first patch is [[0,1],[3,4]]/9 vectorized column-major, mean 2/9 removed
    assert np.allclose(batch.signals[:, 0] * 9, np.array([0, 3, 1, 4]) - 2)


def test_patch_scan_order_row_major():
    # squared ramp, so the mean-removed patches differ from one another
    img = np.arange(16, dtype=float).reshape(4, 4) ** 2

    def centred(idx):
        raw = np.array(idx, dtype=float) ** 2
        return raw - raw.mean()

    batch = extract_patches(img, PatchConfig(patch_side=2))
    # second patch starts one column to the right
    assert np.allclose(batch.signals[:, 1], centred([1, 5, 2, 6]))
    # fourth patch wraps to the next row
    assert np.allclose(batch.signals[:, 3], centred([4, 8, 5, 9]))


def test_constant_image_mean_removed_is_zero():
    img = np.full((10, 10), 0.4)
    batch = extract_patches(img, PatchConfig(patch_side=3))
    assert np.allclose(batch.signals, 0.0, atol=1e-15)


def test_patch_means_removed(rng):
    img = synthetic_image(32)
    batch = extract_patches(img, PatchConfig(patch_side=8))
    assert np.abs(batch.signals.mean(axis=0)).max() <= 1e-12


def _patches_by_window_copies(img, p):
    """The patch matrix as built through three full copies before the
    single-copy construction; its bytes are the reference."""
    windows = np.lib.stride_tricks.sliding_window_view(img, (p, p)).reshape(-1, p, p)
    signals = windows.transpose(1, 2, 0).reshape(p * p, -1, order="F")
    signals = np.ascontiguousarray(signals, dtype=np.float64)
    return signals - signals.mean(axis=0, keepdims=True)


@pytest.mark.parametrize("shape, p", [((256, 256), 8), ((37, 53), 5), ((9, 9), 1),
                                      ((7, 7), 7), ((10, 3), 3), ((1, 1), 1)])
def test_patches_same_bytes_as_window_copies(shape, p):
    img = np.random.default_rng(p).random(shape)
    signals = extract_patches(img, PatchConfig(patch_side=p)).signals
    want = _patches_by_window_copies(img, p)
    assert signals.shape == want.shape
    assert signals.flags.c_contiguous and signals.flags.writeable
    assert signals.tobytes() == want.tobytes()


def test_patch_too_large_raises():
    with pytest.raises(ValueError):
        extract_patches(np.zeros((4, 4)), PatchConfig(patch_side=5))
