"""Grayscale image ingestion, noise, patch extraction and PSNR."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import SignalBatch


@dataclass(frozen=True)
class PatchConfig:
    patch_side: int = 8

    def __post_init__(self):
        if self.patch_side < 1:
            raise ValueError("patch side must be positive")


def _parse_pgm(data: bytes, path) -> np.ndarray:
    # P5 header: magic, width, height, maxval, single whitespace, raster
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit grayscale PGM supported")
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def load_image_gray(path) -> np.ndarray:
    """Load an 8-bit grayscale image as an H x W matrix in [0, 1].

    Accepts binary PGM (P5, maxval 255) and headerless square raw byte
    files (side inferred from the file size).
    """
    data = Path(path).read_bytes()
    if data[:2] == b"P5":
        pixels = _parse_pgm(data, path)
    else:
        side = math.isqrt(len(data))
        if side < 1 or side * side != len(data):
            raise ValueError(f"{path}: neither PGM (P5) nor a square raw file")
        pixels = np.frombuffer(data, dtype=np.uint8).reshape(side, side)
    return pixels.astype(np.float64) / 255.0


def save_image_pgm(path, img: np.ndarray) -> None:
    """Write a unit-scale matrix as an 8-bit binary PGM."""
    img = np.asarray(img)
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(pixels.tobytes())


def add_image_noise(img: np.ndarray, sigma: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise with std ``sigma`` on the 0..255 scale.

    The image lives on the unit scale, so the per-pixel std is sigma/255;
    values are not clipped.
    """
    img = np.asarray(img, dtype=np.float64)
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0:
        return img.copy()
    return img + (sigma / 255.0) * rng.standard_normal(img.shape)


def extract_patches(img: np.ndarray, cfg: PatchConfig) -> SignalBatch:
    """All p x p patches in row-major scan order, one column per patch.

    Patches are vectorized column-major within the patch, with the per-patch
    mean removed.
    """
    img = np.asarray(img, dtype=np.float64)
    p = cfg.patch_side
    h, w = img.shape
    if p > h or p > w:
        raise ValueError("patch side exceeds the image")
    windows = np.lib.stride_tricks.sliding_window_view(img, (p, p))
    # (patch column, patch row, window row, window column), copied once
    signals = windows.transpose(3, 2, 0, 1).copy().reshape(p * p, -1)
    signals -= signals.mean(axis=0)
    return SignalBatch(signals=signals, truth=None)


def psnr(clean: np.ndarray, other: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB on the unit scale (inf if equal)."""
    clean = np.asarray(clean, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if clean.shape != other.shape:
        raise ValueError("images must share a shape")
    mse = float(np.mean((clean - other) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * math.log10(1.0 / mse)
