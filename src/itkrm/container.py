"""Binary container for matrices and dictionaries.

Layout: magic ``SPDK1`` (5 bytes), then the two array dimensions as 64-bit
little-endian unsigned integers, then the matrix entries as 64-bit floats in
column-major order.  A dictionary is stored as its d x K atom matrix.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .linalg import Dictionary

MAGIC_MATRIX = b"SPDK1"

_HEADER = struct.Struct("<QQ")


def write_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("container stores 2-d matrices")
    with open(path, "wb") as fh:
        fh.write(MAGIC_MATRIX)
        fh.write(_HEADER.pack(matrix.shape[0], matrix.shape[1]))
        fh.write(np.asfortranarray(matrix).tobytes(order="F"))


def read_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC_MATRIX) + _HEADER.size or data[:5] != MAGIC_MATRIX:
        raise ValueError(f"{path}: not a matrix container")
    rows, cols = _HEADER.unpack_from(data, 5)
    body = data[5 + _HEADER.size:]
    expected = rows * cols * 8
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    flat = np.frombuffer(body, dtype="<f8")
    return flat.reshape((rows, cols), order="F").copy()


def write_dictionary(path, dico: Dictionary) -> None:
    write_matrix(path, dico.atoms)


def read_dictionary(path) -> Dictionary:
    return Dictionary(read_matrix(path))

