import numpy as np
import pytest

from itkrm import container
from itkrm.linalg import Dictionary

from conftest import random_dictionary


def test_matrix_roundtrip(tmp_path, rng):
    m = rng.standard_normal((7, 3))
    path = tmp_path / "m.bin"
    container.write_matrix(path, m)
    assert np.array_equal(container.read_matrix(path), m)


def test_header_layout(tmp_path):
    path = tmp_path / "d.bin"
    container.write_dictionary(path, Dictionary(np.eye(2)))
    raw = path.read_bytes()
    assert raw[:5] == b"SPDK1"
    assert int.from_bytes(raw[5:13], "little") == 2
    assert int.from_bytes(raw[13:21], "little") == 2
    # column-major payload of the identity
    payload = np.frombuffer(raw[21:], dtype="<f8")
    assert payload.tolist() == [1.0, 0.0, 0.0, 1.0]


def test_dictionary_roundtrip(tmp_path, rng):
    dico = random_dictionary(5, 9, rng)
    path = tmp_path / "d.bin"
    container.write_dictionary(path, dico)
    back = container.read_dictionary(path)
    assert np.array_equal(back.atoms, dico.atoms)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"JUNK!" + b"\0" * 32)
    with pytest.raises(ValueError):
        container.read_matrix(path)


def test_read_rejects_truncated(tmp_path):
    path = tmp_path / "t.bin"
    container.write_matrix(path, np.zeros((3, 3)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        container.read_matrix(path)
