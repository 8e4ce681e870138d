import numpy as np
import pytest

from itkrm.linalg import Dictionary


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dictionary(d, k, rng):
    atoms = rng.standard_normal((d, k))
    return Dictionary.from_columns(atoms)
