from functools import lru_cache

import numpy as np
import pytest

from simplex_decomp import known_fiducial, sic_from_fiducial
from simplex_decomp.sicpovm import obtain_sic


def random_density(rng, dim):
    """Random full-rank PSD trace-one matrix (Wishart construction)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def assert_bitwise_equal(got, expected):
    """Same dtype, shape and bits, the sign of every zero included."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)),
                              np.signbit(getattr(expected, part))), part


@lru_cache(maxsize=None)
def reference_su_generators(n):
    """Gell-Mann basis built matrix by matrix from its definition, in the
    order of ``su_generators``: an oracle independent of the entry table
    that the library's generators and Bloch kernels share."""
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.diag_indices(l)] = 1.0
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    out = np.array(mats)
    out.setflags(write=False)
    return out


def random_pure_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="session")
def registry_sics():
    return {n: sic_from_fiducial(known_fiducial(n)) for n in (2, 3)}


@pytest.fixture(scope="session")
def searched_sic():
    """SIC for a given N from the first succeeding seed in 0..19, cached."""
    @lru_cache(maxsize=None)
    def get(n):
        return obtain_sic(n)
    return get


@pytest.fixture(scope="session")
def optimized_sics(searched_sic):
    """SICs for N = 4, 5 from the first succeeding seed in 0..19."""
    return {n: searched_sic(n) for n in (4, 5)}
