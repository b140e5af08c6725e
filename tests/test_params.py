"""The scalar math of ``params`` against the numpy forms it replaced, bit for bit."""

import numpy as np

from simplex_decomp.params import harmonic_number, psd_radius_bounds

# Every n through four levels of pairwise halving (n <= 2048), every n
# around numpy's 8192-element buffer, and every 61st n up to 20000.  A
# sweep of every n up to 20000 agrees too, but takes some 35 s.
HARMONIC_NS = [*range(1, 2049), *range(8100, 8300), *range(2049, 20001, 61), 20000]


def test_harmonic_number_matches_numpy_sum():
    got = [harmonic_number(n).hex() for n in HARMONIC_NS]
    want = [float(np.sum(1.0 / np.arange(1, n + 1))).hex() for n in HARMONIC_NS]
    assert got == want


def test_psd_radius_bounds_match_numpy_sqrt():
    for n in range(2, 10001):
        want = (-float(np.sqrt(2.0 / (n * (n - 1)))), float(np.sqrt(2.0 * (n - 1) / n)))
        assert [x.hex() for x in psd_radius_bounds(n)] == [x.hex() for x in want], n
