"""Acceptance suite: one test per criterion, each printing a PASS line
(``pytest tests/test_acceptance.py -s``).  Criteria 1-5 and 7-10 run the
``selftest`` checks at their own grids; criterion 6 has no selftest twin."""

import time
import warnings

import numpy as np
import pytest

from simplex_decomp import selftest
from simplex_decomp.decompose import contour_radii
from simplex_decomp.params import (StateKind, _tau_range, classify_werner, convert_params,
                                   region_table, separable_interval)
from simplex_decomp.sicpovm import (Fiducial, find_fiducial, frame_potential,
                                    frame_potential_minimum, sic_from_fiducial)


@pytest.fixture(scope="module")
def grids(registry_sics, optimized_sics):
    """Exact (N = 2, 3), then optimized (N = 4, 5): cases (N, tau, r, simplex) at 21 tau
    values x up to 5 admissible radii, both families' reports, and their build time."""
    out = []
    for sics in (registry_sics, optimized_sics):
        start, cases = time.monotonic(), []
        for n, sic in sics.items():
            for tau in np.linspace(*separable_interval(n), 21):
                with warnings.catch_warnings():  # the endpoints' contours are points
                    warnings.simplefilter("ignore")
                    cases += [(n, tau, r, sic.bloch) for r in contour_radii(n, tau, 5)]
        reports = selftest.verification_reports(
            [(kind, *case) for case in cases for kind in StateKind])
        out.append((cases, reports, time.monotonic() - start))
    return out


def passes(criterion, *results):
    """Assert every check's (ok, detail) and print the criterion's PASS line."""
    for ok, detail in results:
        assert ok, detail
    print(f"\nPASS criterion {criterion}: " + "; ".join(d for _, d in results))


def test_criterion_01_reconstruction_fidelity(grids):
    _, reports, elapsed = grids[0]
    assert elapsed < 30.0
    passes(1, selftest.check_reconstruction_fidelity(reports))


def test_criterion_02_positivity_certificates(grids):
    passes(2, selftest.check_factor_positivity(grids[0][1] + grids[1][1]),
           selftest.check_reconstruction_fidelity(grids[1][1]))


def test_criterion_03_simplex_universality():
    # r = 2 and -0.9 lie outside the PSD interval on purpose.
    cases = {n: [(kind, tau, r) for kind in StateKind
                 for tau in np.linspace(*_tau_range(kind, n), 5) for r in (2.0, -0.9)]
             for n in (2, 3, 4)}
    passes(3, selftest.check_simplex_universality(2024, 10, cases))


def test_criterion_04_sic_verification(registry_sics):
    start = time.monotonic()
    sics = list(registry_sics.values())
    for n in (4, 5):
        fid = next((f for seed in range(20)
                    if isinstance(f := find_fiducial(n, seed=seed), Fiducial)), None)
        assert fid is not None, f"no fiducial for N={n} within 20 seeds"
        assert frame_potential(fid) - frame_potential_minimum(n) <= 1e-10
        sics.append(sic_from_fiducial(fid))
    assert time.monotonic() - start < 300.0
    passes(4, selftest.check_sic_overlap(sics))


def test_criterion_05_simplex_identities(registry_sics, optimized_sics):
    simplexes = [sic.bloch for sic in (*registry_sics.values(), *optimized_sics.values())]
    passes(5, selftest.check_simplex_identities(simplexes),
           selftest.check_orthogonal_extension(simplexes))


def test_criterion_06_parameter_algebra():
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (2, 3, 7, 10):
        names = ("phi", "alpha", "beta", "tau")
        for _ in range(100):
            p = convert_params("werner", n, "phi", rng.uniform(-1.0, 1.0))
            for name in names:
                q = convert_params("werner", n, name, getattr(p, name))
                worst = max(worst, *(abs(getattr(q, o) - getattr(p, o))
                                     for o in names))
        for _ in range(100):
            eta = rng.uniform(-1.0 / (n * n - 1), 1.0)
            p = convert_params("isotropic", n, "eta", eta)
            q = convert_params("isotropic", n, "tau", p.tau)
            worst = max(worst, abs(q.eta - p.eta), abs(q.tau - p.tau))
    assert worst <= 1e-12
    assert abs(convert_params("werner", 2, "phi", 1.0).tau - 1.0) <= 1e-15
    assert abs(convert_params("isotropic", 4, "eta", 1.0).tau - 7.5) <= 1e-15
    print(f"\nPASS criterion 6: parameter round-trips on 100 values per family "
          f"(N=2,3,7,10), max deviation {worst:.3e}; spot values exact")


def test_criterion_07_classification_oracle_agreement():
    # independent steering threshold: mixing weight 1/2 <=> singlet fidelity 5/8
    tau_threshold = convert_params("werner", 2, "phi", (1.0 - 3.0 * 0.5) / 2.0).tau
    assert abs(tau_threshold - (-1.5)) <= 1e-12
    assert abs(classify_werner(2, 0.0).boundaries["tau_steer"] - tau_threshold) <= 1e-12
    passes(7, selftest.check_ppt_classification_agreement(range(2, 5), 200))


def test_criterion_08_asymptotic_region_fractions():
    start = time.monotonic()
    result = selftest.check_region_fractions(range(2, 1001))
    steer = [region_table(n)[0].frac_steer for n in range(2, 1001)]  # Werner, N = 2..
    assert all(abs(f - (n + 1.0) / (2.0 * n * n)) <= 1e-15 for n, f in enumerate(steer, 2))
    assert all(b < a for a, b in zip(steer, steer[1:]))
    assert steer[100 - 2] < 0.006 and region_table(100)[1].frac_steer > 0.95
    assert region_table(1000)[1].frac_steer > 0.99
    assert time.monotonic() - start < 5.0
    passes(8, result)


def test_criterion_09_pt_duality(grids):
    passes(9, selftest.check_pt_duality(grids[0][0] + grids[1][0]))


def test_criterion_10_positivity_interval_sharpness():
    passes(10, selftest.check_pure_direction_psd_window(123, range(2, 7), 4))
