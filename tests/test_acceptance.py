"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass; any assertion failure marks the criterion failed.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.stats import ortho_group

from simplex_decomp.blochspace import (PSD_TOL, BlochVector,
                                       bloch_from_density, density_from_bloch,
                                       min_eigenvalue)
from simplex_decomp.decompose import (contour_radii, decompose, reconstruct,
                                      verify_decomposition)
from simplex_decomp.params import (StateClass, classify_isotropic,
                                   classify_werner, convert_params,
                                   psd_radius_bounds, region_table)
from simplex_decomp.sicpovm import (OPTIMIZED, TOLERANCES, Fiducial,
                                    find_fiducial, frame_potential,
                                    frame_potential_minimum, known_fiducial,
                                    max_overlap_deviation)
from simplex_decomp.simplex import (RegularSimplex, canonical_simplex,
                                    gram_identities, orthogonal_extension,
                                    verify_simplex)
from simplex_decomp.states import (isotropic_density, partial_transpose,
                                   werner_density)

from conftest import random_pure_state


def run_decomposition_grid(dim, sic):
    """21-point tau grid x up-to-5 admissible radii, both families."""
    results = []
    for tau in np.linspace(-2.0 / dim, 2.0 * (dim - 1) / dim, 21):
        with warnings.catch_warnings():  # the endpoints' contours are points
            warnings.simplefilter("ignore")
            radii = contour_radii(dim, tau, 5)
        for r in radii:
            for kind in ("werner", "isotropic"):
                d = decompose(kind, dim, tau, r, sic.bloch)
                results.append((kind, tau, r, d, reconstruct(d), verify_decomposition(d)))
    return results


@pytest.fixture(scope="module")
def exact_grids(registry_sics):
    start = time.monotonic()
    grids = {n: run_decomposition_grid(n, registry_sics[n]) for n in (2, 3)}
    return grids, time.monotonic() - start


@pytest.fixture(scope="module")
def optimized_grids(optimized_sics):
    return {n: run_decomposition_grid(n, optimized_sics[n]) for n in (4, 5)}


def test_criterion_01_reconstruction_fidelity(exact_grids):
    grids, elapsed = exact_grids
    worst = 0.0
    count = 0
    for n in (2, 3):
        for kind, tau, r, d, rec, rep in grids[n]:
            worst = max(worst, rep.reconstruction_error)
            count += 1
    assert worst <= 1e-10
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: reconstruction fidelity over {count} "
          f"decompositions (N=2,3), max error {worst:.3e}, built in {elapsed:.2f}s")


def test_criterion_02_positivity_certificates(exact_grids, optimized_grids):
    floor_exact = 0.0
    for n in (2, 3):
        for kind, tau, r, d, rec, rep in exact_grids[0][n]:
            floor_exact = min(floor_exact, rep.min_eig_r, rep.min_eig_s)
    assert floor_exact >= -PSD_TOL
    floor_opt = 0.0
    worst_opt = 0.0
    for n in (4, 5):
        for kind, tau, r, d, rec, rep in optimized_grids[n]:
            floor_opt = min(floor_opt, rep.min_eig_r, rep.min_eig_s)
            worst_opt = max(worst_opt, rep.reconstruction_error)
    # The optimized SICs are held to the certificate that certify applies.
    assert floor_opt >= -PSD_TOL
    assert worst_opt <= TOLERANCES[OPTIMIZED].certificate
    print(f"\nPASS criterion 2: factor positivity, min eigenvalue "
          f"{floor_exact:.3e} (N=2,3 at -1e-9), {floor_opt:.3e} (N=4,5 at -1e-9)")


def test_criterion_03_simplex_universality():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = 0
    for n in (2, 3, 4):
        m = n * n - 1
        base = canonical_simplex(m)
        w_range = np.linspace(-2.0 * (n + 1) / n, 2.0 * (n - 1) / n, 5)
        i_range = np.linspace(-2.0 / n, 2.0 * (n * n - 1) / n, 5)
        for _ in range(10):
            q = ortho_group.rvs(m, random_state=rng)
            simplex = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            for tau_w, tau_i in zip(w_range, i_range):
                for r in (2.0, -0.9):  # deliberately outside the PSD interval
                    for kind, tau in (("werner", tau_w), ("isotropic", tau_i)):
                        d = decompose(kind, n, tau, r, simplex)
                        worst = max(worst, verify_decomposition(d).reconstruction_error)
                    cases += 2
    assert worst <= 1e-10
    print(f"\nPASS criterion 3: arbitrary-simplex reconstruction over {cases} "
          f"cases (10 rotations, N<=4, non-PSD radii), max error {worst:.3e}")


def test_criterion_04_sic_verification():
    start = time.monotonic()
    for n in (2, 3):
        dev = max_overlap_deviation(known_fiducial(n))
        assert dev <= 1e-12, f"registry N={n} deviation {dev}"
    found = {}
    for n in (4, 5):
        for seed in range(20):
            result = find_fiducial(n, seed=seed)
            if isinstance(result, Fiducial):
                found[n] = (seed, result)
                break
        assert n in found, f"no fiducial for N={n} within 20 seeds"
        excess = frame_potential(found[n][1]) - frame_potential_minimum(n)
        assert excess <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 4: registry SICs at 1e-12; searches succeeded at "
          f"seeds {{4: {found[4][0]}, 5: {found[5][0]}}}, {elapsed:.2f}s")


def test_criterion_05_simplex_identities(registry_sics, optimized_sics):
    worst_sum, worst_gram, worst_orth = 0.0, 0.0, 0.0
    sics = {**registry_sics, **optimized_sics}
    for n, sic in sics.items():
        assert verify_simplex(sic.bloch).ok
        g = gram_identities(sic.bloch)
        worst_sum = max(worst_sum, g.sum_norm)
        worst_gram = max(worst_gram, g.gram_dev)
        o = orthogonal_extension(sic.bloch)
        worst_orth = max(worst_orth, float(np.abs(o @ o.T - np.eye(n * n)).max()))
    assert worst_sum <= 1e-9
    assert worst_gram <= 1e-9
    assert worst_orth <= 1e-10
    print(f"\nPASS criterion 5: SIC simplex identities (N=2..5): vertex sum "
          f"{worst_sum:.3e}, Gram {worst_gram:.3e}, orthogonality {worst_orth:.3e}")


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
    for n in (2, 3, 4):
        lo, hi = -2.0 * (n + 1) / n, 2.0 * (n - 1) / n
        for tau in np.linspace(lo, hi, 200):
            ppt = min_eigenvalue(partial_transpose(werner_density(n, tau=tau))) >= -1e-9
            sep = classify_werner(n, tau).label is StateClass.SEPARABLE
            assert ppt == sep, f"werner N={n} tau={tau}"
        lo, hi = -2.0 / n, 2.0 * (n * n - 1) / n
        for tau in np.linspace(lo, hi, 200):
            ppt = min_eigenvalue(partial_transpose(isotropic_density(n, tau=tau))) >= -1e-9
            sep = classify_isotropic(n, tau).label is StateClass.SEPARABLE
            assert ppt == sep, f"isotropic N={n} tau={tau}"
    # independent steering threshold: mixing weight 1/2 <=> singlet fidelity 5/8
    p = 0.5
    phi = (1.0 - 3.0 * p) / 2.0
    tau_threshold = convert_params("werner", 2, "phi", phi).tau
    assert abs(tau_threshold - (-1.5)) <= 1e-12
    assert abs(classify_werner(2, 0.0).boundaries["tau_steer"] - tau_threshold) <= 1e-12
    print("\nPASS criterion 7: PPT sign agrees with classification on 200-point "
          "grids (N=2,3,4); qubit steering boundary matches fidelity-5/8 oracle")


def test_criterion_08_asymptotic_region_fractions():
    start = time.monotonic()
    prev_steer = None
    for n in range(2, 1001):
        werner, iso = region_table(n)
        assert werner.frac_sep == 0.5, f"N={n}"
        assert abs(werner.frac_steer - (n + 1.0) / (2.0 * n * n)) <= 1e-15
        if prev_steer is not None:
            assert werner.frac_steer < prev_steer
        prev_steer = werner.frac_steer
        total_w = werner.frac_sep + werner.frac_ent + werner.frac_steer
        total_i = iso.frac_sep + iso.frac_ent + iso.frac_steer
        assert abs(total_w - 1.0) <= 1e-12 and abs(total_i - 1.0) <= 1e-12
        if n == 100:
            assert werner.frac_steer < 0.006
            assert iso.frac_steer > 0.95
        if n == 1000:
            assert iso.frac_steer > 0.99
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 8: region fractions N=2..1000 "
          f"(Werner separable exactly 1/2, monotone steerable fraction; "
          f"isotropic steerable {region_table(100)[1].frac_steer:.4f} at N=100), "
          f"{elapsed:.2f}s")


def test_criterion_09_pt_duality(exact_grids, optimized_grids):
    worst = 0.0
    for grids in (exact_grids[0], optimized_grids):
        for n, rows in grids.items():
            iso_recs = {}
            for kind, tau, r, d, rec, rep in rows:
                iso_recs.setdefault((tau, r), {})[kind] = rec.entries
            for (tau, r), pair in iso_recs.items():
                dev = np.abs(partial_transpose(pair["werner"])
                             - pair["isotropic"]).max()
                worst = max(worst, float(dev))
    assert worst <= 1e-11
    print(f"\nPASS criterion 9: PT_2(Werner reconstruction) equals isotropic "
          f"reconstruction at equal (tau, r, s), max deviation {worst:.3e}")


def test_criterion_10_positivity_interval_sharpness():
    rng = np.random.default_rng(123)
    for n in range(2, 7):
        lo, hi = psd_radius_bounds(n)
        for _ in range(4):
            v = random_pure_state(rng, n)
            direction = bloch_from_density(np.outer(v, v.conj())).direction

            def eig_at(r):
                return min_eigenvalue(density_from_bloch(BlochVector(n, r * direction)))

            assert eig_at(lo + 1e-3) >= -1e-9, f"N={n} inside lower"
            assert eig_at(hi - 1e-3) >= -1e-9, f"N={n} inside upper"
            assert eig_at(lo - 1e-3) < -1e-7, f"N={n} outside lower"
            assert eig_at(hi + 1e-3) < -1e-7, f"N={n} outside upper"
    print("\nPASS criterion 10: PSD along pure directions flips within 1e-3 "
          "of both interval endpoints for N=2..6")
