import dataclasses
import gc
import importlib
import itertools
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ortho_group

from simplex_decomp.blochspace import PSD_TOL, _bloch_operators
from simplex_decomp.decompose import (Decomposition, certify,
                                      contour_radii, contour_sample, decompose,
                                      reconstruct, separable_decompose,
                                      verify_decomposition)
from simplex_decomp.errors import (CertificateError, DimensionMismatchError,
                                   HermiticityError, InadmissibleRadiusError,
                                   NotSeparableError, ParameterRangeError)
from simplex_decomp.params import (StateKind, admissible_r_interval, convert_params,
                                   psd_radius_bounds, separable_interval)
from simplex_decomp.selftest import check_pt_duality
from simplex_decomp.sicpovm import known_fiducial, load_fiducial_cache, sic_from_fiducial
from simplex_decomp.simplex import RegularSimplex, canonical_simplex
from simplex_decomp.states import (_closed_form_entries, isotropic_density,
                                   swap_operator, werner_density)

from conftest import assert_bitwise_equal, reference_su_generators

decompose_module = importlib.import_module("simplex_decomp.decompose")


def intervals_close(got, expected, atol=1e-12):
    assert len(got) == len(expected)
    for (a, b), (c, d) in zip(got, expected):
        assert abs(a - c) <= atol and abs(b - d) <= atol


class TestAdmissibleInterval:
    def test_qubit_positive_corner(self):
        intervals_close(admissible_r_interval(2, 1.0), [(-1.0, -1.0), (1.0, 1.0)])

    def test_qubit_negative_corner(self):
        intervals_close(admissible_r_interval(2, -1.0), [(-1.0, -1.0), (1.0, 1.0)])

    def test_qutrit_tau_half(self):
        got = admissible_r_interval(3, 0.5)
        r_max = np.sqrt(4.0 / 3.0)
        intervals_close(got, [(0.5 / r_max, r_max)], atol=1e-14)
        assert abs(got[0][0] - 0.4330127018922193) < 1e-12
        assert abs(got[0][1] - 1.1547005383792515) < 1e-12

    def test_qutrit_small_positive_tau_has_negative_branch(self):
        tau = 0.25  # below 2/(N(N-1)) = 1/3
        lo, hi = psd_radius_bounds(3)
        got = admissible_r_interval(3, tau)
        intervals_close(got, [(lo, tau / lo), (tau / hi, hi)], atol=1e-14)

    def test_negative_branch_closes_within_the_range_slack(self, registry_sics):
        """Just above r_min^2 the negative branch is a point, as every tau
        boundary is widened by RANGE_ATOL, and it certifies."""
        lo, _ = psd_radius_bounds(3)
        tau = lo * lo + 5e-13
        (a, b), _ = admissible_r_interval(3, tau)
        assert a == b and abs(a - lo) <= 1e-12
        certify(separable_decompose("werner", 3, tau, a, sic=registry_sics[3]))

    def test_negative_tau_branches(self):
        tau = -0.5
        lo, hi = psd_radius_bounds(3)
        got = admissible_r_interval(3, tau)
        intervals_close(got, [(lo, tau / hi), (tau / lo, hi)], atol=1e-14)

    def test_tau_zero_excludes_nothing(self):
        lo, hi = psd_radius_bounds(4)
        intervals_close(admissible_r_interval(4, 0.0), [(lo, hi)])

    def test_membership_consistency_with_psd_bounds(self):
        """Oracle: r admissible iff both r and tau/r in the PSD interval."""
        rng = np.random.default_rng(31)
        for n in (2, 3, 5):
            lo, hi = psd_radius_bounds(n)
            for tau in rng.uniform(-2.0 / n, 2.0 * (n - 1) / n, 20):
                intervals = admissible_r_interval(n, tau)
                for r in rng.uniform(lo, hi, 40):
                    if tau != 0.0 and abs(r) < 1e-6:
                        continue
                    s = 0.0 if tau == 0.0 else tau / r
                    expected = lo - 1e-12 <= s <= hi + 1e-12
                    got = any(a - 1e-12 <= r <= b + 1e-12 for a, b in intervals)
                    assert got == expected, (n, tau, r)

    def test_non_separable_tau_refused_with_hint(self):
        with pytest.raises(NotSeparableError) as err:
            admissible_r_interval(2, -2.0)
        assert err.value.classification is not None
        assert err.value.classification.name == "Steerable"
        with pytest.raises(NotSeparableError) as err:
            admissible_r_interval(2, 2.5)
        assert err.value.classification.name in ("EntangledUnsteerable", "Steerable")


class TestDecompose:
    def test_tau_zero_gives_trivial_right_factors(self, registry_sics):
        d = decompose("werner", 2, 0.0, 0.7, registry_sics[2].bloch)
        assert d.s == 0.0
        for i in range(4):
            np.testing.assert_allclose(d.factors_s[i], np.eye(2) / 2, atol=1e-15)
        rec = reconstruct(d)
        np.testing.assert_allclose(rec.entries, np.eye(4) / 4, atol=1e-15)

    def test_qubit_tetrahedron_two_design(self, registry_sics):
        """r = s = 1 puts SIC projectors on both sides; the mixture equals
        the symmetric-subspace state by the 2-design summation oracle."""
        sic = registry_sics[2]
        d = decompose("werner", 2, 1.0, 1.0, sic.bloch)
        projectors = np.einsum("di,dj->dij", sic.states, sic.states.conj())
        for i in range(4):
            np.testing.assert_allclose(d.factors_r[i], projectors[i], atol=1e-14)
            np.testing.assert_allclose(d.factors_s[i], projectors[i], atol=1e-14)
        oracle = sum(np.kron(p, p) for p in projectors) / 4.0
        target = (np.eye(4) + swap_operator(2)) / 6.0
        assert np.abs(oracle - target).max() <= 1e-14
        assert np.abs(reconstruct(d).entries - target).max() <= 1e-14

    def test_qutrit_brute_force_sum(self, registry_sics):
        d = decompose("werner", 3, -0.5, 0.9, registry_sics[3].bloch)
        assert abs(d.s + 5.0 / 9.0) <= 1e-15
        brute = np.zeros((9, 9), dtype=complex)
        for i in range(9):
            brute += np.kron(d.factors_r[i], d.factors_s[i]) / 9.0
        target = werner_density(3, tau=-0.5).entries
        assert np.abs(brute - target).max() <= 1e-11
        assert np.abs(reconstruct(d).entries - target).max() <= 1e-11

    def test_factors_rederive_from_stored_parameters(self, registry_sics):
        from simplex_decomp.blochspace import su_generators
        sic = registry_sics[3]
        d = decompose("iso", 3, 0.4, 1.1, sic.bloch)
        gens = su_generators(3)
        for i in range(9):
            dotted = np.einsum("m,mjk->jk", sic.bloch.vertices[i], gens)
            np.testing.assert_allclose(
                d.factors_r[i], np.eye(3) / 3 + d.r / 2.0 * dotted, atol=1e-12)
            np.testing.assert_allclose(
                d.factors_s[i], np.eye(3) / 3 + d.s / 2.0 * dotted, atol=1e-12)

    def test_weights_uniform_and_normalized(self, registry_sics):
        d = decompose("werner", 3, 0.3, 1.0, registry_sics[3].bloch)
        assert d.weights.shape == (9,)
        assert np.all(d.weights == 1.0 / 9.0)
        assert d.weights.sum() == 1.0

    def test_zero_radius_with_nonzero_tau_rejected(self, registry_sics):
        with pytest.raises(ParameterRangeError):
            decompose("werner", 2, 0.5, 0.0, registry_sics[2].bloch)

    @pytest.mark.parametrize("r", [float("nan"), np.inf, -np.inf])
    def test_non_finite_radius_refused(self, registry_sics, r):
        with pytest.raises(ParameterRangeError):
            decompose("werner", 3, 0.5, r, registry_sics[3].bloch)

    def test_nan_radius_fails_the_contour_check(self, registry_sics):
        d = decompose("werner", 2, 0.5, 1.0, registry_sics[2].bloch)
        with pytest.raises(ParameterRangeError, match="does not match"):
            Decomposition(kind=d.kind, dim=2, tau=0.5, r=float("nan"), s=0.5,
                          simplex=d.simplex, factors_r=d.factors_r,
                          factors_s=d.factors_s)

    def test_dimension_mismatch_rejected(self, registry_sics):
        with pytest.raises(DimensionMismatchError):
            decompose("werner", 3, 0.5, 1.0, registry_sics[2].bloch)

    @pytest.mark.parametrize("case", ["extra right", "missing left", "2 x 2 at N = 3",
                                      "empty", "2-D left"])
    def test_unusable_stacks_rejected(self, registry_sics, case):
        """Stacks that are not both (M, N, N) with the same M >= 1 are
        refused when built, not inside numpy when summed."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        qubit = decompose("werner", 2, 0.5, 1.0, registry_sics[2].bloch)
        factors_r, factors_s = {
            "extra right": (d.factors_r, d.factors_s[np.r_[0:9, 0]]),
            "missing left": (d.factors_r[1:], d.factors_s),
            "2 x 2 at N = 3": (qubit.factors_r, qubit.factors_s),
            "empty": (d.factors_r[:0], d.factors_s[:0]),
            "2-D left": (d.factors_r[0], d.factors_s)}[case]
        with pytest.raises(DimensionMismatchError, match="same M >= 1"):
            with_factors(d, factors_r, factors_s)

    def test_caller_arrays_are_copied(self, registry_sics):
        d = decompose("werner", 2, 0.5, 1.0, registry_sics[2].bloch)
        left, right = np.array(d.factors_r), np.array(d.factors_s)
        frozen_view = right.view()
        frozen_view.setflags(write=False)
        own = Decomposition(kind=d.kind, dim=2, tau=0.5, r=1.0, s=0.5,
                            simplex=d.simplex, factors_r=left, factors_s=frozen_view)
        left[:] = 0.0
        right[:] = 0.0
        assert_bitwise_equal(own.factors_r, d.factors_r)
        assert_bitwise_equal(own.factors_s, d.factors_s)
        assert not own.factors_r.flags.writeable and not own.factors_s.flags.writeable

    def test_factor_stacks_are_built_without_copies(self, searched_sic):
        """At N = 12 the operator stack and its facts are cached, so the peak
        of a decomposition and the first reads of its stacks is the two new
        stacks and numpy's scratch for the broadcast sum (1.39 of the two
        with a stack-sized Hermiticity check).  1.3 leaves a tenth of
        margin."""
        simplex = searched_sic(12).bloch
        decompose("werner", 12, 0.1, 1.0, simplex)  # builds the cached tables
        tracemalloc.start()
        try:
            d = decompose("werner", 12, 0.1, 1.0, simplex)
            d.factors_r, d.factors_s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (d.factors_r.nbytes + d.factors_s.nbytes)

    def test_operator_kernel_scratch_is_a_fraction_of_the_stack(self, searched_sic):
        """Vertex blocks of N keep the scratch near 2.5/N of the stack: at
        N = 12 the peak is 1.36 stacks (4.1 over all vertices at once)."""
        vertices = searched_sic(12).bloch.vertices
        _bloch_operators(vertices, 12)  # builds the cached entry table
        tracemalloc.start()
        try:
            ops = _bloch_operators(vertices, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ops.nbytes

    def test_reconstruction_is_built_without_copies(self, searched_sic):
        """At N = 12 the peak is the product of the stacks and the result
        (2.3 result sizes), not copies.  The stacks are read first, so the
        window holds `reconstruct` alone."""
        d = decompose("werner", 12, 0.1, 1.0, searched_sic(12).bloch)
        d.factors_r, d.factors_s
        tracemalloc.start()
        try:
            rho = reconstruct(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * rho.entries.nbytes

    def test_isotropic_reconstruction_copies_the_right_stack_once(self, searched_sic):
        """The transposed right factors are copied into one contiguous stack,
        freed once the product is formed: about 2.3 result sizes, as for
        the Werner family.  The stacks are read first, as above."""
        d = decompose("isotropic", 12, 0.1, 1.0, searched_sic(12).bloch)
        d.factors_r, d.factors_s
        tracemalloc.start()
        try:
            rho = reconstruct(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * rho.entries.nbytes

    @staticmethod
    def _verification_peak(d):
        verify_decomposition(d)  # builds the cached tables
        tracemalloc.start()
        try:
            verify_decomposition(d)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_verification_is_built_without_copies(self, searched_sic):
        """At N = 12 the peak is the orbit table's O(N^3) gathers, 0.27
        stacks (1.85 with a covariance check of each stack); 0.4 leaves an
        eighth of a stack of margin.  The factor stacks are read as built."""
        d = decompose("isotropic", 12, 0.1, 1.0, searched_sic(12).bloch)
        assert self._verification_peak(d) <= 0.4 * d.factors_r.nbytes

    def test_werner_verification_is_built_without_copies(self, searched_sic):
        """The Werner certificate peaks as the isotropic one does: 0.27
        stacks at N = 12, with no dense closed form."""
        d = decompose("werner", 12, 0.1, 1.0, searched_sic(12).bloch)
        assert self._verification_peak(d) <= 0.4 * d.factors_r.nbytes

    def test_isotropic_closed_form_is_built_in_place(self):
        """eta*|Phi><Phi| is written at its N^2 nonzero positions, so the
        call peaks at DensityMatrix's Hermiticity check, not at the builder
        (4.4 result sizes with a dense identity and projector)."""
        isotropic_density(12, eta=0.1)
        tracemalloc.start()
        try:
            rho = isotropic_density(12, eta=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * rho.entries.nbytes

    def test_decomposition_is_checked_once_when_built(self, registry_sics, monkeypatch):
        """The operator stack O is checked once per simplex, and a stack
        that ties to it is not checked again: a second decomposition, both
        verifications and `reconstruct` check nothing, while a stack with
        one entry one ulp off is checked and refused."""
        simplex = RegularSimplex(ambient_dim=8, vertices=registry_sics[3].bloch.vertices)
        real, checked = decompose_module._hermitian_deviation, []

        def counting(stack):
            checked.append(stack)
            return real(stack)
        monkeypatch.setattr(decompose_module, "_hermitian_deviation", counting)
        d = decompose("werner", 3, 0.5, 1.0, simplex)
        assert len(checked) == 1 and checked[0] is decompose_module._OPERATOR_FACTS[simplex].ops
        e = decompose("isotropic", 3, 0.5, 1.1, simplex)
        assert verify_decomposition(d).separable_certificate
        assert verify_decomposition(e).separable_certificate
        reconstruct(e)
        assert len(checked) == 1
        factors_s = np.array(e.factors_s)
        factors_s.imag[4, 2, 0] = np.nextafter(factors_s.imag[4, 2, 0], np.inf)
        with pytest.raises(HermiticityError, match="factors_s"):
            with_factors(e, e.factors_r, factors_s)
        assert len(checked) == 2
        assert_bitwise_equal(checked[1], factors_s)

    def test_simplex_is_checked_once_when_built(self, monkeypatch):
        simplex_module = importlib.import_module("simplex_decomp.simplex")
        real, checked = simplex_module.verify_simplex, []

        def counting(s):
            checked.append(s)
            return real(s)
        monkeypatch.setattr(simplex_module, "verify_simplex", counting)
        sic = sic_from_fiducial(known_fiducial(3))
        assert checked == [sic.bloch] and sic.bloch.tol == 1e-10
        for kind in ("werner", "isotropic"):
            for r in (0.6, 1.1):
                certify(separable_decompose(kind, 3, 0.5, r, sic=sic))
        assert len(checked) == 1

    def test_family_range_enforced(self, registry_sics):
        with pytest.raises(ParameterRangeError):
            decompose("werner", 2, 1.5, 1.0, registry_sics[2].bloch)  # beyond max
        # non-separable but inside the family range is fine here
        d = decompose("werner", 2, -2.0, 2.0, registry_sics[2].bloch)
        assert np.abs(reconstruct(d).entries
                      - werner_density(2, tau=-2.0).entries).max() <= 1e-11


class TestArbitrarySimplexUniversality:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_arbitrary_rotated_simplexes(self, dim):
        """Any regular simplex reproduces both families, PSD factors or not."""
        rng = np.random.default_rng(40 + dim)
        m = dim * dim - 1
        base = canonical_simplex(m)
        lo, hi = -2.0 * (dim + 1) / dim, 2.0 * (dim - 1) / dim
        for _ in range(10):
            q = ortho_group.rvs(m, random_state=rng)
            simplex = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            for tau in np.linspace(lo, hi, 4):
                for r in (2.0, -0.8, 0.33):
                    d = decompose("werner", dim, tau, r, simplex)
                    err = np.abs(reconstruct(d).entries
                                 - werner_density(dim, tau=tau).entries).max()
                    assert err <= 1e-10
        iso_lo, iso_hi = -2.0 / dim, 2.0 * (dim * dim - 1) / dim
        q = ortho_group.rvs(m, random_state=rng)
        simplex = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
        for tau in np.linspace(iso_lo, iso_hi, 4):
            d = decompose("iso", dim, tau, 2.0, simplex)
            err = np.abs(reconstruct(d).entries
                         - isotropic_density(dim, tau=tau).entries).max()
            assert err <= 1e-10


class TestSeparableDecompose:
    def test_qubit_pure_product_corner(self, registry_sics):
        d = separable_decompose("werner", 2, 1.0, 1.0, sic=registry_sics[2])
        rep = verify_decomposition(d)
        assert rep.separable_certificate
        assert abs(rep.min_eig_r) <= 1e-12 and abs(rep.min_eig_s) <= 1e-12
        assert d.weights[0] == 0.25

    def test_qutrit_lower_endpoint(self, registry_sics):
        r = 2.0 / np.sqrt(3.0)
        d = separable_decompose("werner", 3, -2.0 / 3.0, r, sic=registry_sics[3])
        assert abs(d.s + 1.0 / np.sqrt(3.0)) <= 1e-14
        rep = verify_decomposition(d)
        assert rep.separable_certificate
        assert rep.min_eig_s >= -1e-10 and rep.min_eig_s <= 1e-10

    def test_inadmissible_radius_refused_with_nearest(self, registry_sics):
        with pytest.raises(InadmissibleRadiusError) as err:
            separable_decompose("werner", 2, 1.0, 0.5, sic=registry_sics[2])
        assert abs(err.value.nearest - 1.0) <= 1e-12

    @pytest.mark.parametrize("r", [1e-11, 2.00088116740105e-262, 0.0])
    def test_tiny_tau_refuses_a_radius_whose_s_leaves_the_psd_interval(
            self, registry_sics, r):
        # r lies within ADMISSIBLE_ATOL of the interval [1e-10, 1], but
        # s = tau/r does not lie within it of [-1, 1].
        with pytest.raises(InadmissibleRadiusError) as err:
            separable_decompose("werner", 2, 1e-10, r, sic=registry_sics[2])
        assert err.value.nearest == 1e-10

    def test_tau_zero_still_bounds_the_left_radius(self, registry_sics):
        lo, hi = psd_radius_bounds(2)
        d = separable_decompose("werner", 2, 0.0, hi, sic=registry_sics[2])
        assert verify_decomposition(d).separable_certificate
        with pytest.raises(InadmissibleRadiusError) as err:
            separable_decompose("werner", 2, 0.0, hi + 0.1, sic=registry_sics[2])
        assert abs(err.value.nearest - hi) <= 1e-12

    def test_non_separable_tau_refused(self, registry_sics):
        with pytest.raises(NotSeparableError):
            separable_decompose("werner", 2, -2.0, 1.0, sic=registry_sics[2])

    def test_nan_radius_refused_as_parameter_error(self, registry_sics):
        with pytest.raises(ParameterRangeError, match="not a number"):
            separable_decompose("werner", 3, 0.5, float("nan"), sic=registry_sics[3])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_radius_nearest_is_the_extreme_endpoint(self, registry_sics, sign):
        intervals = admissible_r_interval(3, -0.3)
        with pytest.raises(InadmissibleRadiusError) as err:
            separable_decompose("werner", 3, -0.3, sign * np.inf, sic=registry_sics[3])
        assert isinstance(err.value, ParameterRangeError)
        expected = intervals[-1][1] if sign > 0 else intervals[0][0]
        assert err.value.nearest == expected

    @pytest.mark.parametrize("dim", [4, 5])
    def test_optimized_fiducial_dimensions(self, optimized_sics, dim):
        sic = optimized_sics[dim]
        for tau in (-2.0 / dim, 0.0, 0.5, 2.0 * (dim - 1) / dim):
            intervals = admissible_r_interval(dim, tau)
            r = intervals[-1][1]
            d = separable_decompose("iso", dim, tau, r, sic=sic)
            rep = verify_decomposition(d, target_tol=1e-6)
            assert rep.separable_certificate
            assert rep.min_eig_r >= -1e-6 and rep.min_eig_s >= -1e-6


class TestVerifyDecomposition:
    def test_non_psd_factors_still_reconstruct(self, registry_sics):
        d = decompose("werner", 2, 0.6, 2.0, registry_sics[2].bloch)
        rep = verify_decomposition(d)
        assert not rep.all_factors_psd
        assert not rep.separable_certificate
        assert rep.reconstruction_error <= 1e-11
        assert rep.min_eig_r < -1e-3

    def test_trivial_tau_zero_certificate(self, registry_sics):
        lo, hi = psd_radius_bounds(2)
        d = decompose("werner", 2, 0.0, hi, registry_sics[2].bloch)
        rep = verify_decomposition(d)
        assert rep.separable_certificate
        assert rep.reconstruction_error <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sharpness_overshoot_by_1e2(self, registry_sics, dim):
        """1e-2 outside the admissible set forces an eigenvalue below -1e-4."""
        sic = registry_sics[dim]
        lo, hi = psd_radius_bounds(dim)
        for tau in (0.25, -0.3, 2.0 * (dim - 1) / dim):
            cases = [hi + 1e-2]                 # left radius overshoots
            if tau != 0.0:
                cases.append(tau / (hi + 1e-2))  # right radius overshoots
                if tau > 0:
                    cases.append(tau / (lo - 1e-2))
            for r in cases:
                d = decompose("werner", dim, tau, r, sic.bloch)
                rep = verify_decomposition(d)
                assert min(rep.min_eig_r, rep.min_eig_s) < -1e-4, (tau, r)
                assert rep.reconstruction_error <= 1e-11

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pt_duality_of_reconstructions(self, registry_sics, dim):
        ok, detail = check_pt_duality(
            [(dim, tau, admissible_r_interval(dim, tau)[-1][1], registry_sics[dim].bloch)
             for tau in (-2.0 / dim, -0.1, 0.0, 0.4, 2.0 * (dim - 1) / dim)])
        assert ok, detail


class TestContourSample:
    def test_qutrit_five_distinct_certified(self, registry_sics):
        items = contour_sample("werner", 3, 0.5, 5, sic=registry_sics[3])
        assert len(items) == 5
        radii = [d.r for d in items]
        assert len(set(radii)) == 5
        for d in items:
            assert verify_decomposition(d).separable_certificate

    def test_degenerate_corner_collapses_with_note(self, registry_sics):
        with pytest.warns(UserWarning, match="degenerate"):
            items = contour_sample("werner", 2, 1.0, 3, sic=registry_sics[2])
        assert len(items) == 2
        assert sorted(d.r for d in items) == [-1.0, 1.0]

    def test_single_sample_at_tau_zero_is_maximally_mixed(self, registry_sics):
        items = contour_sample("werner", 2, 0.0, 1, sic=registry_sics[2])
        assert len(items) == 1
        rec = reconstruct(items[0])
        np.testing.assert_allclose(rec.entries, np.eye(4) / 4, atol=1e-14)

    def test_samples_span_both_branches(self, registry_sics):
        items = contour_sample("werner", 3, 0.25, 6, sic=registry_sics[3])
        signs = {np.sign(d.r) for d in items}
        assert signs == {-1.0, 1.0}

    def test_invalid_count_rejected(self, registry_sics):
        with pytest.raises(ParameterRangeError):
            contour_sample("werner", 2, 0.5, 0, sic=registry_sics[2])

    def test_radii_match_the_sampled_decompositions(self, registry_sics):
        items = contour_sample("iso", 3, 0.7, 4, sic=registry_sics[3])
        assert [d.r for d in items] == [float(r) for r in contour_radii(3, 0.7, 4)]

    def test_certify_defaults_to_the_simplex_tolerance(self):
        """Both verify and certify default to the simplex's ``tol``: here a
        reconstruction error between 1e-10 and 1e-7 certifies at 1e-7."""
        base = canonical_simplex(8).vertices
        jitter = np.random.default_rng(0).standard_normal(base.shape)
        simplex = RegularSimplex(ambient_dim=8, vertices=base + 1e-8 * jitter, tol=1e-7)
        d = decompose("werner", 3, 0.25, 0.5, simplex)
        assert 1e-10 < verify_decomposition(d).reconstruction_error <= 1e-7
        assert verify_decomposition(d).separable_certificate
        assert certify(d).separable_certificate
        assert not verify_decomposition(d, target_tol=1e-10).separable_certificate

    def test_empty_admissible_set_raises(self, monkeypatch):
        """An explicit raise, not an assert, so python -O cannot return []."""
        monkeypatch.setattr(decompose_module, "admissible_r_interval",
                            lambda dim, tau: [])
        with pytest.raises(NotSeparableError, match="no admissible radius"):
            contour_radii(3, 0.5, 2)

    def test_failed_certificate_raises(self, registry_sics, monkeypatch):
        """An explicit raise, not an assert, so it holds under python -O."""
        real = verify_decomposition
        monkeypatch.setattr(decompose_module, "verify_decomposition",
                            lambda d, target_tol: real(d, target_tol=-1.0))
        with pytest.raises(CertificateError) as err:
            contour_sample("werner", 3, 0.5, 2, sic=registry_sics[3])
        assert not err.value.report.separable_certificate


def reference_simplex_operators(simplex, dim):
    """Dense contraction over every generator: the kernel's bitwise oracle."""
    return np.einsum("im,mjk->ijk", simplex.vertices, reference_su_generators(dim))


def reference_reconstruct(d):
    """Sum of np.kron products in index order, divided by M: the kernel's
    oracle."""
    n2 = d.dim * d.dim
    out = np.zeros((n2, n2), dtype=complex)
    for i in range(d.n_factors):
        right = d.factors_s[i].T if d.kind is StateKind.ISOTROPIC else d.factors_s[i]
        out += np.kron(d.factors_r[i], right)
    return out / d.n_factors


def assert_within_kronecker_bound(got, d):
    """|got - reference_reconstruct(d)| <= 2 * 2 gamma_{M+3} (|R|^T |S'|) / M
    entry by entry, with gamma_k = k u / (1 - k u) and u = 2^-53.

    Both the kernel and the loop sum the M products R_i[a, b] S'_i[c, d]
    (S' the right factors, transposed for the isotropic family) and divide
    by M.  A complex product carries a relative error of at most
    sqrt(2) gamma_2 (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.5).  A complex sum rounds each part, so its error
    is at most u of its modulus, and M terms summed in any order are
    within gamma_{M-1} of the sum of their moduli (section 3.1).  With the
    products' errors, sqrt(2) gamma_2 + gamma_{M-1} + sqrt(2) gamma_2
    gamma_{M-1} <= sqrt(2) gamma_{M+1}; the division by M adds u, for
    sqrt(2) gamma_{M+2} <= 2 gamma_{M+3}.  A kernel that sums the real
    products of each part apart, such as a BLAS gemm, is within
    gamma_{M+1} per part, as |Re x Re y| + |Im x Im y| <= |x| |y|, and
    so within the same bound (section 3.6).  Each side is within
    2 gamma_{M+3} sum_i |R_i[a, b]| |S'_i[c, d]| / M of the exact mean,
    so the two are within twice that.
    """
    n, m = d.dim, d.n_factors
    rights = d.factors_s.transpose(0, 2, 1) if d.kind is StateKind.ISOTROPIC else d.factors_s
    moduli = np.einsum("iab,icd->acbd", np.abs(d.factors_r), np.abs(rights)) / m
    k, u = m + 3, np.finfo(float).eps / 2
    bound = 2 * 2 * (k * u / (1 - k * u)) * moduli.reshape(n * n, n * n)
    excess = np.abs(got - reference_reconstruct(d)) - bound
    assert (excess <= 0).all(), float(excess.max())


def contour_points(dim):
    """(tau, r) inside, at the ends of and on the negative branch of the
    contour, and at both ends of the separable interval (both radii at the
    lower one)."""
    neg_min, r_max = psd_radius_bounds(dim)
    tau_neg = -1.0 / dim
    (a, _), (c, e) = admissible_r_interval(dim, tau_neg)
    tau_small = 0.5 * neg_min * neg_min  # positive, with a negative branch
    (f, g), _ = admissible_r_interval(dim, tau_small)
    (h, _), (k, _) = admissible_r_interval(dim, -2.0 / dim)
    return [(tau_neg, a), (tau_neg, 0.5 * (c + e)), (tau_small, 0.5 * (f + g)),
            (2.0 * (dim - 1) / dim, r_max), (-2.0 / dim, h), (-2.0 / dim, k)]


class TestKernelsBitwise:
    """The fast kernels return the same bits as their dense references, and
    `reconstruct` is within rounding of its term-by-term loop."""

    @pytest.fixture(scope="class")
    def sics(self, registry_sics, searched_sic):
        return {n: registry_sics[n] if n in registry_sics else searched_sic(n)
                for n in (2, 3, 4, 5, 6, 7, 8, 12, 16)}

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_simplex_operators(self, sics, dim):
        simplex = sics[dim].bloch
        assert_bitwise_equal(_bloch_operators(simplex.vertices, dim),
                             reference_simplex_operators(simplex, dim))

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_simplex_operators_on_rotated_simplex(self, dim):
        m = dim * dim - 1
        rot = ortho_group.rvs(m, random_state=dim)
        simplex = RegularSimplex(ambient_dim=m,
                                 vertices=canonical_simplex(m).vertices @ rot.T)
        assert_bitwise_equal(_bloch_operators(simplex.vertices, dim),
                             reference_simplex_operators(simplex, dim))

    @pytest.mark.parametrize("kind", ["werner", "isotropic"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_decompose_and_reconstruct(self, sics, dim, kind):
        sic = sics[dim]
        ops = reference_simplex_operators(sic.bloch, dim)
        eye = np.eye(dim, dtype=complex)
        for tau, r in contour_points(dim):
            d = separable_decompose(kind, dim, tau, r, sic=sic)
            assert_bitwise_equal(d.factors_r, eye / dim + (d.r / 2.0) * ops)
            assert_bitwise_equal(d.factors_s, eye / dim + (d.s / 2.0) * ops)
            assert_within_kronecker_bound(reconstruct(d).entries, d)

    @pytest.mark.parametrize("kind", ["werner", "isotropic"])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_reconstruct_on_rotated_simplex(self, dim, kind):
        """Non-SIC regular simplexes: points on both branches of the contour
        and radii whose factors are not positive semidefinite."""
        m = dim * dim - 1
        rot = ortho_group.rvs(m, random_state=100 + dim)
        simplex = RegularSimplex(ambient_dim=m,
                                 vertices=canonical_simplex(m).vertices @ rot.T)
        neg_min, r_max = psd_radius_bounds(dim)
        points = contour_points(dim) + [(0.0, r_max), (-1.0 / dim, 3.0),
                                         (0.5, -2.5), (-1.5 / dim, 1.7 * neg_min)]
        for tau, r in points:
            d = decompose(kind, dim, tau, r, simplex)
            assert_within_kronecker_bound(reconstruct(d).entries, d)


def hermitian_stack(rng, count, dim, zeros):
    """``count`` exactly Hermitian trace-one matrices X + X^H.

    A share ``zeros`` of the entries of X is zero, and the sign of every
    zero part of the sum is then drawn at random: the sign of a zero is
    free in an exactly Hermitian matrix, so the sum must not depend on it.
    """
    x = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    x[rng.random(x.shape) < zeros] = 0.0
    h = x + x.conj().transpose(0, 2, 1)
    idx = np.arange(dim)
    h[:, idx, idx] += (1.0 - h.trace(axis1=1, axis2=2).real)[:, None] / dim
    for part in (h.real, h.imag):
        flip = (part == 0.0) & (rng.random(part.shape) < 0.5)
        part[flip] = np.negative(part[flip])
    return h


class TestReconstructHermitianHalf:
    """`reconstruct` sums every entry of any exactly Hermitian stacks, while
    the spectra read one triangle of each factor."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 6), kind=st.sampled_from(["werner", "isotropic"]),
           zeros=st.sampled_from([0.0, 0.3, 0.9]), extra=st.integers(-1, 1),
           seed=st.integers(0, 2**32 - 1))
    def test_within_the_bound_over_random_hermitian_stacks(self, dim, kind, zeros, extra, seed):
        rng = np.random.default_rng(seed)
        count = dim * dim + extra
        d = Decomposition(kind=StateKind.parse(kind), dim=dim, tau=0.5, r=1.0, s=0.5,
                          simplex=canonical_simplex(dim * dim - 1),
                          factors_r=hermitian_stack(rng, count, dim, zeros),
                          factors_s=hermitian_stack(rng, count, dim, zeros))
        assert_within_kronecker_bound(reconstruct(d).entries, d)

    @pytest.mark.parametrize("stack", ["factors_r", "factors_s"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_factor_off_by_one_ulp_is_refused(self, registry_sics, stack, part):
        """`eigvalsh` reads one triangle of each factor, so a `Decomposition`
        refuses, when built, a factor that misses exact Hermiticity by one
        ulp instead of hiding the entry the spectra would not read."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        factors = {"factors_r": np.array(d.factors_r), "factors_s": np.array(d.factors_s)}
        entry = getattr(factors[stack][4, 2, 0:1], part)
        entry[0] = np.nextafter(entry[0], np.inf)
        with pytest.raises(HermiticityError, match=stack):
            Decomposition(kind=d.kind, dim=3, tau=d.tau, r=d.r, s=d.s,
                          simplex=d.simplex, **factors)

    @pytest.mark.parametrize("stack", ["factors_r", "factors_s"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_symmetric_infinite_factor_is_refused(self, registry_sics, stack):
        """A stack that is symmetric bit for bit but holds +-inf is not
        finite, so it is refused with the deviation NaN."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        factors = {"factors_r": np.array(d.factors_r), "factors_s": np.array(d.factors_s)}
        factors[stack][4, 2, 0] = factors[stack][4, 0, 2] = np.inf
        factors[stack][5, 1, 1] = -np.inf
        with pytest.raises(HermiticityError,
                           match=f"{stack} is not exactly Hermitian: deviation nan"):
            Decomposition(kind=d.kind, dim=3, tau=d.tau, r=d.r, s=d.s,
                          simplex=d.simplex, **factors)


DATA = Path(__file__).parent / "data"
EPS = np.finfo(float).eps


REPORT_VALUES = ("reconstruction_error", "min_eig_r", "min_eig_s",
                 "all_factors_psd", "separable_certificate")


def report_values(rep, **replaced):
    """The five values a report prints, by name and in its repr's order,
    with some replaced; compared through ``repr``, which keeps every bit."""
    return {name: replaced.get(name, getattr(rep, name)) for name in REPORT_VALUES}


def closed_form(kind, dim, tau):
    """The dense closed form that the dense route compares with."""
    params = convert_params(kind, dim, "tau", tau)
    if kind is StateKind.WERNER:
        return werner_density(dim, phi=params.phi).entries
    return isotropic_density(dim, eta=params.eta).entries


def dense_report(d, target_tol=None):
    """The values of `verify_decomposition` by the Kronecker sum and the
    full stacks' spectra alone: what every report the dense route decides
    prints bit for bit, and the minima of every report."""
    if target_tol is None:
        target_tol = d.simplex.tol
    err = float(np.abs(reconstruct(d).entries - closed_form(d.kind, d.dim, d.tau)).max())
    min_eig_r = float(np.linalg.eigvalsh(d.factors_r)[:, 0].min())
    min_eig_s = float(np.linalg.eigvalsh(d.factors_s)[:, 0].min())
    all_psd = min_eig_r >= -PSD_TOL and min_eig_s >= -PSD_TOL
    return dict(reconstruction_error=err, min_eig_r=min_eig_r, min_eig_s=min_eig_s,
                all_factors_psd=all_psd,
                separable_certificate=bool(all_psd and err <= target_tol))


def measured_bounds(d):
    """(max|R|, max|S|, delta_R, delta_S) read from the stacks themselves:
    each stack's covariance deviation plus 16 ulps of its max|F|."""
    roots = decompose_module._roots_of_unity(d.dim)
    ulps = decompose_module._COVARIANCE_ULPS * EPS
    r_max, s_max = (float(np.abs(f).max()) for f in (d.factors_r, d.factors_s))
    delta_r = decompose_module._covariance_deviation(d.factors_r, roots) + ulps * r_max
    delta_s = decompose_module._covariance_deviation(d.factors_s, roots) + ulps * s_max
    return r_max, s_max, delta_r, delta_s


def orbit_image_bound(d):
    """Per-entry bound on |orbit table's image - Kronecker sum|: the gap
    between the two mixtures, from the measured bounds, plus the rounding
    of both sums, of N^2 and of N products of at most max|R| max|S| each."""
    n = d.dim
    r_max, s_max, delta_r, delta_s = measured_bounds(d)
    gap = r_max * delta_s + s_max * delta_r + delta_r * delta_s
    return gap + (n * n + n + 4) * EPS * r_max * s_max


def measured_report(d, target_tol=None):
    """The values `verify_decomposition` prints, from an orbit route that
    measures each stack (`measured_bounds`) where the library derives its
    bounds from the simplex's operator stack: the reference of the derived
    route.  The mixture's trace gate aside, as in `dense_report`."""
    if target_tol is None:
        target_tol = d.simplex.tol
    n = d.dim
    r_max, s_max, delta_r, delta_s = measured_bounds(d)
    gap = r_max * delta_s + s_max * delta_r + delta_r * delta_s
    name = "phi" if d.kind is StateKind.WERNER else "eta"
    value = getattr(convert_params(d.kind, n, "tau", d.tau), name)
    table = decompose_module._orbit_support(d.kind, d.factors_r[0], d.factors_s[0])
    closed = decompose_module._closed_table(d.kind, n, _closed_form_entries(n, name, value))
    err = float(np.abs(table - closed).max())
    if d.n_factors != n * n or not err + gap <= target_tol:
        return dense_report(d, target_tol)
    lows = [float(np.linalg.eigvalsh(f[0])[0]) - n * delta
            for f, delta in ((d.factors_r, delta_r), (d.factors_s, delta_s))]
    min_eig_r, min_eig_s = (float(np.linalg.eigvalsh(f)[:, 0].min())
                            for f in (d.factors_r, d.factors_s))
    all_psd = (bool(min(lows) >= -PSD_TOL)
               or (min_eig_r >= -PSD_TOL and min_eig_s >= -PSD_TOL))
    return dict(reconstruction_error=err, min_eig_r=min_eig_r, min_eig_s=min_eig_s,
                all_factors_psd=all_psd,
                separable_certificate=bool(all_psd and err <= target_tol))


def orbit_image(kind, table):
    """Dense image of an (N, N) table in the orbit's coordinates: entry
    (u, b - a) at <a, b| . |a+u, b-u> (isotropic: |a+u, b+u>), 0 elsewhere."""
    n = table.shape[0]
    a, b, u = np.ogrid[:n, :n, :n]
    right = (b - u) % n if kind is StateKind.WERNER else (b + u) % n
    image = np.zeros((n * n, n * n), dtype=complex)
    image[a * n + b, (a + u) % n * n + right] = table[u, (b - a) % n]
    return image


def dense_sums(monkeypatch):
    """The decompositions the dense route sums, as a list that grows."""
    real, summed = decompose_module._kronecker_sum, []
    monkeypatch.setattr(decompose_module, "_kronecker_sum",
                        lambda d: summed.append(d) or real(d))
    return summed


def eigvalsh_shapes(monkeypatch):
    """The shapes `np.linalg.eigvalsh` runs on, as a list that grows."""
    real, shapes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kwargs: shapes.append(a.shape) or real(a, *args, **kwargs))
    return shapes


def with_factors(d, factors_r, factors_s):
    return Decomposition(kind=d.kind, dim=d.dim, tau=d.tau, r=d.r, s=d.s,
                         simplex=d.simplex, factors_r=factors_r, factors_s=factors_s)


# (kind, SIC source, tau, radii or contour count) of each decompose golden.
GOLDEN_GRIDS = [("werner", 2, 1.0, [1.0]), ("isotropic", 3, 0.7, 4),
                ("werner", 3, -0.5, 3), ("werner", "fid4.json", 0.5, 2),
                ("isotropic", "fid8.json", 0.25, 2), ("werner", "fid12.json", 0.1, 4)]


class TestOrbitRoute:
    """`verify_decomposition` certifies a Weyl-Heisenberg orbit from its
    N x N table, and any other stack by the Kronecker sum as before."""

    @staticmethod
    def check_routes_agree(d):
        table = decompose_module._orbit_support(d.kind, d.factors_r[0], d.factors_s[0])
        image = orbit_image(d.kind, table)
        assert np.abs(image - reconstruct(d).entries).max() <= orbit_image_bound(d)
        # The orbit route decides: neither the Kronecker sum nor a dense
        # closed form is built, and the first pair's spectra show every
        # factor PSD.
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_kronecker_sum", "werner_density", "isotropic_density"):
                mp.setattr(decompose_module, name, None)
            shapes = eigvalsh_shapes(mp)
            rep = verify_decomposition(d)
        assert rep.all_factors_psd and shapes == [(d.dim, d.dim)] * 2
        closed = closed_form(d.kind, d.dim, d.tau)
        assert rep.reconstruction_error == np.abs(image - closed).max()
        ref = dense_report(d)
        assert rep.all_factors_psd == (min(rep.min_eig_r, rep.min_eig_s) >= -PSD_TOL)
        assert rep.separable_certificate == ref["separable_certificate"]
        assert repr(report_values(rep, reconstruction_error=0.0)) == repr(
            {**ref, "reconstruction_error": 0.0})
        assert abs(rep.reconstruction_error - ref["reconstruction_error"]) <= orbit_image_bound(d)

    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_closed_table_is_the_dense_closed_form(self, kind, dim):
        """Scattered by the orbit's index rule, the closed form's (N, N)
        table is the dense closed form bit for bit: the closed form is 0 off
        the table's support, so the route's N x N maximum is the N^4 one."""
        name = "phi" if kind is StateKind.WERNER else "eta"
        lo, hi = separable_interval(dim)
        for tau in [*np.linspace(lo, hi, 13), 0.0, -0.0]:
            value = getattr(convert_params(kind, dim, "tau", tau), name)
            table = decompose_module._closed_table(
                kind, dim, _closed_form_entries(dim, name, value))
            assert_bitwise_equal(orbit_image(kind, table), closed_form(kind, dim, tau))

    @pytest.mark.parametrize("kind, source, tau, radii", GOLDEN_GRIDS)
    def test_golden_grids(self, kind, source, tau, radii):
        fid = known_fiducial(source) if source in (2, 3) else load_fiducial_cache(DATA / source)
        sic = sic_from_fiducial(fid)
        if isinstance(radii, int):
            radii = contour_radii(sic.dim, tau, radii)
        for r in radii:
            d = separable_decompose(kind, sic.dim, tau, r, sic=sic)
            self.check_routes_agree(d)
            assert verify_decomposition(d).separable_certificate

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(list(StateKind)), dim=st.integers(2, 8),
           t=st.floats(0.0, 1.0), u=st.floats(0.0, 1.0))
    def test_drawn_decompositions(self, registry_sics, searched_sic, kind, dim, t, u):
        sic = registry_sics[dim] if dim in registry_sics else searched_sic(dim)
        lo, hi = separable_interval(dim)
        tau = lo + t * (hi - lo)
        intervals = admissible_r_interval(dim, tau)
        pick = u * sum(b - a for a, b in intervals)
        for a, b in intervals:
            r = min(a + pick, b)
            pick -= b - a
            if pick <= 0.0:
                break
        self.check_routes_agree(decompose(kind, dim, tau, r, sic.bloch))

    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("source", [3, "fid4.json"])
    def test_swapped_pairs_take_the_dense_route(self, monkeypatch, kind, source):
        fid = known_fiducial(source) if source == 3 else load_fiducial_cache(DATA / source)
        d = separable_decompose(kind, fid.dim, 0.5, 1.0, sic=sic_from_fiducial(fid))
        order = np.arange(d.n_factors)
        order[[1, 5]] = order[[5, 1]]
        swapped = with_factors(d, d.factors_r[order], d.factors_s[order])
        summed, shapes = dense_sums(monkeypatch), eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(swapped)
        assert summed == [swapped]
        assert shapes == [swapped.factors_r.shape, swapped.factors_s.shape]
        assert repr(report_values(rep)) == repr(dense_report(swapped))
        assert rep.separable_certificate

    def test_conjugated_factor_takes_the_dense_route(self, registry_sics, monkeypatch):
        d = separable_decompose("werner", 3, 0.5, 1.0, sic=registry_sics[3])
        factors_r = np.array(d.factors_r)
        assert np.abs(factors_r[4].imag).max() > 0.1
        factors_r[4] = factors_r[4].conj()
        conjugated = with_factors(d, factors_r, d.factors_s)
        summed, shapes = dense_sums(monkeypatch), eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(conjugated)
        assert summed == [conjugated]
        assert shapes == [conjugated.factors_r.shape, conjugated.factors_s.shape]
        assert repr(report_values(rep)) == repr(dense_report(conjugated))
        assert not rep.separable_certificate

    def test_extra_pair_takes_the_dense_route(self, registry_sics, monkeypatch):
        """N^2 + 1 pairs, the first repeated: its first N^2 rows are the
        orbit, but the mixture weighs the first pair twice."""
        d = separable_decompose("werner", 3, 0.5, 1.0, sic=registry_sics[3])
        order = np.r_[np.arange(d.n_factors), 0]
        extra = with_factors(d, d.factors_r[order], d.factors_s[order])
        summed, shapes = dense_sums(monkeypatch), eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(extra)
        assert summed == [extra]
        assert shapes == [extra.factors_r.shape, extra.factors_s.shape]
        assert repr(report_values(rep)) == repr(dense_report(extra))
        assert not rep.separable_certificate

    def test_selftest_rotated_simplexes_take_the_dense_route(self, monkeypatch):
        selftest = importlib.import_module("simplex_decomp.selftest")
        summed, checked = dense_sums(monkeypatch), []

        def checked_verify(d):
            rep = verify_decomposition(d)
            assert summed[-1] is d
            assert repr(report_values(rep)) == repr(dense_report(d))
            checked.append(d)
            return rep
        monkeypatch.setattr(selftest, "verify_decomposition", checked_verify)
        ok, detail = dict(selftest._selftest_checks(3))["simplex-universality"]()
        assert ok, detail
        # One Kronecker sum for each verification and one for its oracle.
        assert len(checked) == 16 and len(summed) == 32

    @pytest.mark.parametrize("bump", [1e-9, 1e-8])
    def test_sum_off_trace_one_gets_a_report(self, registry_sics, monkeypatch, bump):
        """One diagonal entry off by 1e-9 moves the sum's trace by 1.1e-10,
        past ``DensityMatrix``'s 1e-10 and so past the trace gate, and its
        error by about 5e-11, within the exact gate; 1e-8 moves the error
        past the gate too.  Neither is certified."""
        d = separable_decompose("werner", 3, 0.5, 1.0, sic=registry_sics[3])
        factors_r = np.array(d.factors_r)
        factors_r[4, 1, 1] += bump
        bad = with_factors(d, factors_r, d.factors_s)
        with pytest.raises(HermiticityError, match="trace"):
            reconstruct(bad)
        shapes = eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(bad)
        assert shapes == [bad.factors_r.shape, bad.factors_s.shape]
        assert rep.all_factors_psd == (min(rep.min_eig_r, rep.min_eig_s) >= -PSD_TOL)
        closed = werner_density(3, phi=convert_params("werner", 3, "tau", 0.5).phi)
        summed = decompose_module._kronecker_sum(bad)
        assert rep.reconstruction_error == np.abs(summed - closed.entries).max()
        assert_within_kronecker_bound(summed, bad)
        assert rep.all_factors_psd
        assert (rep.reconstruction_error <= bad.simplex.tol) == (bump == 1e-9)
        assert not rep.separable_certificate
        with pytest.raises(CertificateError):
            certify(bad)

    def test_roots_of_unity_within_four_eps(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(100):
            for n in range(2, 41):
                roots = decompose_module._roots_of_unity(n)
                worst = max(abs(mpmath.mpc(complex(roots[k, m]))
                                - mpmath.expjpi(mpmath.mpf(2 * (k * m % n)) / n))
                            for k in range(n) for m in range(n))
                assert worst <= 4 * EPS, n


def drawn_contour_point(sics, dim, t, branch, u):
    """(SIC, tau, r): tau at ``t`` of the separable interval or at one of
    its named points, r at ``u`` along branch ``branch`` of the admissible
    set (its last where it has one)."""
    lo, hi = separable_interval(dim)
    named = {"lower end": lo, "upper end": hi, "0.0": 0.0, "-0.0": -0.0}
    tau = named[t] if isinstance(t, str) else lo + t * (hi - lo)
    intervals = admissible_r_interval(dim, tau)
    a, b = intervals[min(branch, len(intervals) - 1)]
    return sics(dim), tau, min(a + u * (b - a), b)


class TestDerivedBounds:
    """Over a tied stack F = mixed + h O, the route's F^ and delta_F, derived
    from the operator stack O, bound what a pass over F measures, and the
    report is the measured route's, bit for bit."""

    @staticmethod
    def check_derived_bounds(d):
        assert d._ties == (True, True)
        facts = decompose_module._operator_facts(d.simplex, d.dim)
        roots = decompose_module._roots_of_unity(d.dim)
        for stack, radius in ((d.factors_r, d.r), (d.factors_s, d.s)):
            f_hat, delta = decompose_module._orbit_bounds(facts, radius / 2.0)
            assert np.abs(stack).max() <= f_hat
            assert decompose_module._covariance_deviation(stack, roots) <= delta
        assert repr(report_values(verify_decomposition(d))) == repr(measured_report(d))

    @pytest.fixture(scope="class")
    def sics(self, registry_sics, searched_sic):
        return lambda n: registry_sics[n] if n in registry_sics else searched_sic(n)

    @pytest.mark.parametrize("kind, source, tau, radii", GOLDEN_GRIDS)
    def test_golden_grids(self, kind, source, tau, radii):
        fid = known_fiducial(source) if source in (2, 3) else load_fiducial_cache(DATA / source)
        sic = sic_from_fiducial(fid)
        if isinstance(radii, int):
            radii = contour_radii(sic.dim, tau, radii)
        for r in radii:
            self.check_derived_bounds(separable_decompose(kind, sic.dim, tau, r, sic=sic))

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(list(StateKind)), dim=st.integers(2, 10),
           t=st.one_of(st.sampled_from(["lower end", "upper end", "0.0", "-0.0"]),
                       st.floats(0.0, 1.0)),
           branch=st.integers(0, 1), u=st.floats(0.0, 1.0))
    def test_drawn_decompositions(self, sics, kind, dim, t, branch, u):
        sic, tau, r = drawn_contour_point(sics, dim, t, branch, u)
        self.check_derived_bounds(decompose(kind, dim, tau, r, sic.bloch))


def factor_stack_callers(monkeypatch):
    """The functions that call `_factor_stack`, as a list that grows."""
    real, callers = decompose_module._factor_stack, []

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)
    monkeypatch.setattr(decompose_module, "_factor_stack", counting)
    return callers


class TestTie:
    """A stack ties to its simplex's operator stack O when it is, bit for
    bit, the stack a `Decomposition` builds from O and its own radius: the
    stacks a `Decomposition` given none builds tie by construction, every
    given stack is recomputed, and a stack that does not tie is checked
    entry by entry and takes the dense route."""

    def test_decompose_builds_each_stack_once(self, registry_sics, monkeypatch):
        """Neither construction nor the certificate builds a stack: the
        certificate reads O's first factor and diagonal.  The first read of
        each stack builds it, and no later read builds it again."""
        simplex = registry_sics[3].bloch
        decompose("werner", 3, 0.5, 1.0, simplex)  # builds the operator facts
        callers = factor_stack_callers(monkeypatch)
        d = decompose("isotropic", 3, 0.5, 1.1, simplex)
        assert d._ties == (True, True) and callers == []
        assert verify_decomposition(d).separable_certificate
        assert sorted(callers) == ["first", "first", "traces", "traces"]
        del callers[:]
        stacks = d.factors_r, d.factors_s
        assert callers == ["stack", "stack"]
        assert d.factors_r is stacks[0] and d.factors_s is stacks[1]
        assert callers == ["stack", "stack"]

    def test_decomposition_given_no_stacks_builds_and_ties_them(self, registry_sics, monkeypatch):
        """Its stacks are `decompose`'s bit for bit, frozen, tied as built:
        `_factor_stack` runs once per stack, from `stack` on its first read,
        never from `ties`, and never for the certificate."""
        simplex = registry_sics[3].bloch
        d = decompose("isotropic", 3, 0.5, 1.1, simplex)
        d.factors_r, d.factors_s
        want = repr(verify_decomposition(d))
        callers = factor_stack_callers(monkeypatch)
        built = Decomposition(kind=d.kind, dim=3, tau=d.tau, r=d.r, s=d.s, simplex=simplex)
        assert built._ties == (True, True) and callers == []
        rep = verify_decomposition(built)
        assert "stack" not in callers and "ties" not in callers
        del callers[:]
        for name in ("factors_r", "factors_s"):
            assert_bitwise_equal(getattr(built, name), getattr(d, name))
            assert not getattr(built, name).flags.writeable
        assert callers == ["stack", "stack"] and repr(rep) == want

    def test_stacks_presented_again_are_recomputed(self, registry_sics, monkeypatch):
        """Given stacks are recomputed in blocks of N, and a second read of
        them builds nothing."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        callers = factor_stack_callers(monkeypatch)
        stacks = d.factors_r, d.factors_s
        assert callers == ["stack", "stack"]
        again = with_factors(d, *stacks)
        assert again.factors_r is d.factors_r and again.factors_s is d.factors_s
        assert again._ties == (True, True)
        assert callers == ["stack", "stack"] + ["ties"] * 6  # 3 blocks each

    @pytest.mark.parametrize("refrozen", [False, True])
    def test_moved_built_stack_does_not_tie(self, registry_sics, monkeypatch, refrozen):
        """A built stack made writable and moved one ulp does not tie, the
        same array frozen again included: a given stack is recomputed."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        stack = d.factors_s
        stack.setflags(write=True)
        stack.real[4, 1, 1] = np.nextafter(stack.real[4, 1, 1], np.inf)
        stack.setflags(write=not refrozen)
        moved = with_factors(d, d.factors_r, stack)
        assert (moved.factors_s is stack) == refrozen
        assert moved._ties == (True, False)
        summed = dense_sums(monkeypatch)
        rep = verify_decomposition(moved)
        assert summed == [moved]
        assert repr(report_values(rep)) == repr(dense_report(moved))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.int64])
    def test_stack_of_another_dtype_gets_a_report(self, registry_sics, monkeypatch, dtype):
        """A left stack of id/2 (of id, with the right stack halved, for
        integers) does not tie, is checked entry by entry and takes the
        dense route: its mixture id/4 is 1/12 from the Werner state."""
        d = decompose("werner", 2, 0.5, 1.0, registry_sics[2].bloch)
        if dtype is np.int64:
            factors_r, factors_s = np.eye(2, dtype=dtype)[None].repeat(4, 0), d.factors_s / 2
        else:
            factors_r, factors_s = (np.eye(2)[None].repeat(4, 0) / 2).astype(dtype), d.factors_s
        real, checked = decompose_module._hermitian_deviation, []
        monkeypatch.setattr(decompose_module, "_hermitian_deviation",
                            lambda stack: checked.append(stack) or real(stack))
        e = with_factors(d, factors_r, factors_s)
        assert e._ties == (False, dtype is not np.int64)
        assert checked[0].dtype == dtype
        summed = dense_sums(monkeypatch)
        rep = verify_decomposition(e)
        assert summed == [e]
        assert repr(rep.reconstruction_error) == "0.08333333333333333"
        assert rep.all_factors_psd is True and rep.separable_certificate is False

    def test_concurrent_decompositions_tie_apart(self, registry_sics, monkeypatch):
        """Two threads read their stacks side by side over one simplex;
        each builds each of its stacks once, ties them, and they are the
        serial ones."""
        simplex = RegularSimplex(ambient_dim=8, vertices=registry_sics[3].bloch.vertices)
        decompose_module._operator_facts(simplex, 3)  # built before the threads start
        real, barrier, callers = decompose_module._factor_stack, threading.Barrier(2, timeout=30), []

        def in_step(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            barrier.wait()
            return real(*args, **kwargs)
        monkeypatch.setattr(decompose_module, "_factor_stack", in_step)

        def read(r):
            d = decompose("werner", 3, 0.5, r, simplex)
            d.factors_r, d.factors_s
            return d
        with ThreadPoolExecutor(max_workers=2) as pool:
            made = list(pool.map(read, (1.0, 1.1)))
        assert callers == ["stack"] * 4
        monkeypatch.undo()
        for d in made:
            assert d._ties == (True, True)
            assert_bitwise_equal(d.factors_r, decompose("werner", 3, 0.5, d.r, simplex).factors_r)

    def test_threads_over_a_fresh_simplex_tie_what_they_build(self, registry_sics, monkeypatch):
        """Eight threads switching every microsecond over a simplex with no
        facts yet, each reading the stacks it makes: every stack ties as
        built, is built once, none is recomputed, and all are built from
        the one operator stack kept for the simplex."""
        simplex = RegularSimplex(ambient_dim=8, vertices=registry_sics[3].bloch.vertices)
        callers = factor_stack_callers(monkeypatch)
        radii = [1.0 + k / 64 for k in range(64)]

        def read(r):
            d = decompose("werner", 3, 0.5, r, simplex)
            d.factors_r, d.factors_s
            return d
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(read, r) for r in radii]
                made = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [d.r for d in made] == radii and all(d._ties == (True, True) for d in made)
        assert callers == ["stack"] * 128
        ops = decompose_module._OPERATOR_FACTS[simplex].ops
        eye = np.eye(3, dtype=complex) / 3
        for d in made:
            assert_bitwise_equal(d.factors_r, eye + (d.r / 2.0) * ops)

    @pytest.mark.parametrize("case", ["one ulp", "next radius"])
    def test_untied_stack_takes_the_dense_route(self, registry_sics, monkeypatch, case):
        d = separable_decompose("werner", 3, 0.5, 1.0, sic=registry_sics[3])
        assert d._ties == (True, True)
        if case == "one ulp":
            factors_s = np.array(d.factors_s)
            factors_s.real[4, 1, 1] = np.nextafter(factors_s.real[4, 1, 1], np.inf)
            untied, ties = with_factors(d, d.factors_r, factors_s), (True, False)
        else:
            untied = Decomposition(kind=d.kind, dim=3, tau=d.tau, r=np.nextafter(d.r, np.inf),
                                   s=d.s, simplex=d.simplex, factors_r=d.factors_r,
                                   factors_s=d.factors_s)
            ties = (False, True)
        assert untied._ties == ties
        summed = dense_sums(monkeypatch)
        rep = verify_decomposition(untied)
        assert summed == [untied]
        assert repr(report_values(rep)) == repr(dense_report(untied))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_stack_is_refused(self, monkeypatch):
        """Vertices of norm 1e150, at a tolerance that admits them, and
        r = 1e160: the left stack overflows to inf and still ties, but its
        modulus bound is infinite, so it is checked and refused."""
        simplex = RegularSimplex(ambient_dim=8, vertices=1e150 * canonical_simplex(8).vertices,
                                 tol=1e301)
        real, checked = decompose_module._hermitian_deviation, []
        monkeypatch.setattr(decompose_module, "_hermitian_deviation",
                            lambda stack: checked.append(stack) or real(stack))
        with pytest.raises(HermiticityError,
                           match="factors_r is not exactly Hermitian: deviation nan"):
            decompose("werner", 3, 0.5, 1e160, simplex)
        facts = decompose_module._operator_facts(simplex, 3)
        assert facts.hermitian and np.isinf(facts.modulus_bound(0.5e160))
        assert len(checked) == 2 and checked[0] is facts.ops
        assert np.isinf(checked[1]).any()
        assert facts.ties(checked[1], 0.5e160)

    def test_covariance_is_measured_once_per_simplex(self, registry_sics, monkeypatch):
        simplex = RegularSimplex(ambient_dim=8, vertices=registry_sics[3].bloch.vertices)
        real, measured = decompose_module._covariance_deviation, []
        monkeypatch.setattr(decompose_module, "_covariance_deviation",
                            lambda stack, roots: measured.append(stack) or real(stack, roots))
        for kind in ("werner", "isotropic"):
            d = decompose(kind, 3, 0.5, 1.1, simplex)
            assert verify_decomposition(d).separable_certificate
        assert len(measured) == 1 and measured[0] is decompose_module._OPERATOR_FACTS[simplex].ops


class TestDeferredStacks:
    """A `Decomposition` given no stacks builds each on its first read, once:
    certifying reads O's first factor and diagonals, O(N^3), and the same
    bits as the built stacks' first factors and traces."""

    @staticmethod
    def full_builds(monkeypatch, n):
        """The `_factor_stack` calls over a full (N^2, N, N) operator stack,
        as a list that grows."""
        real, full = decompose_module._factor_stack, []

        def counting(mixed, half_radius, ops, out=None):
            if ops.shape == (n * n, n, n):
                full.append(half_radius)
            return real(mixed, half_radius, ops, out=out)
        monkeypatch.setattr(decompose_module, "_factor_stack", counting)
        return full

    @staticmethod
    def peak(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_certificate_builds_no_stack(self, searched_sic, monkeypatch, kind):
        """At N = 12 over a warm SIC simplex, `decompose`, both checks and a
        certified contour of four build no stack and peak below one."""
        sic = searched_sic(12)
        certify(decompose(kind, 12, 0.1, 1.0, sic.bloch))  # builds the cached tables
        full = self.full_builds(monkeypatch, 12)
        stack_bytes = 144 * 12 * 12 * np.dtype(complex).itemsize

        def certified():
            d = decompose(kind, 12, 0.1, 1.0, sic.bloch)
            assert verify_decomposition(d).separable_certificate
            certify(d)
            assert d.n_factors == 144 and d.weights.shape == (144,)
        assert self.peak(certified) < stack_bytes
        assert self.peak(lambda: contour_sample(kind, 12, 0.1, 4, sic)) < stack_bytes
        assert full == []

    def test_every_reader_shares_one_build(self, registry_sics, monkeypatch):
        """The report's minima, `reconstruct` and the CLI payload, in any
        order, build the two stacks once between them."""
        cli = importlib.import_module("simplex_decomp.cli")
        simplex = registry_sics[3].bloch
        for order in itertools.permutations(range(4)):
            d = decompose("werner", 3, 0.5, 1.0, simplex)
            rep = verify_decomposition(d)
            full = self.full_builds(monkeypatch, 3)
            readers = (lambda: rep.min_eig_r, lambda: rep.min_eig_s,
                       lambda: reconstruct(d), lambda: cli._decomposition_dict(d, rep))
            for k in order:
                readers[k]()
            assert sorted(full) == sorted([d.r / 2.0, d.s / 2.0]), order
            monkeypatch.undo()

    def test_threads_racing_on_a_first_read_keep_one_stack(self, registry_sics, monkeypatch):
        """Eight threads past one barrier all build `factors_r` at once, held
        together by a second in the build, and all read one frozen array."""
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        real, start, built = decompose_module._factor_stack, threading.Barrier(8, timeout=30), \
            threading.Barrier(8, timeout=30)

        def in_step(*args, **kwargs):
            built.wait()
            return real(*args, **kwargs)
        monkeypatch.setattr(decompose_module, "_factor_stack", in_step)

        def read(_):
            start.wait()
            return d.factors_r
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(read, range(8)))
        assert all(stack is got[0] for stack in got) and got[0] is d.factors_r
        assert not got[0].flags.writeable

    @pytest.mark.parametrize("dim", range(2, 18))
    def test_certificate_reads_the_stacks_bits(self, dim):
        """O's first factor and diagonals give the built stacks' first
        factors and traces bit for bit, zero signs included, over a SIC
        simplex (registry or `tests/data` fiducial) or the canonical one,
        for both families, tau at both ends, 0.0, -0.0 and inside, and r
        inside each branch.  Given the built stacks, a `Decomposition`
        reports the same."""
        source = {2: 2, 3: 3, 4: "fid4.json", 8: "fid8.json", 12: "fid12.json"}.get(dim)
        if source is None:
            simplex = canonical_simplex(dim * dim - 1)
        else:
            fid = known_fiducial(source) if dim < 4 else load_fiducial_cache(DATA / source)
            simplex = sic_from_fiducial(fid).bloch
        facts = decompose_module._operator_facts(simplex, dim)
        lo, hi = separable_interval(dim)
        for kind in StateKind:
            for tau in (lo, hi, 0.0, -0.0, lo + 0.3 * (hi - lo)):
                for a, b in admissible_r_interval(dim, tau):
                    d = decompose(kind, dim, tau, a + 0.3 * (b - a), simplex)
                    rep = repr(verify_decomposition(d))
                    for name, radius in (("factors_r", d.r), ("factors_s", d.s)):
                        stack = getattr(d, name)
                        assert_bitwise_equal(facts.first(radius / 2.0), stack[0])
                        assert_bitwise_equal(facts.traces(radius / 2.0),
                                             np.trace(stack, axis1=1, axis2=2))
                    given = with_factors(d, d.factors_r, d.factors_s)
                    assert given._ties == (True, True)
                    assert repr(verify_decomposition(given)) == rep


class TestConstruction:
    """A `Decomposition` parses its kind, checks its dimension and, given
    neither stack, builds both from a simplex of the right dimension."""

    @staticmethod
    def built(d, **changed):
        """`d`'s parameters, some changed, with no stacks."""
        fields = dict(kind=d.kind, dim=d.dim, tau=d.tau, r=d.r, s=d.s, simplex=d.simplex)
        return Decomposition(**{**fields, **changed})

    @pytest.mark.parametrize("name", ["factors_r", "factors_s"])
    def test_one_stack_alone_is_refused(self, registry_sics, name):
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        with pytest.raises(DimensionMismatchError, match="give both factor stacks or neither"):
            self.built(d, **{name: getattr(d, name)})

    def test_simplex_of_another_dimension_is_refused(self, registry_sics):
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        with pytest.raises(DimensionMismatchError, match="ambient dimension 3 != N\\^2-1 = 8"):
            self.built(d, simplex=registry_sics[2].bloch)

    @pytest.mark.parametrize("simplex", ["sic", "canonical"])
    @pytest.mark.parametrize("stacks", ["given", "built"])
    @pytest.mark.parametrize("kind, spellings", [
        (StateKind.WERNER, ["werner", "Werner", " WERNER "]),
        (StateKind.ISOTROPIC, ["iso", "isotropic", "Isotropic"])])
    def test_every_spelling_of_a_kind_gets_its_report(self, registry_sics, simplex, stacks,
                                                      kind, spellings):
        """Over the SIC simplex (orbit route) and the canonical one (dense
        route), a kind given as text reads as the enum, report and all."""
        simplex = registry_sics[3].bloch if simplex == "sic" else canonical_simplex(8)
        d = decompose(kind, 3, 0.5, 1.0, simplex)
        want = repr(verify_decomposition(d))
        for spelling in spellings:
            e = (dataclasses.replace(d, kind=spelling) if stacks == "given"
                 else self.built(d, kind=spelling))
            assert e.kind is kind
            assert repr(verify_decomposition(e)) == want

    def test_unknown_kind_is_refused(self, registry_sics):
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        with pytest.raises(ParameterRangeError, match="unknown state family 'bell'"):
            self.built(d, kind="bell")

    @pytest.mark.parametrize("stacks", ["given", "built"])
    def test_dimension_is_checked(self, registry_sics, stacks):
        d = decompose("werner", 3, 0.5, 1.0, registry_sics[3].bloch)
        extra = dict(factors_r=d.factors_r, factors_s=d.factors_s) if stacks == "given" else {}
        with pytest.raises(DimensionMismatchError, match="dimension must be an integer"):
            self.built(d, dim=3.0, **extra)
        e = self.built(d, dim=np.int64(3), **extra)
        assert e._ties == (True, True)
        assert repr(verify_decomposition(e)) == repr(verify_decomposition(d))


class TestOrbitPositivity:
    """Over an orbit, the first pair's spectra less N delta decide that every
    factor is PSD; anything short of the gate is decided by the full stacks,
    whose minima the report computes when they are read."""

    @staticmethod
    def past_the_end(sic, kind, end, side):
        """Decomposition whose left factors' smallest eigenvalue is
        -PSD_TOL (1 + side): along a pure direction it is (1 - r / r_end) / N
        at either end r_end of the positivity interval.  s is 0.1."""
        n = sic.dim
        r = psd_radius_bounds(n)[end] * (1.0 + n * PSD_TOL * (1.0 + side))
        return decompose(kind, n, 0.1 * r, r, sic.bloch)

    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("side", [-1e-3, 1e-3])
    def test_radius_just_past_an_admissible_end(self, registry_sics, searched_sic,
                                                monkeypatch, kind, dim, end, side):
        sic = registry_sics[dim] if dim in registry_sics else searched_sic(dim)
        d = self.past_the_end(sic, kind, end, side)
        shapes = eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(d)
        # 1e-12 inside the gate the orbit bound decides; outside, the stacks.
        full = [d.factors_r.shape, d.factors_s.shape]
        assert shapes == [(dim, dim)] * 2 + ([] if side < 0 else full)
        floor = min(rep.min_eig_r, rep.min_eig_s)
        assert abs(floor + PSD_TOL * (1.0 + side)) <= 1e-13
        assert rep.all_factors_psd == (floor >= -PSD_TOL) == (side < 0)
        assert repr(report_values(rep, reconstruction_error=0.0)) == repr(
            {**dense_report(d), "reconstruction_error": 0.0})

    def test_bound_short_of_the_gate_reads_the_stacks(self, registry_sics, monkeypatch):
        """1e-15 inside the gate, within N delta of it: the full stacks decide."""
        d = self.past_the_end(registry_sics[3], StateKind.WERNER, 1, -1e-6)
        shapes = eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(d)
        assert shapes == [(3, 3)] * 2 + [d.factors_r.shape, d.factors_s.shape]
        assert repr(report_values(rep, reconstruction_error=0.0)) == repr(
            {**dense_report(d), "reconstruction_error": 0.0})

    def test_factor_lowered_within_the_reconstruction_gate(self, registry_sics, monkeypatch):
        """Factor 4 less 1e-11 id no longer ties to the operator stack, so
        the dense route reads the mixture, within the 1e-10 gate, and the
        full stacks' minima put factor 4 below -PSD_TOL: refused."""
        d = self.past_the_end(registry_sics[3], StateKind.WERNER, 1, -1e-3)
        factors_r = np.array(d.factors_r)
        factors_r[4] -= 1e-11 * np.eye(3)
        lowered = with_factors(d, factors_r, d.factors_s)
        assert lowered._ties == (False, True)
        summed, shapes = dense_sums(monkeypatch), eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(lowered)
        assert summed == [lowered]
        assert shapes == [lowered.factors_r.shape, lowered.factors_s.shape]
        assert repr(report_values(rep)) == repr(dense_report(lowered))
        assert rep.reconstruction_error <= lowered.simplex.tol
        assert rep.min_eig_r < -PSD_TOL and not rep.all_factors_psd
        assert not rep.separable_certificate

    def test_minima_are_computed_when_read(self, registry_sics, monkeypatch):
        d = separable_decompose("werner", 3, 0.5, 1.0, sic=registry_sics[3])
        shapes = eigvalsh_shapes(monkeypatch)
        rep = verify_decomposition(d)
        assert rep.separable_certificate and shapes == [(3, 3)] * 2
        min_eig_r = rep.min_eig_r
        assert shapes[2:] == [(9, 3, 3)]
        assert rep.min_eig_r is min_eig_r and shapes[2:] == [(9, 3, 3)]
        assert rep.min_eig_s == float(np.linalg.eigvalsh(d.factors_s)[:, 0].min())
        assert shapes[2:] == [(9, 3, 3)] * 3
        repr(rep)
        assert len(shapes) == 5

    def test_repr_and_certificate_error_name_both_minima(self, registry_sics):
        d = decompose("werner", 3, 0.5, 3.0, registry_sics[3].bloch)  # r past r_max
        with pytest.raises(CertificateError) as info:
            certify(d)
        rep = info.value.report
        body = ", ".join(f"{name}={value!r}" for name, value in report_values(rep).items())
        assert repr(rep) == f"VerificationReport({body})"
        assert str(info.value) == f"certificate failed at r = 3.0: {rep!r}"
        assert rep.min_eig_r < -0.1 and rep.min_eig_s > 0.0

    def test_reports_compare_by_all_five_values(self, registry_sics):
        sic = registry_sics[3]
        a, b = (verify_decomposition(separable_decompose("werner", 3, 0.5, r, sic=sic))
                for r in (1.0, 0.9))
        assert a == verify_decomposition(separable_decompose("werner", 3, 0.5, 1.0, sic=sic))
        twin = dataclasses.replace(a, _decomposition=b._decomposition)  # a's verdicts, b's minima
        assert twin.min_eig_r == b.min_eig_r != a.min_eig_r
        assert twin != a and hash(twin) == hash(a)


class TestOperatorCache:
    """`decompose` builds each simplex's operator stack once, and the stack
    goes with the simplex."""

    @staticmethod
    def fresh_simplex(sic):
        return RegularSimplex(ambient_dim=sic.bloch.ambient_dim, vertices=sic.bloch.vertices)

    def test_two_decompositions_build_one_stack(self, registry_sics, monkeypatch):
        simplex = self.fresh_simplex(registry_sics[3])
        real, built = decompose_module._bloch_operators, []
        monkeypatch.setattr(decompose_module, "_bloch_operators",
                            lambda coords, n: built.append(n) or real(coords, n))
        left = decompose("werner", 3, 0.5, 1.0, simplex)
        right = decompose("isotropic", 3, -0.3, 0.6, simplex)
        assert built == [3]
        cached = decompose_module._OPERATOR_FACTS[simplex].ops
        assert not cached.flags.writeable
        assert_bitwise_equal(cached, _bloch_operators(simplex.vertices, 3))
        eye = np.eye(3, dtype=complex) / 3
        for d in (left, right):
            assert_bitwise_equal(d.factors_r, eye + (d.r / 2.0) * cached)
            assert_bitwise_equal(d.factors_s, eye + (d.s / 2.0) * cached)

    def test_entry_goes_with_its_simplex(self, registry_sics):
        """The operator stack and its facts, covariance bound included, go
        once the simplex, its decomposition and the report are gone; a live
        report keeps its decomposition, and so all three."""
        simplex = self.fresh_simplex(registry_sics[3])
        d = decompose("werner", 3, 0.5, 1.0, simplex)
        rep = verify_decomposition(d)
        facts = decompose_module._OPERATOR_FACTS[simplex]
        assert "deviation" in vars(facts)
        gone = [weakref.ref(simplex), weakref.ref(facts.ops), weakref.ref(facts)]
        del simplex, d, facts
        gc.collect()
        assert all(ref() is not None for ref in gone)
        assert rep.separable_certificate and rep._decomposition.simplex is gone[0]()
        del rep
        gc.collect()
        assert [ref() for ref in gone] == [None, None, None]
