import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

from simplex_decomp.blochspace import _bloch_operators, psd_radius_bounds
from simplex_decomp.decompose import (Decomposition, admissible_r_interval,
                                      certify, contour_radii, contour_sample,
                                      decompose, reconstruct,
                                      separable_decompose, verify_decomposition)
from simplex_decomp.errors import (CertificateError, DimensionMismatchError,
                                   InadmissibleRadiusError, NotSeparableError,
                                   ParameterRangeError)
from simplex_decomp.sicpovm import known_fiducial, sic_from_fiducial
from simplex_decomp.simplex import RegularSimplex, canonical_simplex
from simplex_decomp.states import (StateKind, isotropic_density,
                                   partial_transpose, swap_operator,
                                   werner_density)

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
        """At N = 12 the peak is the operator kernel's scratch, not extra stacks."""
        simplex = searched_sic(12).bloch
        decompose("werner", 12, 0.1, 1.0, simplex)  # builds the cached entry table
        tracemalloc.start()
        try:
            d = decompose("werner", 12, 0.1, 1.0, simplex)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (d.factors_r.nbytes + d.factors_s.nbytes)

    def test_reconstruction_is_built_without_copies(self, searched_sic):
        """At N = 12 the peak is the Hermiticity check's scratch, not copies."""
        d = decompose("werner", 12, 0.1, 1.0, searched_sic(12).bloch)
        tracemalloc.start()
        try:
            rho = reconstruct(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * rho.entries.nbytes

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
        sic = registry_sics[dim]
        for tau in (-2.0 / dim, -0.1, 0.0, 0.4, 2.0 * (dim - 1) / dim):
            intervals = admissible_r_interval(dim, tau)
            r = intervals[-1][1]
            w = reconstruct(decompose("werner", dim, tau, r, sic.bloch))
            i = reconstruct(decompose("iso", dim, tau, r, sic.bloch))
            assert np.abs(partial_transpose(w) - i.entries).max() <= 1e-11


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
    """Sum of np.kron products in index order: the kernel's bitwise oracle."""
    n2 = d.dim * d.dim
    out = np.zeros((n2, n2), dtype=complex)
    for i in range(d.n_factors):
        right = d.factors_s[i].T if d.kind is StateKind.ISOTROPIC else d.factors_s[i]
        out += np.kron(d.factors_r[i], right)
    return out / d.n_factors


def contour_points(dim):
    """(tau, r) inside, at the ends of and on the negative branch of the contour."""
    neg_min, r_max = psd_radius_bounds(dim)
    tau_neg = -1.0 / dim
    (a, _), (c, e) = admissible_r_interval(dim, tau_neg)
    tau_small = 0.5 * neg_min * neg_min  # positive, with a negative branch
    (f, g), _ = admissible_r_interval(dim, tau_small)
    return [(tau_neg, a), (tau_neg, 0.5 * (c + e)), (tau_small, 0.5 * (f + g)),
            (2.0 * (dim - 1) / dim, r_max)]


class TestKernelsBitwise:
    """The fast kernels return the same bits as their dense references."""

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
            assert_bitwise_equal(reconstruct(d).entries, reference_reconstruct(d))
