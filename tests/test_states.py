import numpy as np
import pytest
from scipy.stats import unitary_group

from simplex_decomp.blochspace import min_eigenvalue, su_generators
from simplex_decomp.errors import DimensionMismatchError, ParameterRangeError
from simplex_decomp.states import (REGION_CSV_HEADER, StateClass,
                                   classify_isotropic, classify_werner,
                                   convert_params, harmonic_number,
                                   isotropic_density, max_entangled_projector,
                                   partial_transpose, region_csv, region_table,
                                   swap_operator, werner_density)


def werner_tau_range(n):
    return (-2.0 * (n + 1) / n, 2.0 * (n - 1) / n)


def iso_tau_range(n):
    return (-2.0 / n, 2.0 * (n * n - 1) / n)


class TestSwapOperator:
    def test_qubit_swap(self):
        v = swap_operator(2)
        assert abs(np.trace(v) - 2.0) < 1e-15
        np.testing.assert_allclose(v @ v, np.eye(4), atol=1e-15)
        e0, e1 = np.eye(2)
        np.testing.assert_allclose(v @ np.kron(e0, e1), np.kron(e1, e0), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_involution_and_trace(self, dim):
        v = swap_operator(dim)
        np.testing.assert_allclose(v @ v, np.eye(dim * dim), atol=1e-14)
        assert abs(np.trace(v) - dim) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_generator_pair_identity(self, dim):
        """V = (1/2) sum_mu L_mu (x) L_mu + id/N by direct summation."""
        mats = su_generators(dim).matrices
        total = sum(np.kron(m, m) for m in mats) / 2.0
        total += np.eye(dim * dim) / dim
        assert np.abs(swap_operator(dim) - total).max() <= 1e-12


class TestMaxEntangledProjector:
    def test_qubit_bell_state(self):
        psi = np.zeros(4)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(max_entangled_projector(2),
                                   np.outer(psi, psi), atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_projector_properties(self, dim):
        p = max_entangled_projector(dim)
        assert abs(np.trace(p) - 1.0) < 1e-13
        assert np.abs(p @ p - p).max() <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_partial_transpose_of_swap(self, dim):
        lhs = partial_transpose(swap_operator(dim)) / dim
        np.testing.assert_allclose(lhs, max_entangled_projector(dim), atol=1e-15)


class TestWernerDensity:
    def test_phi_at_inverse_dim_is_maximally_mixed(self):
        for n in (2, 3, 5):
            rho = werner_density(n, phi=1.0 / n)
            np.testing.assert_allclose(rho.entries, np.eye(n * n) / n**2, atol=1e-15)
            assert abs(convert_params("werner", n, "phi", 1.0 / n).tau) < 1e-15

    def test_qubit_symmetric_subspace_state(self):
        rho = werner_density(2, phi=1.0)
        target = (np.eye(4) + swap_operator(2)) / 6.0
        np.testing.assert_allclose(rho.entries, target, atol=1e-15)

    def test_bloch_form_matches_swap_form_qutrit(self):
        p = convert_params("werner", 3, "phi", -0.5)
        a = werner_density(3, phi=-0.5).entries
        b = werner_density(3, tau=p.tau).entries
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_all_four_forms_agree_on_grid(self, dim):
        lo, hi = werner_tau_range(dim)
        for tau in np.linspace(lo, hi, 50):
            p = convert_params("werner", dim, "tau", tau)
            base = werner_density(dim, phi=p.phi).entries
            for name in ("alpha", "beta", "tau"):
                other = werner_density(dim, **{name: getattr(p, name)}).entries
                assert np.abs(other - base).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_psd_across_range(self, dim):
        lo, hi = werner_tau_range(dim)
        for tau in np.linspace(lo, hi, 21):
            assert werner_density(dim, tau=tau).is_psd()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_twirl_invariance_under_haar_unitaries(self, dim):
        rho = werner_density(dim, phi=0.37).entries
        rng = np.random.default_rng(600 + dim)
        for _ in range(20):
            u = unitary_group.rvs(dim, random_state=rng)
            uu = np.kron(u, u)
            assert np.abs(uu @ rho @ uu.conj().T - rho).max() <= 1e-10

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(ParameterRangeError):
            werner_density(2, phi=1.5)
        with pytest.raises(ParameterRangeError):
            werner_density(3, tau=5.0)
        with pytest.raises(ParameterRangeError):
            werner_density(3, phi=0.2, tau=0.0)


class TestIsotropicDensity:
    def test_eta_zero_is_maximally_mixed(self):
        rho = isotropic_density(3, eta=0.0)
        np.testing.assert_allclose(rho.entries, np.eye(9) / 9, atol=1e-15)

    def test_eta_one_is_the_projector(self):
        rho = isotropic_density(3, eta=1.0)
        np.testing.assert_allclose(rho.entries, max_entangled_projector(3), atol=1e-15)

    def test_both_forms_agree_qutrit(self):
        p = convert_params("iso", 3, "eta", 0.3)
        a = isotropic_density(3, eta=0.3).entries
        b = isotropic_density(3, tau=p.tau).entries
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_forms_agree_on_grid(self, dim):
        lo, hi = iso_tau_range(dim)
        for tau in np.linspace(lo, hi, 50):
            p = convert_params("iso", dim, "tau", tau)
            a = isotropic_density(dim, eta=p.eta).entries
            b = isotropic_density(dim, tau=tau).entries
            assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_twirl_invariance_u_conjugate(self, dim):
        rho = isotropic_density(dim, eta=0.61).entries
        rng = np.random.default_rng(700 + dim)
        for _ in range(20):
            u = unitary_group.rvs(dim, random_state=rng)
            uu = np.kron(u, u.conj())
            assert np.abs(uu @ rho @ uu.conj().T - rho).max() <= 1e-10

    def test_out_of_range_eta_rejected(self):
        with pytest.raises(ParameterRangeError):
            isotropic_density(2, eta=1.2)
        with pytest.raises(ParameterRangeError):
            isotropic_density(2, eta=-0.4)


class TestConvertParams:
    def test_werner_qubit_spot_values(self):
        p = convert_params("werner", 2, "phi", 1.0)
        assert abs(p.alpha - 1.0) < 1e-15
        assert abs(p.beta + 1.0 / 3.0) < 1e-15
        assert abs(p.tau - 1.0) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_phi_at_inverse_dim_zeroes_everything(self, dim):
        p = convert_params("werner", dim, "phi", 1.0 / dim)
        assert abs(p.tau) < 1e-15 and abs(p.alpha) < 1e-15 and abs(p.beta) < 1e-15

    def test_isotropic_dim4_eta_one(self):
        p = convert_params("iso", 4, "eta", 1.0)
        assert abs(p.tau - 7.5) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_werner_round_trips_on_random_values(self, dim):
        rng = np.random.default_rng(800 + dim)
        names = ("phi", "alpha", "beta", "tau")
        for _ in range(100):
            phi = rng.uniform(-1.0, 1.0)
            p = convert_params("werner", dim, "phi", phi)
            for name in names:
                q = convert_params("werner", dim, name, getattr(p, name))
                for other in names:
                    assert abs(getattr(q, other) - getattr(p, other)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 7, 10])
    def test_isotropic_round_trips_on_random_values(self, dim):
        rng = np.random.default_rng(900 + dim)
        for _ in range(100):
            eta = rng.uniform(-1.0 / (dim * dim - 1), 1.0)
            p = convert_params("iso", dim, "eta", eta)
            q = convert_params("iso", dim, "tau", p.tau)
            assert abs(q.eta - eta) <= 1e-12
            assert abs(q.tau - p.tau) <= 1e-12

    def test_unknown_parameter_name(self):
        with pytest.raises(ParameterRangeError):
            convert_params("werner", 2, "eta", 0.5)
        with pytest.raises(ParameterRangeError):
            convert_params("iso", 2, "phi", 0.5)


class TestClassification:
    def test_werner_examples(self):
        assert classify_werner(2, 1.0).label is StateClass.SEPARABLE
        assert classify_werner(2, -3.0).label is StateClass.STEERABLE
        assert classify_werner(2, -1.2).label is StateClass.ENTANGLED_UNSTEERABLE

    def test_werner_boundaries_inclusive_separable(self):
        for n in (2, 3, 5):
            assert classify_werner(n, -2.0 / n).label is StateClass.SEPARABLE
            assert classify_werner(n, 2.0 * (n - 1) / n).label is StateClass.SEPARABLE
            steer = -2.0 * (n * n - 1.0) / n**2
            assert classify_werner(n, steer).label is StateClass.ENTANGLED_UNSTEERABLE
            assert classify_werner(n, steer - 1e-9).label is StateClass.STEERABLE

    def test_qubit_steering_boundary_matches_singlet_fidelity(self):
        """Independent oracle: mixing weight p crosses steerability at 1/2,
        i.e. singlet fidelity 5/8; translate to tau and compare."""
        p = 0.5
        fidelity = p + (1 - p) / 4.0
        assert abs(fidelity - 5.0 / 8.0) < 1e-15
        phi = (1.0 - 3.0 * p) / 2.0
        tau = convert_params("werner", 2, "phi", phi).tau
        assert abs(tau - (-1.5)) <= 1e-12
        assert abs(classify_werner(2, 0.0).boundaries["tau_steer"] - (-1.5)) <= 1e-12
        beta = convert_params("werner", 2, "phi", phi).beta
        assert abs(beta - 0.5) <= 1e-12

    def test_isotropic_examples(self):
        assert classify_isotropic(2, convert_params("iso", 2, "eta", 0.2).tau
                                  ).label is StateClass.SEPARABLE
        assert classify_isotropic(2, convert_params("iso", 2, "eta", 1.0).tau
                                  ).label is StateClass.STEERABLE
        assert classify_isotropic(2, convert_params("iso", 2, "eta", 0.4).tau
                                  ).label is StateClass.ENTANGLED_UNSTEERABLE

    def test_isotropic_steering_boundary_is_harmonic(self):
        for n in (2, 3, 10):
            b = classify_isotropic(n, 0.0).boundaries
            h = harmonic_number(n)
            assert abs(b["tau_steer"] - 2.0 * (h - 1.0) * (n + 1) / n) <= 1e-14
            assert abs(b["harmonic_number"] - h) <= 1e-15
            # strictness: exactly at the boundary is not steerable
            assert classify_isotropic(n, b["tau_steer"]).label \
                is StateClass.ENTANGLED_UNSTEERABLE

    def test_out_of_family_range_rejected(self):
        with pytest.raises(ParameterRangeError):
            classify_werner(2, 99.0)
        with pytest.raises(ParameterRangeError):
            classify_isotropic(2, -2.0)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_ppt_oracle_agreement_werner(self, dim):
        lo, hi = werner_tau_range(dim)
        for tau in np.linspace(lo, hi, 200):
            rho = werner_density(dim, tau=tau)
            ppt = min_eigenvalue(partial_transpose(rho)) >= -1e-9
            separable = classify_werner(dim, tau).label is StateClass.SEPARABLE
            assert ppt == separable, f"tau={tau}"

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_ppt_oracle_agreement_isotropic(self, dim):
        lo, hi = iso_tau_range(dim)
        for tau in np.linspace(lo, hi, 200):
            rho = isotropic_density(dim, tau=tau)
            ppt = min_eigenvalue(partial_transpose(rho)) >= -1e-9
            separable = classify_isotropic(dim, tau).label is StateClass.SEPARABLE
            assert ppt == separable, f"tau={tau}"

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_boundary_monotonicity(self, dim):
        """One transition per boundary as tau sweeps the family range."""
        lo, hi = werner_tau_range(dim)
        labels = [classify_werner(dim, t).label for t in np.linspace(lo, hi, 400)]
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a is not b)
        assert changes == 2
        assert labels[0] is StateClass.STEERABLE
        assert labels[-1] is StateClass.SEPARABLE
        lo, hi = iso_tau_range(dim)
        labels = [classify_isotropic(dim, t).label for t in np.linspace(lo, hi, 400)]
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a is not b)
        assert changes == 2
        assert labels[0] is StateClass.SEPARABLE
        assert labels[-1] is StateClass.STEERABLE


class TestPartialTranspose:
    def test_identity_fixed(self):
        eye = np.eye(9, dtype=complex)
        np.testing.assert_array_equal(partial_transpose(eye), eye)

    def test_involution(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        np.testing.assert_allclose(partial_transpose(partial_transpose(m)), m,
                                   atol=1e-15)
        np.testing.assert_allclose(
            partial_transpose(partial_transpose(m, "first"), "first"), m, atol=1e-15)

    def test_product_operator_rule(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(partial_transpose(np.kron(a, b)),
                                   np.kron(a, b.T), atol=1e-15)
        np.testing.assert_allclose(partial_transpose(np.kron(a, b), "first"),
                                   np.kron(a.T, b), atol=1e-15)

    def test_swap_maps_to_scaled_projector(self):
        for n in (2, 3, 4):
            lhs = partial_transpose(swap_operator(n))
            np.testing.assert_allclose(lhs, n * max_entangled_projector(n),
                                       atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_maps_werner_to_isotropic_at_equal_tau(self, dim):
        lo, hi = werner_tau_range(dim)
        iso_lo, iso_hi = iso_tau_range(dim)
        for tau in np.linspace(max(lo, iso_lo), min(hi, iso_hi), 11):
            w = werner_density(dim, tau=tau)
            i = isotropic_density(dim, tau=tau)
            assert np.abs(partial_transpose(w) - i.entries).max() <= 1e-12

    def test_non_square_of_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(6))


class TestRegionTable:
    def test_werner_separable_fraction_is_exactly_half(self):
        for n in (2, 3, 17, 100, 500):
            werner = region_table(n)[0]
            assert werner.family == "werner"
            assert werner.frac_sep == 0.5

    def test_werner_steerable_fraction_dim100(self):
        werner = region_table(100)[0]
        assert abs(werner.frac_steer - 101.0 / 20000.0) <= 1e-15

    def test_isotropic_steerable_fraction_dim100(self):
        iso = region_table(100)[1]
        h100 = harmonic_number(100)
        assert abs(h100 - 5.187377517639621) < 1e-12
        expected = 101.0 * (100.0 - h100) / 10000.0
        assert abs(iso.frac_steer - expected) <= 1e-15
        assert abs(iso.frac_steer - 0.9576) < 1e-3

    @pytest.mark.parametrize("dim", [2, 3, 7, 50, 1000])
    def test_fractions_sum_to_one(self, dim):
        for row in region_table(dim):
            assert abs(row.frac_sep + row.frac_ent + row.frac_steer - 1.0) <= 1e-12

    def test_interval_lengths_reproduce_fractions(self):
        """Oracle: recompute fractions from the tau interval lengths."""
        for n in (2, 3, 9):
            werner, iso = region_table(n)
            w_total = werner.tau_sep_hi - werner.tau_min
            assert abs((werner.tau_sep_hi - werner.tau_sep_lo) / w_total
                       - werner.frac_sep) <= 1e-12
            assert abs((werner.tau_steer - werner.tau_min) / w_total
                       - werner.frac_steer) <= 1e-12
            i_total = 2.0 * (n * n - 1) / n - iso.tau_min
            assert abs((iso.tau_sep_hi - iso.tau_min) / i_total
                       - iso.frac_sep) <= 1e-12
            assert abs((2.0 * (n * n - 1) / n - iso.tau_steer) / i_total
                       - iso.frac_steer) <= 1e-12

    def test_csv_schema(self):
        text = region_csv(region_table(2))
        lines = text.strip().split("\n")
        assert lines[0] == REGION_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("werner,2,")
        assert lines[2].startswith("isotropic,2,")
        assert len(lines[1].split(",")) == 9


def ulps_from(x, ulps):
    """x moved by ``ulps`` units in the last place (negative: downward)."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


class TestSeparableEndpointUlps:
    """Classifier and PPT oracle agree within a few ULPs of the endpoint."""

    @pytest.mark.parametrize("ulps", range(-3, 4))
    @pytest.mark.parametrize("family", ["werner", "isotropic"])
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_verdict_matches_ppt(self, dim, family, ulps):
        if family == "werner":
            tau = ulps_from(-2.0 / dim, ulps)
            rho, verdict = werner_density(dim, tau=tau), classify_werner(dim, tau)
        else:
            tau = ulps_from(2.0 * (dim - 1) / dim, ulps)
            rho = isotropic_density(dim, tau=tau)
            verdict = classify_isotropic(dim, tau)
        ppt = min_eigenvalue(partial_transpose(rho)) >= -1e-9
        assert ppt == (verdict.label is StateClass.SEPARABLE)
