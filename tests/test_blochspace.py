import numpy as np
import pytest

from simplex_decomp.blochspace import (BlochVector, DensityMatrix,
                                       bloch_from_density, density_from_bloch,
                                       min_eigenvalue, psd_radius_bounds,
                                       su_generators)
from simplex_decomp.errors import (DimensionMismatchError, HermiticityError)

from conftest import random_density, random_pure_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestGenerators:
    def test_qubit_basis_is_the_pauli_triple(self):
        mats = su_generators(2)
        assert mats.shape == (3, 2, 2)
        np.testing.assert_array_equal(mats[0], SX)
        np.testing.assert_array_equal(mats[1], SY)
        np.testing.assert_array_equal(mats[2], SZ)

    def test_qutrit_trace_table_by_direct_multiplication(self):
        mats = su_generators(3)
        assert len(mats) == 8
        for a in range(8):
            for b in range(8):
                product_trace = np.trace(mats[a] @ mats[b])
                expected = 2.0 if a == b else 0.0
                assert abs(product_trace - expected) < 1e-12

    def test_dim5_count_traceless_hermitian(self):
        mats = su_generators(5)
        assert len(mats) == 24
        for m in mats:
            assert abs(np.trace(m)) < 1e-14
            np.testing.assert_allclose(m, m.conj().T, atol=1e-14)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_orthogonality_invariant_up_to_dim8(self, dim):
        mats = su_generators(dim)
        table = np.einsum("aij,bji->ab", mats, mats)
        dev = np.abs(table - 2.0 * np.eye(dim * dim - 1)).max()
        assert dev <= 1e-12

    def test_rejects_dimension_below_two(self):
        with pytest.raises(DimensionMismatchError):
            su_generators(1)


class TestBlochConversion:
    def test_maximally_mixed_maps_to_zero(self):
        for n in (2, 3, 4):
            b = bloch_from_density(np.eye(n) / n)
            assert np.abs(b.coords).max() < 1e-15

    def test_qubit_ground_state_is_north_pole(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        b = bloch_from_density(rho)
        np.testing.assert_allclose(b.coords, [0, 0, 1], atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_rank1_projector_radius(self, dim):
        rng = np.random.default_rng(7 + dim)
        for _ in range(5):
            v = random_pure_state(rng, dim)
            b = bloch_from_density(np.outer(v, v.conj()))
            assert abs(b.radius - np.sqrt(2.0 * (dim - 1) / dim)) < 1e-12

    def test_zero_vector_gives_maximally_mixed(self):
        m = density_from_bloch(BlochVector(3, np.zeros(8)))
        np.testing.assert_allclose(m.entries, np.eye(3) / 3, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_round_trip_on_random_psd(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            rho = random_density(rng, dim)
            back = density_from_bloch(bloch_from_density(rho))
            assert np.abs(back.entries - rho).max() <= 1e-12

    def test_overlong_qubit_vector_goes_indefinite(self):
        m = density_from_bloch(BlochVector(2, np.array([0.0, 0.0, -1.5])))
        eigs = np.linalg.eigvalsh(m.entries)
        np.testing.assert_allclose(eigs, [-0.25, 1.25], atol=1e-14)
        assert not m.is_psd()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            BlochVector(3, np.zeros(3))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_purity_bound_on_sampled_psd(self, dim):
        rng = np.random.default_rng(41 + dim)
        cap = np.sqrt(2.0 * (dim - 1) / dim)
        for _ in range(25):
            assert bloch_from_density(random_density(rng, dim)).radius <= cap + 1e-10


class TestMinEigenvalue:
    def test_maximally_mixed(self):
        for n in (2, 3, 5):
            assert abs(min_eigenvalue(np.eye(n) / n) - 1.0 / n) < 1e-14

    def test_rank1_projector_floor_is_zero(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            v = random_pure_state(rng, n)
            assert abs(min_eigenvalue(np.outer(v, v.conj()))) < 1e-12

    def test_qubit_radius_three_halves(self):
        m = density_from_bloch(BlochVector(2, np.array([0.0, 0.0, -1.5])))
        assert abs(min_eigenvalue(m) + 0.25) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            min_eigenvalue(np.array([[0.5, 1.0], [0.0, 0.5]]))


class TestPsdRadiusBounds:
    def test_qubit_bloch_ball(self):
        lo, hi = psd_radius_bounds(2)
        assert abs(lo + 1.0) < 1e-15 and abs(hi - 1.0) < 1e-15

    def test_qutrit_values(self):
        lo, hi = psd_radius_bounds(3)
        assert abs(lo + 1.0 / np.sqrt(3)) < 1e-15
        assert abs(hi - 2.0 / np.sqrt(3)) < 1e-15

    def test_scan_below_negative_endpoint_loses_positivity(self):
        rng = np.random.default_rng(9)
        lo, _ = psd_radius_bounds(3)
        v = random_pure_state(rng, 3)
        direction = bloch_from_density(np.outer(v, v.conj())).direction
        inside = density_from_bloch(BlochVector(3, lo * direction))
        outside = density_from_bloch(BlochVector(3, (lo - 0.01) * direction))
        assert min_eigenvalue(inside) >= -1e-10
        assert min_eigenvalue(outside) < 0

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_sharpness_scan_both_endpoints(self, dim):
        """PSD flips within 1e-3 of both interval endpoints."""
        rng = np.random.default_rng(50 + dim)
        lo, hi = psd_radius_bounds(dim)
        for _ in range(3):
            v = random_pure_state(rng, dim)
            direction = bloch_from_density(np.outer(v, v.conj())).direction
            def eig_at(r):
                return min_eigenvalue(density_from_bloch(BlochVector(dim, r * direction)))
            assert eig_at(lo + 1e-3) >= -1e-9
            assert eig_at(hi - 1e-3) >= -1e-9
            assert eig_at(lo - 1e-3) < -1e-7
            assert eig_at(hi + 1e-3) < -1e-7


class TestAntiparallelBound:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_product_of_extreme_radii(self, dim):
        """For PSD pairs with exactly opposite Bloch directions, r*s >= -2/N.

        Oracle: the most negative admissible s along -direction follows from
        the spectrum of the direction operator, so the product of extremes
        is the worst case over the sampled direction.
        """
        rng = np.random.default_rng(77 + dim)
        gens = su_generators(dim)
        for _ in range(20):
            b = bloch_from_density(random_density(rng, dim))
            direction_op = np.einsum("m,mij->ij", b.direction, gens)
            x_max = np.linalg.eigvalsh(direction_op)[-1]
            s_extreme = -2.0 / (dim * x_max)
            opposite = density_from_bloch(BlochVector(dim, s_extreme * b.direction))
            assert min_eigenvalue(opposite) >= -1e-10
            assert b.radius * s_extreme >= -2.0 / dim - 1e-10


class TestDensityMatrixType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(HermiticityError):
            DensityMatrix(np.eye(2))

    def test_min_eigenvalue_cached_property(self):
        m = DensityMatrix(np.eye(4) / 4)
        assert abs(m.min_eigenvalue - 0.25) < 1e-15
        assert m.is_psd()
