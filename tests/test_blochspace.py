from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import simplex_decomp.blochspace as blochspace
from simplex_decomp.blochspace import (HERM_TOL, BlochVector, DensityMatrix,
                                       _bloch_coordinates, bloch_from_density,
                                       density_from_bloch, min_eigenvalue,
                                       su_generators)
from simplex_decomp.decompose import decompose
from simplex_decomp.errors import (DimensionMismatchError, HermiticityError)
from simplex_decomp.params import psd_radius_bounds
from simplex_decomp.selftest import check_pure_direction_psd_window
from simplex_decomp.sicpovm import load_fiducial_cache, sic_from_fiducial

from conftest import (assert_bitwise_equal, random_density, random_pure_state,
                      reference_su_generators)

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

    @pytest.mark.parametrize("dim", range(2, 31))
    def test_equal_to_the_reference_construction(self, dim):
        assert_bitwise_equal(su_generators(dim), reference_su_generators(dim))

    def test_kernels_build_no_dense_stack(self):
        """Certification and decomposition read the entry table alone."""
        fid = load_fiducial_cache(Path(__file__).parent / "data" / "fid8.json")
        su_generators.cache_clear()
        blochspace._gell_mann_table.cache_clear()
        sic = sic_from_fiducial(fid)
        decompose("werner", 8, 0.1, 1.0, sic.bloch)
        assert su_generators.cache_info().currsize == 0


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

    def test_nan_matrix_is_rejected(self):
        with pytest.raises(HermiticityError):
            bloch_from_density(np.full((2, 2), np.nan))

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


def reference_coordinates(m):
    """Dense Tr[m L_mu] over every generator, as bloch_from_density once
    computed it: the coordinate kernel's bitwise oracle."""
    return np.einsum("ij,mji->m", m, reference_su_generators(m.shape[0]))


def reference_density(coords, n):
    """Dense id/N + (1/2) sum_mu r_mu L_mu, as density_from_bloch once
    computed it."""
    m = np.eye(n, dtype=complex) / n
    m += 0.5 * np.einsum("m,mij->ij", coords, reference_su_generators(n))
    return m


@st.composite
def square_matrices(draw):
    """Complex N x N matrices, N in 2..8, with zeros of both signs and
    possibly a zero row."""
    n = draw(st.integers(2, 8), label="n")
    m = draw(hnp.arrays(np.complex128, (n, n), elements=st.complex_numbers(
        max_magnitude=4.0, allow_nan=False, allow_infinity=False)))
    row = draw(st.integers(-1, n - 1), label="zero row")
    if row >= 0:
        m[row] = draw(st.sampled_from([0.0, -0.0, complex(-0.0, -0.0)]))
    return m


class TestConversionKernelsBitwise:
    """Both conversions return the bits of their dense contractions."""

    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_coordinates_of_any_matrix(self, m):
        assert_bitwise_equal(_bloch_coordinates(m[None])[0], reference_coordinates(m))

    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_bloch_from_density(self, m):
        # Exactly Hermitian, positive semidefinite, and as drawn.
        for rho in (m + m.conj().T, m @ m.conj().T, m):
            ref = reference_coordinates(rho)
            if np.abs(ref.imag).max() > HERM_TOL:
                with pytest.raises(HermiticityError):
                    bloch_from_density(rho)
            else:
                assert_bitwise_equal(bloch_from_density(rho).coords, ref.real)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: hnp.arrays(
        np.float64, n * n - 1, elements=st.floats(-2.0, 2.0))))
    def test_density_from_bloch(self, coords):
        n = int(round(np.sqrt(coords.size + 1)))
        assert_bitwise_equal(density_from_bloch(BlochVector(n, coords)).entries,
                             reference_density(coords, n))


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
        with pytest.raises(HermiticityError):
            min_eigenvalue(np.full((2, 2), np.nan))


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
        ok, detail = check_pure_direction_psd_window(50 + dim, [dim], 3)
        assert ok, detail


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
        with pytest.raises(HermiticityError):
            DensityMatrix(np.full((2, 2), np.nan))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("error:overflow:RuntimeWarning")
    @pytest.mark.parametrize("entries", [
        [[0.5, 0.25 - 0.5j], [0.25 + 0.5j, 0.5]],
        [[0.5, 0.25 - 0.5j], [0.25 + 0.5j + 1e-12, 0.5]],
        [[0.5, 0.25 - 0.5j], [0.25 + 0.5j + 1e-9, 0.5]],
        [[0.5, 0.25 - 0.5j], [0.25 - 0.5j, 0.5]],
        [[0.5 + 1e-11j, 0.0], [0.0, 0.5]],
        [[0.5, 1e308], [1e308, 0.5]],
        [[0.5, np.inf], [np.inf, 0.5]],
        [[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]],
        [[0.5, np.nan], [np.nan, 0.5]],
    ], ids=["exact", "within-tol", "beyond-tol", "conjugate-missing",
            "imaginary-diagonal", "huge", "inf", "imaginary-inf", "nan"])
    def test_exact_check_keeps_the_deviation_verdict(self, entries):
        """The exact test only skips the deviation where it is 0: each
        matrix is accepted or rejected, with the same message, as by the
        deviation alone, by ``DensityMatrix`` and by ``min_eigenvalue``."""
        m = np.array(entries, dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):
            dev = np.abs(m - m.conj().T).max()
            # Halved before the sum: bit for bit (m + m^dag)/2 where that is
            # finite, and no overflow for the "huge" entries.
            symmetrized = 0.5 * m + 0.5 * m.conj().T
        if dev <= HERM_TOL:
            assert DensityMatrix(m).entries.tobytes() == m.tobytes()
            assert min_eigenvalue(m) == np.linalg.eigvalsh(symmetrized)[0]
        else:
            for check in (DensityMatrix, min_eigenvalue):
                with pytest.raises(HermiticityError) as err:
                    check(m)
                assert str(err.value) == f"matrix is not Hermitian: deviation {dev:.3e}"

    def test_rejects_wrong_trace(self):
        with pytest.raises(HermiticityError):
            DensityMatrix(np.eye(2))

    def test_min_eigenvalue_cached_property(self):
        m = DensityMatrix(np.eye(4) / 4)
        assert abs(m.min_eigenvalue - 0.25) < 1e-15
        assert m.is_psd()
