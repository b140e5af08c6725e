import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import simplex_decomp.sicpovm as sicpovm
from simplex_decomp.blochspace import _bloch_coordinates
from simplex_decomp.cli import main
from simplex_decomp.errors import (FiducialCacheError, FiducialSearchError,
                                   NotAFiducialError, ParameterRangeError)
from simplex_decomp.sicpovm import (EXACT_REGISTRY, OPTIMIZED, TOLERANCES,
                                    Fiducial, FiducialSearchFailure, Provenance,
                                    find_fiducial, frame_potential,
                                    frame_potential_minimum, known_fiducial,
                                    load_fiducial_cache, max_overlap_deviation,
                                    obtain_sic, save_fiducial_cache,
                                    sic_from_fiducial, wh_displacements,
                                    zauner_unitary)
from simplex_decomp.simplex import verify_simplex

from conftest import assert_bitwise_equal, random_pure_state, reference_su_generators


def overlap_table(states):
    return np.abs(states.conj() @ states.T) ** 2


def reference_wh_displacements(n):
    """D_jk = X^j Z^k as matrix products, in the order of ``wh_displacements``:
    an oracle independent of the gather table the library applies."""
    x = np.zeros((n, n), dtype=complex)
    x[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    z = np.diag(np.exp(2j * np.pi / n) ** np.arange(n))
    xp = [np.linalg.matrix_power(x, j) for j in range(n)]
    zp = [np.linalg.matrix_power(z, k) for k in range(n)]
    return np.array([xp[j] @ zp[k] for j in range(n) for k in range(n)])


class TestDisplacements:
    @pytest.mark.parametrize("dim", range(2, 41))
    def test_equals_the_matrix_products(self, dim):
        """The same values; some zeros may differ in sign."""
        try:
            assert np.array_equal(wh_displacements(dim), reference_wh_displacements(dim))
        finally:
            wh_displacements.cache_clear()  # N^4 complex numbers each

    def test_qubit_set(self):
        d = wh_displacements(2)
        assert d.shape == (4, 2, 2)
        np.testing.assert_allclose(d[0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(d[1], np.diag([1, -1]), atol=1e-15)  # Z
        np.testing.assert_allclose(d[2], np.array([[0, 1], [1, 0]]), atol=1e-15)  # X
        np.testing.assert_allclose(d[3], np.array([[0, -1], [1, 0]]), atol=1e-15)  # XZ

    def test_qutrit_cyclic_orders(self):
        d = wh_displacements(3)
        assert d.shape == (9, 3, 3)
        x, z = d[3], d[1]
        np.testing.assert_allclose(np.linalg.matrix_power(x, 3), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.linalg.matrix_power(z, 3), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_unitarity(self, dim):
        for d in wh_displacements(dim):
            assert np.abs(d @ d.conj().T - np.eye(dim)).max() <= 1e-12

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_commutation_zx_equals_omega_xz(self, dim):
        d = wh_displacements(dim)
        x, z = d[dim], d[1]
        omega = np.exp(2j * np.pi / dim)
        assert np.abs(z @ x - omega * (x @ z)).max() <= 1e-12


def zauner_basis(dim):
    """The complex N x k basis B behind ``sicpovm._zauner_lift``."""
    lift = sicpovm._zauner_lift(dim)
    k = lift.shape[1] // 2
    return lift[:dim, :k] + 1j * lift[dim:, :k]


class TestZauner:
    @pytest.mark.parametrize("dim", range(2, 31))
    def test_cube_is_the_identity(self, dim):
        u = zauner_unitary(dim)
        assert np.abs(np.linalg.matrix_power(u, 3) - np.eye(dim)).max() <= 1e-12

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_maps_each_displacement_to_a_phase_times_another(self, dim):
        f = np.array([[-1, -1], [1, 0]])
        assert np.array_equal(np.linalg.matrix_power(f, 3) % dim, np.eye(2))
        u = zauner_unitary(dim)
        displ = wh_displacements(dim)
        for j in range(dim):
            for k in range(dim):
                fj, fk = f @ (j, k) % dim
                image = u @ displ[j * dim + k] @ u.conj().T
                target = displ[fj * dim + fk]
                phase = np.vdot(target, image) / dim
                assert abs(abs(phase) - 1.0) <= 1e-12
                assert np.abs(image - phase * target).max() <= 1e-12

    @pytest.mark.parametrize("dim", range(2, 31))
    def test_subspace_basis_is_orthonormal_and_fixed(self, dim):
        b = zauner_basis(dim)
        assert b.shape == (dim, (dim + 3) // 3)
        assert np.abs(b.conj().T @ b - np.eye(b.shape[1])).max() <= 1e-12
        assert np.abs(zauner_unitary(dim) @ b - b).max() <= 1e-12

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            zauner_unitary(4)[0, 0] = 0.0

    def test_qubit_subspace_is_the_fiducial_ray(self):
        # k = 1 at N = 2: every start already is a SIC fiducial.
        for seed in range(8):
            result = find_fiducial(2, seed=seed, max_iters=1)
            assert isinstance(result, Fiducial)
            assert result.provenance.iterations == 1
            assert max_overlap_deviation(result) <= 1e-14


class TestRegistry:
    def test_qubit_tetrahedron_fiducial_validates_at_1e14(self):
        fid = known_fiducial(2)
        assert fid.is_exact
        assert max_overlap_deviation(fid) <= 1e-14

    def test_qubit_fiducial_points_along_the_cube_diagonal(self):
        from simplex_decomp.blochspace import bloch_from_density
        fid = known_fiducial(2)
        b = bloch_from_density(np.outer(fid.vector, fid.vector.conj()))
        np.testing.assert_allclose(b.coords, np.ones(3) / np.sqrt(3.0), atol=1e-15)

    def test_qutrit_fiducial_validates_at_1e14(self):
        fid = known_fiducial(3)
        assert fid.is_exact
        np.testing.assert_allclose(np.abs(fid.vector),
                                   [0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
        assert max_overlap_deviation(fid) <= 1e-14

    def test_dim7_with_empty_cache_is_absent(self):
        assert known_fiducial(7) is None
        assert known_fiducial(7, cache_path="/nonexistent/cache.json") is None


class TestSicFromFiducial:
    def test_qubit_tetrahedron_overlaps(self, registry_sics):
        sic = registry_sics[2]
        table = overlap_table(sic.states)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(table[off], 1.0 / 3.0, atol=1e-14)

    def test_qutrit_overlaps(self, registry_sics):
        sic = registry_sics[3]
        table = overlap_table(sic.states)
        off = ~np.eye(9, dtype=bool)
        np.testing.assert_allclose(table[off], 0.25, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bloch_pairwise_dots(self, registry_sics, dim):
        bloch = registry_sics[dim].bloch
        assert verify_simplex(bloch).ok
        dots = bloch.vertices @ bloch.vertices.T
        off = ~np.eye(dim * dim, dtype=bool)
        np.testing.assert_allclose(dots[off], -1.0 / (dim * dim - 1), atol=1e-8)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_povm_completeness(self, registry_sics, dim):
        states = registry_sics[dim].states
        total = np.einsum("di,dj->ij", states, states.conj())
        assert np.abs(total - dim * np.eye(dim)).max() <= 1e-8

    def test_basis_state_is_rejected(self):
        fid = Fiducial(dim=2, vector=np.array([1.0, 0.0], dtype=complex),
                       provenance=Provenance(kind=OPTIMIZED))
        with pytest.raises(NotAFiducialError) as err:
            sic_from_fiducial(fid)
        assert err.value.max_deviation > 0.1


class TestFramePotential:
    def test_qubit_tetrahedron_value(self):
        fid = known_fiducial(2)
        assert abs(frame_potential(fid) - 1.0 / 3.0) <= 1e-14
        assert abs(frame_potential_minimum(2) - 1.0 / 3.0) <= 1e-16

    def test_basis_state_is_above_minimum(self):
        fid = Fiducial(dim=2, vector=np.array([1.0, 0.0], dtype=complex),
                       provenance=Provenance(kind=OPTIMIZED))
        assert frame_potential(fid) > 1.0 / 3.0 + 0.1

    def test_qutrit_fiducial_value(self):
        fid = known_fiducial(3)
        assert abs(frame_potential(fid) - 0.5) <= 1e-14
        assert abs(frame_potential_minimum(3) - 0.5) <= 1e-16

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_equals_the_dense_contraction(self, dim):
        rng = np.random.default_rng(600 + dim)
        fid = Fiducial(dim=dim, vector=random_pure_state(rng, dim),
                       provenance=Provenance(kind=OPTIMIZED))
        c = np.einsum("i,dij,j->d", fid.vector.conj(),
                      reference_wh_displacements(dim)[1:], fid.vector)
        want = float(np.sum(np.abs(c) ** 4))
        assert abs(frame_potential(fid) - want) <= 1e-14 * want

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_lower_bound_on_sampled_vectors(self, dim):
        rng = np.random.default_rng(500 + dim)
        floor = frame_potential_minimum(dim)
        for _ in range(60):
            fid = Fiducial(dim=dim, vector=random_pure_state(rng, dim),
                           provenance=Provenance(kind=OPTIMIZED))
            assert frame_potential(fid) >= floor - 1e-12


class TestFindFiducial:
    def test_qubit_any_seed_succeeds(self):
        for seed in range(8):
            result = find_fiducial(2, seed=seed)
            assert isinstance(result, Fiducial)
            assert max_overlap_deviation(result) <= 1e-8

    def test_dim4_within_first_20_seeds(self):
        for seed in range(20):
            result = find_fiducial(4, seed=seed)
            if isinstance(result, Fiducial):
                assert frame_potential(result) <= frame_potential_minimum(4) + 1e-10
                sic = sic_from_fiducial(result)
                assert sic.dim == 4
                return
        pytest.fail("no success within 20 seeds")

    def test_single_iteration_reports_failure(self):
        result = find_fiducial(3, seed=0, max_iters=1)
        assert isinstance(result, FiducialSearchFailure)
        assert result.best_residual > 0
        assert result.iterations >= 1

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"max_iters": 0}],
                             ids=["seed", "max_iters"])
    def test_out_of_range_argument_is_refused(self, kwargs):
        with pytest.raises(ParameterRangeError, match=next(iter(kwargs))):
            find_fiducial(4, **kwargs)

    def test_nan_residuals_are_a_failure(self, monkeypatch):
        # trf accepts only finite residuals, so NaN is put into its result.
        import scipy.optimize
        real = scipy.optimize.least_squares

        def nan_residuals(*args, **kwargs):
            res = real(*args, **kwargs)
            res.fun = np.full_like(res.fun, np.nan)
            return res
        monkeypatch.setattr(scipy.optimize, "least_squares", nan_residuals)
        # Seed 5 converges at N = 3 (see the next test).
        result = find_fiducial(3, seed=5)
        assert isinstance(result, FiducialSearchFailure)

    @pytest.mark.parametrize("dim, max_iters", [(3, 8), (4, 17), (11, 19)])
    def test_truncated_search_below_the_overlap_tolerance_fails(self, dim, max_iters):
        """Stopped where the frame-potential excess is under 1e-10 but some
        squared overlap still misses 1e-8: no fiducial is returned."""
        result = find_fiducial(dim, seed=0, max_iters=max_iters)
        assert isinstance(result, FiducialSearchFailure)
        assert result.best_residual <= 1e-10

    def test_every_returned_fiducial_is_certified(self):
        for seed in range(6):
            for max_iters in range(1, 41):
                result = find_fiducial(4, seed=seed, max_iters=max_iters)
                if isinstance(result, Fiducial):
                    assert sic_from_fiducial(result).dim == 4, (seed, max_iters)

    def test_deterministic_per_seed(self):
        a = find_fiducial(3, seed=5)
        b = find_fiducial(3, seed=5)
        assert isinstance(a, Fiducial) and isinstance(b, Fiducial)
        assert np.array_equal(a.vector, b.vector)
        assert a.provenance == b.provenance

    def test_jacobian_matches_finite_differences(self):
        from simplex_decomp.sicpovm import _overlap_residuals
        fun, jac = _overlap_residuals(3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        j = jac(x)
        eps = 1e-7
        for k in range(6):
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] -= eps
            col = (fun(xp) - fun(xm)) / (2 * eps)
            np.testing.assert_allclose(j[:, k], col, atol=5e-7)


def zauner_defect(result):
    u = zauner_unitary(result.dim)
    return np.linalg.norm(u @ result.vector - result.vector)


class TestZaunerSearch:
    """One search per seed, in the eigenvalue-1 eigenspace of U_Z."""

    @pytest.mark.parametrize("dim", [4, 8, 12])
    def test_every_success_lies_in_the_zauner_subspace(self, dim):
        successes = 0
        for seed in range(10):
            result = find_fiducial(dim, seed=seed)
            if isinstance(result, Fiducial):
                successes += 1
                assert zauner_defect(result) <= 1e-10, seed
        assert successes > 0

    def test_failure_reports_its_one_search(self):
        result = find_fiducial(9, seed=0, max_iters=3)
        assert isinstance(result, FiducialSearchFailure)
        assert result.iterations == 3

    @pytest.mark.parametrize("dim, seed, succeeds", [(8, 5, False), (8, 0, True)])
    def test_iterations_count_every_residual_evaluation(self, monkeypatch, dim,
                                                         seed, succeeds):
        calls = []
        kernel = sicpovm._overlap_residuals

        def counting_kernel(n):
            fun, jac = kernel(n)

            def counted(x):
                calls.append(1)
                return fun(x)
            return counted, jac
        monkeypatch.setattr(sicpovm, "_overlap_residuals", counting_kernel)
        result = find_fiducial(dim, seed=seed)
        assert isinstance(result, Fiducial) == succeeds
        iterations = (result.provenance.iterations if succeeds
                      else result.iterations)
        assert iterations == len(calls) > 0


def polished_search(dim, seed):
    """Reference: ``find_fiducial`` with the solver's ftol at 3e-16, as the
    search once ran, so a failed start polishes its local minimum to
    machine precision before it gives up."""
    from scipy import optimize
    least_squares = optimize.least_squares

    def polishing(*args, **kwargs):
        return least_squares(*args, **{**kwargs, "ftol": 3e-16})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "least_squares", polishing)
        return find_fiducial(dim, seed=seed)


class TestStopRule:
    """ftol stops only failed starts: every success ends on gtol."""

    def test_successes_are_the_polished_searches(self):
        """N = 9, seed 12 is the success nearest the stop rule: an ftol of
        3e-7 would stop it early."""
        successes, spent, polished_spent = set(), 0, 0
        for dim in (4, 9, 12):
            for seed in range(20):
                got, want = find_fiducial(dim, seed=seed), polished_search(dim, seed)
                assert isinstance(got, Fiducial) == isinstance(want, Fiducial), (dim, seed)
                if isinstance(want, Fiducial):
                    assert_bitwise_equal(got.vector, want.vector)
                    assert got.provenance == want.provenance, (dim, seed)
                    successes.add((dim, seed))
                else:
                    assert got.iterations <= want.iterations, (dim, seed)
                    spent += got.iterations
                    polished_spent += want.iterations
        assert (9, 12) in successes
        assert spent < polished_spent


def dense_overlap_residuals(n):
    """Reference: one residual row per non-identity displacement, by einsum
    over the full (N^2 - 1, N, N) stack, as the search once computed them."""
    displ = reference_wh_displacements(n)[1:]
    displ_h = displ.conj().transpose(0, 2, 1)
    target = 1.0 / (n + 1.0)

    def unpack(x):
        return x[:n] + 1j * x[n:]

    def fun(x):
        z = unpack(x)
        u = np.real(np.vdot(z, z))
        c = np.einsum("i,dij,j->d", z.conj(), displ, z) / u
        return np.abs(c) ** 2 - target

    def jac(x):
        z = unpack(x)
        u = np.real(np.vdot(z, z))
        dz = np.einsum("dij,j->di", displ, z)
        dhz = np.einsum("dij,j->di", displ_h, z)
        c = (z.conj() @ dz.T) / u
        g = (c.conj()[:, None] * (dz - c[:, None] * z[None, :])
             + c[:, None] * (dhz - c.conj()[:, None] * z[None, :])) / u
        return np.hstack([2.0 * g.real, 2.0 * g.imag])

    return fun, jac


class TestResidualKernel:
    """The paired, gathered kernel against the dense full-row reference."""

    @pytest.mark.parametrize("dim", range(2, 21))
    def test_one_row_per_pair_with_the_dense_normal_equations(self, dim):
        x = np.random.default_rng(dim).standard_normal(2 * dim)
        fun, jac = sicpovm._overlap_residuals(dim)
        ref_fun, ref_jac = dense_overlap_residuals(dim)
        f, j = fun(x), jac(x)
        ref_f, ref_j = ref_fun(x), ref_jac(x)
        self_paired = 3 if dim % 2 == 0 else 0
        assert j.shape == ((dim * dim - 1 + self_paired) // 2, 2 * dim)
        assert f.shape == j.shape[:1]

        def rel(a, b):
            return np.abs(a - b).max() / np.abs(b).max()
        assert rel(f @ f, ref_f @ ref_f) <= 1e-13
        assert rel(j.T @ j, ref_j.T @ ref_j) <= 1e-13
        assert rel(j.T @ f, ref_j.T @ ref_f) <= 1e-13

    # At N = 32 a power of Z holds a -0 on its diagonal, where the product
    # with the identity gives +0.
    @pytest.mark.parametrize("dim", [*range(2, 21), 32])
    def test_gathers_equal_the_displacement_products(self, dim):
        """Row i of D_p holds its one nonzero at column back[p, i], with the
        bits of ph_back[p, i]; row i of D_p^dagger at fwd[p, i], ph_fwd[p, i]."""
        back, ph_back, fwd, ph_fwd = sicpovm._wh_tables(dim)
        rows = np.arange(dim)
        for p, d in enumerate(reference_wh_displacements(dim)):
            assert np.count_nonzero(d) == dim
            assert_bitwise_equal(d[rows, back[p]], ph_back[p])
            assert_bitwise_equal(d.conj().T[rows, fwd[p]], ph_fwd[p])

    def test_search_does_not_depend_on_blas_threads(self):
        """OpenBLAS runs a gemv on more than one thread once m n >= 9216.
        The Zauner-subspace Jacobian stays below that size up to N = 29
        (420 x 20) and crosses it at N = 30 (451 x 22), where seed 1
        succeeds."""
        script = ("from simplex_decomp.sicpovm import Fiducial, find_fiducial\n"
                  "for n, seed in ((29, 0), (29, 5), (30, 1)):\n"
                  "    r = find_fiducial(n, seed=seed)\n"
                  "    print(r.provenance if isinstance(r, Fiducial) else r)\n")
        src = str(Path(sicpovm.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("Provenance(kind='optimized', seed=1,")


DATA = Path(__file__).parent / "data"


def orbit_projectors(states):
    """The projector stack of ``sic_from_fiducial``, built the same way."""
    return np.einsum("di,dj->dij", states, states.conj())


def reference_bloch_coordinates(projectors):
    """Dense contraction over every generator: the coordinate kernel's
    bitwise oracle, as ``sic_from_fiducial`` once computed it."""
    n = projectors.shape[-1]
    return np.einsum("dij,mji->dm", projectors, reference_su_generators(n))


def reference_orbit(vector):
    """Orbit states and worst overlap deviation by the dense formulas."""
    n = vector.size
    states = np.einsum("dij,j->di", reference_wh_displacements(n), vector)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    target = (n * np.eye(n * n) + 1.0) / (n + 1.0)
    return states, float(np.abs(overlaps - target).max())


def certified_fiducial(source):
    return (known_fiducial(source) if isinstance(source, int)
            else load_fiducial_cache(DATA / source))


CERTIFIED = [2, 3, "fid4.json", "fid8.json", "fid12.json"]


class TestBlochCoordinatesBitwise:
    """The sparse coordinate kernel returns the bits of the dense einsum."""

    @pytest.mark.parametrize("source", CERTIFIED)
    def test_certified_fiducials_and_their_sic(self, source):
        fid = certified_fiducial(source)
        states, max_dev = reference_orbit(fid.vector)
        projectors = orbit_projectors(states)
        coords = reference_bloch_coordinates(projectors)
        assert_bitwise_equal(_bloch_coordinates(projectors), coords)
        dense = coords.real / np.linalg.norm(coords.real, axis=1, keepdims=True)
        sic = sic_from_fiducial(fid)
        assert_bitwise_equal(sic.bloch.vertices, dense)
        assert_bitwise_equal(sic.states, states)
        assert max_overlap_deviation(fid) == max_dev

    def test_searched_sic(self, searched_sic):
        projectors = orbit_projectors(searched_sic(16).states)
        assert_bitwise_equal(_bloch_coordinates(projectors),
                             reference_bloch_coordinates(projectors))

    @pytest.mark.parametrize("dim", [*range(2, 21), 24])
    def test_random_unit_vectors(self, dim):
        rng = np.random.default_rng(700 + dim)
        plain = random_pure_state(rng, dim)
        # Exact zeros and negative zeros in both components.
        signed = random_pure_state(rng, dim)
        signed[rng.permutation(dim)[:max(1, dim // 3)]] = 0.0
        signed[0] = complex(-0.0, signed[0].imag)
        signed[-1] = complex(signed[-1].real, -0.0)
        if dim > 2:
            signed[1] = complex(-0.0, -0.0)
        signed /= np.linalg.norm(signed)
        for vector in (plain, signed):
            states, max_dev = reference_orbit(vector)
            fid = Fiducial(dim=dim, vector=vector, provenance=Provenance(kind=OPTIMIZED))
            got_states, got_dev = sicpovm._orbit(fid)
            assert_bitwise_equal(got_states, states)
            assert got_dev == max_dev
            projectors = orbit_projectors(states)
            assert_bitwise_equal(_bloch_coordinates(projectors),
                                 reference_bloch_coordinates(projectors))

    def test_kernel_scratch_is_one_pass(self, searched_sic):
        """At N = 16 the peak is the result plus one pass's products (two
        passes alive would put it near 3 results)."""
        projectors = orbit_projectors(searched_sic(16).states)
        _bloch_coordinates(projectors)  # builds the cached entry table
        tracemalloc.start()
        try:
            coords = _bloch_coordinates(projectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * coords.nbytes

    def test_orbit_is_built_once_per_certification(self, monkeypatch):
        real, calls = sicpovm._orbit, []

        def counting(f):
            calls.append(f.dim)
            return real(f)
        monkeypatch.setattr(sicpovm, "_orbit", counting)
        sic_from_fiducial(known_fiducial(3))
        assert calls == [3]

    def test_orbit_peak_holds_no_dense_target(self):
        """At N = 18 the peak is the complex Gram matrix and its float
        moduli, about 1.5 complex N^4 arrays; a dense target adds more."""
        n = 18
        fid = Fiducial(dim=n, vector=np.full(n, n ** -0.5, dtype=complex),
                       provenance=Provenance(kind=OPTIMIZED))
        sicpovm._orbit(fid)  # builds the cached displacement table
        tracemalloc.start()
        try:
            sicpovm._orbit(fid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 16 * n ** 4


class TestOrbitOrder:
    """`verify_decomposition`'s orbit route reads factor p of a SIC
    decomposition as the displaced first one, D_p F_0 D_p^dagger, with
    p = jN + k in the order of ``_wh_tables``."""

    @pytest.mark.parametrize("source", CERTIFIED)
    def test_vertex_p_is_the_displaced_fiducial(self, source):
        fid = certified_fiducial(source)
        n = fid.dim
        displacements = reference_wh_displacements(n)
        # Row p of the table gathers from column back[p, i] of D_p's row i.
        assert np.array_equal(np.abs(displacements).argmax(axis=2), sicpovm._wh_tables(n)[0])
        p0 = np.outer(fid.vector, fid.vector.conj())
        coords = reference_bloch_coordinates(
            displacements @ p0 @ displacements.conj().transpose(0, 2, 1)).real
        directions = coords / np.linalg.norm(coords, axis=1, keepdims=True)
        # At most 5.4 eps apart over these five SICs.
        assert (np.abs(directions - sic_from_fiducial(fid).bloch.vertices).max()
                <= 16 * np.finfo(float).eps)


class TestNoDenseStack:
    """No library path builds the dense displacement stack: with
    ``wh_displacements`` raising, searches, certifications and the CLI run."""

    @pytest.fixture(autouse=True)
    def refuse_dense_stack(self, monkeypatch):
        def refuse(dimension):
            raise AssertionError(f"wh_displacements({dimension}) was called")
        monkeypatch.setattr(sicpovm, "wh_displacements", refuse)

    def test_search(self):
        assert obtain_sic(4).bloch.n_vertices == 16

    @pytest.mark.parametrize("source", CERTIFIED)
    def test_certified_fiducials(self, source):
        fid = certified_fiducial(source)
        assert sic_from_fiducial(fid).dim == fid.dim

    def test_frame_potential(self):
        assert abs(frame_potential(known_fiducial(3)) - 0.5) <= 1e-14

    @pytest.mark.parametrize("argv", [
        ("sic", "4", "--find", "--seed", "0"),
        ("decompose", "werner", "4", "--tau", "0.5", "--count", "2",
         "--fiducial-cache", str(DATA / "fid4.json")),
    ], ids=["sic-find", "decompose-cached"])
    def test_cli(self, capsys, argv):
        assert main(list(argv)) == 0, capsys.readouterr().err


class TestCache:
    def test_round_trip(self, tmp_path):
        result = find_fiducial(4, seed=0)
        assert isinstance(result, Fiducial)
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, result)
        loaded = load_fiducial_cache(path)
        assert loaded.dim == 4
        np.testing.assert_allclose(loaded.vector, result.vector, atol=1e-16)
        assert loaded.provenance.seed == 0

    def test_negative_zero_survives_the_cache(self, tmp_path):
        """The file writes -0 for a -0.0 component, and loading keeps its
        sign: the vector comes back bit for bit."""
        vector = np.array([0.6 - 0.0j, 0.8j, complex(-0.0, -0.0), 0.0])
        fid = Fiducial(dim=4, vector=vector,
                       provenance=Provenance(kind=OPTIMIZED, seed=3, residual=1e-30))
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, fid)
        assert "-0]" in path.read_text() and "[-0, -0]" in path.read_text()
        loaded = load_fiducial_cache(path)
        assert_bitwise_equal(loaded.vector, fid.vector)
        assert (loaded.dim, loaded.provenance.seed) == (4, 3)
        assert loaded.provenance.residual == 1e-30

    def test_integers_are_read_back_exactly(self, tmp_path):
        fid = Fiducial(dim=4, vector=np.array([0.6, 0.8j, 0.0, 0.0]),
                       provenance=Provenance(kind=OPTIMIZED, seed=2**53 + 1, residual=0.0))
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, fid)
        assert load_fiducial_cache(path).provenance.seed == 2**53 + 1

    def test_known_fiducial_reads_cache(self, tmp_path):
        # Seed 1 is the first seed that succeeds at N = 5.
        result = find_fiducial(5, seed=1)
        assert isinstance(result, Fiducial)
        path = tmp_path / "fid5.json"
        save_fiducial_cache(path, result)
        got = known_fiducial(5, cache_path=path)
        assert got is not None and got.dim == 5
        # a cache for another dimension is refused, naming both
        with pytest.raises(FiducialCacheError, match="holds N = 5, not N = 6"):
            known_fiducial(6, cache_path=path)
        # the registry wins at N = 2 and 3, where the cache is never read
        assert known_fiducial(3, cache_path=path).provenance.kind == EXACT_REGISTRY

    def test_non_unit_cached_vector_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"N": 4, "vector": [[1, 0], [1, 0], [0, 0], [0, 0]],'
                        ' "residual": 0.0, "seed": 0}')
        with pytest.raises(ValueError):
            load_fiducial_cache(path)


    @pytest.mark.parametrize("text", [
        '{bad',
        '{"N": 4, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]], "seed": 0}',
        '{"N": 4, "vector": [[NaN, 0], [0.5, 0], [0.5, 0], [0.5, 0]],'
        ' "residual": 0, "seed": 0}',
        '{"N": 4, "vector": [1, 0, 0, 0, 0, 0, 0, 0], "residual": 0, "seed": 0}',
        '{"N": 2, "vector": [1, 0], "residual": 0, "seed": 0}',
        '{"N": 4, "vector": [[1, 0], [0, 0], [0], [0, 0]], "residual": 0, "seed": 0}',
        '{"N": 4, "vector": [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],'
        ' "residual": 0, "seed": 0}',
        '{"N": 4, "vector": [[1, 0], [0, 0], [0, 0], [0, 0]], "residual": 0, "seed": 1e400}',
        '{"N": 4, "vector": [[1%s, 0], [0, 0], [0, 0], [0, 0]], "residual": 0, "seed": 0}'
        % ("0" * 400),
    ], ids=["invalid-json", "missing-key", "nan-vector", "flat-vector",
            "flat-pair", "ragged-vector", "three-components", "infinite-seed",
            "huge-integer-component"])
    def test_malformed_cache_raises_one_error_type(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FiducialCacheError, match="malformed"):
            load_fiducial_cache(path)
        with pytest.raises(FiducialCacheError):
            known_fiducial(4, cache_path=path)

    def test_zero_residual_round_trips(self, tmp_path):
        """A 0.0 residual is written as the JSON integer 0 and read back."""
        fid = load_fiducial_cache(DATA / "fid4.json")
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, Fiducial(dim=4, vector=fid.vector, provenance=Provenance(
            kind=OPTIMIZED, seed=0, residual=0.0)))
        assert '"residual": 0,' in path.read_text()
        assert load_fiducial_cache(path).provenance.residual == 0.0

    def test_failed_write_keeps_the_previous_cache(self, tmp_path, monkeypatch):
        result = find_fiducial(4, seed=0)
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, result)
        before = path.read_bytes()
        # Text that fails to encode part-way: the write raises after the
        # target would already have been truncated by a direct write.
        monkeypatch.setattr(sicpovm, "dumps", lambda payload: '{"N": 4, \ud800')
        with pytest.raises(UnicodeEncodeError):
            save_fiducial_cache(path, result)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fid4.json"]

    def test_concurrent_writers_never_expose_a_partial_file(self, tmp_path):
        result = find_fiducial(4, seed=0)
        path = tmp_path / "fid4.json"
        save_fiducial_cache(path, result)
        errors = []

        def write():
            try:
                for _ in range(30):
                    save_fiducial_cache(path, result)
            except Exception as exc:  # reported through the list
                errors.append(exc)
        writers = [threading.Thread(target=write) for _ in range(4)]
        for t in writers:
            t.start()
        while any(t.is_alive() for t in writers):
            assert load_fiducial_cache(path).dim == 4
        for t in writers:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == ["fid4.json"]


class TestObtainSic:
    def test_registry_comes_first_with_exact_tolerances(self, tmp_path):
        sic = obtain_sic(3, cache_path=tmp_path / "absent.json")
        assert sic.tol == TOLERANCES[EXACT_REGISTRY].overlap
        assert sic.bloch.tol == TOLERANCES[EXACT_REGISTRY].certificate

    def test_searched_sic_carries_optimized_tolerances(self, optimized_sics):
        sic = optimized_sics[4]
        assert sic.tol == TOLERANCES[OPTIMIZED].overlap
        assert sic.bloch.tol == TOLERANCES[OPTIMIZED].certificate

    def test_search_failure_raises_after_twenty_seeds(self, monkeypatch):
        seeds = []

        def failing(dim, seed=0, **kwargs):
            seeds.append(seed)
            return FiducialSearchFailure(dim=dim, seed=seed, iterations=1,
                                         best_residual=1.0)
        monkeypatch.setattr(sicpovm, "find_fiducial", failing)
        with pytest.raises(FiducialSearchError, match="seeds 0..19"):
            obtain_sic(7)
        assert seeds == list(range(20))

    def test_n24_without_a_cache(self):
        sic = obtain_sic(24)
        assert sic.states.shape == (576, 24)
        assert sic.tol == TOLERANCES[OPTIMIZED].overlap
        assert verify_simplex(sic.bloch).ok
