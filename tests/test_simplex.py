import numpy as np
import pytest
from scipy.stats import ortho_group

from simplex_decomp.errors import SimplexStructureError
from simplex_decomp.simplex import (RegularSimplex, canonical_simplex,
                                    gram_identities, orthogonal_extension,
                                    verify_simplex)


class TestCanonicalSimplex:
    def test_dimension_one_is_the_sign_pair(self):
        s = canonical_simplex(1)
        np.testing.assert_array_equal(s.vertices, [[1.0], [-1.0]])
        assert s.vertices[0] @ s.vertices[1] == -1.0

    def test_tetrahedron_dots_by_direct_check(self):
        s = canonical_simplex(3)
        assert s.n_vertices == 4
        for i in range(4):
            assert abs(np.linalg.norm(s.vertices[i]) - 1.0) <= 1e-14
            for j in range(i + 1, 4):
                assert abs(s.vertices[i] @ s.vertices[j] + 1.0 / 3.0) <= 1e-14

    def test_dimension_eight_direct_check(self):
        s = canonical_simplex(8)
        assert s.n_vertices == 9
        dots = s.vertices @ s.vertices.T
        off = ~np.eye(9, dtype=bool)
        assert np.abs(dots[off] + 1.0 / 8.0).max() <= 1e-14
        assert np.abs(np.diag(dots) - 1.0).max() <= 1e-14

    def test_rejects_dimension_zero(self):
        with pytest.raises(SimplexStructureError):
            canonical_simplex(0)


class TestVerifySimplex:
    def test_canonical_passes_tightly(self):
        report = verify_simplex(canonical_simplex(3))
        assert report.ok
        assert report.max_norm_dev <= 1e-14
        assert report.max_dot_dev <= 1e-14

    def test_scaled_vertex_is_flagged(self):
        vertices = canonical_simplex(3).vertices.copy()
        vertices[0] *= 1.01
        with pytest.raises(SimplexStructureError,
                           match=r"at tol 1\.0e-10 \(norm dev 1\.000e-02, dot dev "):
            RegularSimplex(ambient_dim=3, vertices=vertices)

    def test_wrong_vertex_count_is_structural_error(self):
        with pytest.raises(SimplexStructureError, match="needs 4 vertices, got 3"):
            RegularSimplex(ambient_dim=3, vertices=canonical_simplex(3).vertices[:3])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_is_refused(self, bad):
        vertices = canonical_simplex(3).vertices.copy()
        vertices[1, 2] = bad
        with pytest.raises(SimplexStructureError, match="not a regular simplex"):
            RegularSimplex(ambient_dim=3, vertices=vertices)

    def test_checked_at_its_own_tol(self):
        rng = np.random.default_rng(5)
        q = ortho_group.rvs(8, random_state=rng)
        rotated = canonical_simplex(8).vertices @ q.T
        report = verify_simplex(RegularSimplex(ambient_dim=8, vertices=rotated))
        worst = max(report.max_norm_dev, report.max_dot_dev)
        assert 0.0 < worst <= 1e-10
        with pytest.raises(SimplexStructureError):
            RegularSimplex(ambient_dim=8, vertices=rotated, tol=worst / 2)

    def test_wrong_vector_length_rejected_at_construction(self):
        with pytest.raises(SimplexStructureError):
            RegularSimplex(ambient_dim=4, vertices=canonical_simplex(3).vertices)

    @pytest.mark.parametrize("m", [1, 3, 8, 15])
    def test_rotation_closure(self, m):
        rng = np.random.default_rng(m)
        base = canonical_simplex(m)
        for _ in range(3):
            q = ortho_group.rvs(m, random_state=rng) if m > 1 else np.array([[-1.0]])
            rotated = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            assert verify_simplex(rotated).ok


class TestGramIdentities:
    def test_sign_pair(self):
        g = gram_identities(canonical_simplex(1))
        assert g.sum_norm == 0.0
        assert g.gram_dev <= 1e-15  # sum of squares is 2 = (M+1)/M

    def test_dimension_eight_by_direct_summation(self):
        s = canonical_simplex(8)
        g = gram_identities(s)
        assert g.sum_norm <= 1e-12
        assert g.gram_dev <= 1e-12
        # independent summation
        total = np.zeros(8)
        gram = np.zeros((8, 8))
        for v in s.vertices:
            total += v
            gram += np.outer(v, v)
        assert np.linalg.norm(total) <= 1e-12
        assert np.abs(gram - 9.0 / 8.0 * np.eye(8)).max() <= 1e-12

    @pytest.mark.parametrize("m", [3, 8, 15])
    def test_holds_for_any_verified_simplex(self, m):
        rng = np.random.default_rng(200 + m)
        base = canonical_simplex(m)
        for _ in range(5):
            q = ortho_group.rvs(m, random_state=rng)
            rotated = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            assert verify_simplex(rotated).ok
            g = gram_identities(rotated)
            assert g.sum_norm <= 10 * rotated.tol
            assert g.gram_dev <= 10 * rotated.tol

    @pytest.mark.parametrize("m", [3, 8, 15, 24])
    def test_consequence_at_1e9_for_tol_1e10(self, m):
        s = canonical_simplex(m)
        assert verify_simplex(s).ok and s.tol == 1e-10
        g = gram_identities(s)
        assert g.sum_norm <= 1e-9
        assert g.gram_dev <= 1e-9


class TestOrthogonalExtension:
    def test_dimension_one_matrix(self):
        o = orthogonal_extension(canonical_simplex(1))
        expected = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(o, expected, atol=1e-15)

    def test_tetrahedron_by_direct_multiplication(self):
        o = orthogonal_extension(canonical_simplex(3))
        assert o.shape == (4, 4)
        assert np.abs(o @ o.T - np.eye(4)).max() <= 1e-14
        assert np.abs(o.T @ o - np.eye(4)).max() <= 1e-14

    def test_dimension_eight(self):
        o = orthogonal_extension(canonical_simplex(8))
        assert o.shape == (9, 9)
        assert np.abs(o @ o.T - np.eye(9)).max() <= 1e-10

    def test_scaling_rows(self):
        s = canonical_simplex(8)
        o = orthogonal_extension(s)
        scale = np.sqrt(8.0 / 9.0)
        np.testing.assert_allclose(o[:8, :], scale * s.vertices.T, atol=1e-15)
        np.testing.assert_allclose(o[8, :], scale / np.sqrt(8.0), atol=1e-15)

    def test_refuses_invalid_simplex(self):
        vertices = canonical_simplex(3).vertices * 1.5
        with pytest.raises(SimplexStructureError):
            orthogonal_extension(RegularSimplex(ambient_dim=3, vertices=vertices))

    @pytest.mark.parametrize("m", [3, 8, 15])
    def test_orthogonal_for_rotated_simplexes(self, m):
        rng = np.random.default_rng(300 + m)
        base = canonical_simplex(m)
        for _ in range(3):
            q = ortho_group.rvs(m, random_state=rng)
            rotated = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            o = orthogonal_extension(rotated)
            assert np.abs(o @ o.T - np.eye(m + 1)).max() <= 1e-10
