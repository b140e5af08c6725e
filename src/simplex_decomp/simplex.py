"""Regular simplexes of unit vectors and their orthogonal-matrix extension.

A regular simplex here is a set of M+1 unit vectors in R^M whose pairwise
dot products all equal -1/M.  Such sets satisfy two summation identities
(vanishing vertex sum, Gram matrix proportional to the identity) that make
them the backbone of the product decompositions in :mod:`.decompose`, and
they extend to a real orthogonal (M+1)x(M+1) matrix by appending one
constant row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blochspace import _readonly
from .errors import SimplexStructureError

DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class RegularSimplex:
    """Vertex list of a regular simplex: M+1 unit vectors in R^M.

    ``vertices`` has one vertex per row.  Construction runs
    :func:`verify_simplex` and raises :class:`SimplexStructureError` unless
    the vertices pass it, so every instance is regular at its own ``tol``.
    """

    ambient_dim: int
    vertices: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        v = _readonly(np.asarray(self.vertices, dtype=float))
        if v.ndim != 2:
            raise SimplexStructureError(f"vertices must be a 2-D array, got ndim {v.ndim}")
        if v.shape[1] != self.ambient_dim:
            raise SimplexStructureError(
                f"vertices live in dimension {v.shape[1]}, expected {self.ambient_dim}")
        object.__setattr__(self, "vertices", v)
        report = verify_simplex(self)  # raises on a wrong vertex count
        if not report.ok:
            raise SimplexStructureError(
                f"not a regular simplex at tol {self.tol:.1e} "
                f"(norm dev {report.max_norm_dev:.3e}, dot dev {report.max_dot_dev:.3e})")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class SimplexReport:
    max_norm_dev: float
    max_dot_dev: float
    ok: bool


@dataclass(frozen=True)
class GramReport:
    sum_norm: float
    gram_dev: float


def canonical_simplex(ambient_dim: int) -> RegularSimplex:
    """Deterministic regular simplex in R^M by the cap construction.

    Starts from {(+1), (-1)} in R^1 and repeatedly prepends an apex
    e_1 while shrinking the lower-dimensional simplex onto the opposite
    cap, keeping all dot products exactly -1/M up to round-off.
    """
    m = ambient_dim
    if m < 1:
        raise SimplexStructureError(f"ambient dimension must be >= 1, got {m}")
    verts = np.array([[1.0], [-1.0]])
    for d in range(2, m + 1):
        lower = verts * np.sqrt(1.0 - 1.0 / d**2)
        block = np.hstack([np.full((d, 1), -1.0 / d), lower])
        apex = np.zeros((1, d))
        apex[0, 0] = 1.0
        verts = np.vstack([apex, block])
    return RegularSimplex(ambient_dim=m, vertices=verts)


def verify_simplex(s: RegularSimplex) -> SimplexReport:
    """Check unit norms and pairwise dots -1/M against ``s.tol``."""
    m = s.ambient_dim
    if s.n_vertices != m + 1:
        raise SimplexStructureError(
            f"regular simplex in R^{m} needs {m + 1} vertices, got {s.n_vertices}")
    norms = np.linalg.norm(s.vertices, axis=1)
    max_norm_dev = float(np.abs(norms - 1.0).max())
    # In place: each SIC's Bloch simplex, N^2 vertices, is checked when built.
    dots = s.vertices @ s.vertices.T
    dots += 1.0 / m
    np.fill_diagonal(dots, 0.0)  # the norms, checked above
    max_dot_dev = float(np.abs(dots, out=dots).max())
    ok = max_norm_dev <= s.tol and max_dot_dev <= s.tol
    return SimplexReport(max_norm_dev=max_norm_dev, max_dot_dev=max_dot_dev, ok=ok)


def gram_identities(s: RegularSimplex) -> GramReport:
    """Vertex-sum norm and worst deviation of the Gram sum from ((M+1)/M) id."""
    m = s.ambient_dim
    sum_norm = float(np.linalg.norm(s.vertices.sum(axis=0)))
    gram = s.vertices.T @ s.vertices
    gram_dev = float(np.abs(gram - (m + 1.0) / m * np.eye(m)).max())
    return GramReport(sum_norm=sum_norm, gram_dev=gram_dev)


def orthogonal_extension(s: RegularSimplex) -> np.ndarray:
    """Append a constant row and rescale to a real orthogonal matrix.

    The columns are the vertices with 1/sqrt(M) appended, scaled by
    sqrt(M/(M+1)); the result is read-only.
    """
    m = s.ambient_dim
    bottom = np.full((1, m + 1), 1.0 / np.sqrt(m))
    return _readonly(np.sqrt(m / (m + 1.0)) * np.vstack([s.vertices.T, bottom]))
