"""Generalized Bloch representation of density matrices.

An N-dimensional density matrix is written as

    rho = id/N + (1/2) sum_mu r_mu L_mu ,

where the L_mu are the N^2 - 1 generalized Gell-Mann matrices normalized to
Tr[L_mu L_nu] = 2 delta_mu_nu, so the coordinates invert as
r_mu = Tr[rho L_mu].  The module also provides the closed positivity radius
interval along pure-state directions, which every decomposition result in
this package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, HermiticityError

HERM_TOL = 1e-10
PSD_TOL = 1e-9


def _readonly(a) -> np.ndarray:
    """Read-only array of ``a``: kept when it is already a read-only array
    owning its data, which nothing else can write to, else a frozen copy."""
    if isinstance(a, np.ndarray) and not a.flags.writeable and a.flags.owndata:
        return a
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real coordinate vector of a trace-one Hermitian matrix."""

    dimension: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        expected = self.dimension * self.dimension - 1
        if c.shape != (expected,):
            raise DimensionMismatchError(
                f"coordinate vector has shape {c.shape}, expected ({expected},)")
        object.__setattr__(self, "coords", _readonly(c))

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.coords))

    @property
    def direction(self) -> np.ndarray:
        """Unit direction; zero vector for the maximally mixed point."""
        r = self.radius
        if r == 0.0:
            return np.zeros_like(self.coords)
        return self.coords / r


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one Hermitian matrix with tolerance-tagged positivity status.

    Construction enforces Hermiticity and unit trace within ``HERM_TOL``;
    positive semidefiniteness is *not* enforced (several operations in this
    package deliberately produce indefinite trace-one matrices) and is
    queried through :meth:`is_psd`.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERM_TOL:
            raise HermiticityError(f"matrix is not Hermitian: deviation {dev:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > HERM_TOL:
            raise HermiticityError(f"matrix trace {tr} is not 1")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self)

    def is_psd(self) -> bool:
        return self.min_eigenvalue >= -PSD_TOL


def _as_matrix(m) -> np.ndarray:
    return m.entries if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)


@lru_cache(maxsize=None)
def _gell_mann_table(n: int) -> tuple:
    """Nonzero entries of the Gell-Mann basis, from their closed form.

    Returns ``(rows, cols, owner, coef, rank, batches)``.  The first five
    list every nonzero entry in generator order, row-major within a
    generator: its position, the generator (coordinate) owning it, its
    value and its rank within that generator.  Symmetric generator (j, k)
    holds 1 at (j, k) and (k, j), its antisymmetric partner -i and i there,
    and diagonal generator l holds sqrt(2/(l(l+1))) at (i, i) for i < l and
    -l times that at (l, l).  ``batches`` splits the entries into runs of
    generators with disjoint supports, in generator order, for
    :func:`_bloch_operators`: all symmetric generators; all antisymmetric
    ones, which share their supports, with the first diagonal one, which
    holds only (0, 0) and (1, 1); then one per further diagonal generator,
    since every diagonal one holds (0, 0).
    """
    j, k = np.triu_indices(n, 1)
    pairs = j.size
    diag = np.concatenate([np.arange(l + 1) for l in range(1, n)])
    level = np.repeat(np.arange(1, n), np.arange(2, n + 1))
    off_rows = np.stack([j, k], axis=1).ravel()
    off_cols = np.stack([k, j], axis=1).ravel()
    rows = np.concatenate([off_rows, off_rows, diag])
    cols = np.concatenate([off_cols, off_cols, diag])
    owner = np.concatenate([np.repeat(np.arange(2 * pairs), 2), 2 * pairs - 1 + level])
    # -1.0j is complex(-0.0, -1.0): su_generators keeps that sign bit.
    coef = np.concatenate([np.ones(2 * pairs), np.tile([-1.0j, 1.0j], pairs),
                           np.sqrt(2.0 / (level * (level + 1)))
                           * np.where(diag == level, -level, 1)])
    rank = np.concatenate([np.tile([0, 1], 2 * pairs), diag])
    table = [_readonly(a) for a in (rows, cols, owner, coef, rank)]
    ends = np.cumsum([2 * pairs, 2 * pairs + 2, *range(3, n + 1)])
    batches = tuple(tuple(a[start:end] for a in table[:4])
                    for start, end in zip([0, *ends[:-1]], ends))
    return (*table, batches)


@lru_cache(maxsize=None)
def su_generators(dimension: int) -> np.ndarray:
    """Generalized Gell-Mann basis of su(N), Tr[L_mu L_nu] = 2 delta_mu_nu.

    Returns the read-only stack of the N^2 - 1 matrices, shape (N^2-1, N, N).

    Ordering is canonical: all symmetric off-diagonal matrices, then all
    antisymmetric ones (each set in lexicographic (j, k) order, j < k), then
    the diagonal matrices.  For N = 2 this yields sigma_x, sigma_y, sigma_z.
    """
    n = dimension
    if n < 2:
        raise DimensionMismatchError(f"generator basis needs dimension >= 2, got {n}")
    rows, cols, owner, coef, _, _ = _gell_mann_table(n)
    mats = np.zeros((n * n - 1, n, n), dtype=complex)
    mats[owner, rows, cols] = coef
    mats.setflags(write=False)
    return mats


def _bloch_operators(coords: np.ndarray, dim: int) -> np.ndarray:
    """Stack of c_k . L for the rows c_k of ``coords``, shape (K, N, N).

    Equal bit for bit to ``einsum("km,mij->kij", coords, su_generators(N))``:
    the skipped products are exact zeros, the kept ones are added to +0 in
    generator order, and each product is the same complex multiplication
    of a real coordinate.
    """
    *_, batches = _gell_mann_table(dim)
    ops = np.zeros((coords.shape[0], dim, dim), dtype=complex)
    for rows, cols, owner, coef in batches:
        ops[:, rows, cols] += coords[:, owner] * coef
    return ops


def _bloch_coordinates(m: np.ndarray) -> np.ndarray:
    """Complex Tr[m_k L_mu] for a stack of N x N matrices, shape (K, N^2 - 1).

    Equal bit for bit to ``einsum("kij,mji->km", m, su_generators(N))``.
    Pass r adds the r-th nonzero entry of every generator that has one, so
    each coordinate adds its products to +0 in row-major order, the
    einsum's own: two for an off-diagonal generator, whose sum does not
    depend on their order, and the diagonal terms in increasing index for
    a diagonal one.  The skipped products are exact zeros, and each kept
    one has an operand with a zero component, so no fused multiply-add
    changes its rounding.
    """
    k, n = m.shape[0], m.shape[-1]
    flat = m.reshape(k, n * n)
    rows, cols, owner, coef, rank, _ = _gell_mann_table(n)
    out = np.zeros((k, n * n - 1), dtype=complex)
    for r in range(rank.max() + 1):
        e = rank == r
        term = np.take(flat, cols[e] * n + rows[e], axis=1)
        term *= coef[e]
        # The generators with an r-th entry are a tail of the basis: every
        # off-diagonal one has two entries, diagonal l has l + 1.
        out[:, owner[e][0]:] += term
        del term  # freed before the next gather: one pass of scratch at most
    return out


def bloch_from_density(rho) -> BlochVector:
    """Coordinates r_mu = Tr[rho L_mu] of a trace-one Hermitian matrix."""
    m = _as_matrix(rho)
    n = m.shape[0]
    coords = _bloch_coordinates(m[None])[0]
    imag = np.abs(coords.imag).max()
    if imag > HERM_TOL:
        raise HermiticityError(f"Bloch coordinates have imaginary part {imag:.3e}")
    return BlochVector(dimension=n, coords=coords.real)


def density_from_bloch(b: BlochVector) -> DensityMatrix:
    """Trace-one Hermitian matrix with the given Bloch coordinates.

    The result is not guaranteed positive semidefinite; check
    :meth:`DensityMatrix.is_psd` (or :func:`min_eigenvalue`) when positivity
    matters.
    """
    n = b.dimension
    m = np.eye(n, dtype=complex) / n
    m += 0.5 * _bloch_operators(b.coords[None], n)[0]
    return DensityMatrix(m)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the symmetrized matrix (m + m^dag)/2.

    Raises :class:`HermiticityError` when the input deviates from Hermitian
    beyond tolerance; the symmetrization only guards round-off.
    """
    a = _as_matrix(m)
    dev = np.abs(a - a.conj().T).max()
    if dev > HERM_TOL:
        raise HermiticityError(f"matrix is not Hermitian: deviation {dev:.3e}")
    return float(np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0])


def psd_radius_bounds(dimension: int) -> tuple[float, float]:
    """Closed positivity interval for the radius along a pure-state direction.

    For a unit direction u that is the Bloch direction of some pure state,
    id/N + (r/2) u.L is positive semidefinite exactly for
    r in [-sqrt(2/(N(N-1))), sqrt(2(N-1)/N)].
    """
    n = dimension
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")
    return (-float(np.sqrt(2.0 / (n * (n - 1)))), float(np.sqrt(2.0 * (n - 1) / n)))
