"""Generalized Bloch representation of density matrices.

An N-dimensional density matrix is written as

    rho = id/N + (1/2) sum_mu r_mu L_mu ,

where the L_mu are the N^2 - 1 generalized Gell-Mann matrices normalized to
Tr[L_mu L_nu] = 2 delta_mu_nu, so the coordinates invert as
r_mu = Tr[rho L_mu].  The closed positivity radius interval along
pure-state directions is scalar math and lives in
:mod:`~simplex_decomp.params` (``psd_radius_bounds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatchError, HermiticityError
from .params import check_dimension

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


def _hermitian_deviation(m: np.ndarray) -> float:
    """max |m - m^dag| of a matrix, or over a stack of them; NaN propagates.

    A finite matrix with a symmetric real part and an antisymmetric
    imaginary part, bit for bit (a zero's sign aside), deviates by 0: that
    cheaper test, which makes only boolean and real temporaries, runs first.
    """
    flipped = np.swapaxes(m, -1, -2)
    if (np.array_equal(m.real, flipped.real) and np.array_equal(m.imag, -flipped.imag)
            and np.isfinite(m).all()):
        return 0.0
    return float(np.abs(m - flipped.conj()).max())


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
        dev = _hermitian_deviation(m)
        if not dev <= HERM_TOL:  # NaN fails too
            raise HermiticityError(f"matrix is not Hermitian: deviation {dev:.3e}")
        tr = m.trace()
        if not abs(tr - 1.0) <= HERM_TOL:
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

    Returns ``(rows, cols, owner, coef, rank, diagonals)``.  The first
    five list every nonzero entry in generator order, row-major within a
    generator: its position, the generator (coordinate) owning it, its
    value and its rank within that generator.  Symmetric generator (j, k)
    holds 1 at (j, k) and (k, j), its antisymmetric partner -i and i there,
    and diagonal generator l holds sqrt(2/(l(l+1))) at (i, i) for i < l and
    -l times that at (l, l).  ``diagonals`` holds each diagonal generator's
    values, (i, i) for i <= l, as views of ``coef``, for
    :func:`_bloch_operators`.
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
    diagonals = tuple(np.split(table[3][4 * pairs:], np.cumsum(np.arange(2, n))))
    return (*table, diagonals)


@lru_cache(maxsize=None, typed=True)
def su_generators(dimension: int) -> np.ndarray:
    """Generalized Gell-Mann basis of su(N), Tr[L_mu L_nu] = 2 delta_mu_nu.

    Returns the read-only stack of the N^2 - 1 matrices, shape (N^2-1, N, N).

    Ordering is canonical: all symmetric off-diagonal matrices, then all
    antisymmetric ones (each set in lexicographic (j, k) order, j < k), then
    the diagonal matrices.  For N = 2 this yields sigma_x, sigma_y, sigma_z.
    """
    n = dimension
    check_dimension(n)
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
    of a real coordinate.  Row j's segments right of and below the
    diagonal take their symmetric generators, then their antisymmetric
    ones, and the diagonal takes each diagonal generator in turn: 5(N - 1)
    in-place sums of products each under 1/N of the stack, so a SIC's N^2
    operators peak at 1.26 stacks at N = 12.
    """
    *_, coef, _, diagonals = _gell_mann_table(dim)
    ops = np.zeros((coords.shape[0], dim, dim), dtype=complex)
    pairs = dim * (dim - 1) // 2
    one, above, below = coef[0], coef[2 * pairs], coef[2 * pairs + 1]  # 1, -i and i
    start = 0
    for j in range(dim - 1):
        # The pairs (j, k), k > j, are a run of each off-diagonal block.
        end = start + dim - 1 - j
        sym, anti = coords[:, start:end], coords[:, pairs + start:pairs + end]
        for segment, antisymmetric in ((ops[:, j, j + 1:], above), (ops[:, j + 1:, j], below)):
            segment += sym * one
            segment += anti * antisymmetric
        start = end
    diagonal = ops.reshape(-1, dim * dim)[:, ::dim + 1]
    for l, values in enumerate(diagonals, start=1):
        diagonal[:, :l + 1] += coords[:, 2 * pairs + l - 1, None] * values
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
    if not imag <= HERM_TOL:  # NaN fails too
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
    beyond tolerance; the symmetrization only guards round-off.  An exactly
    Hermitian matrix is its own symmetrization and is not formed again, so
    entries near the float maximum cannot overflow the sum.
    """
    a = _as_matrix(m)
    dev = _hermitian_deviation(a)
    if not dev <= HERM_TOL:  # NaN fails too
        raise HermiticityError(f"matrix is not Hermitian: deviation {dev:.3e}")
    if dev:
        a = 0.5 * (a + a.conj().T)
    return float(np.linalg.eigvalsh(a)[0])
