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
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.diag_indices(l)] = 1.0
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    return _readonly(mats)


def bloch_from_density(rho) -> BlochVector:
    """Coordinates r_mu = Tr[rho L_mu] of a trace-one Hermitian matrix."""
    m = _as_matrix(rho)
    n = m.shape[0]
    coords = np.einsum("ij,mji->m", m, su_generators(n))
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
    m += 0.5 * np.einsum("m,mij->ij", b.coords, su_generators(n))
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
