"""SIC-POVMs: exact registry, numerical fiducial search, Bloch simplexes.

A SIC-POVM in dimension N is a set of N^2 unit vectors whose squared
overlaps are all 1/(N+1).  All sets handled here are covariant under the
Weyl-Heisenberg displacement group: the full set is the displacement orbit
of a single fiducial vector.  The Bloch directions of the N^2 projectors
form a regular N^2-simplex, which is what the decomposition machinery
consumes.

The search minimizes the squared-overlap residuals directly with a
Gauss-Newton least-squares solver within the eigenvalue-1 eigenspace of
Zauner's order-3 Clifford unitary, where numerical SIC fiducials lie; the
frame potential (quartic overlap sum) is exposed as the certifying
objective, with known global minimum (N^2-1)/(N+1)^2 attained exactly on
SIC fiducials.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blochspace import _bloch_coordinates, _readonly
from .errors import (DimensionMismatchError, FiducialCacheError,
                     FiducialSearchError, NotAFiducialError, ParameterRangeError)
from .params import check_dimension
from .serialize import decode_cmatrix, dumps, encode_cmatrix
from .simplex import DEFAULT_TOL, RegularSimplex

EXACT_REGISTRY = "exact-registry"
OPTIMIZED = "optimized"

# Per provenance: ``overlap`` bounds the deviation of every squared overlap
# from equiangularity; ``certificate`` is both the tolerance of the SIC's
# Bloch simplex and the reconstruction target of decompositions over it.
Tolerances = namedtuple("Tolerances", "overlap certificate")
TOLERANCES = {
    EXACT_REGISTRY: Tolerances(overlap=1e-12, certificate=DEFAULT_TOL),
    OPTIMIZED: Tolerances(overlap=1e-8, certificate=1e-7),
}
# Callers tell an exact-registry SIC by ``SicPovm.tol <= EXACT_TOL``.
EXACT_TOL = TOLERANCES[EXACT_REGISTRY].overlap


@dataclass(frozen=True)
class Provenance:
    """Where a fiducial came from: closed form or a seeded search."""

    kind: str
    seed: int | None = None
    iterations: int | None = None
    residual: float | None = None


@dataclass(frozen=True, eq=False)
class Fiducial:
    """Unit vector whose displacement orbit is (or should be) a SIC-POVM."""

    dim: int
    vector: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        v = _readonly(np.asarray(self.vector, dtype=complex))
        if v.shape != (self.dim,):
            raise DimensionMismatchError(
                f"fiducial vector has shape {v.shape}, expected ({self.dim},)")
        norm = np.linalg.norm(v)
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"fiducial vector norm {norm} is not 1 within 1e-12")
        object.__setattr__(self, "vector", v)

    @property
    def is_exact(self) -> bool:
        return self.provenance.kind == EXACT_REGISTRY


@dataclass(frozen=True, eq=False)
class SicPovm:
    """N^2 equiangular unit vectors plus their Bloch-direction simplex."""

    dim: int
    states: np.ndarray
    bloch: RegularSimplex
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "states",
                           _readonly(np.asarray(self.states, dtype=complex)))


@dataclass(frozen=True)
class FiducialSearchFailure:
    """Search outcome when some squared overlap missed the overlap tolerance."""

    dim: int
    seed: int
    iterations: int
    best_residual: float


@lru_cache(maxsize=None, typed=True)
def _wh_tables(dimension: int) -> tuple:
    """Every displacement D_p = X^j Z^k, p = jN + k, as a gather with phases.

    X is the cyclic shift, Z = diag(exp(2 pi i m / N)) and ph[k] the diagonal
    of Z^k: (D_p z)_i = ph[k, i-j] z_{i-j} and (D_p^dagger z)_i =
    conj(ph[k, i]) z_{i+j}, indices mod N.  Read-only ``(back, ph_back, fwd,
    ph_fwd)``, each (N^2, N): ``ph_back * z[back]`` stacks the D_p z and
    ``ph_fwd * z[fwd]`` the D_p^dagger z."""
    n = dimension
    check_dimension(n)
    z = np.diag(np.exp(2j * np.pi / n) ** np.arange(n))
    # + 0.0 turns a -0 part (N = 32) into the +0 the product I @ Z^k gave.
    ph = np.array([np.linalg.matrix_power(z, k).diagonal() for k in range(n)]) + 0.0
    j, k = np.divmod(np.arange(n * n), n)
    back = (np.arange(n) - j[:, None]) % n
    fwd = (np.arange(n) + j[:, None]) % n
    return tuple(map(_readonly, (back, ph[k[:, None], back], fwd, ph[k].conj())))


@lru_cache(maxsize=None, typed=True)
def wh_displacements(dimension: int) -> np.ndarray:
    """Weyl-Heisenberg displacements D_jk = X^j Z^k, shape (N^2, N, N),
    lexicographic in (j, k) so the identity comes first: the scatter of
    :func:`_wh_tables`, which the library applies by gather instead."""
    back, ph_back = _wh_tables(dimension)[:2]
    d = np.zeros(back.shape + back.shape[1:], dtype=complex)
    np.put_along_axis(d, back[..., None], ph_back[..., None], axis=2)
    return _readonly(d)


@lru_cache(maxsize=None, typed=True)
def zauner_unitary(dimension: int) -> np.ndarray:
    """Zauner's order-3 Clifford unitary U_Z, shape (N, N).

    U_Z = exp(i pi (N-1)/12)/sqrt(N) sum_{r,s} tau^(s^2 + 2rs) |r><s| with
    tau = -exp(i pi/N), the exponent taken mod 2N (tau^(2N) = 1).  With this
    phase U_Z^3 = I, and U_Z maps each displacement D_(j,k) to a phase times
    D_(F(j,k)) with F = [[-1, -1], [1, 0]] mod N.
    """
    n = dimension
    check_dimension(n)
    r = np.arange(n)
    power = (r[None, :] ** 2 + 2 * r[:, None] * r[None, :]) % (2 * n)
    # tau = exp(i pi (N+1)/N); reduce the angle's numerator mod 2N exactly.
    tau_power = np.exp(1j * np.pi * (power * (n + 1) % (2 * n)) / n)
    return _readonly(np.exp(1j * np.pi * (n - 1) / 12) / np.sqrt(n) * tau_power)


@lru_cache(maxsize=None)
def _zauner_lift(dimension: int) -> np.ndarray:
    """Real (2N, 2k) map from Zauner-subspace coordinates to [Re z, Im z].

    The columns of B (N x k, orthonormal) span the eigenvalue-1 eigenspace
    of :func:`zauner_unitary`; as U_Z^3 = I, U_Z^2 = U_Z^dagger and
    P = (I + U_Z + U_Z^dagger)/3 is the Hermitian projector onto it, whose
    eigenvalue-1 eigenvectors are B.  k = floor((N + 3)/3).  The lift sends
    x = [a, b] to z = B (a + i b), written over the reals.
    """
    n = dimension
    u = zauner_unitary(n)
    w, v = np.linalg.eigh((np.eye(n) + u + u.conj().T) / 3.0)
    b = v[:, w > 0.5]
    return _readonly(np.block([[b.real, -b.imag], [b.imag, b.real]]))


def frame_potential_minimum(dimension: int) -> float:
    """Global minimum (N^2-1)/(N+1)^2 of :func:`frame_potential`."""
    n = dimension
    return (n * n - 1.0) / (n + 1.0) ** 2


def frame_potential(f: Fiducial) -> float:
    """Quartic overlap sum over all non-identity displacements.

    Non-negative, bounded below by ``frame_potential_minimum``; the bound is
    attained exactly when the displacement orbit of the vector is a SIC.
    """
    c = _displaced(f)[1:] @ f.vector.conj()
    return float(np.sum(np.abs(c) ** 4))


def _displaced(f: Fiducial) -> np.ndarray:
    """Every D_p f, shape (N^2, N), rounded as the einsum over ``wh_displacements``."""
    back, ph = _wh_tables(f.dim)[:2]
    v = f.vector[back]
    states = np.empty(back.shape, dtype=complex)
    states.real = ph.real * v.real - ph.imag * v.imag
    states.imag = ph.real * v.imag + ph.imag * v.real
    return states + 0.0


def _orbit(f: Fiducial) -> tuple[np.ndarray, float]:
    """Displacement orbit of ``f``, shape (N^2, N), and the worst deviation
    of its squared overlaps from equiangularity."""
    states = _displaced(f)
    overlaps = np.abs(states.conj() @ states.T) ** 2
    # The target (N delta_ij + 1)/(N + 1) is exactly 1 on the diagonal and
    # 1/(N + 1) off it: compared in place, with no dense target.
    diagonal = overlaps.diagonal().copy()
    overlaps -= 1.0 / (f.dim + 1.0)
    np.abs(overlaps, out=overlaps)
    np.fill_diagonal(overlaps, np.abs(diagonal - 1.0))
    return states, float(overlaps.max())


def max_overlap_deviation(f: Fiducial) -> float:
    """Worst deviation of the orbit's squared overlaps from equiangularity."""
    return _orbit(f)[1]


def sic_from_fiducial(f: Fiducial) -> SicPovm:
    """Displacement orbit of a fiducial, checked for equiangularity.

    Every squared overlap may deviate from (N delta_ij + 1)/(N + 1) by at
    most the overlap tolerance of the fiducial's provenance in
    :data:`TOLERANCES`, which the result keeps as ``tol``.  The returned
    Bloch simplex holds the unit Bloch directions of the N^2 projectors and
    carries the certificate tolerance of that provenance.
    """
    n = f.dim
    policy = TOLERANCES[f.provenance.kind]
    states, max_dev = _orbit(f)
    if max_dev > policy.overlap:
        raise NotAFiducialError(
            f"displacement orbit is not equiangular: worst squared-overlap "
            f"deviation {max_dev:.3e} exceeds {policy.overlap:.1e}",
            max_deviation=max_dev)
    # The projectors stay an einsum: a plain multiply rounds some entries
    # differently, and the coordinates must keep every bit.
    projectors = np.einsum("di,dj->dij", states, states.conj())
    coords = _bloch_coordinates(projectors).real
    directions = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    bloch = RegularSimplex(ambient_dim=n * n - 1, vertices=directions,
                           tol=policy.certificate)
    return SicPovm(dim=n, states=states, bloch=bloch, tol=policy.overlap)


def _pair_rows(dimension: int) -> tuple[np.ndarray, np.ndarray]:
    """One displacement index per pair {p, -p}, p != 0, and its row weight.

    D_{-p} is a phase times D_p^dagger, so both give the same squared
    overlap for every vector.  The lexicographically smaller index of each
    pair is kept with weight sqrt(2), a self-paired index (only for even N:
    the three with j, k in {0, N/2}) with weight 1; the weighted rows then
    have the same sum of squares, J^T J and J^T f as all N^2 - 1 rows.
    """
    n = dimension
    p = np.arange(1, n * n)
    j, k = np.divmod(p, n)
    partner = (-j % n) * n + (-k % n)
    keep = p <= partner
    return p[keep], np.where(p[keep] == partner[keep], 1.0, np.sqrt(2.0))


def _overlap_residuals(dimension: int):
    """Residual vector f_p = |<psi|D_p|psi>|^2 - 1/(N+1) and its Jacobian.

    The parameter vector stacks real and imaginary parts of the (not
    necessarily normalized) fiducial; normalization happens inside, so the
    problem is smooth and unconstrained.  The squared residual norm equals
    the frame-potential excess identically, but the residual form lets the
    solver converge to overlap deviations near machine precision instead of
    stalling at the square root of it.

    One weighted row per pair {p, -p} (see :func:`_pair_rows`) keeps the
    Gauss-Newton steps of the full system.  Each row is a gather from
    :func:`_wh_tables`: a call costs O(N^3) and holds no N^4 tensor.
    """
    n = dimension
    rows, weight = _pair_rows(n)
    back, ph_back, fwd, ph_fwd = (t[rows] for t in _wh_tables(n))
    target = 1.0 / (n + 1.0)

    def fun(x):
        z = x[:n] + 1j * x[n:]
        u = np.real(np.vdot(z, z))
        c = ((ph_back * z[back]) @ z.conj()) / u
        return weight * (np.abs(c) ** 2 - target)

    def jac(x):
        z = x[:n] + 1j * x[n:]
        u = np.real(np.vdot(z, z))
        dz = ph_back * z[back]
        dhz = ph_fwd * z[fwd]
        c = (dz @ z.conj()) / u
        scale = (weight / u)[:, None]
        g = (c.conj()[:, None] * (dz - c[:, None] * z[None, :])
             + c[:, None] * (dhz - c.conj()[:, None] * z[None, :])) * scale
        return np.hstack([2.0 * g.real, 2.0 * g.imag])

    return fun, jac


def find_fiducial(dimension: int, seed: int = 0, max_iters: int = 2000
                  ) -> Fiducial | FiducialSearchFailure:
    """Search for a SIC fiducial in the Zauner subspace from one seeded start.

    The Zauner subspace is the eigenvalue-1 eigenspace of
    :func:`zauner_unitary` (about N/3 complex unknowns).  One ``trf``
    least-squares run starts from ``default_rng(seed)``, takes at most
    ``max_iters`` evaluations and succeeds when every squared overlap lies
    within the ``optimized`` overlap tolerance of :data:`TOLERANCES`, the
    bound :func:`sic_from_fiducial` applies.  Either outcome reports the
    residual (frame-potential excess over its global minimum) and the
    run's evaluations.  A success stops on the solver's gradient test; a
    failure stops once its cost stalls (``ftol``), at a local minimum.
    Deterministic given (dimension, seed).  Multi-start searches are the
    caller's loop over seeds.

    ``dimension`` must be at least 2 (:class:`DimensionMismatchError`),
    ``seed`` at least 0 and ``max_iters`` at least 1
    (:class:`ParameterRangeError`); each is checked before scipy loads.
    """
    n = dimension
    check_dimension(n)
    if seed < 0:
        raise ParameterRangeError(f"seed must be >= 0, got {seed}")
    if max_iters < 1:
        raise ParameterRangeError(f"max_iters must be >= 1, got {max_iters}")
    # Imported here: scipy.optimize takes most of a second to load, and only
    # the search needs it.
    from scipy.optimize import least_squares

    fun, jac = _overlap_residuals(n)
    lift = _zauner_lift(n)
    y0 = np.random.default_rng(seed).standard_normal(lift.shape[1])
    # Every success ends on gtol; scipy's ftol test (dF < ftol F with
    # ratio > 0.25) only stops a start stalled at a local minimum.  Over
    # N = 4..35 x seeds 0..19 (one BLAS thread) ftol = 1e-7 still returns
    # every success of ftol = 3e-16 bit for bit and 3e-7 loses N = 9,
    # seed 12: 1e-8 sits 30x below that.
    res = least_squares(lambda y: fun(lift @ y), y0,
                        jac=lambda y: jac(lift @ y) @ lift, method="trf",
                        xtol=3e-16, ftol=1e-8, gtol=3e-16, max_nfev=max_iters)
    nfev, residual = int(res.nfev), max(float(np.sum(res.fun ** 2)), 0.0)
    # Row p holds its weight times |c_p|^2 - 1/(N+1), and |c_-p| = |c_p|: these
    # are every off-diagonal overlap of the orbit, as sic_from_fiducial sees it.
    deviation = np.max(np.abs(res.fun) / _pair_rows(n)[1])
    if not deviation <= TOLERANCES[OPTIMIZED].overlap:  # NaN fails too
        return FiducialSearchFailure(dim=n, seed=seed, iterations=nfev,
                                     best_residual=residual)
    x = lift @ res.x
    z = x[:n] + 1j * x[n:]
    z = z / np.linalg.norm(z)
    return Fiducial(dim=n, vector=z,
                    provenance=Provenance(kind=OPTIMIZED, seed=seed,
                                          iterations=nfev, residual=residual))


def known_fiducial(dimension: int, cache_path: str | os.PathLike | None = None
                   ) -> Fiducial | None:
    """Registry fiducial (exact, N in {2, 3}) or a cached optimized one.

    Returns None when neither source covers a dimension of at least 2
    (below 2, :class:`DimensionMismatchError`).  A cache that holds another
    dimension raises :class:`FiducialCacheError` naming both.
    Cached entries are *not* trusted: a malformed file raises
    :class:`FiducialCacheError`, and a well-formed one is revalidated by
    :func:`sic_from_fiducial` at first use, so a wrong vector surfaces as a
    failed equiangularity check, not as a silent wrong answer.
    """
    check_dimension(dimension)
    if dimension == 2:
        # Bloch direction (1,1,1)/sqrt(3): the qubit tetrahedron apex.
        c = 1.0 / np.sqrt(3.0)
        v = np.array([np.sqrt((1.0 + c) / 2.0),
                      np.exp(1j * np.pi / 4.0) * np.sqrt((1.0 - c) / 2.0)])
        return Fiducial(dim=2, vector=v, provenance=Provenance(kind=EXACT_REGISTRY))
    if dimension == 3:
        v = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        return Fiducial(dim=3, vector=v, provenance=Provenance(kind=EXACT_REGISTRY))
    if cache_path is not None and os.path.exists(cache_path):
        data = load_fiducial_cache(cache_path)
        if data.dim != dimension:
            raise FiducialCacheError(f"fiducial cache {os.fspath(cache_path)} holds "
                                     f"N = {data.dim}, not N = {dimension}")
        return data
    return None


def obtain_sic(dim: int, cache_path: str | os.PathLike | None = None) -> SicPovm:
    """SIC from the registry, else the cache, else a multi-start search.

    The search keeps the first success of :func:`find_fiducial` over seeds
    0..19, so the result is deterministic; each seed is one search in the
    Zauner subspace.  :class:`FiducialSearchError` when every seed fails.
    """
    fid = known_fiducial(dim, cache_path)
    if fid is None:
        for seed in range(20):
            fid = find_fiducial(dim, seed=seed)
            if isinstance(fid, Fiducial):
                break
        else:
            raise FiducialSearchError(
                f"fiducial search failed for N = {dim} over seeds 0..19")
    return sic_from_fiducial(fid)


def load_fiducial_cache(path: str | os.PathLike) -> Fiducial:
    """Read a fiducial from its JSON cache file.

    Malformed content raises :class:`FiducialCacheError`, an unreadable
    file its ``OSError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # -0 as -0.0, so a component keeps its sign; other integers,
            # such as the seed, stay exact.
            data = json.load(fh, parse_int=lambda s: -0.0 if s == "-0" else int(s))
        n, seed, residual = (data[key] for key in ("N", "seed", "residual"))
        # N and seed as JSON integers, not bool; a 0.0 residual is saved as 0.
        if (type(n) is not int or type(seed) is not int or seed < 0
                or type(residual) not in (int, float) or not 0.0 <= residual < np.inf):
            raise ValueError(f"N {n!r}, seed {seed!r} or residual {residual!r} invalid")
        return Fiducial(dim=n, vector=decode_cmatrix(data["vector"]), provenance=Provenance(
            kind=OPTIMIZED, seed=seed, residual=float(residual)))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FiducialCacheError(f"fiducial cache {os.fspath(path)} is malformed: "
                                 f"{type(exc).__name__}: {exc}") from exc


def save_fiducial_cache(path: str | os.PathLike, f: Fiducial) -> None:
    """Write a fiducial to its JSON cache file (17-significant-digit floats).

    A temporary file next to ``path`` replaces it once written, so no reader
    sees a partial file and a failed write keeps the previous cache.  A
    write that fails raises an ``OSError`` whose message names ``path``.
    """
    payload = {"N": f.dim, "vector": encode_cmatrix(f.vector),
               "residual": float(f.provenance.residual or 0.0),
               "seed": int(f.provenance.seed or 0)}
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(dumps(payload))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write fiducial cache {os.fspath(path)}: {exc}") from exc
        raise
