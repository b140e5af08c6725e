"""Product decompositions of Werner and isotropic states over simplexes.

Given any regular N^2-simplex of unit vectors a_i in Bloch space, the
trace-one Hermitian factors

    R_i(r) = id/N + (r/2) a_i . L ,   S_i(s) = id/N + (s/2) a_i . L

reproduce the tau-parameterized Werner state as the uniform product mixture
sum_i (1/N^2) R_i (x) S_i whenever r s = tau (isotropic: transpose the
second factor).  The factors need not be positive; they all are exactly
when both r and s lie in the closed positivity interval along pure
directions, which requires the simplex to come from a SIC-POVM and tau to
lie in the separable interval [-2/N, 2(N-1)/N].  Then every point of the
hyperbola r s = tau with admissible r yields an explicit separable
decomposition.

Over a SIC simplex the factor pairs form the Weyl-Heisenberg orbit of the
first pair, and :func:`verify_decomposition` certifies such a mixture from
its N x N orbit table in O(N^4), and the positivity of every factor from
the first pair's spectrum; any other stack is certified by the explicit
Kronecker sum of :func:`reconstruct`, one O(N^6) product of the flattened
stacks, and the spectra of all factors.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .blochspace import (HERM_TOL, PSD_TOL, DensityMatrix, _bloch_operators,
                         _hermitian_deviation, _readonly)
from .errors import (CertificateError, DimensionMismatchError,
                     HermiticityError, NotSeparableError, ParameterRangeError)
from .params import (RANGE_ATOL, StateKind, admissible_r_interval,
                     check_radius, convert_params, separable_interval)
from .sicpovm import SicPovm, _wh_tables
from .simplex import RegularSimplex
from .states import _closed_form_entries, isotropic_density, werner_density


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Uniform product mixture over a regular simplex with r s = tau.

    ``factors_r`` and ``factors_s`` stack the M left and right factors
    (M = N^2 from :func:`decompose`); the mixture weight of every pair is
    1/M.  A stack is kept when it is read-only and owns its data, and
    copied otherwise.  Construction raises :class:`DimensionMismatchError`
    unless both stacks have the shape (M, dim, dim) with the same M >= 1,
    and :class:`HermiticityError` unless both are finite and exactly
    Hermitian, bit for bit, so every instance is; the stacks
    :func:`decompose` builds are.
    """

    kind: StateKind
    dim: int
    tau: float
    r: float
    s: float
    simplex: RegularSimplex
    factors_r: np.ndarray
    factors_s: np.ndarray

    def __post_init__(self):
        if not abs(self.r * self.s - self.tau) <= RANGE_ATOL:  # NaN fails too
            raise ParameterRangeError(
                f"r*s = {self.r * self.s} does not match tau = {self.tau}")
        stacks = {name: _readonly(getattr(self, name)) for name in ("factors_r", "factors_s")}
        shape_r, shape_s = (stack.shape for stack in stacks.values())
        if (shape_r != shape_s or len(shape_r) != 3 or shape_r[0] < 1
                or shape_r[1:] != (self.dim, self.dim)):
            raise DimensionMismatchError(
                f"factor stacks of shapes {shape_r} and {shape_s}: both must be "
                f"(M, {self.dim}, {self.dim}) with the same M >= 1")
        for name, stack in stacks.items():
            dev = _hermitian_deviation(stack)
            if dev != 0:  # NaN, from an infinite entry, is refused too
                raise HermiticityError(
                    f"{name} is not exactly Hermitian: deviation {dev:.3e}")
            object.__setattr__(self, name, stack)

    @property
    def n_factors(self) -> int:
        return self.factors_r.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_factors, 1.0 / self.n_factors)


def _stack_min_eig(stack: np.ndarray) -> float:
    """Smallest eigenvalue over a stack of exactly Hermitian matrices."""
    return float(np.linalg.eigvalsh(stack)[:, 0].min())


@dataclass(frozen=True)
class VerificationReport:
    """Reconstruction error against the closed form plus factor positivity.

    ``reconstruction_error`` is the max-norm error of the mixture that
    :func:`verify_decomposition`'s route read: the orbit table or the
    Kronecker sum of the stacks.  ``min_eig_r`` and ``min_eig_s``
    are the smallest eigenvalues over the full factor stacks, computed on
    first read from the stacks the report keeps (or kept from the check
    that needed them), so a caller that reads only the verdicts of an
    orbit-certified decomposition runs no eigensolver over the stacks.
    The repr and equality read all five values, as a plain record's would.
    """

    reconstruction_error: float
    all_factors_psd: bool
    separable_certificate: bool
    _stacks: tuple = field(repr=False, compare=False)  # (factors_r, factors_s)

    @cached_property
    def min_eig_r(self) -> float:
        return _stack_min_eig(self._stacks[0])

    @cached_property
    def min_eig_s(self) -> float:
        return _stack_min_eig(self._stacks[1])

    def _values(self) -> dict:
        names = ("reconstruction_error", "min_eig_r", "min_eig_s",
                 "all_factors_psd", "separable_certificate")
        return {name: getattr(self, name) for name in names}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in self._values().items())
        return f"{type(self).__name__}({body})"


def decompose(kind, dim: int, tau: float, r: float,
              simplex: RegularSimplex) -> Decomposition:
    """Build the product mixture over an arbitrary regular N^2-simplex.

    Valid for every tau in the family range and every finite r; the
    resulting factors are not required to be positive semidefinite.  ``s``
    is derived as tau/r (and set to 0 when tau is 0, where any r works).
    The simplex is not checked again: a :class:`RegularSimplex` is regular
    at its ``tol`` from construction.

    The operator stack a_i . L is built once per simplex object, kept
    read-only while the simplex lives, and shared by every decomposition
    over it; each factor stack is a new array, mixed + (r/2) ops.
    """
    kind = StateKind.parse(kind)
    convert_params(kind, dim, "tau", tau)
    if simplex.ambient_dim != dim * dim - 1:
        raise DimensionMismatchError(
            f"simplex ambient dimension {simplex.ambient_dim} != N^2-1 = {dim * dim - 1}")
    tau = float(tau)
    r = float(r)
    if not math.isfinite(r):
        raise ParameterRangeError(
            f"r = {r} is {'not a number' if math.isnan(r) else 'infinite'}")
    if tau == 0.0:
        s = 0.0
    elif r == 0.0:
        raise ParameterRangeError(f"r = 0 cannot realize tau = {tau} on the contour r*s = tau")
    else:
        s = tau / r
    ops = _simplex_operators(simplex, dim)
    mixed = np.eye(dim, dtype=complex) / dim
    factors_r, factors_s = (_factor_stack(mixed, radius / 2.0, ops) for radius in (r, s))
    return Decomposition(kind=kind, dim=dim, tau=tau, r=r, s=s, simplex=simplex,
                         factors_r=factors_r, factors_s=factors_s)


# Operator stack of each live simplex, keyed by identity: a RegularSimplex
# compares by identity, and its entry goes when the simplex is collected.
_OPERATORS = weakref.WeakKeyDictionary()


def _simplex_operators(simplex: RegularSimplex, dim: int) -> np.ndarray:
    """The read-only stack ``_bloch_operators(simplex.vertices, dim)``,
    built on the first call for ``simplex``."""
    ops = _OPERATORS.get(simplex)
    if ops is None:
        ops = _bloch_operators(simplex.vertices, dim)
        ops.setflags(write=False)
        _OPERATORS[simplex] = ops
    return ops


def _factor_stack(mixed: np.ndarray, half_radius: float, ops: np.ndarray) -> np.ndarray:
    """``mixed + half_radius * ops`` bit for bit, read-only, with the sum
    written over the product instead of into a second new stack."""
    stack = np.multiply(half_radius, ops)
    np.add(mixed, stack, out=stack)
    stack.setflags(write=False)
    return stack


def reconstruct(d: Decomposition) -> DensityMatrix:
    """Explicit weighted Kronecker sum of the factor pairs.

    Sums the stacks themselves, sharing no code with the swap-operator and
    projector formulas of the state constructors, so it serves as an
    independent oracle against them.  A sum whose trace is not 1 raises
    :class:`HermiticityError`.
    """
    return DensityMatrix(_kronecker_sum(d))


def _kronecker_sum(d: Decomposition) -> np.ndarray:
    """The read-only matrix :func:`reconstruct` wraps, of any trace."""
    n, m = d.dim, d.n_factors
    rights = d.factors_s.transpose(0, 2, 1) if d.kind is StateKind.ISOTROPIC else d.factors_s
    # [(a, b), (c, d)] of one product of the flattened stacks is
    # sum_i R_i[a, b] S_i[c, d], the entry [(a, c), (b, d)] of the sum.
    sums = d.factors_r.reshape(m, n * n).T @ rights.reshape(m, n * n)
    rho = np.empty((n * n, n * n), dtype=complex)
    np.divide(sums.reshape(n, n, n, n).transpose(0, 2, 1, 3), m, out=rho.reshape(n, n, n, n))
    rho.setflags(write=False)
    return rho


def separable_decompose(kind, dim: int, tau: float, r: float,
                        sic: SicPovm) -> Decomposition:
    """Explicit separable decomposition over a SIC Bloch simplex.

    Requires tau in the separable interval and r in the admissible set, so
    every factor is positive semidefinite by construction.  The SIC comes
    from :func:`~simplex_decomp.sicpovm.obtain_sic`.  The radius passes
    :func:`~simplex_decomp.params.check_radius` first.
    """
    kind = StateKind.parse(kind)
    if sic.dim != dim:
        raise DimensionMismatchError(f"SIC dimension {sic.dim} != requested {dim}")
    check_radius(dim, tau, r)
    return decompose(kind, dim, tau, r, sic.bloch)


# Rounding allowance of the covariance check, in units of eps * max|F|.
# Each phase of `_roots_of_unity` is within 4 eps of exact (against 100-bit
# values for N = 2..89, 100, 128, 200 and 300 the worst is 3.3 eps), so the
# two phases of a conjugation add 8 eps; the gather's two complex products
# add 2 sqrt(2) eps, and the difference with the stack and its modulus, of
# size at most 2 max|F|, 4 eps more.
_COVARIANCE_ULPS = 16


def _roots_of_unity(n: int) -> np.ndarray:
    """(N, N) table of exp(2 pi i k m / N), each within 4 eps of exact.

    The exponent k m is reduced mod N into (-N/2, N/2], so the angle stays
    within pi and carries three roundings.  The phases of
    ``sicpovm._wh_tables`` are the search's powers of one rounded root,
    which drift up to 380 eps from exact by N = 30.
    """
    t = np.arange(n)[:, None] * np.arange(n) % n
    angle = 2.0 * np.pi * np.where(2 * t > n, t - n, t) / n
    return np.cos(angle) + 1j * np.sin(angle)


def _covariance_deviation(stack: np.ndarray, roots: np.ndarray) -> float:
    """max_p |F_p - D_p F_0 D_p^dagger| over a stack in ``_wh_tables`` order.

    For p = jN + k, (D_p F D_p^dagger)[i, l] = w^(k (i-j)) F[i-j, l-j]
    w^(-k (l-j)) with w = exp(2 pi i / N): a read-only gather with phases,
    with no matrix product, into one stack-sized scratch array.  The shift
    depends on j alone, so F_0 is gathered once per shift, O(N^3), and the
    phases broadcast it over k.
    """
    n = stack.shape[1]
    back = _wh_tables(n)[0]  # [p, i]: i - j mod N
    phase = roots[(np.arange(n * n) % n)[:, None], back].reshape(n, n, n)  # [j, k, i]
    shifted = stack[0][back[::n, :, None], back[::n, None, :]]  # [j, i, l]: F[i-j, l-j]
    image = np.multiply(shifted[:, None], phase[..., None])
    image *= phase.conj()[:, :, None, :]
    image = image.reshape(stack.shape)
    return float(np.abs(np.subtract(stack, image, out=image)).max())


def _orbit_support(kind: StateKind, r0: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """(N, N) table M(u, v) of the orbit mixture sum_p D_p R_0 D_p^dagger (x)
    D_p S_0 D_p^dagger / N^2 (isotropic: the second factor transposed).

    Summing over the displacements leaves the entry <a, b| . |a+u, b-u>
    (isotropic: |a+u, b+u>) equal to M(u, b-a), with
    M(u, v) = (1/N) sum_x R_0(x, x+u) S_0(x+v, x+v-u) (isotropic:
    S_0(x+v+u, x+v)), and every other entry exactly 0.  M is summed term
    by term in x, O(N^3).
    """
    n = r0.shape[0]
    x = np.arange(n)
    u = x[:, None, None]
    shifted = (x[:, None] + x) % n  # [u, x] or [v, x]: x + u or x + v
    left = r0[x, shifted]  # [u, x]: R_0(x, x+u)
    if kind is StateKind.WERNER:
        right = s0[shifted, (shifted - u) % n]  # [u, v, x]
    else:
        right = s0[(shifted + u) % n, shifted]
    return np.sum(left[:, None, :] * right, axis=-1) / n


def _closed_table(kind: StateKind, n: int, entries: tuple) -> np.ndarray:
    """The closed form with ``entries`` (diag, shared, off) in
    :func:`_orbit_support`'s (u, v) coordinates, off whose support it is 0:
    id on u = 0, the swap on v = u (Werner) or the projector on v = 0
    (isotropic), and the places (ii, ii) they share at (0, 0)."""
    diag, shared, off = entries
    table = np.zeros((n, n), dtype=complex)
    table[0] = diag
    u = np.arange(n)
    table[u, u if kind is StateKind.WERNER else 0] = off
    table[0, 0] = shared
    return table


def _orbit_error(d: Decomposition, entries: tuple, target_tol: float
                 ) -> tuple[float, float, float] | None:
    """The orbit route's reconstruction error with delta_R and delta_S, or
    None where it cannot certify ``d`` at ``target_tol``.

    The stacks' mixture differs from the orbit mixture of R_0 and S_0 by at
    most max|R| delta_S + max|S| delta_R + delta_R delta_S per entry, with
    delta the covariance deviation plus its rounding allowance; the route
    certifies when the table's error plus that gap is within the gate.
    """
    n = d.dim
    if d.n_factors != n * n:
        return None
    roots = _roots_of_unity(n)
    ulps = _COVARIANCE_ULPS * np.finfo(float).eps
    r_max, s_max = (float(np.abs(f).max()) for f in (d.factors_r, d.factors_s))
    delta_r = _covariance_deviation(d.factors_r, roots) + ulps * r_max
    delta_s = _covariance_deviation(d.factors_s, roots) + ulps * s_max
    gap = r_max * delta_s + s_max * delta_r + delta_r * delta_s
    # Both the orbit mixture and the closed form are 0 off the table's
    # support, so this is the max over all N^4 entries, bit for bit.
    table = _orbit_support(d.kind, d.factors_r[0], d.factors_s[0])
    err = float(np.abs(table - _closed_table(d.kind, n, entries)).max())
    return (err, delta_r, delta_s) if err + gap <= target_tol else None


def _orbit_psd(d: Decomposition, delta_r: float, delta_s: float) -> bool:
    """True where Weyl's inequality puts every factor at or above -PSD_TOL.

    Factor p is within delta per entry of D_p F_0 D_p^dagger, whose spectrum
    is F_0's, so within N delta in spectral norm, and its smallest
    eigenvalue is at least that of F_0 less N delta.  N delta is at least
    16 N ulps of max|F|, beyond the rounding of the eigensolvers.  False
    says only that the bound does not reach the gate.
    """
    lows = [float(np.linalg.eigvalsh(f[0])[0]) - d.dim * delta
            for f, delta in ((d.factors_r, delta_r), (d.factors_s, delta_s))]
    return bool(min(lows) >= -PSD_TOL)


def verify_decomposition(d: Decomposition, target_tol: float | None = None
                         ) -> VerificationReport:
    """Compare the factor pairs' mixture with the closed-form state.

    The closed form's entries come from the swap-operator (Werner) or
    maximally-entangled-projector (isotropic) formula, a code path disjoint
    from the factor sums used here, so agreement is a genuine two-route
    check.  The mixture is read one of two ways:

    * the orbit route, for stacks that are the Weyl-Heisenberg orbit of
      their first pair in ``_wh_tables`` order (every decomposition over a
      :func:`~simplex_decomp.sicpovm.sic_from_fiducial` simplex): it
      measures how far each factor is from the displaced first one, and
      compares the orbit's N x N table with the closed form in the same
      coordinates; both are 0 off the table's support.  It decides when
      that error plus the bound on the gap between the two mixtures is at
      most ``target_tol``, and the error is ``reconstruction_error``;
    * otherwise the dense route: the Kronecker sum of :func:`reconstruct`,
      O(N^6), of any trace, whose error is ``reconstruction_error``.

    The separable certificate also demands PSD factors, an error of at
    most ``target_tol``, by default the simplex's ``tol`` (over a SIC, the
    certificate tolerance of its provenance), and a mixture whose trace is
    within ``HERM_TOL`` of 1, as :func:`reconstruct` demands.  Where the
    orbit route decides, the factors are PSD when the smallest eigenvalues
    of R_0 and S_0, less N delta_R and N delta_S, are at least -PSD_TOL:
    two N x N eigensolves.  Otherwise the full stacks' minima decide, as
    the report's ``min_eig_r`` and ``min_eig_s`` print them; the orbit
    bound says PSD only where those minima do.
    """
    if target_tol is None:
        target_tol = d.simplex.tol
    name = "phi" if d.kind is StateKind.WERNER else "eta"
    value = getattr(convert_params(d.kind, d.dim, "tau", d.tau), name)
    orbit = _orbit_error(d, _closed_form_entries(d.dim, name, value), target_tol)
    if orbit is None:
        build = werner_density if d.kind is StateKind.WERNER else isotropic_density
        err = float(np.abs(_kronecker_sum(d) - build(d.dim, **{name: value}).entries).max())
        all_psd = False
    else:
        err, delta_r, delta_s = orbit
        all_psd = _orbit_psd(d, delta_r, delta_s)
    minima = {}
    if not all_psd:
        minima = {"min_eig_r": _stack_min_eig(d.factors_r),
                  "min_eig_s": _stack_min_eig(d.factors_s)}
        all_psd = minima["min_eig_r"] >= -PSD_TOL and minima["min_eig_s"] >= -PSD_TOL
    # The mixture's trace, sum_i tr R_i tr S_i / M, within DensityMatrix's bound.
    tr_r, tr_s = (np.trace(f, axis1=1, axis2=2) for f in (d.factors_r, d.factors_s))
    unit_trace = abs(tr_r @ tr_s / d.n_factors - 1.0) <= HERM_TOL
    report = VerificationReport(reconstruction_error=err, all_factors_psd=all_psd,
                                separable_certificate=bool(all_psd and err <= target_tol
                                                           and unit_trace),
                                _stacks=(d.factors_r, d.factors_s))
    report.__dict__.update(minima)  # the minima read here, as the properties cache them
    return report


def certify(d: Decomposition, target_tol: float | None = None) -> VerificationReport:
    """Verify ``d`` once; raise :class:`CertificateError` unless certified.

    ``target_tol`` is passed to :func:`verify_decomposition` as given.
    """
    report = verify_decomposition(d, target_tol=target_tol)
    if not report.separable_certificate:
        raise CertificateError(f"certificate failed at r = {d.r}: {report}",
                               report=report)
    return report


def contour_radii(dim: int, tau: float, k: int) -> list[float]:
    """k radii spread uniformly in r across the admissible branches.

    When the admissible set degenerates to isolated points (tau at an
    endpoint of the separable interval), the unique radii are returned --
    possibly fewer than k -- and a multiplicity note is emitted as a warning.
    """
    if k < 1:
        raise ParameterRangeError(f"sample count must be >= 1, got {k}")
    intervals = admissible_r_interval(dim, tau)
    if not intervals:  # an explicit raise, so it holds under python -O
        raise NotSeparableError(
            f"no admissible radius for tau = {tau} inside the separable interval "
            f"{list(separable_interval(dim))}")
    lengths = [b - a for a, b in intervals]
    total = sum(lengths)
    if total <= RANGE_ATOL:
        points = sorted({0.5 * (a + b) for a, b in intervals})
        warnings.warn(
            f"contour r*s = {tau} is degenerate: only {len(points)} "
            f"decomposition(s) exist at r in {points} (requested {k})",
            stacklevel=3)
        return points[:k]
    positions = [0.5 * total] if k == 1 else list(np.linspace(0.0, total, k))
    radii = []
    for t in positions:
        rem = t
        for idx, ((a, b), ln) in enumerate(zip(intervals, lengths)):
            if rem <= ln + 1e-15 or idx == len(intervals) - 1:
                radii.append(min(a + rem, b))
                break
            rem -= ln
    return radii


def contour_sample(kind, dim: int, tau: float, k: int, sic: SicPovm,
                   target_tol: float | None = None) -> list[Decomposition]:
    """k decompositions at :func:`contour_radii`, each passed through
    :func:`certify`."""
    kind = StateKind.parse(kind)
    radii = contour_radii(dim, tau, k)
    out = [decompose(kind, dim, tau, r, sic.bloch) for r in radii]
    for d in out:
        certify(d, target_tol)
    return out
