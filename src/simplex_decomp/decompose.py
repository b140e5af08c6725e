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

Every factor stack over one simplex is mixed + (r/2) O for the simplex's
operator stack O = a_i . L, which is built, checked and measured once per
simplex.  A stack that is that affine image bit for bit ties to O: a
:class:`Decomposition` given no stacks ties them by construction and
builds each from O when it is first read, and any given stack is
recomputed from O in blocks of N matrices and compared.
A tied stack inherits O's facts: exact Hermiticity when it is built, and
over a SIC simplex, whose factor pairs form the Weyl-Heisenberg orbit of
the first pair, a bound on its distance from that orbit.  From them
:func:`verify_decomposition` certifies the mixture from its N x N orbit
table, the positivity of every factor from the first pair's spectrum and
the mixture's trace from O's diagonals, all in O(N^3) and without
building a stack; any other stack is certified by the explicit Kronecker
sum of :func:`reconstruct`, one O(N^6) product of the flattened stacks,
and the spectra of all factors.
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
from .params import (RANGE_ATOL, StateKind, admissible_r_interval, check_dimension,
                     check_radius, convert_params, separable_interval)
from .sicpovm import SicPovm, _wh_tables
from .simplex import RegularSimplex
from .states import _closed_form_entries, isotropic_density, werner_density


class _FactorStack:
    """A :class:`Decomposition` stack field, kept in the instance's
    ``__dict__``.  Where none is kept, the first read builds the stack from
    the operator facts the instance tied to, with radius ``(r, s)[index]``,
    and keeps it; threads racing on that read keep one array."""

    def __init__(self, index: int):
        self.index = index

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, d, owner=None):
        if d is None:
            return None  # the field's default
        stack = d.__dict__.get(self.name)
        if stack is None:
            built = d._facts.stack((d.r, d.s)[self.index] / 2.0)
            stack = d.__dict__.setdefault(self.name, built)
        return stack

    def __set__(self, d, stack):
        if stack is not None:  # None leaves the stack to the first read
            d.__dict__[self.name] = stack


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Uniform product mixture over a regular simplex with r s = tau.

    ``factors_r`` and ``factors_s`` stack the M left and right factors; the
    mixture weight of every pair is 1/M.  Given neither, the instance
    builds both, M = N^2, as ``mixed + (radius/2) O`` from its simplex's
    operator stack O with its own radius r or s; the simplex must then have
    ambient dimension N^2 - 1.  A given stack is kept when it is read-only
    and owns its data, and copied otherwise.  ``kind`` is parsed as
    :meth:`StateKind.parse` parses it and ``dim`` checked as
    :func:`~simplex_decomp.params.check_dimension` checks it.  Construction
    raises :class:`DimensionMismatchError` when one stack is given alone,
    or given stacks do not both have the shape (M, dim, dim) with the same
    M >= 1, and :class:`HermiticityError` unless both stacks are finite and
    exactly Hermitian, bit for bit, so every instance is.

    A stack ties when it is, bit for bit, the stack the instance would
    build.  Stacks it builds tie by construction; a given stack is compared
    with that image recomputed in blocks of N matrices, so the check
    allocates N matrices, not a stack.  A stack of another dtype than O's
    does not tie.  A tied stack over an exactly Hermitian O is exactly
    Hermitian when its modulus bound 1/N + |r/2| max|O| is finite, and is
    not checked again: its real parts are equal products, its imaginary
    parts negate exactly, and each diagonal imaginary part is
    0 + (+-0) = +0.  Any other stack is checked entry by entry.  Which
    stacks tie is kept for :func:`verify_decomposition`, with O's facts.

    A stack the instance builds that O's facts vouch for, exactly
    Hermitian by that argument, is built on first read, from those facts,
    and kept read-only: certifying reads O's first factor and diagonal,
    not the stacks.  One they do not vouch for is built and checked at
    construction.  ``n_factors`` and ``weights`` build nothing.
    """

    kind: StateKind
    dim: int
    tau: float
    r: float
    s: float
    simplex: RegularSimplex
    factors_r: np.ndarray | None = _FactorStack(0)
    factors_s: np.ndarray | None = _FactorStack(1)
    _ties: tuple = field(init=False, repr=False)  # (factors_r tied, factors_s tied)

    def __post_init__(self):
        object.__setattr__(self, "kind", StateKind.parse(self.kind))
        check_dimension(self.dim)
        if not abs(self.r * self.s - self.tau) <= RANGE_ATOL:  # NaN fails too
            raise ParameterRangeError(
                f"r*s = {self.r * self.s} does not match tau = {self.tau}")
        n = self.dim
        halves = (self.r / 2.0, self.s / 2.0)
        names = ("factors_r", "factors_s")
        stacks = [self.__dict__.get(name) for name in names]  # as given, building none
        if stacks[0] is None and stacks[1] is None:
            ambient = self.simplex.ambient_dim
            if ambient != n * n - 1:
                raise DimensionMismatchError(
                    f"simplex ambient dimension {ambient} != N^2-1 = {n * n - 1}")
            facts = _operator_facts(self.simplex, n)
            ties = [True, True]
        elif stacks[0] is None or stacks[1] is None:
            raise DimensionMismatchError("give both factor stacks or neither")
        else:
            stacks = [_readonly(stack) for stack in stacks]
            shape_r, shape_s = (stack.shape for stack in stacks)
            if (shape_r != shape_s or len(shape_r) != 3 or shape_r[0] < 1
                    or shape_r[1:] != (n, n)):
                raise DimensionMismatchError(
                    f"factor stacks of shapes {shape_r} and {shape_s}: both must be "
                    f"(M, {n}, {n}) with the same M >= 1")
            fits = self.simplex.ambient_dim == n * n - 1 and shape_r[0] == n * n
            facts = _operator_facts(self.simplex, n) if fits else None
            ties = [facts is not None and facts.ties(stack, h)
                    for stack, h in zip(stacks, halves)]
        object.__setattr__(self, "_facts", facts)
        for name, stack, tied, h in zip(names, stacks, ties, halves):
            if not (tied and facts.hermitian and math.isfinite(facts.modulus_bound(h))):
                if stack is None:
                    stack = facts.stack(h)
                dev = _hermitian_deviation(stack)
                if dev != 0:  # NaN, from an infinite entry, is refused too
                    raise HermiticityError(
                        f"{name} is not exactly Hermitian: deviation {dev:.3e}")
            object.__setattr__(self, name, stack)
        object.__setattr__(self, "_ties", tuple(ties))

    @property
    def n_factors(self) -> int:
        return (self._facts.ops if self._ties[0] else self.factors_r).shape[0]

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
    first read from the stacks of the decomposition the report keeps (or
    kept from the check that needed them), so a caller that reads only the
    verdicts of an orbit-certified decomposition runs no eigensolver over
    the stacks and builds none.  The report keeps its decomposition, and
    so the simplex's operator stack, alive.  The repr and equality read all
    five values, as a plain record's would.
    """

    reconstruction_error: float
    all_factors_psd: bool
    separable_certificate: bool
    _decomposition: Decomposition = field(repr=False, compare=False)

    @cached_property
    def min_eig_r(self) -> float:
        return _stack_min_eig(self._decomposition.factors_r)

    @cached_property
    def min_eig_s(self) -> float:
        return _stack_min_eig(self._decomposition.factors_s)

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

    The :class:`Decomposition` returned builds its own factor stacks, on
    first read, from the simplex's operator stack a_i . L, which is built
    once per simplex object, kept read-only while the simplex lives, and
    shared by every decomposition over it.
    """
    kind = StateKind.parse(kind)
    convert_params(kind, dim, "tau", tau)
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
    return Decomposition(kind=kind, dim=dim, tau=tau, r=r, s=s, simplex=simplex)


_EPS = float(np.finfo(float).eps)


class _OperatorFacts:
    """What every factor stack over one simplex inherits from its read-only
    operator stack ``ops`` = a_i . L: whether it is exactly Hermitian, its
    largest modulus and, computed on first read, its covariance bound.
    :meth:`stack` builds a factor stack from ``ops`` and :meth:`ties` tells
    whether a given one is that stack."""

    def __init__(self, ops: np.ndarray):
        self.ops = ops
        self.hermitian = _hermitian_deviation(ops) == 0
        self.max_modulus = float(np.abs(ops).max())
        n = ops.shape[1]
        self.mixed = np.eye(n, dtype=complex) / n
        self.mixed.setflags(write=False)

    @cached_property
    def deviation(self) -> float:
        """delta_O: max_p |O_p - D_p O_0 D_p^dagger| plus the check's
        rounding allowance of 16 ulps of max|O|."""
        n = self.ops.shape[1]
        return (_covariance_deviation(self.ops, _roots_of_unity(n))
                + _COVARIANCE_ULPS * _EPS * self.max_modulus)

    def modulus_bound(self, half_radius: float) -> float:
        """F^ = (1/N + |h| max|O|)(1 + 4 eps), at least max|F| for the
        stack F = mixed + h O; see :func:`_orbit_bounds`."""
        n = self.ops.shape[1]
        return (1.0 / n + abs(half_radius) * self.max_modulus) * (1.0 + 4 * _EPS)

    def stack(self, half_radius: float) -> np.ndarray:
        """The new frozen stack ``_factor_stack(mixed, half_radius, ops)``."""
        stack = _factor_stack(self.mixed, half_radius, self.ops)
        stack.setflags(write=False)
        return stack

    def first(self, half_radius: float) -> np.ndarray:
        """:meth:`stack`'s first factor bit for bit, from O's first alone."""
        return _factor_stack(self.mixed, half_radius, self.ops[0])

    def traces(self, half_radius: float) -> np.ndarray:
        """``np.trace`` of :meth:`stack`'s factors bit for bit, O(N^3): the
        sums of the factors' diagonals, built from O's diagonals alone."""
        diagonals = self.ops.diagonal(axis1=1, axis2=2)
        return _factor_stack(self.mixed.diagonal(), half_radius, diagonals).sum(-1)

    def ties(self, stack: np.ndarray, half_radius: float) -> bool:
        """True where ``stack`` is :meth:`stack` of ``half_radius`` bit for
        bit, signed zeros included: it is recomputed in blocks of N matrices
        into one N-matrix scratch and compared.  A stack of another dtype
        than ``ops`` does not tie."""
        if stack.dtype != self.ops.dtype:
            return False
        n = self.ops.shape[1]
        scratch = np.empty((n, n, n), dtype=complex)
        bits = np.dtype((np.int64, 2))  # a complex entry's two words, any layout
        for start in range(0, n * n, n):
            _factor_stack(self.mixed, half_radius, self.ops[start:start + n], out=scratch)
            if not np.array_equal(scratch.view(bits), stack[start:start + n].view(bits)):
                return False
        return True


# The operator facts of each live simplex, keyed by identity: a
# RegularSimplex compares by identity, and its entry goes when the simplex
# is collected.
_OPERATOR_FACTS = weakref.WeakKeyDictionary()


def _operator_facts(simplex: RegularSimplex, dim: int) -> _OperatorFacts:
    """The facts of ``simplex``'s read-only operator stack
    ``_bloch_operators(simplex.vertices, dim)``, built and checked on the
    first call for ``simplex``."""
    facts = _OPERATOR_FACTS.get(simplex)
    if facts is None:
        ops = _bloch_operators(simplex.vertices, dim)
        ops.setflags(write=False)
        # Racing threads keep one, so every stack over a simplex is built
        # from one operator stack.
        facts = _OPERATOR_FACTS.setdefault(simplex, _OperatorFacts(ops))
    return facts


def _factor_stack(mixed: np.ndarray, half_radius: float, ops: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """``mixed + half_radius * ops`` bit for bit, in ``out`` or a new stack,
    with the sum written over the product instead of into a second one."""
    out = np.multiply(half_radius, ops, out=out)
    return np.add(mixed, out, out=out)


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


# Rounding allowance of the covariance check of a stack F, in units of
# eps * max|F|; it runs once per simplex, on the operator stack O.
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


def _orbit_bounds(facts: _OperatorFacts, half_radius: float) -> tuple[float, float]:
    """(F^, delta_F) for a tied stack F = mixed + h O, h = ``half_radius``:
    max|F| <= F^, and F is within delta_F per entry of the displaced first
    factor, max_p |F_p - D_p F_0 D_p^dagger| <= delta_F, with no pass over F.

    With u = eps/2, m = fl(1/N) on the diagonal of ``mixed`` and M = max|O|:
    fl(h x) rounds each part of an entry x of O once (the other product
    with 0 is exact), so within u |h| M; adding m rounds only the diagonal's
    real part, within u (m + |h| M)(1 + u); every other sum is with 0, so
    exact.  So F_p = m id + h O_p + E_p with |E_p| <= 2u (1 + u)(m + |h| M),
    and |F| <= (1 + u)^2 (m + |h| M).  A computed M is within 2u of exact
    and F^ carries three roundings, so (1 + 4 eps) = (1 + 8u) keeps F^ above
    both bounds: |E_p| <= eps F^.

    D_p m id D_p^dagger = m id exactly, and conjugation by D_p moves and
    rephases entries without changing their moduli, so
    F_p - D_p F_0 D_p^dagger = h (O_p - D_p O_0 D_p^dagger) + E_p
    - D_p E_0 D_p^dagger, within |h| delta_O + 2 eps F^: F_p and F_0 carry
    two roundings each.  Forming delta_F = |h| delta_O + c u F^ rounds twice
    and loses at most eps (|h| delta_O + c u F^), where
    delta_O <= 2.01 max|O| and so |h| delta_O <= 2.01 F^.  c = 10
    (5 eps) covers both: 5 eps F^ (1 - eps) >= 2 eps F^ + 2.01 eps F^.
    """
    f_hat = facts.modulus_bound(half_radius)
    return f_hat, abs(half_radius) * facts.deviation + 5 * _EPS * f_hat


def _orbit_error(d: Decomposition, entries: tuple, target_tol: float
                 ) -> tuple[float, list, list] | None:
    """The orbit route's reconstruction error with the first factors
    [R_0, S_0] and [delta_R, delta_S], or None where it cannot certify
    ``d`` at ``target_tol``.

    The route needs both stacks tied to the simplex's operator stack O,
    whose covariance bound delta_O is measured once per simplex; a tied
    stack's bounds follow from it, and its first factor from O's, with no
    pass over the stack (:func:`_orbit_bounds`).  Tied stacks have N^2
    factors, one per vertex.  The stacks' mixture differs from the orbit
    mixture of R_0 and S_0 by at most R^ delta_S + S^ delta_R
    + delta_R delta_S per entry; the route certifies when the table's
    error plus that gap is within the gate.
    """
    if not all(d._ties):
        return None
    halves = (d.r / 2.0, d.s / 2.0)
    (r_hat, delta_r), (s_hat, delta_s) = (_orbit_bounds(d._facts, h) for h in halves)
    gap = r_hat * delta_s + s_hat * delta_r + delta_r * delta_s
    firsts = [d._facts.first(h) for h in halves]
    # Both the orbit mixture and the closed form are 0 off the table's
    # support, so this is the max over all N^4 entries, bit for bit.
    table = _orbit_support(d.kind, *firsts)
    err = float(np.abs(table - _closed_table(d.kind, d.dim, entries)).max())
    return (err, firsts, [delta_r, delta_s]) if err + gap <= target_tol else None


def _orbit_psd(n: int, firsts: list, deltas: list) -> bool:
    """True where Weyl's inequality puts every factor at or above -PSD_TOL.

    Factor p is within delta per entry of D_p F_0 D_p^dagger, whose spectrum
    is F_0's, so within N delta in spectral norm, and its smallest
    eigenvalue is at least that of F_0 less N delta.  N delta is at least
    5 N ulps of F^ and |h| times 16 N ulps of max|O|, beyond the rounding
    of the eigensolvers.  False says only that the bound does not reach
    the gate.
    """
    lows = [float(np.linalg.eigvalsh(f0)[0]) - n * delta for f0, delta in zip(firsts, deltas)]
    return bool(min(lows) >= -PSD_TOL)


def verify_decomposition(d: Decomposition, target_tol: float | None = None
                         ) -> VerificationReport:
    """Compare the factor pairs' mixture with the closed-form state.

    The closed form's entries come from the swap-operator (Werner) or
    maximally-entangled-projector (isotropic) formula, a code path disjoint
    from the factor sums used here, so agreement is a genuine two-route
    check.  The mixture is read one of two ways:

    * the orbit route, for two stacks that tie to their simplex's
      operator stack O (every decomposition that builds its own stacks):
      the first pair comes from O's first operator, and how far each
      factor is from the displaced first one follows from O's covariance
      bound, measured once per simplex, and from r or s, with no pass over
      the stacks and without building one.  Over a
      :func:`~simplex_decomp.sicpovm.sic_from_fiducial` simplex, whose
      stacks are the Weyl-Heisenberg orbit of their first pair in
      ``_wh_tables`` order, that bound is a few ulps.  The route compares
      the orbit's N x N table with the closed form in the same
      coordinates; both are 0 off the table's support.  It decides when
      that error plus the bound on the gap between the two mixtures is at
      most ``target_tol``, and the error is ``reconstruction_error``;
    * otherwise the dense route: the Kronecker sum of :func:`reconstruct`,
      O(N^6), of any trace, whose error is ``reconstruction_error``.

    The separable certificate also demands PSD factors, an error of at
    most ``target_tol``, by default the simplex's ``tol`` (over a SIC, the
    certificate tolerance of its provenance), and a mixture whose trace is
    within ``HERM_TOL`` of 1, as :func:`reconstruct` demands; a tied
    stack's traces are summed from O's diagonals, O(N^3), bit for bit the
    stack's.  Where the orbit route decides, the factors are PSD when the
    smallest eigenvalues of R_0 and S_0, less N delta_R and N delta_S, are
    at least -PSD_TOL: two N x N eigensolves.  Otherwise the full stacks'
    minima decide, as the report's ``min_eig_r`` and ``min_eig_s`` print
    them; the orbit bound says PSD only where those minima do.  Only the
    dense route and the full stacks' minima read the stacks, building any
    not yet built; the report keeps ``d``, so its minima read the same
    stacks.
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
        err, firsts, deltas = orbit
        all_psd = _orbit_psd(d.dim, firsts, deltas)
    minima = {}
    if not all_psd:
        minima = {"min_eig_r": _stack_min_eig(d.factors_r),
                  "min_eig_s": _stack_min_eig(d.factors_s)}
        all_psd = minima["min_eig_r"] >= -PSD_TOL and minima["min_eig_s"] >= -PSD_TOL
    # The mixture's trace, sum_i tr R_i tr S_i / M, within DensityMatrix's
    # bound; a tied stack's traces come from O's diagonals.
    tr_r, tr_s = (d._facts.traces(radius / 2.0) if tied
                  else np.trace(getattr(d, name), axis1=1, axis2=2)
                  for name, radius, tied in zip(("factors_r", "factors_s"), (d.r, d.s), d._ties))
    unit_trace = abs(tr_r @ tr_s / d.n_factors - 1.0) <= HERM_TOL
    report = VerificationReport(reconstruction_error=err, all_factors_psd=all_psd,
                                separable_certificate=bool(all_psd and err <= target_tol
                                                           and unit_trace),
                                _decomposition=d)
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
