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
operator stack O = a_i . L, built, checked and measured once per simplex.
A :class:`Decomposition` given no stacks builds each from O on its first
read, so its stacks inherit O's exact Hermiticity and, over a SIC simplex,
whose factor pairs form the Weyl-Heisenberg orbit of the first pair, a
bound on their distance from that orbit.  From the first pair and that
bound :func:`verify_decomposition` certifies the mixture (its N x N orbit
table), every factor's positivity and the mixture's trace in O(N^3),
building no stack.  Given stacks are checked entry by entry and certified
by the Kronecker sum of :func:`reconstruct`, O(N^6), and the spectra of
all factors.  :func:`contour_sample` certifies the decompositions of a
contour, which share kind, N, tau and O, in one pass with scratch within
one stack, and each gets the report :func:`verify_decomposition` gives it
alone.
"""

from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .blochspace import (HERM_TOL, PSD_TOL, DensityMatrix, _bloch_operators,
                         _hermitian_deviation, _readonly)
from .errors import (CertificateError, DimensionMismatchError,
                     HermiticityError, NotSeparableError, ParameterRangeError)
from .params import (RANGE_ATOL, StateKind, admissible_r_interval, check_radius,
                     check_sample_count, convert_params, separable_interval)
from .sicpovm import SicPovm, _wh_tables
from .simplex import RegularSimplex
from .states import _closed_form_entries, _scatter


class _FactorStack:
    """A :class:`Decomposition` stack field, kept in the instance's
    ``__dict__``.  Where none is kept, the first read builds the stack from
    the instance's operator facts, with radius ``(r, s)[index]``, and keeps
    it; threads racing on that read keep one array."""

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
    mixture weight of every pair is 1/M.  Given neither, the instance is
    built: it builds both, M = N^2, as ``mixed + (radius/2) O`` from its
    simplex's operator stack O with its own radius r or s, and the simplex
    must have ambient dimension N^2 - 1.  Given both, it is explicit: a
    given stack is kept when it is read-only and owns its data, and copied
    otherwise.  ``kind`` is parsed as :meth:`StateKind.parse` parses it,
    ``dim`` and ``tau`` (within the family's range) checked as
    :func:`~simplex_decomp.params.convert_params` checks them.
    Construction raises :class:`DimensionMismatchError` when one stack is
    given alone, or given stacks do not both have the shape (M, dim, dim)
    with the same M >= 1, and :class:`HermiticityError` unless both stacks
    are finite and exactly Hermitian, bit for bit, so every instance is.

    A built instance keeps O's facts for :func:`verify_decomposition`.  O
    is checked once per simplex, and a radius whose modulus bound
    1/N + |r/2| max|O| overflows is refused, so each stack it builds, on
    first read and kept read-only, is exactly Hermitian unchecked: its
    real parts are equal products, its imaginary parts negate exactly, and
    each diagonal imaginary part is 0 + (+-0) = +0.  Only given stacks are
    checked.  ``n_factors`` and ``weights`` build nothing.
    """

    kind: StateKind
    dim: int
    tau: float
    r: float
    s: float
    simplex: RegularSimplex
    factors_r: np.ndarray | None = _FactorStack(0)
    factors_s: np.ndarray | None = _FactorStack(1)

    def __post_init__(self):
        object.__setattr__(self, "kind", StateKind.parse(self.kind))
        convert_params(self.kind, self.dim, "tau", self.tau)
        if not abs(self.r * self.s - self.tau) <= RANGE_ATOL:  # NaN fails too
            raise ParameterRangeError(
                f"r*s = {self.r * self.s} does not match tau = {self.tau}")
        n = self.dim
        names = ("factors_r", "factors_s")
        stacks = [self.__dict__.get(name) for name in names]  # as given, building none
        facts = None  # set exactly when built
        if stacks[0] is None and stacks[1] is None:
            ambient = self.simplex.ambient_dim
            if ambient != n * n - 1:
                raise DimensionMismatchError(
                    f"simplex ambient dimension {ambient} != N^2-1 = {n * n - 1}")
            facts = _operator_facts(self.simplex, n)
            for name, radius in zip(names, (self.r, self.s)):
                if not math.isfinite(facts.modulus_bound(radius / 2.0)):
                    raise HermiticityError(f"{name} overflows at radius {radius!r}")
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
            for name, stack in zip(names, stacks):
                dev = _hermitian_deviation(stack)
                if dev != 0:  # NaN, from an infinite entry, is refused too
                    raise HermiticityError(
                        f"{name} is not exactly Hermitian: deviation {dev:.3e}")
                object.__setattr__(self, name, stack)
        object.__setattr__(self, "_facts", facts)

    @property
    def n_factors(self) -> int:
        return (self.factors_r if self._facts is None else self._facts.ops).shape[0]

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
    Kronecker sum of the stacks.  ``min_eig_r`` and ``min_eig_s`` are the
    smallest eigenvalues over the full factor stacks of the decomposition
    the report keeps, computed on first read (or kept from the check that
    needed them), so reading only the verdicts of an orbit-certified
    decomposition builds no stack.  The report keeps its decomposition,
    and so the simplex's operator stack, alive.  The repr and equality
    read all five values, as a plain record's would.
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

    The :class:`Decomposition` returned builds its factor stacks on first
    read from the simplex's read-only operator stack a_i . L, built once
    per simplex object and shared by every decomposition over it.
    """
    kind = StateKind.parse(kind)
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
    """What every factor stack over one simplex inherits from its read-only,
    exactly Hermitian operator stack ``ops`` = a_i . L: its largest modulus
    and, on first read, its covariance bound; :meth:`stack` builds one."""

    def __init__(self, ops: np.ndarray):
        self.ops = ops
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

    def first(self, half_radius) -> np.ndarray:
        """:meth:`stack`'s first factor bit for bit, from O's first alone; for
        an array of half radii, the first factor of each, in one product."""
        return _factor_stack(self.mixed, np.asarray(half_radius)[..., None, None], self.ops[0])


# The operator facts of each live simplex, keyed by identity: a
# RegularSimplex compares by identity, and its entry goes when the simplex
# is collected.
_OPERATOR_FACTS = weakref.WeakKeyDictionary()


def _operator_facts(simplex: RegularSimplex, dim: int) -> _OperatorFacts:
    """The facts of ``simplex``'s read-only operator stack
    ``_bloch_operators(simplex.vertices, dim)``, built on the first call
    for ``simplex``, which refuses one that is not finite and exactly
    Hermitian (:class:`HermiticityError`).  Every finite one passes: it has
    equal real products on both sides of the diagonal and +-anti in
    imaginary parts that start at +0."""
    facts = _OPERATOR_FACTS.get(simplex)
    if facts is None:
        ops = _bloch_operators(simplex.vertices, dim)
        dev = _hermitian_deviation(ops)
        if dev != 0:
            raise HermiticityError(
                f"operator stack of the simplex is not exactly Hermitian: deviation {dev:.3e}")
        ops.setflags(write=False)
        # Racing threads keep one, so every stack over a simplex is built
        # from one operator stack.
        facts = _OPERATOR_FACTS.setdefault(simplex, _OperatorFacts(ops))
    return facts


def _factor_stack(mixed: np.ndarray, half_radius: float, ops: np.ndarray) -> np.ndarray:
    """``mixed + half_radius * ops`` bit for bit, in a new stack, with the
    sum written over the product instead of into a second one."""
    out = np.multiply(half_radius, ops)
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


@lru_cache(maxsize=None)
def _orbit_indices(kind: StateKind, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of :func:`_orbit_support`'s gathers, read-only: [u, x]
    of (x, x+u) in R_0, and [u, v, x] of (x+v, x+v-u) in S_0 (isotropic:
    (x+v+u, x+v))."""
    x = np.arange(n)
    u = x[:, None, None]
    shifted = (x[:, None] + x) % n  # [u, x] or [v, x]: x + u or x + v
    left = x * n + shifted
    if kind is StateKind.WERNER:
        right = shifted * n + (shifted - u) % n
    else:
        right = (shifted + u) % n * n + shifted
    return _readonly(left), _readonly(right)


def _orbit_support(kind: StateKind, r0: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """(..., N, N) tables M(u, v) of the orbit mixtures sum_p D_p R_0
    D_p^dagger (x) D_p S_0 D_p^dagger / N^2 (isotropic: the second factor
    transposed), for first factors R_0 and S_0 stacked alike, (..., N, N).

    Summing over the displacements leaves the entry <a, b| . |a+u, b-u>
    (isotropic: |a+u, b+u>) equal to M(u, b-a), with
    M(u, v) = (1/N) sum_x R_0(x, x+u) S_0(x+v, x+v-u) (isotropic:
    S_0(x+v+u, x+v)), and every other entry exactly 0.  M is summed term
    by term in x, O(N^3) per table, over a C-contiguous product, so each
    table has the bits it has alone.
    """
    n = r0.shape[-1]
    left_index, right_index = _orbit_indices(kind, n)
    left = np.take(r0.reshape(*r0.shape[:-2], n * n), left_index, axis=-1)  # [..., u, x]
    right = np.take(s0.reshape(*s0.shape[:-2], n * n), right_index, axis=-1)  # [..., u, v, x]
    table = np.multiply(left[..., None, :], right, out=right).sum(axis=-1)
    table /= n
    return table


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
    """(F^, delta_F) for a built stack F = mixed + h O, h = ``half_radius``:
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

    Traces: D_p F_0 D_p^dagger has F_0's trace and is within delta_F of
    F_p per entry, so |tr F_p - tr F_0| <= N delta_F, and |tr F_0| <= N F^.
    So the mixture's trace sum_p tr R_p tr S_p / N^2 is within N^2 gap =
    N^2 (R^ delta_S + S^ delta_R + delta_R delta_S) of tr R_0 tr S_0, which
    the route adds to that product as computed, as gap to the table's error.
    """
    f_hat = facts.modulus_bound(half_radius)
    return f_hat, abs(half_radius) * facts.deviation + 5 * _EPS * f_hat


def _orbit_verdicts(ds: list[Decomposition], entries: tuple, target_tol: float) -> list:
    """Per decomposition of ``ds``, which share kind, N and simplex: the
    orbit route's reconstruction error, positivity verdict and unit-trace
    verdict (True, or None for the stacks to decide), or None where it
    cannot certify that decomposition at ``target_tol``.

    The route takes the built decompositions, N^2 factors each, whose
    bounds and first pair follow from the simplex's operator stack O with
    no pass over a stack (:func:`_orbit_bounds`).  The stacks' mixture is
    within gap = R^ delta_S + S^ delta_R + delta_R delta_S per entry of the
    orbit mixture of R_0 and S_0, and its trace within N^2 gap of
    tr R_0 tr S_0.  The route decides where the table's error plus gap is
    within ``target_tol``, and the trace passes where |tr R_0 tr S_0 - 1|
    plus N^2 gap is within ``HERM_TOL``.  The decompositions run N at a
    time, so the gathers' scratch stays within one stack: their first
    pairs in one broadcast product, their tables in one gather and sum,
    and the first pairs' spectra in one eigensolve (:func:`_orbit_psd`).
    """
    verdicts = [None] * len(ds)
    built = [i for i, d in enumerate(ds) if d._facts is not None]
    if not built:
        return verdicts
    kind, n, facts = ds[built[0]].kind, ds[built[0]].dim, ds[built[0]]._facts
    closed = _closed_table(kind, n, entries)
    for start in range(0, len(built), n):
        chunk = built[start:start + n]
        halves = [(ds[i].r / 2.0, ds[i].s / 2.0) for i in chunk]
        firsts = facts.first(halves)  # [decomposition, R or S, ...]
        traces = np.trace(firsts, axis1=-2, axis2=-1)
        # Both the orbit mixture and the closed form are 0 off the table's
        # support, so this is the max over all N^4 entries, bit for bit.
        tables = _orbit_support(kind, firsts[:, 0], firsts[:, 1])
        errors = np.abs(np.subtract(tables, closed, out=tables)).max(axis=(1, 2))
        lowest = np.linalg.eigvalsh(firsts.reshape(-1, n, n))[:, 0].reshape(-1, 2)
        for i, pair, err, lows, (tr_r0, tr_s0) in zip(chunk, halves, errors, lowest, traces):
            (r_hat, delta_r), (s_hat, delta_s) = (_orbit_bounds(facts, h) for h in pair)
            gap = r_hat * delta_s + s_hat * delta_r + delta_r * delta_s
            if err + gap <= target_tol:
                unit = abs(tr_r0 * tr_s0 - 1.0) + n * n * gap <= HERM_TOL or None
                verdicts[i] = (float(err), _orbit_psd(n, lows, (delta_r, delta_s)), unit)
    return verdicts


def _orbit_psd(n: int, lows: np.ndarray, deltas: tuple) -> bool:
    """True where Weyl's inequality puts every factor at or above -PSD_TOL,
    from the smallest eigenvalues ``lows`` of R_0 and S_0 and their
    [delta_R, delta_S].

    Factor p is within delta per entry of D_p F_0 D_p^dagger, whose spectrum
    is F_0's, so within N delta in spectral norm, and its smallest
    eigenvalue is at least that of F_0 less N delta.  N delta is at least
    5 N ulps of F^ and |h| times 16 N ulps of max|O|, beyond the rounding
    of the eigensolvers.  False says only that the bound does not reach
    the gate.
    """
    return bool(min(float(low) - n * delta for low, delta in zip(lows, deltas)) >= -PSD_TOL)


def verify_decomposition(d: Decomposition, target_tol: float | None = None
                         ) -> VerificationReport:
    """Compare the factor pairs' mixture with the closed-form state.

    The closed form's entries come from the swap-operator (Werner) or
    maximally-entangled-projector (isotropic) formula, a code path disjoint
    from the factor sums used here, so agreement is a genuine two-route
    check.  The mixture is read one of two ways:

    * the orbit route, for a decomposition that builds its own stacks from
      its simplex's operator stack O: the first pair comes from O's first
      operator, and how far each factor is from the displaced first one
      from O's covariance bound, measured once per simplex, and r or s,
      building no stack.  Over a
      :func:`~simplex_decomp.sicpovm.sic_from_fiducial` simplex, whose
      stacks are the Weyl-Heisenberg orbit of their first pair in
      ``_wh_tables`` order, that bound is a few ulps.  The route compares
      the orbit's N x N table with the closed form in the same coordinates,
      both 0 off the table's support, and decides when that error, the
      ``reconstruction_error``, plus the bound on the gap between the two
      mixtures is at most ``target_tol``;
    * otherwise, and for every given stack, the dense route: the Kronecker
      sum of :func:`reconstruct`, O(N^6), of any trace, whose error is
      ``reconstruction_error``.

    The separable certificate also demands PSD factors, an error of at
    most ``target_tol``, by default the simplex's ``tol`` (over a SIC, the
    certificate tolerance of its provenance), and a mixture whose trace is
    within ``HERM_TOL`` of 1, as :func:`reconstruct` demands.  On the orbit
    route a bound from the first pair decides each gate it reaches: the
    factors are PSD when the smallest eigenvalues of R_0 and S_0, less
    N delta_R and N delta_S, are at least -PSD_TOL (two N x N
    eigensolves), and the trace is within N^2 gap of tr R_0 tr S_0
    (:func:`_orbit_bounds`).  Otherwise the stacks decide: the full stacks'
    minima, as the report's ``min_eig_r`` and ``min_eig_s`` print them, of
    which the bound says PSD only where they do, and the stacks' traces.
    Only the dense route and bounds short of their gates read the stacks,
    building any not yet built; the report keeps ``d``, so its minima read
    the same stacks.
    """
    return _verify_contour([d], target_tol)[0]


def _verify_contour(ds: list[Decomposition], target_tol: float | None
                    ) -> list[VerificationReport]:
    """:func:`verify_decomposition`'s report of each of ``ds``, bit for bit,
    for decompositions that share kind, N, tau and simplex, as a contour's
    do: the closed form's entries and table are computed once, the orbit
    route certifies the built ones together (:func:`_orbit_verdicts`), and
    any it cannot decide takes the dense route alone."""
    d0 = ds[0]
    if target_tol is None:
        target_tol = d0.simplex.tol
    name = "phi" if d0.kind is StateKind.WERNER else "eta"
    value = getattr(convert_params(d0.kind, d0.dim, "tau", d0.tau), name)
    entries = _closed_form_entries(d0.dim, name, value)
    verdicts = _orbit_verdicts(ds, entries, target_tol)
    reports = []
    for d, verdict in zip(ds, verdicts):
        if verdict is None:
            err = float(np.abs(_kronecker_sum(d) - _scatter(d.kind, d.dim, entries)).max())
            all_psd, unit_trace = False, None
        else:
            err, all_psd, unit_trace = verdict
        minima = {}
        if not all_psd:
            minima = {"min_eig_r": _stack_min_eig(d.factors_r),
                      "min_eig_s": _stack_min_eig(d.factors_s)}
            all_psd = minima["min_eig_r"] >= -PSD_TOL and minima["min_eig_s"] >= -PSD_TOL
        if unit_trace is None:
            # The mixture's trace, sum_i tr R_i tr S_i / M, within DensityMatrix's bound.
            tr_r, tr_s = (np.trace(f, axis1=1, axis2=2) for f in (d.factors_r, d.factors_s))
            unit_trace = abs(tr_r @ tr_s / d.n_factors - 1.0) <= HERM_TOL
        report = VerificationReport(reconstruction_error=err, all_factors_psd=all_psd,
                                    separable_certificate=bool(all_psd and err <= target_tol
                                                               and unit_trace),
                                    _decomposition=d)
        report.__dict__.update(minima)  # the minima read here, as the properties cache them
        reports.append(report)
    return reports


def certify(d: Decomposition, target_tol: float | None = None) -> VerificationReport:
    """Verify ``d`` once; raise :class:`CertificateError` unless certified.

    ``target_tol`` is read as :func:`verify_decomposition` reads it.
    """
    return _certify_contour([d], target_tol)[0]


def _certify_contour(ds: list[Decomposition], target_tol: float | None
                     ) -> list[VerificationReport]:
    """:func:`certify` of each of ``ds``, which share kind, N, tau and
    simplex, in one :func:`_verify_contour` pass; the first decomposition
    not certified raises."""
    reports = _verify_contour(ds, target_tol)
    for d, report in zip(ds, reports):
        if not report.separable_certificate:
            raise CertificateError(f"certificate failed at r = {d.r}: {report}",
                                   report=report)
    return reports


def contour_radii(dim: int, tau: float, k: int) -> list[float]:
    """k radii spread uniformly in r across the admissible branches.

    When the admissible set degenerates to isolated points (tau at an
    endpoint of the separable interval), the unique radii are returned --
    possibly fewer than k -- and a multiplicity note is emitted as a warning.
    A count that ``params.check_sample_count`` refuses, such as 2.0, is refused.
    """
    check_sample_count(k)
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
    """k decompositions at :func:`contour_radii`, each certified as
    :func:`certify` certifies it, all in one pass."""
    kind = StateKind.parse(kind)
    radii = contour_radii(dim, tau, k)
    out = [decompose(kind, dim, tau, r, sic.bloch) for r in radii]
    _certify_contour(out, target_tol)
    return out
