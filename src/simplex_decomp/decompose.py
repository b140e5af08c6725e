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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blochspace import (PSD_TOL, DensityMatrix, _bloch_operators, _readonly,
                         psd_radius_bounds)
from .errors import (CertificateError, DimensionMismatchError,
                     InadmissibleRadiusError, NotSeparableError,
                     ParameterRangeError)
from .sicpovm import SicPovm
from .simplex import RegularSimplex
from .states import (RANGE_ATOL, StateKind, classify, convert_params,
                     isotropic_density, separable_interval, werner_density)

# Slack for radius membership at interval endpoints; a radius admitted this
# far outside still yields factor eigenvalues within the PSD tolerance.
ADMISSIBLE_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Uniform product mixture over a regular simplex with r s = tau.

    ``factors_r`` and ``factors_s`` stack the N^2 left and right factors;
    the mixture weight of every pair is 1/N^2.  A stack is kept when it is
    read-only and owns its data, and copied otherwise.
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
        for name in ("factors_r", "factors_s"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_factors(self) -> int:
        return self.factors_r.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n_factors, 1.0 / self.n_factors)


@dataclass(frozen=True)
class VerificationReport:
    """Reconstruction error against the closed form plus factor positivity."""

    reconstruction_error: float
    min_eig_r: float
    min_eig_s: float
    all_factors_psd: bool
    separable_certificate: bool


def decompose(kind, dim: int, tau: float, r: float,
              simplex: RegularSimplex) -> Decomposition:
    """Build the product mixture over an arbitrary regular N^2-simplex.

    Valid for every tau in the family range and every finite r; the
    resulting factors are not required to be positive semidefinite.  ``s``
    is derived as tau/r (and set to 0 when tau is 0, where any r works).
    The simplex is not checked again: a :class:`RegularSimplex` is regular
    at its ``tol`` from construction.
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
    ops = _bloch_operators(simplex.vertices, dim)
    mixed = np.eye(dim, dtype=complex) / dim
    factors_r = mixed + (r / 2.0) * ops
    # The operator stack becomes the right factors in place: the same
    # operations, in the same operand order, as mixed + (s / 2.0) * ops.
    factors_s = np.add(mixed, np.multiply(s / 2.0, ops, out=ops), out=ops)
    factors_r.setflags(write=False)
    factors_s.setflags(write=False)
    return Decomposition(kind=kind, dim=dim, tau=tau, r=r, s=s, simplex=simplex,
                         factors_r=factors_r, factors_s=factors_s)


def reconstruct(d: Decomposition) -> DensityMatrix:
    """Explicit weighted Kronecker sum of the factor pairs.

    Deliberately kept as the term-by-term sum (no closed form) so it can
    serve as an independent oracle against the state constructors.
    """
    n = d.dim
    # acc[(a, b), (c, d)] sums R_i[a, b] * S_i[c, d] in index order from
    # zero, as the sum of np.kron products does in its (a, c), (b, d)
    # order; the final division writes it back into the term buffer in
    # that order, so no array beyond the two buffers is allocated.  The
    # accumulator is freed before `DensityMatrix` checks Hermiticity, and the
    # frozen term buffer is kept by it as it is, not copied.
    acc = np.zeros((n * n, n * n), dtype=complex)
    term = np.empty_like(acc)
    transpose = d.kind is StateKind.ISOTROPIC
    for left, right in zip(d.factors_r, d.factors_s):
        np.multiply.outer(left.ravel(), (right.T if transpose else right).ravel(),
                          out=term)
        acc += term
    np.divide(acc.reshape(n, n, n, n).transpose(0, 2, 1, 3), d.n_factors,
              out=term.reshape(n, n, n, n))
    del acc
    term.setflags(write=False)
    return DensityMatrix(term)


def admissible_r_interval(dim: int, tau: float) -> list[tuple[float, float]]:
    """Closed intervals of r with both r and s = tau/r in the PSD interval.

    Returned in ascending order (negative branch first when present).  For
    tau = 0 the whole PSD interval is admissible.  Degenerate branches
    collapse to single points at the separable-interval endpoints.
    """
    lo, hi = separable_interval(dim)
    tau = float(tau)
    if not (lo - RANGE_ATOL <= tau <= hi + RANGE_ATOL):
        # Below the interval only Werner states exist, above it only isotropic.
        werner = tau < lo
        try:
            cls = classify(StateKind.WERNER if werner else StateKind.ISOTROPIC, dim, tau)
            hint = f"; as {'a Werner' if werner else 'an isotropic'} state it is {cls.name}"
        except ParameterRangeError:
            cls, hint = None, ""
        raise NotSeparableError(
            f"tau = {tau} is outside the separable interval [{lo}, {hi}]{hint}",
            classification=cls)
    neg_min, r_max = psd_radius_bounds(dim)
    if tau == 0.0:
        return [(neg_min, r_max)]
    intervals = []
    if tau > 0.0:
        if tau <= neg_min * neg_min + 1e-15:
            intervals.append((neg_min, tau / neg_min))
        intervals.append((tau / r_max, r_max))
    else:
        intervals.append((neg_min, tau / r_max))
        intervals.append((tau / neg_min, r_max))
    out = []
    for a, b in intervals:
        if a > b:
            if a - b > RANGE_ATOL:
                continue
            a = b = 0.5 * (a + b)
        out.append((a, b))
    return out


def _nearest_admissible(r: float, intervals) -> float:
    # Clamp to the hull first so that r = +-inf picks the extreme endpoint
    # instead of tying at infinite distance with every interval.
    r = min(max(r, intervals[0][0]), intervals[-1][1])
    best = None
    for a, b in intervals:
        c = min(max(r, a), b)
        if best is None or abs(c - r) < abs(best - r):
            best = c
    return best


def separable_decompose(kind, dim: int, tau: float, r: float,
                        sic: SicPovm) -> Decomposition:
    """Explicit separable decomposition over a SIC Bloch simplex.

    Requires tau in the separable interval and r in the admissible set, so
    every factor is positive semidefinite by construction.  The SIC comes
    from :func:`~simplex_decomp.sicpovm.obtain_sic`.  +-inf is inadmissible
    with the nearest endpoint; :func:`decompose` refuses a NaN radius.
    """
    kind = StateKind.parse(kind)
    if sic.dim != dim:
        raise DimensionMismatchError(f"SIC dimension {sic.dim} != requested {dim}")
    intervals = admissible_r_interval(dim, tau)
    inside = any(a - ADMISSIBLE_ATOL <= r <= b + ADMISSIBLE_ATOL for a, b in intervals)
    if not (math.isnan(r) or inside):
        nearest = _nearest_admissible(r, intervals)
        raise InadmissibleRadiusError(
            f"r = {r} leaves the admissible set {intervals} for tau = {tau}; "
            f"nearest admissible value is {nearest}", nearest=nearest,
            intervals=intervals)
    return decompose(kind, dim, tau, r, sic.bloch)


def verify_decomposition(d: Decomposition, target_tol: float | None = None
                         ) -> VerificationReport:
    """Compare the Kronecker reconstruction with the closed-form state.

    The closed form is built through the swap-operator (Werner) or
    maximally-entangled-projector (isotropic) formula, a code path disjoint
    from the Bloch sums used here, so agreement is a genuine two-route
    check.  The separable certificate also demands PSD factors and an error
    of at most ``target_tol``, by default the simplex's ``tol`` (over a SIC,
    the certificate tolerance of its provenance).
    """
    if target_tol is None:
        target_tol = d.simplex.tol
    params = convert_params(d.kind, d.dim, "tau", d.tau)
    if d.kind is StateKind.WERNER:
        closed = werner_density(d.dim, phi=params.phi)
    else:
        closed = isotropic_density(d.dim, eta=params.eta)
    rec = reconstruct(d)
    err = float(np.abs(rec.entries - closed.entries).max())
    herm_r = 0.5 * (d.factors_r + d.factors_r.conj().transpose(0, 2, 1))
    herm_s = 0.5 * (d.factors_s + d.factors_s.conj().transpose(0, 2, 1))
    min_eig_r = float(np.linalg.eigvalsh(herm_r)[:, 0].min())
    min_eig_s = float(np.linalg.eigvalsh(herm_s)[:, 0].min())
    all_psd = min_eig_r >= -PSD_TOL and min_eig_s >= -PSD_TOL
    return VerificationReport(
        reconstruction_error=err, min_eig_r=min_eig_r, min_eig_s=min_eig_s,
        all_factors_psd=all_psd,
        separable_certificate=bool(all_psd and err <= target_tol))


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
    assert intervals, "admissible set cannot be empty inside the separable interval"
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
