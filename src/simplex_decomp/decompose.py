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

from .blochspace import (PSD_TOL, DensityMatrix, _bloch_operators,
                         _hermitian_deviation, _readonly)
from .errors import (CertificateError, DimensionMismatchError,
                     HermiticityError, NotSeparableError, ParameterRangeError)
from .params import (RANGE_ATOL, StateKind, admissible_r_interval,
                     check_radius, convert_params, separable_interval)
from .sicpovm import SicPovm
from .simplex import RegularSimplex
from .states import isotropic_density, werner_density


# Ufunc buffer size (elements) while `reconstruct` runs its elementwise
# loops.  With numpy's default of 8192, the buffered iterator copies the
# operands of np.multiply.outer into buffers while its rows of N^2
# elements are short against the buffer, and the copies cost more than the
# products; elementwise results do not depend on the buffer size.
# `reconstruct` in ms (Werner, 2-core VM, numpy 2.4) by buffer size:
#
#     N     16     64    256   8192
#     4    0.09   0.09   0.08   0.08
#     8    0.43   0.42   0.48   0.52
#     12   2.3    2.3    2.4    4.0
#     16   11     12     12     23
_RECONSTRUCT_BUFSIZE = 64


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Uniform product mixture over a regular simplex with r s = tau.

    ``factors_r`` and ``factors_s`` stack the N^2 left and right factors;
    the mixture weight of every pair is 1/N^2.  A stack is kept when it is
    read-only and owns its data, and copied otherwise.  Construction raises
    :class:`HermiticityError` unless both stacks are finite and exactly
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
        for name in ("factors_r", "factors_s"):
            stack = _readonly(getattr(self, name))
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
    serve as an independent oracle against the state constructors.  Only
    the blocks (a, b) with a <= b are summed; the others are mirrored,
    which the exact Hermiticity of every :class:`Decomposition` allows.
    """
    n = d.dim
    # Block (a, b) of R_i (x) S_i is R_i[a, b] S_i, and exact Hermiticity
    # makes block (b, a) the conjugate transpose of block (a, b); the complex
    # product and sum keep that identity in value.  So only the blocks with
    # a <= b are summed, in index order from zero as the sum of np.kron
    # products does, divided by M and copied into the result's blocks.  The
    # sums never hold -0, while the conjugate of a +0 is -0, so the mirror
    # adds +0.0; conjugation and +0.0 commute with the division by M > 0.
    a, b = np.triu_indices(n)
    left = d.factors_r[:, a, b]
    rights = d.factors_s
    if d.kind is StateKind.ISOTROPIC:
        rights = rights.transpose(0, 2, 1)
    rights = rights.reshape(d.n_factors, n * n)  # one copy when transposed
    acc = np.zeros((a.size, n * n), dtype=complex)
    term = np.empty_like(acc)
    # Only elementwise work runs with the small buffer: the buffer size can
    # move the block boundaries of a pairwise-summed reduction.  np.errstate
    # restores the caller's buffer size on every exit.
    with np.errstate():
        np.setbufsize(_RECONSTRUCT_BUFSIZE)
        for i in range(d.n_factors):
            np.multiply.outer(left[i], rights[i], out=term)
            acc += term
        del left, rights, term
        acc /= d.n_factors
        rho = np.empty((n * n, n * n), dtype=complex)
        blocks = rho.reshape(n, n, n, n).transpose(0, 2, 1, 3)  # [a, b, c, d]
        blocks[a, b] = acc.reshape(-1, n, n)
        del acc
        for row in range(1, n):
            lower = blocks[row, :row]
            np.conjugate(blocks[:row, row].transpose(0, 2, 1), out=lower)
            np.add(lower, 0.0, out=lower)
    rho.setflags(write=False)
    return DensityMatrix(rho)


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


def verify_decomposition(d: Decomposition, target_tol: float | None = None
                         ) -> VerificationReport:
    """Compare the Kronecker reconstruction with the closed-form state.

    The closed form is built through the swap-operator (Werner) or
    maximally-entangled-projector (isotropic) formula, a code path disjoint
    from the Bloch sums used here, so agreement is a genuine two-route
    check.  The separable certificate also demands PSD factors and an error
    of at most ``target_tol``, by default the simplex's ``tol`` (over a SIC,
    the certificate tolerance of its provenance).  The factor eigenvalues
    come from the stacks as built, which are exactly Hermitian.
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
    min_eig_r = float(np.linalg.eigvalsh(d.factors_r)[:, 0].min())
    min_eig_s = float(np.linalg.eigvalsh(d.factors_s)[:, 0].min())
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
