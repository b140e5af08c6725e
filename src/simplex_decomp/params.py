"""Closed-form parameter math of the Werner and isotropic families.

Everything here is scalar and imports no numpy: the parameter
conversions and their legal ranges, the separable interval
[-2/N, 2(N-1)/N], the classifier's tau thresholds, the region table, and
the admissible factor radii of a separable decomposition.  A command that
needs none of the arrays (``classify``, ``regions``, or a ``decompose``
refused before any SIC is loaded) runs on this module alone.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from functools import lru_cache, reduce
from operator import add, index

from .errors import (DimensionMismatchError, InadmissibleRadiusError,
                     NotSeparableError, ParameterRangeError)
from .serialize import csv_row

# Slack at every boundary: parameter ranges and the separable endpoints.
RANGE_ATOL = 1e-12

# Slack for the membership of r, and of s = tau/r, in their intervals at the
# endpoints.  Both need it: for |tau| below this slack, the slack on r alone
# admits radii near 0, whose s = tau/r lies far outside the PSD interval.
ADMISSIBLE_ATOL = 1e-9


class StateKind(enum.Enum):
    WERNER = "werner"
    ISOTROPIC = "isotropic"

    @classmethod
    def parse(cls, text) -> "StateKind":
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower()
        if key == "werner":
            return cls.WERNER
        if key in ("iso", "isotropic"):
            return cls.ISOTROPIC
        raise ParameterRangeError(f"unknown state family {text!r}")


class StateClass(enum.Enum):
    SEPARABLE = "Separable"
    ENTANGLED_UNSTEERABLE = "EntangledUnsteerable"
    STEERABLE = "Steerable"


# The records are read-only named tuples rather than dataclasses, whose
# module loads ``inspect`` and ``ast``: nearly half of the package's own
# import time on the scalar path.  A tuple is written as a JSON list, so a record reaches
# ``serialize`` only through a dict of its fields.
class NonlocalityClass(namedtuple("NonlocalityClass", "label boundaries note",
                                  defaults=(None,))):
    """Class label plus the tau thresholds that produced it.

    ``note`` is set only at the lower Werner separability endpoint, where
    the boundary is taken inclusive because the explicit product
    decomposition still exists there.
    """

    __slots__ = ()

    @property
    def name(self) -> str:
        return self.label.value


class ParamSet(namedtuple("ParamSet", "kind dim tau phi alpha beta eta",
                          defaults=(None, None, None, None))):
    """All equivalent parameter values of one state.

    Werner states populate phi, alpha, beta, tau; isotropic states populate
    eta, tau.  Unused fields stay None.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"family": self.kind.value, "N": self.dim, "tau": self.tau}
        if self.kind is StateKind.WERNER:
            out.update(phi=self.phi, alpha=self.alpha, beta=self.beta)
        else:
            out.update(eta=self.eta)
        return out


class RegionRow(namedtuple("RegionRow", "family dim tau_min tau_sep_lo tau_sep_hi "
                           "tau_steer frac_sep frac_ent frac_steer")):
    """One family at one dimension: thresholds plus class measure fractions."""

    __slots__ = ()


REGION_CSV_HEADER = ("family,N,tau_min,tau_sep_lo,tau_sep_hi,tau_steer,"
                     "frac_sep,frac_ent,frac_steer")


@lru_cache(maxsize=1 << 14)
def _reciprocal_sum(lo: int, n: int) -> float:
    # sum 1/k for k = lo+1..lo+n in numpy's order for a contiguous float64
    # array: up to 128 terms in one block, more split in two at a multiple
    # of 8.  H_n and H_{n+1} split alike down to their last block, so the
    # cache lets a run of consecutive n share every other block: about one
    # block of work per n instead of n terms.  At about 250 bytes an entry
    # the bound keeps 4 MB; n = 2..20000 then sums 4.7e6 terms, not 2e8.
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _reciprocal_sum(lo, half) + _reciprocal_sum(lo + half, n - half)
    return _block_sum(lo, n)


def _block_sum(lo: int, n: int) -> float:
    # At most 128 terms: fewer than 8 in sequence, else 8 interleaved
    # accumulators.  ``reduce`` adds in sequence, as numpy's loops do (``sum``
    # is compensated from Python 3.12 on).
    xs = [1.0 / k for k in range(lo + 1, lo + n + 1)]
    if n < 8:
        return reduce(add, xs, 0.0)
    whole = n - n % 8
    r = [reduce(add, xs[j:whole:8]) for j in range(8)]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, xs[whole:], res)


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, bit for bit as ``np.sum(1.0 / np.arange(1, n + 1))``."""
    return _reciprocal_sum(0, n)


def check_dimension(n: int) -> None:
    """Refuse a Hilbert-space dimension that is not an integer of at least 2.

    Integers are what ``operator.index`` accepts: Python's and numpy's, not
    a float such as 2.0.
    """
    try:
        index(n)
    except TypeError:
        raise DimensionMismatchError(f"dimension must be an integer, got {n!r}") from None
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")


def check_sample_count(k: int) -> None:
    """Refuse a sample count that is not an integer (as ``index`` reads one) >= 1."""
    try:
        index(k)
    except TypeError:
        raise ParameterRangeError(f"sample count must be an integer, got {k!r}") from None
    if k < 1:
        raise ParameterRangeError(f"sample count must be >= 1, got {k}")


def psd_radius_bounds(dimension: int) -> tuple[float, float]:
    """Closed positivity interval for the radius along a pure-state direction.

    For a unit direction u that is the Bloch direction of some pure state,
    id/N + (r/2) u.L is positive semidefinite exactly for
    r in [-sqrt(2/(N(N-1))), sqrt(2(N-1)/N)].
    """
    n = dimension
    check_dimension(n)
    return (-math.sqrt(2.0 / (n * (n - 1))), math.sqrt(2.0 * (n - 1) / n))


def _tau_range(kind: StateKind, dim: int) -> tuple[float, float]:
    n = dim
    lo, hi = separable_interval(n)
    if kind is StateKind.WERNER:
        return (-2.0 * (n + 1) / n, hi)
    return (lo, 2.0 * (n * n - 1) / n)


_WERNER_RANGES = {
    "phi": lambda n: (-1.0, 1.0),
    "alpha": lambda n: (-1.0, 1.0),
    "beta": lambda n: ((1.0 - n) / (n + 1.0), 1.0),
    "tau": lambda n: _tau_range(StateKind.WERNER, n),
}

_ISO_RANGES = {
    "eta": lambda n: (-1.0 / (n * n - 1.0), 1.0),
    "tau": lambda n: _tau_range(StateKind.ISOTROPIC, n),
}


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    if not (lo - RANGE_ATOL <= value <= hi + RANGE_ATOL):
        raise ParameterRangeError(
            f"{name} = {value} outside its legal interval [{lo}, {hi}]")
    return float(value)


def convert_params(kind, dim: int, name: str, value: float) -> ParamSet:
    """Complete, mutually consistent parameter set from any single name.

    All pairwise conversions round-trip to 1e-12, and a given tau is kept
    as given.  Raises :class:`ParameterRangeError` when the family does not
    take ``name`` or the input value leaves its legal interval.
    """
    kind = StateKind.parse(kind)
    n = dim
    check_dimension(n)
    value = float(value)
    ranges = _WERNER_RANGES if kind is StateKind.WERNER else _ISO_RANGES
    if name not in ranges:
        raise ParameterRangeError(f"{kind.value} states take one of "
                                  f"{', '.join(ranges)}; got {name!r}")
    _check_range(name, value, *ranges[name](n))
    if kind is StateKind.WERNER:
        if name == "phi":
            phi = value
        elif name == "alpha":
            phi = (n * value + 1.0) / (n + value)
        elif name == "beta":
            phi = (1.0 - (n + 1.0) * value) / n
        else:
            phi = (n * value + 2.0) / (2.0 * n)
        return ParamSet(kind=kind, dim=n, phi=phi,
                        alpha=(n * phi - 1.0) / (n - phi),
                        beta=(1.0 - n * phi) / (n + 1.0),
                        tau=value if name == "tau" else 2.0 * (n * phi - 1.0) / n)
    if name == "eta":
        eta = value
    else:
        eta = n * value / (2.0 * (n * n - 1.0))
    return ParamSet(kind=kind, dim=n, eta=eta,
                    tau=value if name == "tau" else 2.0 * eta * (n * n - 1.0) / n)


def separable_interval(dim: int) -> tuple[float, float]:
    """Closed tau interval [-2/N, 2(N-1)/N] of the separable states of both families."""
    check_dimension(dim)
    return (-2.0 / dim, 2.0 * (dim - 1) / dim)


def _werner_boundaries(n: int) -> dict:
    lo, hi = separable_interval(n)
    tau_min, tau_max = _tau_range(StateKind.WERNER, n)
    return {
        "tau_min": tau_min,
        "tau_steer": -2.0 * (n * n - 1.0) / n**2,
        "tau_sep_lo": lo,
        "tau_sep_hi": hi,
        "tau_max": tau_max,
    }


def _isotropic_boundaries(n: int) -> dict:
    lo, hi = separable_interval(n)
    tau_min, tau_max = _tau_range(StateKind.ISOTROPIC, n)
    h = harmonic_number(n)
    return {
        "tau_min": tau_min,
        "tau_sep_lo": lo,
        "tau_sep_hi": hi,
        "tau_steer": 2.0 * (h - 1.0) * (n + 1) / n,
        "tau_max": tau_max,
        "harmonic_number": h,
    }


def classify_werner(dim: int, tau: float) -> NonlocalityClass:
    """Separable on [-2/N, 2(N-1)/N]; steerable below -2(N^2-1)/N^2.

    The separable interval is closed at both ends, where the explicit
    product decompositions exist, and widened by ``RANGE_ATOL``; the
    steerable region is open on its inner boundary.
    """
    b = _werner_boundaries(dim)
    tau = _check_range("tau", float(tau), b["tau_min"], b["tau_max"])
    if tau >= b["tau_sep_lo"] - RANGE_ATOL:
        label = StateClass.SEPARABLE
    elif tau >= b["tau_steer"]:
        label = StateClass.ENTANGLED_UNSTEERABLE
    else:
        label = StateClass.STEERABLE
    note = None
    if abs(tau - b["tau_sep_lo"]) <= RANGE_ATOL:
        note = ("tau sits on the lower separability endpoint -2/N; the closed "
                "interval is used because the product decomposition exists there")
    return NonlocalityClass(label=label, boundaries=b, note=note)


def classify_isotropic(dim: int, tau: float) -> NonlocalityClass:
    """Separable up to 2(N-1)/N + RANGE_ATOL; steerable strictly above 2(H_N-1)(N+1)/N."""
    b = _isotropic_boundaries(dim)
    tau = _check_range("tau", float(tau), b["tau_min"], b["tau_max"])
    if tau <= b["tau_sep_hi"] + RANGE_ATOL:
        label = StateClass.SEPARABLE
    elif tau > b["tau_steer"]:
        label = StateClass.STEERABLE
    else:
        label = StateClass.ENTANGLED_UNSTEERABLE
    return NonlocalityClass(label=label, boundaries=b)


def classify(kind, dim: int, tau: float) -> NonlocalityClass:
    kind = StateKind.parse(kind)
    if kind is StateKind.WERNER:
        return classify_werner(dim, tau)
    return classify_isotropic(dim, tau)


def region_table(dim: int) -> list[RegionRow]:
    """Threshold positions and class measure fractions for both families.

    Fractions are Lebesgue measures on the tau parameterization.  The
    Werner separable fraction is exactly 1/2 for every N; its steerable
    fraction is (N+1)/(2N^2).  The isotropic steerable fraction is
    (N+1)(N-H_N)/N^2, which approaches 1 as N grows.
    """
    n = dim
    wb = _werner_boundaries(n)
    frac_steer_w = (n + 1.0) / (2.0 * n * n)
    werner = RegionRow(
        family="werner", dim=n,
        tau_min=wb["tau_min"], tau_sep_lo=wb["tau_sep_lo"],
        tau_sep_hi=wb["tau_sep_hi"], tau_steer=wb["tau_steer"],
        frac_sep=0.5, frac_ent=1.0 - 0.5 - frac_steer_w, frac_steer=frac_steer_w)
    ib = _isotropic_boundaries(n)
    frac_sep_i = 1.0 / n
    frac_steer_i = (n + 1.0) * (n - ib["harmonic_number"]) / (n * n)
    iso = RegionRow(
        family="isotropic", dim=n,
        tau_min=ib["tau_min"], tau_sep_lo=ib["tau_sep_lo"],
        tau_sep_hi=ib["tau_sep_hi"], tau_steer=ib["tau_steer"],
        frac_sep=frac_sep_i, frac_ent=1.0 - frac_sep_i - frac_steer_i,
        frac_steer=frac_steer_i)
    return [werner, iso]


def region_csv(rows) -> str:
    """CSV text for region rows, header included."""
    # A row's fields are in the header's order.
    return "\n".join([REGION_CSV_HEADER, *map(csv_row, rows)]) + "\n"


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
        if tau <= neg_min * neg_min + RANGE_ATOL:
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
    # A tie, as for a radius near 0 between the two branches of a tiny tau,
    # goes to the branch on the radius's own side of 0.
    return min((min(max(r, a), b) for a, b in intervals),
               key=lambda c: (abs(c - r), (c < 0) != (r < 0)))


def check_radius(dim: int, tau: float, r: float) -> None:
    """Refuse a factor radius r unless r and s = tau/r are both admissible.

    Each must lie in the PSD interval within ``ADMISSIBLE_ATOL``, so that
    every factor over a SIC simplex is positive semidefinite.  Raises
    :class:`NotSeparableError` for tau outside the separable interval,
    :class:`ParameterRangeError` for a NaN radius, and
    :class:`InadmissibleRadiusError`, with the nearest admissible value,
    for any other radius outside; +-inf gets the nearest endpoint.
    """
    intervals = admissible_r_interval(dim, tau)
    if math.isnan(r):
        raise ParameterRangeError(f"r = {r} is not a number")
    inside = any(a - ADMISSIBLE_ATOL <= r <= b + ADMISSIBLE_ATOL for a, b in intervals)
    if inside and tau != 0.0:
        neg_min, r_max = psd_radius_bounds(dim)
        s = tau / r if r != 0.0 else math.inf
        inside = neg_min - ADMISSIBLE_ATOL <= s <= r_max + ADMISSIBLE_ATOL
    if not inside:
        nearest = _nearest_admissible(r, intervals)
        raise InadmissibleRadiusError(
            f"r = {r} leaves the admissible set {intervals} for tau = {tau}; "
            f"nearest admissible value is {nearest}", nearest=nearest,
            intervals=intervals)
