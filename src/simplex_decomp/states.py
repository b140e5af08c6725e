"""Werner and isotropic families on N x N systems.

Both families are one-parameter curves of bipartite states.  Werner states
are invariant under u (x) u conjugation and come in four equivalent
parameterizations (phi, alpha, beta, and the correlation strength tau);
isotropic states are invariant under u (x) u* conjugation and carry (eta,
tau).  The unified tau parameter multiplies the generator-pair correlation
term, and partial transposition on the second subsystem maps one family
onto the other at equal tau.  Classification into separable / entangled
non-steerable / steerable regions follows the tau thresholds below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blochspace import DensityMatrix, su_generators
from .errors import DimensionMismatchError, ParameterRangeError
from .serialize import csv_row

# Slack at every boundary: parameter ranges and the separable endpoints.
RANGE_ATOL = 1e-12


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


@dataclass(frozen=True)
class NonlocalityClass:
    """Class label plus the tau thresholds that produced it.

    ``note`` is set only at the lower Werner separability endpoint, where
    the boundary is taken inclusive because the explicit product
    decomposition still exists there.
    """

    label: StateClass
    boundaries: dict
    note: str | None = None

    @property
    def name(self) -> str:
        return self.label.value


@dataclass(frozen=True)
class ParamSet:
    """All equivalent parameter values of one state.

    Werner states populate phi, alpha, beta, tau; isotropic states populate
    eta, tau.  Unused fields stay None.
    """

    kind: StateKind
    dim: int
    tau: float
    phi: float | None = None
    alpha: float | None = None
    beta: float | None = None
    eta: float | None = None

    def as_dict(self) -> dict:
        out = {"family": self.kind.value, "N": self.dim, "tau": self.tau}
        if self.kind is StateKind.WERNER:
            out.update(phi=self.phi, alpha=self.alpha, beta=self.beta)
        else:
            out.update(eta=self.eta)
        return out


@dataclass(frozen=True)
class RegionRow:
    """One family at one dimension: thresholds plus class measure fractions."""

    family: str
    dim: int
    tau_min: float
    tau_sep_lo: float
    tau_sep_hi: float
    tau_steer: float
    frac_sep: float
    frac_ent: float
    frac_steer: float


REGION_CSV_HEADER = ("family,N,tau_min,tau_sep_lo,tau_sep_hi,tau_steer,"
                     "frac_sep,frac_ent,frac_steer")


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k."""
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def swap_operator(dim: int) -> np.ndarray:
    """Unitary exchanging the tensor factors of C^N (x) C^N."""
    n = dim
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")
    v = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            v[i * n + j, j * n + i] = 1.0
    return v


def max_entangled_projector(dim: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(N)) sum_i |ii>."""
    n = dim
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")
    psi = np.zeros(n * n, dtype=complex)
    psi[::n + 1] = 1.0 / np.sqrt(n)
    return np.outer(psi, psi.conj())


@lru_cache(maxsize=None)
def _generator_pair_sum(dim: int, transpose_second: bool) -> np.ndarray:
    """sum_mu L_mu (x) L_mu (or L_mu (x) L_mu^T), cached per dimension."""
    mats = su_generators(dim).matrices
    second = mats.transpose(0, 2, 1) if transpose_second else mats
    out = np.einsum("mab,mcd->acbd", mats, second).reshape(dim * dim, dim * dim)
    out.setflags(write=False)
    return out


def _tau_range(kind: StateKind, dim: int) -> tuple[float, float]:
    n = dim
    if kind is StateKind.WERNER:
        return (-2.0 * (n + 1) / n, 2.0 * (n - 1) / n)
    return (-2.0 / n, 2.0 * (n * n - 1) / n)


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

    All pairwise conversions round-trip to 1e-12.  Raises
    :class:`ParameterRangeError` when the input value leaves its legal
    interval.
    """
    kind = StateKind.parse(kind)
    n = dim
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")
    value = float(value)
    if kind is StateKind.WERNER:
        if name not in _WERNER_RANGES:
            raise ParameterRangeError(f"unknown Werner parameter {name!r}")
        _check_range(name, value, *_WERNER_RANGES[name](n))
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
                        tau=2.0 * (n * phi - 1.0) / n)
    if name not in _ISO_RANGES:
        raise ParameterRangeError(f"unknown isotropic parameter {name!r}")
    _check_range(name, value, *_ISO_RANGES[name](n))
    if name == "eta":
        eta = value
    else:
        eta = n * value / (2.0 * (n * n - 1.0))
    return ParamSet(kind=kind, dim=n, eta=eta, tau=2.0 * eta * (n * n - 1.0) / n)


def werner_density(dim: int, *, phi: float | None = None, alpha: float | None = None,
                   beta: float | None = None, tau: float | None = None) -> DensityMatrix:
    """Werner state from exactly one of its four parameterizations.

    Each named parameter selects its own construction formula (identity +
    swap combinations for phi/alpha/beta, the generator-pair correlation
    sum for tau); the four agree elementwise to 1e-12 after conversion.
    """
    given = {k: v for k, v in dict(phi=phi, alpha=alpha, beta=beta, tau=tau).items()
             if v is not None}
    if len(given) != 1:
        raise ParameterRangeError(
            f"exactly one of phi/alpha/beta/tau must be given, got {sorted(given)}")
    (name, value), = given.items()
    convert_params(StateKind.WERNER, dim, name, value)  # range check
    n = dim
    eye = np.eye(n * n, dtype=complex)
    if name == "tau":
        m = eye / n**2 + (value / (4.0 * (n * n - 1.0))) * _generator_pair_sum(n, False)
    else:
        v = swap_operator(n)
        if name == "phi":
            m = ((n - value) / (n**3 - n)) * eye + ((n * value - 1.0) / (n**3 - n)) * v
        elif name == "alpha":
            m = (eye + value * v) / (n * n + value * n)
        else:
            m = ((n - 1.0 + value) / (n**3 - n**2)) * eye - (value / (n * n - n)) * v
    return DensityMatrix(m)


def isotropic_density(dim: int, *, eta: float | None = None,
                      tau: float | None = None) -> DensityMatrix:
    """Isotropic state from eta (white noise + maximally entangled projector)
    or tau (transposed generator-pair correlation sum)."""
    given = {k: v for k, v in dict(eta=eta, tau=tau).items() if v is not None}
    if len(given) != 1:
        raise ParameterRangeError(
            f"exactly one of eta/tau must be given, got {sorted(given)}")
    (name, value), = given.items()
    convert_params(StateKind.ISOTROPIC, dim, name, value)  # range check
    n = dim
    eye = np.eye(n * n, dtype=complex)
    if name == "tau":
        m = eye / n**2 + (value / (4.0 * (n * n - 1.0))) * _generator_pair_sum(n, True)
    else:
        m = ((1.0 - value) / n**2) * eye + value * max_entangled_projector(n)
    return DensityMatrix(m)


def _werner_boundaries(n: int) -> dict:
    return {
        "tau_min": -2.0 * (n + 1) / n,
        "tau_steer": -2.0 * (n * n - 1.0) / n**2,
        "tau_sep_lo": -2.0 / n,
        "tau_sep_hi": 2.0 * (n - 1) / n,
        "tau_max": 2.0 * (n - 1) / n,
    }


def _isotropic_boundaries(n: int) -> dict:
    h = harmonic_number(n)
    return {
        "tau_min": -2.0 / n,
        "tau_sep_lo": -2.0 / n,
        "tau_sep_hi": 2.0 * (n - 1) / n,
        "tau_steer": 2.0 * (h - 1.0) * (n + 1) / n,
        "tau_max": 2.0 * (n * n - 1.0) / n,
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


def partial_transpose(m, subsystem: str = "second") -> np.ndarray:
    """Transpose one tensor factor of an N^2 x N^2 matrix.

    A linear involution; on product operators it acts as
    PT_2(A (x) B) = A (x) B^T (and symmetrically for the first factor).
    """
    a = np.asarray(m.entries if isinstance(m, DensityMatrix) else m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    n = round(np.sqrt(a.shape[0]))
    if n * n != a.shape[0]:
        raise DimensionMismatchError(
            f"matrix side {a.shape[0]} is not a perfect square")
    t = a.reshape(n, n, n, n)
    if subsystem == "second":
        t = t.transpose(0, 3, 2, 1)
    elif subsystem == "first":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ParameterRangeError(f"subsystem must be 'first' or 'second', got {subsystem!r}")
    return t.reshape(n * n, n * n)


def region_table(dim: int) -> list[RegionRow]:
    """Threshold positions and class measure fractions for both families.

    Fractions are Lebesgue measures on the tau parameterization.  The
    Werner separable fraction is exactly 1/2 for every N; its steerable
    fraction is (N+1)/(2N^2).  The isotropic steerable fraction is
    (N+1)(N-H_N)/N^2, which approaches 1 as N grows.
    """
    n = dim
    if n < 2:
        raise DimensionMismatchError(f"dimension must be >= 2, got {n}")
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
    lines = [REGION_CSV_HEADER]
    for r in rows:
        lines.append(csv_row([r.family, r.dim, r.tau_min, r.tau_sep_lo,
                              r.tau_sep_hi, r.tau_steer, r.frac_sep,
                              r.frac_ent, r.frac_steer]))
    return "\n".join(lines) + "\n"
