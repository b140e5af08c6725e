"""Werner and isotropic families on N x N systems.

Both families are one-parameter curves of bipartite states.  Werner states
are invariant under u (x) u conjugation and come in four equivalent
parameterizations (phi, alpha, beta, and the correlation strength tau);
isotropic states are invariant under u (x) u* conjugation and carry (eta,
tau).  The unified tau parameter multiplies the generator-pair correlation
term, and partial transposition on the second subsystem maps one family
onto the other at equal tau.  Classification into separable / entangled
non-steerable / steerable regions follows the tau thresholds of
:mod:`~simplex_decomp.params`, which holds all of the families' scalar
parameter math.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blochspace import DensityMatrix, _readonly, su_generators
from .errors import DimensionMismatchError, ParameterRangeError
from .params import StateKind, check_dimension, convert_params


def swap_operator(dim: int) -> np.ndarray:
    """Unitary exchanging the tensor factors of C^N (x) C^N."""
    n = dim
    check_dimension(n)
    v = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            v[i * n + j, j * n + i] = 1.0
    return v


def max_entangled_projector(dim: int) -> np.ndarray:
    """Rank-1 projector onto (1/sqrt(N)) sum_i |ii>."""
    n = dim
    check_dimension(n)
    psi = np.zeros(n * n, dtype=complex)
    psi[::n + 1] = 1.0 / np.sqrt(n)
    return np.outer(psi, psi.conj())


@lru_cache(maxsize=2)
def _generator_pair_sum(dim: int) -> np.ndarray:
    """sum_mu L_mu (x) L_mu.

    Each is a dense N^4 complex matrix, so only the last two dimensions are
    kept; the isotropic form reads its partial transpose.
    """
    mats = su_generators(dim)
    out = np.einsum("mab,mcd->acbd", mats, mats).reshape(dim * dim, dim * dim)
    return _readonly(out)


def _one_parameter(kind: StateKind, dim: int, **params) -> tuple[str, float]:
    """The one parameter of ``params`` that is not None, its value
    range-checked for ``kind`` at ``dim``."""
    given = {k: v for k, v in params.items() if v is not None}
    if len(given) != 1:
        raise ParameterRangeError(
            f"exactly one of {'/'.join(params)} must be given, got {sorted(given)}")
    (name, value), = given.items()
    convert_params(kind, dim, name, value)  # range check
    return name, value


def werner_density(dim: int, *, phi: float | None = None, alpha: float | None = None,
                   beta: float | None = None, tau: float | None = None) -> DensityMatrix:
    """Werner state from exactly one of its four parameterizations.

    Each named parameter selects its own construction formula (identity +
    swap combinations for phi/alpha/beta, the generator-pair correlation
    sum for tau); the four agree elementwise to 1e-12 after conversion.
    """
    name, value = _one_parameter(StateKind.WERNER, dim, phi=phi, alpha=alpha,
                                 beta=beta, tau=tau)
    n = dim
    if name == "tau":
        m = (np.eye(n * n, dtype=complex) / n**2
             + (value / (4.0 * (n * n - 1.0))) * _generator_pair_sum(n))
        return DensityMatrix(m)
    # a*id + b*V written in place (V's row i*n+j has its 1 at column j*n+i):
    # every Werner certificate builds its closed form here.  The three
    # distinct entries -- the diagonal off V's ones, the n places (ii, ii)
    # shared by id and V, and V's off-diagonal ones -- are rounded as the
    # whole-matrix formula rounds them, by the same elementwise operations.
    if name == "phi":
        diag = (n - value) / (n**3 - n)
        swap = (n * value - 1.0) / (n**3 - n)
        entries = (diag, diag + swap, swap)
    elif name == "alpha":
        entries = ((np.array([1, 1, 0], dtype=complex)
                    + value * np.array([0, 1, 1], dtype=complex))
                   / (n * n + value * n))
    else:
        entries = (((n - 1.0 + value) / (n**3 - n**2)) * np.array([1, 1, 0], dtype=complex)
                   - (value / (n * n - n)) * np.array([0, 1, 1], dtype=complex))
    diag, shared, swap = entries
    m = np.zeros((n * n, n * n), dtype=complex)
    rows = np.arange(n * n)
    m[rows, rows % n * n + rows // n] = swap
    m.flat[::n * n + 1] = diag
    ii = np.arange(n) * (n + 1)
    m[ii, ii] = shared
    m.setflags(write=False)  # kept by DensityMatrix, not copied
    return DensityMatrix(m)


def isotropic_density(dim: int, *, eta: float | None = None,
                      tau: float | None = None) -> DensityMatrix:
    """Isotropic state from eta (white noise + maximally entangled projector)
    or tau (partially transposed generator-pair correlation sum)."""
    name, value = _one_parameter(StateKind.ISOTROPIC, dim, eta=eta, tau=tau)
    n = dim
    if name == "tau":
        pair_sum = partial_transpose(_generator_pair_sum(n))
        m = (np.eye(n * n, dtype=complex) / n**2
             + (value / (4.0 * (n * n - 1.0))) * pair_sum)
    else:
        # (1 - eta)/N^2 on the diagonal plus eta*|Phi><Phi| at its N^2 nonzero
        # positions (ii, jj), written in place: every isotropic certificate
        # builds its closed form here.
        m = np.zeros((n * n, n * n), dtype=complex)
        m.flat[::n * n + 1] = (1.0 - value) / n**2
        a = np.complex128(1.0 / np.sqrt(n))
        ii = np.arange(n) * (n + 1)
        m[ii[:, None], ii] += value * (a * a.conjugate())
        m.setflags(write=False)  # kept by DensityMatrix, not copied
    return DensityMatrix(m)


def partial_transpose(m) -> np.ndarray:
    """Transpose the second tensor factor of an N^2 x N^2 matrix.

    A linear involution; on product operators it acts as
    PT_2(A (x) B) = A (x) B^T.
    """
    a = np.asarray(m.entries if isinstance(m, DensityMatrix) else m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    n = round(np.sqrt(a.shape[0]))
    if n * n != a.shape[0]:
        raise DimensionMismatchError(
            f"matrix side {a.shape[0]} is not a perfect square")
    return a.reshape(n, n, n, n).transpose(0, 3, 2, 1).reshape(n * n, n * n)
