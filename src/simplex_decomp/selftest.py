"""Reduced invariant suite behind the ``selftest`` CLI command.

Each named check exercises one module-level invariant and returns
``(ok, detail)``.  A check takes its grid as arguments, with no defaults:
dimensions or SICs, sample counts, an RNG seed, or a list of cases.  The
acceptance tests call the checks at their own grids; :func:`run_selftest`
runs each at its grid for ``n_max`` and prints a PASS/FAIL line.  Every
bound a check compares against is a library tolerance of the same meaning
(``PSD_TOL``, ``TOLERANCES``, a simplex's ``tol``) or an entry of :data:`BOUNDS`.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .blochspace import (PSD_TOL, BlochVector, _bloch_operators,
                         bloch_from_density, density_from_bloch,
                         min_eigenvalue, su_generators)
from .decompose import decompose, reconstruct, verify_decomposition
from .errors import ParameterRangeError
from .params import (StateClass, StateKind, _tau_range, admissible_r_interval,
                     classify_isotropic, classify_werner, convert_params,
                     psd_radius_bounds, region_table, separable_interval)
from .sicpovm import (EXACT_REGISTRY, OPTIMIZED, TOLERANCES, Fiducial,
                      Provenance, frame_potential, frame_potential_minimum,
                      max_overlap_deviation, obtain_sic)
from .simplex import (RegularSimplex, canonical_simplex, gram_identities,
                      orthogonal_extension, verify_simplex)
from .states import isotropic_density, partial_transpose, werner_density

# The bounds of the checks that no library tolerance gives, by what they bound.
BOUNDS = {
    "generator-trace-table": 1e-12,   # |tr(L_a L_b) - 2 delta_ab|
    "bloch-round-trip": 1e-12,        # |rho - density(bloch(rho))|
    "radius-cap-slack": 1e-10,        # PSD Bloch radius above the pure-state cap
    "zero-radius": 1e-12,             # below it a Bloch vector has no direction
    "antiparallel-product": 1e-10,    # r s + 2/N below 0 at antiparallel extremes
    "outside-psd-window": 1e-7,       # how far below 0 the spectrum must reach
    "simplex-identities": 1e-9,       # |sum of vertices|, Gram deviation
    "orthogonal-extension": 1e-10,    # |O O^T - id|
    "sic-bloch-dots": 1e-8,           # |a_i . a_j + 1/(N^2 - 1)|
    "povm-completeness": 1e-8,        # |sum of projectors - N id|
    "frame-potential-floor": 1e-12,   # sampled frame potential below the SIC floor
    "state-forms": 1e-12,             # one state from each of its parameters
    "pt-duality": 1e-11,              # |PT2(Werner) - isotropic| of reconstructions
    "fraction-sum": 1e-12,            # |sum of the region fractions - 1|
}

# Provenance of the probe fiducials the checks build from raw vectors.
_PROBE_PROV = Provenance(kind=OPTIMIZED)


# Python's max and min drop a NaN (max(0.0, nan) is 0.0); these return it.
def _nan_max(*values):
    return float(np.max(values))


def _nan_min(*values):
    return float(np.min(values))


def _random_psd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / m.trace()


def _random_pure_direction(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return bloch_from_density(np.outer(v, v.conj())).direction


def verification_reports(cases):
    """``(simplex.tol, verify_decomposition(...))`` per (kind, N, tau, r, simplex)."""
    return [(simplex.tol, verify_decomposition(decompose(kind, n, tau, r, simplex)))
            for kind, n, tau, r, simplex in cases]


def check_generator_orthogonality(dims):
    worst = 0.0
    for n in dims:
        mats = su_generators(n)
        table = np.einsum("aij,bji->ab", mats, mats)
        worst = _nan_max(worst, np.abs(table - 2.0 * np.eye(len(mats))).max())
    return worst <= BOUNDS["generator-trace-table"], f"max trace-table deviation {worst:.3e}"


def check_bloch_round_trip(seed, dims, samples):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in dims:
        for _ in range(samples):
            rho = _random_psd(rng, n)
            back = density_from_bloch(bloch_from_density(rho))
            worst = _nan_max(worst, np.abs(back.entries - rho).max())
    return worst <= BOUNDS["bloch-round-trip"], f"max round-trip deviation {worst:.3e}"


def check_purity_radius_bound(seed, dims, samples):
    rng = np.random.default_rng(seed)
    ok = True
    for n in dims:
        cap = psd_radius_bounds(n)[1]
        for _ in range(samples):
            radius = bloch_from_density(_random_psd(rng, n)).radius
            ok = ok and radius <= cap + BOUNDS["radius-cap-slack"]
    return ok, "sampled PSD radii inside the pure-state cap"


def check_antiparallel_product_bound(seed, dims, samples):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for n in dims:
        for _ in range(samples):
            b = bloch_from_density(_random_psd(rng, n))
            if b.radius < BOUNDS["zero-radius"]:
                continue
            direction = _bloch_operators(b.direction[None], n)[0]
            x_max = float(np.linalg.eigvalsh(direction)[-1])
            s_extreme = -2.0 / (n * x_max)
            worst = _nan_min(worst, b.radius * s_extreme + 2.0 / n)
    return (worst >= -BOUNDS["antiparallel-product"],
            f"min (r*s + 2/N) over antiparallel extremes {worst:.3e}")


def check_pure_direction_psd_window(seed, dims, directions):
    # 1e-3 inside either end of psd_radius_bounds the spectrum is PSD at
    # PSD_TOL; 1e-3 outside it is clearly negative.
    rng = np.random.default_rng(seed)
    ok = True
    for n in dims:
        lo, hi = psd_radius_bounds(n)
        for _ in range(directions):
            direction = _random_pure_direction(rng, n)
            for edge in (lo, hi):
                for delta, inside in ((-1e-3, edge == hi), (1e-3, edge == lo)):
                    bloch = BlochVector(n, (edge + delta) * direction)
                    eig = min_eigenvalue(density_from_bloch(bloch))
                    ok = ok and ((eig >= -PSD_TOL) if inside
                                 else (eig < -BOUNDS["outside-psd-window"]))
    return ok, "PSD holds exactly on the closed radius interval"


def check_simplex_identities(simplexes):
    worst = 0.0
    for simplex in simplexes:
        g = gram_identities(simplex)
        worst = _nan_max(worst, g.sum_norm, g.gram_dev)
    return worst <= BOUNDS["simplex-identities"], f"max vertex-sum/Gram deviation {worst:.3e}"


def check_orthogonal_extension(simplexes):
    worst = 0.0
    for simplex in simplexes:
        o = orthogonal_extension(simplex)
        worst = _nan_max(worst, np.abs(o @ o.T - np.eye(len(o))).max())
    return worst <= BOUNDS["orthogonal-extension"], f"max |OO^T - id| {worst:.3e}"


def check_sic_overlap(sics):
    details = []
    for sic in sics:
        # A SIC's orbit starts at its fiducial (D_00 is the identity), and
        # sic.tol is the overlap tolerance it was accepted at.
        dev = max_overlap_deviation(
            Fiducial(dim=sic.dim, vector=sic.states[0], provenance=_PROBE_PROV))
        if not dev <= sic.tol:
            return False, f"N={sic.dim}: overlap deviation {dev:.3e} exceeds {sic.tol:.1e}"
        details.append(f"N={sic.dim} dev {dev:.1e}")
    return True, ", ".join(details)


def check_sic_bloch_simplex(sics):
    for sic in sics:
        if not verify_simplex(sic.bloch).max_dot_dev <= BOUNDS["sic-bloch-dots"]:
            return False, f"N = {sic.dim}: pairwise dots deviate from -1/(N^2-1)"
    return True, "unit Bloch directions form regular simplexes"


def check_povm_completeness(sics):
    worst = 0.0
    for sic in sics:
        total = np.einsum("di,dj->ij", sic.states, sic.states.conj())
        worst = _nan_max(worst, np.abs(total - sic.dim * np.eye(sic.dim)).max())
    return worst <= BOUNDS["povm-completeness"], f"max |sum of projectors - N id| {worst:.3e}"


def check_frame_potential_bound(seed, dims, samples):
    rng = np.random.default_rng(seed)
    ok = True
    for n in dims:
        floor = frame_potential_minimum(n)
        for _ in range(samples):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            fid = Fiducial(dim=n, vector=v, provenance=_PROBE_PROV)
            ok = ok and frame_potential(fid) >= floor - BOUNDS["frame-potential-floor"]
    return ok, "sampled frame potentials respect the SIC floor"


def check_state_form_agreement(dims, points):
    worst = 0.0
    for n in dims:
        for tau in np.linspace(*_tau_range(StateKind.WERNER, n), points):
            p = convert_params(StateKind.WERNER, n, "tau", tau)
            base = werner_density(n, phi=p.phi).entries
            for name in ("alpha", "beta", "tau"):
                other = werner_density(n, **{name: getattr(p, name)}).entries
                worst = _nan_max(worst, np.abs(other - base).max())
        for tau in np.linspace(*_tau_range(StateKind.ISOTROPIC, n), points):
            p = convert_params(StateKind.ISOTROPIC, n, "tau", tau)
            a = isotropic_density(n, eta=p.eta).entries
            b = isotropic_density(n, tau=p.tau).entries
            worst = _nan_max(worst, np.abs(a - b).max())
    return worst <= BOUNDS["state-forms"], f"max cross-form deviation {worst:.3e}"


def check_ppt_classification_agreement(dims, points):
    for n in dims:
        for kind, density, classify in (
                (StateKind.WERNER, werner_density, classify_werner),
                (StateKind.ISOTROPIC, isotropic_density, classify_isotropic)):
            for tau in np.linspace(*_tau_range(kind, n), points):
                ppt = min_eigenvalue(partial_transpose(density(n, tau=tau))) >= -PSD_TOL
                if ppt != (classify(n, tau).label is StateClass.SEPARABLE):
                    return False, f"N = {n}, {kind.value}, tau = {tau:.6f}: PPT disagrees"
    return True, "PPT eigenvalue sign matches every separability verdict"


def check_reconstruction_fidelity(reports):
    # Worst error per certificate tolerance, i.e. per SIC provenance.
    worst = {policy.certificate: 0.0 for policy in TOLERANCES.values()}
    for tol, rep in reports:
        worst[tol] = _nan_max(worst[tol], rep.reconstruction_error)
    ok = all(err <= tol for tol, err in worst.items())
    exact, optimized = (worst[TOLERANCES[k].certificate]
                        for k in (EXACT_REGISTRY, OPTIMIZED))
    return ok, (f"max reconstruction error {exact:.3e} (exact), "
                f"{optimized:.3e} (optimized)")


def check_factor_positivity(reports):
    # The threshold of verify_decomposition's all_factors_psd.
    floor = 0.0
    for _, rep in reports:
        floor = _nan_min(floor, rep.min_eig_r, rep.min_eig_s)
    return floor >= -PSD_TOL, f"min factor eigenvalue {floor:.3e}"


def check_simplex_universality(seed, rotations, cases):
    """``cases`` maps each N to the (kind, tau, r) decomposed over every one
    of ``rotations`` random rotations of its canonical simplex."""
    from scipy.stats import ortho_group  # slow to import; only this check uses it

    rng = np.random.default_rng(seed)
    ok, worst = True, 0.0
    for n, points in cases.items():
        m = n * n - 1
        base = canonical_simplex(m)
        for _ in range(rotations):
            q = ortho_group.rvs(m, random_state=rng)
            rotated = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            for kind, tau, r in points:
                rep = verify_decomposition(decompose(kind, n, tau, r, rotated))
                ok = ok and rep.reconstruction_error <= rotated.tol
                worst = _nan_max(worst, rep.reconstruction_error)
    return ok, f"max error over rotated simplexes {worst:.3e}"


def check_pt_duality(cases):
    """Both families decompose at each (N, tau, r, simplex) of ``cases``."""
    worst = 0.0
    for n, tau, r, simplex in cases:
        w = reconstruct(decompose(StateKind.WERNER, n, tau, r, simplex))
        i = reconstruct(decompose(StateKind.ISOTROPIC, n, tau, r, simplex))
        worst = _nan_max(worst, np.abs(partial_transpose(w) - i.entries).max())
    return worst <= BOUNDS["pt-duality"], f"max |PT2(Werner) - isotropic| {worst:.3e}"


def check_region_fractions(dims):
    for n in dims:
        for row in region_table(n):
            total = row.frac_sep + row.frac_ent + row.frac_steer
            if not abs(total - 1.0) <= BOUNDS["fraction-sum"]:
                return False, f"{row.family} N = {n}: fractions sum to {total}"
            if row.family == "werner" and row.frac_sep != 0.5:
                return False, f"werner N = {n}: separable fraction {row.frac_sep}"
    return True, "fractions sum to 1; Werner separable fraction is exactly 1/2"


def _selftest_checks(n_max):
    """(name, run) per check at the selftest's grid for ``n_max``.

    A grid is built when its check runs, so a SIC that cannot be obtained
    fails the checks that use it; the SICs and the reports are built once.
    """
    dims = range(2, n_max + 1)
    sics = cache(lambda: [obtain_sic(n) for n in dims])
    canonical = cache(lambda: [canonical_simplex(n * n - 1) for n in dims])

    def fidelity_cases():
        for sic in sics():
            n = sic.dim
            for kind in StateKind:
                for tau in np.linspace(*separable_interval(n), 7):
                    lo, hi = admissible_r_interval(n, tau)[-1]
                    for r in np.linspace(lo, hi, 3):
                        if tau != 0.0 and r == 0.0:
                            continue
                        yield kind, n, tau, r, sic.bloch

    def duality_cases():
        for sic in sics():
            lo, hi = separable_interval(sic.dim)
            for tau in (lo, 0.3, hi):
                yield sic.dim, tau, admissible_r_interval(sic.dim, tau)[-1][1], sic.bloch

    reports = cache(lambda: verification_reports(fidelity_cases()))
    rotated = {n: [(kind, tau, r) for kind in StateKind
                   for tau, r in ((-1.0 / n, 2.0), (0.5, 0.9))]
               for n in range(2, min(n_max, 3) + 1)}
    return [
        ("generator-orthogonality",
         lambda: check_generator_orthogonality(range(2, max(3, n_max) + 1))),
        ("bloch-round-trip", lambda: check_bloch_round_trip(11, dims, 5)),
        ("purity-radius-bound", lambda: check_purity_radius_bound(12, dims, 20)),
        ("antiparallel-product-bound",
         lambda: check_antiparallel_product_bound(13, dims, 20)),
        ("pure-direction-psd-window",
         lambda: check_pure_direction_psd_window(14, dims, 1)),
        ("simplex-identities", lambda: check_simplex_identities(canonical())),
        ("orthogonal-extension", lambda: check_orthogonal_extension(canonical())),
        ("sic-overlap", lambda: check_sic_overlap(sics())),
        ("sic-bloch-simplex", lambda: check_sic_bloch_simplex(sics())),
        ("povm-completeness", lambda: check_povm_completeness(sics())),
        ("frame-potential-bound", lambda: check_frame_potential_bound(15, dims, 30)),
        ("state-form-agreement", lambda: check_state_form_agreement(dims, 5)),
        ("ppt-classification-agreement",
         lambda: check_ppt_classification_agreement(dims, 41)),
        ("reconstruction-fidelity", lambda: check_reconstruction_fidelity(reports())),
        ("factor-positivity", lambda: check_factor_positivity(reports())),
        ("simplex-universality", lambda: check_simplex_universality(16, 2, rotated)),
        ("pt-duality", lambda: check_pt_duality(duality_cases())),
        ("region-fractions", lambda: check_region_fractions([*dims, 100])),
    ]


def run_selftest(n_max: int, writer) -> int:
    """Run every check; write one PASS/FAIL line each to ``writer``; 0 iff all pass.

    ``n_max`` below 2 raises :class:`ParameterRangeError` before any check runs.
    """
    if n_max < 2:
        raise ParameterRangeError(f"n_max must be >= 2, got {n_max}")
    first_failure = None
    for name, run in _selftest_checks(n_max):
        try:
            ok, detail = run()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        writer.write(f"[{status}] {name:32s} {detail}\n")
        if not ok and first_failure is None:
            first_failure = name
    if first_failure is not None:
        writer.write(f"selftest FAILED; first failing invariant: {first_failure}\n")
        return 1
    writer.write("selftest passed\n")
    return 0
