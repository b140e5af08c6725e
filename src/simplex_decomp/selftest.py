"""Reduced invariant suite behind the ``selftest`` CLI command.

Each named check exercises one module-level invariant on small grids and
prints a PASS/FAIL line; the exit status names the first failing check.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .blochspace import (PSD_TOL, BlochVector, _bloch_operators,
                         bloch_from_density, density_from_bloch,
                         min_eigenvalue, su_generators)
from .decompose import decompose, reconstruct, verify_decomposition
from .errors import ParameterRangeError
from .params import (StateKind, _tau_range, admissible_r_interval,
                     classify_isotropic, classify_werner, convert_params,
                     psd_radius_bounds, region_table, separable_interval)
from .sicpovm import (EXACT_REGISTRY, OPTIMIZED, TOLERANCES, Fiducial,
                      Provenance, frame_potential, frame_potential_minimum,
                      max_overlap_deviation, obtain_sic)
from .simplex import (RegularSimplex, canonical_simplex, gram_identities,
                      orthogonal_extension)
from .states import isotropic_density, partial_transpose, werner_density

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
    b = bloch_from_density(np.outer(v, v.conj()))
    return b.direction


def _sics(ctx):
    return {n: ctx["sic"](n) for n in range(2, ctx["n_max"] + 1)}


def check_generator_orthogonality(ctx):
    worst = 0.0
    for n in range(2, max(3, ctx["n_max"]) + 1):
        mats = su_generators(n)
        table = np.einsum("aij,bji->ab", mats, mats)
        worst = _nan_max(worst, np.abs(table - 2.0 * np.eye(len(mats))).max())
    return worst <= 1e-12, f"max trace-table deviation {worst:.3e}"


def check_bloch_round_trip(ctx):
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        for _ in range(5):
            rho = _random_psd(rng, n)
            back = density_from_bloch(bloch_from_density(rho))
            worst = _nan_max(worst, np.abs(back.entries - rho).max())
    return worst <= 1e-12, f"max round-trip deviation {worst:.3e}"


def check_purity_radius_bound(ctx):
    rng = np.random.default_rng(12)
    ok = True
    for n in range(2, ctx["n_max"] + 1):
        cap = psd_radius_bounds(n)[1]
        for _ in range(20):
            radius = bloch_from_density(_random_psd(rng, n)).radius
            ok = ok and radius <= cap + 1e-10
    return ok, "sampled PSD radii inside the pure-state cap"


def check_antiparallel_product_bound(ctx):
    rng = np.random.default_rng(13)
    worst = np.inf
    for n in range(2, ctx["n_max"] + 1):
        for _ in range(20):
            b = bloch_from_density(_random_psd(rng, n))
            if b.radius < 1e-12:
                continue
            direction = _bloch_operators(b.direction[None], n)[0]
            x_max = float(np.linalg.eigvalsh(direction)[-1])
            s_extreme = -2.0 / (n * x_max)
            worst = _nan_min(worst, b.radius * s_extreme + 2.0 / n)
    return worst >= -1e-10, f"min (r*s + 2/N) over antiparallel extremes {worst:.3e}"


def check_pure_direction_psd_window(ctx):
    rng = np.random.default_rng(14)
    ok = True
    for n in range(2, ctx["n_max"] + 1):
        lo, hi = psd_radius_bounds(n)
        direction = _random_pure_direction(rng, n)
        for edge in (lo, hi):
            for delta, inside in ((-1e-3, edge == hi), (1e-3, edge == lo)):
                r = edge + delta
                m = density_from_bloch(BlochVector(n, r * direction))
                eig = min_eigenvalue(m)
                ok = ok and ((eig >= -PSD_TOL) if inside else (eig < -1e-7))
    return ok, "PSD holds exactly on the closed radius interval"


def check_simplex_identities(ctx):
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        g = gram_identities(canonical_simplex(n * n - 1))
        worst = _nan_max(worst, g.sum_norm, g.gram_dev)
    return worst <= 1e-9, f"max vertex-sum/Gram deviation {worst:.3e}"  # criterion 5


def check_orthogonal_extension(ctx):
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        o = orthogonal_extension(canonical_simplex(n * n - 1))
        worst = _nan_max(worst, np.abs(o @ o.T - np.eye(len(o))).max())
    return worst <= 1e-10, f"max |OO^T - id| {worst:.3e}"


def check_sic_overlap(ctx):
    details = []
    for n, sic in _sics(ctx).items():
        # A SIC's orbit starts at its fiducial (D_00 is the identity), and
        # sic.tol is the overlap tolerance it was accepted at.
        dev = max_overlap_deviation(
            Fiducial(dim=n, vector=sic.states[0], provenance=_PROBE_PROV))
        if not dev <= sic.tol:
            return False, f"N={n}: overlap deviation {dev:.3e} exceeds {sic.tol:.1e}"
        details.append(f"N={n} dev {dev:.1e}")
    return True, ", ".join(details)


def check_sic_bloch_simplex(ctx):
    for n, sic in _sics(ctx).items():
        dots = sic.bloch.vertices @ sic.bloch.vertices.T
        off = ~np.eye(n * n, dtype=bool)
        if not np.abs(dots[off] + 1.0 / (n * n - 1.0)).max() <= 1e-8:
            return False, f"N = {n}: pairwise dots deviate from -1/(N^2-1)"
    return True, "unit Bloch directions form regular simplexes"


def check_povm_completeness(ctx):
    worst = 0.0
    for n, sic in _sics(ctx).items():
        total = np.einsum("di,dj->ij", sic.states, sic.states.conj())
        worst = _nan_max(worst, np.abs(total - n * np.eye(n)).max())
    return worst <= 1e-8, f"max |sum of projectors - N id| {worst:.3e}"


def check_frame_potential_bound(ctx):
    rng = np.random.default_rng(15)
    ok = True
    for n in range(2, ctx["n_max"] + 1):
        floor = frame_potential_minimum(n)
        for _ in range(30):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            fid = Fiducial(dim=n, vector=v, provenance=_PROBE_PROV)
            ok = ok and frame_potential(fid) >= floor - 1e-12
    return ok, "sampled frame potentials respect the SIC floor"


def check_state_form_agreement(ctx):
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        for tau in np.linspace(*_tau_range(StateKind.WERNER, n), 5):
            p = convert_params(StateKind.WERNER, n, "tau", tau)
            base = werner_density(n, phi=p.phi).entries
            for name in ("alpha", "beta", "tau"):
                other = werner_density(n, **{name: getattr(p, name)}).entries
                worst = _nan_max(worst, np.abs(other - base).max())
        for tau in np.linspace(*_tau_range(StateKind.ISOTROPIC, n), 5):
            p = convert_params(StateKind.ISOTROPIC, n, "tau", tau)
            a = isotropic_density(n, eta=p.eta).entries
            b = isotropic_density(n, tau=p.tau).entries
            worst = _nan_max(worst, np.abs(a - b).max())
    return worst <= 1e-12, f"max cross-form deviation {worst:.3e}"


def check_ppt_classification_agreement(ctx):
    for n in range(2, ctx["n_max"] + 1):
        for kind in (StateKind.WERNER, StateKind.ISOTROPIC):
            lo, hi = _tau_range(kind, n)
            for tau in np.linspace(lo, hi, 41):
                if kind is StateKind.WERNER:
                    rho = werner_density(n, tau=tau)
                    verdict = classify_werner(n, tau)
                else:
                    rho = isotropic_density(n, tau=tau)
                    verdict = classify_isotropic(n, tau)
                ppt = min_eigenvalue(partial_transpose(rho)) >= -PSD_TOL
                if ppt != (verdict.name == "Separable"):
                    return False, f"N = {n}, {kind.value}, tau = {tau:.6f}: PPT disagrees"
    return True, "PPT eigenvalue sign matches every separability verdict"


def check_reconstruction_fidelity(ctx):
    # Worst error per certificate tolerance, i.e. per SIC provenance.
    worst = {policy.certificate: 0.0 for policy in TOLERANCES.values()}
    floor = 0.0
    for n, sic in _sics(ctx).items():
        for kind in (StateKind.WERNER, StateKind.ISOTROPIC):
            for tau in np.linspace(*separable_interval(n), 7):
                intervals = admissible_r_interval(n, tau)
                lo, hi = intervals[-1]
                for r in np.linspace(lo, hi, 3):
                    if tau != 0.0 and r == 0.0:
                        continue
                    rep = verify_decomposition(
                        decompose(kind, n, tau, r, sic.bloch))
                    worst[sic.bloch.tol] = _nan_max(worst[sic.bloch.tol],
                                                    rep.reconstruction_error)
                    floor = _nan_min(floor, rep.min_eig_r, rep.min_eig_s)
    ctx["factor_floor"] = floor
    ok = all(err <= tol for tol, err in worst.items())
    exact, optimized = (worst[TOLERANCES[k].certificate]
                        for k in (EXACT_REGISTRY, OPTIMIZED))
    return ok, (f"max reconstruction error {exact:.3e} (exact), "
                f"{optimized:.3e} (optimized)")


def check_factor_positivity(ctx):
    # The threshold of verify_decomposition's all_factors_psd.
    floor = ctx.get("factor_floor")
    if floor is None:
        return False, "reconstruction check did not run"
    return floor >= -PSD_TOL, f"min factor eigenvalue {floor:.3e}"


def check_simplex_universality(ctx):
    from scipy.stats import ortho_group  # slow to import; only this check uses it

    rng = np.random.default_rng(16)
    worst = 0.0
    for n in range(2, min(ctx["n_max"], 3) + 1):
        m = n * n - 1
        base = canonical_simplex(m)
        for _ in range(2):
            q = ortho_group.rvs(m, random_state=rng)
            rotated = RegularSimplex(ambient_dim=m, vertices=base.vertices @ q.T)
            for kind in (StateKind.WERNER, StateKind.ISOTROPIC):
                for tau, r in ((-1.0 / n, 2.0), (0.5, 0.9)):
                    rep = verify_decomposition(decompose(kind, n, tau, r, rotated))
                    worst = _nan_max(worst, rep.reconstruction_error)
    return worst <= 1e-10, f"max error over rotated simplexes {worst:.3e}"


def check_pt_duality(ctx):
    worst = 0.0
    for n, sic in _sics(ctx).items():
        lo, hi = separable_interval(n)
        for tau in (lo, 0.3, hi):
            r = admissible_r_interval(n, tau)[-1][1]
            w = reconstruct(decompose(StateKind.WERNER, n, tau, r, sic.bloch))
            i = reconstruct(decompose(StateKind.ISOTROPIC, n, tau, r, sic.bloch))
            worst = _nan_max(worst, np.abs(partial_transpose(w) - i.entries).max())
    return worst <= 1e-11, f"max |PT2(Werner) - isotropic| {worst:.3e}"


def check_region_fractions(ctx):
    for n in list(range(2, ctx["n_max"] + 1)) + [100]:
        for row in region_table(n):
            total = row.frac_sep + row.frac_ent + row.frac_steer
            if not abs(total - 1.0) <= 1e-12:
                return False, f"{row.family} N = {n}: fractions sum to {total}"
            if row.family == "werner" and row.frac_sep != 0.5:
                return False, f"werner N = {n}: separable fraction {row.frac_sep}"
    return True, "fractions sum to 1; Werner separable fraction is exactly 1/2"


CHECKS = [
    ("generator-orthogonality", check_generator_orthogonality),
    ("bloch-round-trip", check_bloch_round_trip),
    ("purity-radius-bound", check_purity_radius_bound),
    ("antiparallel-product-bound", check_antiparallel_product_bound),
    ("pure-direction-psd-window", check_pure_direction_psd_window),
    ("simplex-identities", check_simplex_identities),
    ("orthogonal-extension", check_orthogonal_extension),
    ("sic-overlap", check_sic_overlap),
    ("sic-bloch-simplex", check_sic_bloch_simplex),
    ("povm-completeness", check_povm_completeness),
    ("frame-potential-bound", check_frame_potential_bound),
    ("state-form-agreement", check_state_form_agreement),
    ("ppt-classification-agreement", check_ppt_classification_agreement),
    ("reconstruction-fidelity", check_reconstruction_fidelity),
    ("factor-positivity", check_factor_positivity),
    ("simplex-universality", check_simplex_universality),
    ("pt-duality", check_pt_duality),
    ("region-fractions", check_region_fractions),
]


def run_selftest(n_max: int, writer) -> int:
    """Run every check; write one PASS/FAIL line each to ``writer``; 0 iff all pass.

    ``n_max`` below 2 raises :class:`ParameterRangeError` before any check runs.
    """
    if n_max < 2:
        raise ParameterRangeError(f"n_max must be >= 2, got {n_max}")
    ctx = {"n_max": n_max, "sic": lru_cache(maxsize=None)(obtain_sic)}
    first_failure = None
    for name, fn in CHECKS:
        try:
            ok, detail = fn(ctx)
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
