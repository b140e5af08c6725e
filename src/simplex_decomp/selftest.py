"""Reduced invariant suite behind the ``selftest`` CLI command.

Each named check exercises one module-level invariant on small grids and
prints a PASS/FAIL line; the exit status names the first failing check.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np
from scipy.stats import ortho_group

from .blochspace import (BlochVector, bloch_from_density, density_from_bloch,
                         min_eigenvalue, psd_radius_bounds, su_generators)
from .decompose import admissible_r_interval, decompose, reconstruct, verify_decomposition
from .sicpovm import (EXACT_REGISTRY, OPTIMIZED, TOLERANCES, Fiducial,
                      Provenance, frame_potential, frame_potential_minimum,
                      load_fiducial_cache, max_overlap_deviation, obtain_sic)
from .simplex import (RegularSimplex, canonical_simplex, gram_identities,
                      orthogonal_extension, verify_simplex)
from .states import (StateKind, _tau_range, classify_isotropic, classify_werner,
                     convert_params, isotropic_density, partial_transpose,
                     region_table, werner_density)


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
        mats = su_generators(n).matrices
        table = np.einsum("aij,bji->ab", mats, mats)
        worst = max(worst, float(np.abs(table - 2.0 * np.eye(len(mats))).max()))
    return worst <= 1e-12, f"max trace-table deviation {worst:.3e}"


def check_bloch_round_trip(ctx):
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        for _ in range(5):
            rho = _random_psd(rng, n)
            back = density_from_bloch(bloch_from_density(rho))
            worst = max(worst, float(np.abs(back.entries - rho).max()))
    return worst <= 1e-12, f"max round-trip deviation {worst:.3e}"


def check_purity_radius_bound(ctx):
    rng = np.random.default_rng(12)
    ok = True
    for n in range(2, ctx["n_max"] + 1):
        cap = np.sqrt(2.0 * (n - 1) / n)
        for _ in range(20):
            radius = bloch_from_density(_random_psd(rng, n)).radius
            ok = ok and radius <= cap + 1e-10
    return ok, "sampled PSD radii inside the pure-state cap"


def check_antiparallel_product_bound(ctx):
    rng = np.random.default_rng(13)
    worst = np.inf
    for n in range(2, ctx["n_max"] + 1):
        gens = su_generators(n)
        for _ in range(20):
            b = bloch_from_density(_random_psd(rng, n))
            if b.radius < 1e-12:
                continue
            direction = np.einsum("m,mij->ij", b.direction, gens.matrices)
            x_max = float(np.linalg.eigvalsh(direction)[-1])
            s_extreme = -2.0 / (n * x_max)
            worst = min(worst, b.radius * s_extreme + 2.0 / n)
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
                ok = ok and ((eig >= -ctx["tol"]) if inside else (eig < -1e-7))
    return ok, "PSD holds exactly on the closed radius interval"


def check_simplex_identities(ctx):
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        s = canonical_simplex(n * n - 1)
        rep = verify_simplex(s)
        if not rep.ok:
            return False, f"canonical simplex fails at M = {n * n - 1}"
        g = gram_identities(s)
        worst = max(worst, g.sum_norm, g.gram_dev)
    return worst <= ctx["tol"], f"max vertex-sum/Gram deviation {worst:.3e}"


def check_orthogonal_extension(ctx):
    worst = 0.0
    for n in range(2, ctx["n_max"] + 1):
        o = orthogonal_extension(canonical_simplex(n * n - 1)).matrix
        worst = max(worst, float(np.abs(o @ o.T - np.eye(len(o))).max()))
    return worst <= 1e-10, f"max |OO^T - id| {worst:.3e}"


def check_sic_overlap(ctx):
    cases = []  # (label, fiducial, overlap tolerance of its provenance)
    if ctx["fiducial_cache"]:
        fid = load_fiducial_cache(ctx["fiducial_cache"])
        cases.append((f"cache N={fid.dim}", fid, TOLERANCES[fid.provenance.kind].overlap))
    for n, sic in _sics(ctx).items():
        # A SIC's orbit starts at its fiducial (D_00 is the identity), and
        # sic.tol is the overlap tolerance it was accepted at.
        fid = Fiducial(dim=n, vector=sic.states[0], provenance=ctx["probe_prov"])
        cases.append((f"N={n}", fid, sic.tol))
    details = []
    for label, fid, tol in cases:
        dev = max_overlap_deviation(fid)
        if dev > tol:
            return False, f"{label}: overlap deviation {dev:.3e} exceeds {tol:.1e}"
        details.append(f"{label} dev {dev:.1e}")
    return True, ", ".join(details)


def check_sic_bloch_simplex(ctx):
    for n, sic in _sics(ctx).items():
        rep = verify_simplex(sic.bloch)
        if not rep.ok:
            return False, f"N = {n}: Bloch directions miss the simplex conditions"
        dots = sic.bloch.vertices @ sic.bloch.vertices.T
        off = ~np.eye(n * n, dtype=bool)
        if np.abs(dots[off] + 1.0 / (n * n - 1.0)).max() > 1e-8:
            return False, f"N = {n}: pairwise dots deviate from -1/(N^2-1)"
    return True, "unit Bloch directions form regular simplexes"


def check_povm_completeness(ctx):
    worst = 0.0
    for n, sic in _sics(ctx).items():
        total = np.einsum("di,dj->ij", sic.states, sic.states.conj())
        worst = max(worst, float(np.abs(total - n * np.eye(n)).max()))
    return worst <= 1e-8, f"max |sum of projectors - N id| {worst:.3e}"


def check_frame_potential_bound(ctx):
    rng = np.random.default_rng(15)
    ok = True
    for n in range(2, ctx["n_max"] + 1):
        floor = frame_potential_minimum(n)
        for _ in range(30):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            fid = Fiducial(dim=n, vector=v, provenance=ctx["probe_prov"])
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
                worst = max(worst, float(np.abs(other - base).max()))
        for tau in np.linspace(*_tau_range(StateKind.ISOTROPIC, n), 5):
            p = convert_params(StateKind.ISOTROPIC, n, "tau", tau)
            a = isotropic_density(n, eta=p.eta).entries
            b = isotropic_density(n, tau=p.tau).entries
            worst = max(worst, float(np.abs(a - b).max()))
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
                ppt = min_eigenvalue(partial_transpose(rho)) >= -ctx["tol"]
                if ppt != (verdict.name == "Separable"):
                    return False, f"N = {n}, {kind.value}, tau = {tau:.6f}: PPT disagrees"
    return True, "PPT eigenvalue sign matches every separability verdict"


def check_reconstruction_fidelity(ctx):
    sics = _sics(ctx)
    # Worst error per certificate tolerance, i.e. per SIC provenance.
    worst = {policy.certificate: 0.0 for policy in TOLERANCES.values()}
    for n, sic in sics.items():
        for kind in (StateKind.WERNER, StateKind.ISOTROPIC):
            for tau in np.linspace(-2.0 / n, 2.0 * (n - 1) / n, 7):
                intervals = admissible_r_interval(n, tau)
                lo, hi = intervals[-1]
                for r in np.linspace(lo, hi, 3):
                    if tau != 0.0 and r == 0.0:
                        continue
                    rep = verify_decomposition(
                        decompose(kind, n, tau, r, sic.bloch))
                    worst[sic.bloch.tol] = max(worst[sic.bloch.tol],
                                               rep.reconstruction_error)
                    ctx.setdefault("factor_floor", 0.0)
                    ctx["factor_floor"] = min(ctx["factor_floor"],
                                              rep.min_eig_r, rep.min_eig_s)
    ok = all(err <= tol for tol, err in worst.items())
    exact, optimized = (worst[TOLERANCES[k].certificate]
                        for k in (EXACT_REGISTRY, OPTIMIZED))
    return ok, (f"max reconstruction error {exact:.3e} (exact), "
                f"{optimized:.3e} (optimized)")


def check_factor_positivity(ctx):
    floor = ctx.get("factor_floor")
    if floor is None:
        return False, "reconstruction check did not run"
    return floor >= -1e-6, f"min factor eigenvalue {floor:.3e}"


def check_simplex_universality(ctx):
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
                    worst = max(worst, rep.reconstruction_error)
    return worst <= 1e-10, f"max error over rotated simplexes {worst:.3e}"


def check_pt_duality(ctx):
    sics = _sics(ctx)
    worst = 0.0
    for n, sic in sics.items():
        for tau in (-2.0 / n, 0.3, 2.0 * (n - 1) / n):
            r = admissible_r_interval(n, tau)[-1][1]
            w = reconstruct(decompose(StateKind.WERNER, n, tau, r, sic.bloch))
            i = reconstruct(decompose(StateKind.ISOTROPIC, n, tau, r, sic.bloch))
            worst = max(worst, float(np.abs(
                partial_transpose(w) - i.entries).max()))
    return worst <= 1e-11, f"max |PT2(Werner) - isotropic| {worst:.3e}"


def check_region_fractions(ctx):
    for n in list(range(2, ctx["n_max"] + 1)) + [100]:
        for row in region_table(n):
            total = row.frac_sep + row.frac_ent + row.frac_steer
            if abs(total - 1.0) > 1e-12:
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


def run_selftest(n_max: int = 3, tol: float = 1e-9,
                 fiducial_cache: str | None = None, writer=None) -> int:
    """Run every check; print one PASS/FAIL line each; 0 iff all pass."""
    if writer is None:
        writer = sys.stdout
    ctx = {"n_max": max(2, n_max), "tol": tol, "fiducial_cache": fiducial_cache,
           "sic": lru_cache(maxsize=None)(obtain_sic),
           "probe_prov": Provenance(kind=OPTIMIZED)}
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
