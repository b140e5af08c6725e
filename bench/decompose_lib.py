"""decompose-lib: an in-process closed loop of decomposition requests.

One caller sends seeded requests straight to the library: ``contour_sample``
or ``separable_decompose`` + ``verify_decomposition``, for both families and
N in {4, 8, 12, 16}, with tau drawn over the separable interval and both of
its endpoints included.  SICs are acquired in set-up, so the decompose
kernels and the closed-form oracle in ``states`` do the timed work; no
search, serialization or import is timed.

A round holds a fixed number of requests of each (family, N, kind) in a
seeded order, so every seed gives the same mix: three in four requests have
N <= 8 and set the p50, one in eight has N = 16 and sets the p90.  The run
measures whole rounds until --seconds have passed; the traced run measures
one round.
"""

from __future__ import annotations

import random
import statistics
import time
import warnings

from harness import (Outcome, Setups, acquire_sic, clear_caches, peak_rss_mb,
                     quantile, traced_run)

FAMILIES = ("werner", "isotropic")
MULTIPLICITY = {4: 3, 8: 3, 12: 1, 16: 1}
SMOKE_MULTIPLICITY = {3: 1, 4: 1}
CONTOUR_COUNT = 4


def _draw_r(rng: random.Random, package, dim: int, tau: float) -> float:
    """Radius uniform over the admissible set for (N, tau)."""
    intervals = package.decompose.admissible_r_interval(dim, tau)
    pick = rng.uniform(0.0, sum(b - a for a, b in intervals))
    for a, b in intervals:
        if pick <= b - a:
            return a + pick
        pick -= b - a
    return intervals[-1][1]


def make_round(rng: random.Random, package, multiplicity) -> list[tuple]:
    """(family, N, kind, tau, r) requests of one round, shuffled."""
    requests = []
    for family in FAMILIES:
        for dim, times in multiplicity.items():
            lo, hi = -2.0 / dim, 2.0 * (dim - 1.0) / dim
            for _ in range(times):
                requests.append((family, dim, "contour", lo, None))
                requests.append((family, dim, "contour", hi, None))
                requests.append((family, dim, "contour", rng.uniform(lo, hi), None))
                tau = rng.uniform(lo, hi)
                requests.append((family, dim, "point", tau,
                                 _draw_r(rng, package, dim, tau)))
    rng.shuffle(requests)
    return requests


def _target_tol(package, sic) -> float:
    """Certificate tolerance for decompositions over ``sic``.

    The library has no function for this choice; it is written out in
    ``decompose.contour_sample`` and ``cli.cmd_decompose``, and this copy
    must match them.  The benchmark passes it to ``contour_sample`` too, so
    the library certifies and the benchmark checks by the same rule.
    """
    return 1e-10 if sic.tol <= package.sicpovm.EXACT_TOL else 1e-7


def _request(package, sics, req):
    family, dim, kind, tau, r = req
    sic = sics[dim]
    tol = _target_tol(package, sic)
    if kind == "contour":
        return package.decompose.contour_sample(family, dim, tau, CONTOUR_COUNT,
                                                sic=sic, target_tol=tol), None
    d = package.decompose.separable_decompose(family, dim, tau, r, sic=sic)
    return [d], [package.decompose.verify_decomposition(d, target_tol=tol)]


def _check(ctx, sics, req, items, reports) -> int:
    """Number of certified decompositions in a response; raises
    AssertionError when one lacks its certificate.

    Contour samples come without a report, so they are verified here,
    untimed and with the recorder paused.
    """
    package, rec = ctx.package, ctx.recorder
    _, dim, _, tau, _ = req
    if not items:
        raise AssertionError(f"no decomposition for {req}")
    if reports is None:
        was = rec.enabled if rec else False
        if rec:
            rec.enabled = False
        try:
            tol = _target_tol(package, sics[dim])
            reports = [package.decompose.verify_decomposition(d, target_tol=tol)
                       for d in items]
        finally:
            if rec:
                rec.enabled = was
    for d, rep in zip(items, reports):
        if not rep.separable_certificate or d.dim != dim or d.tau != tau:
            raise AssertionError(f"uncertified decomposition for {req}: {rep}")
    return len(items)


def _run_requests(ctx, sics, requests, out, tag) -> int:
    rec = ctx.recorder
    certified = 0
    for i, req in enumerate(requests):
        if rec:
            rec.request = f"{tag}{i}"
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            items, reports = _request(ctx.package, sics, req)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failed += 1
            out.notes.append(f"request {req} raised {exc!r}")
            continue
        out.latencies.append(time.perf_counter() - t0)
        try:
            certified += _check(ctx, sics, req, items, reports)
        except AssertionError as exc:
            out.failed += 1
            out.notes.append(str(exc))
    if rec:
        rec.request = None
    return certified


def run(ctx) -> Outcome:
    package = ctx.package
    warnings.filterwarnings("ignore", message=r"contour r\*s")
    multiplicity = SMOKE_MULTIPLICITY if ctx.smoke else MULTIPLICITY
    rng = random.Random(ctx.seed)

    def setup():
        clear_caches(package)
        return {n: acquire_sic(package, n) for n in multiplicity}

    if ctx.trace:
        requests = make_round(rng, package, multiplicity)
        return traced_run(ctx, setup, lambda sics, out:
                          _run_requests(ctx, sics, requests, out, "r0-"))

    setups = Setups(setup)
    out, round_times, round_rates = Outcome(), [], []
    while not round_times or sum(round_times) < ctx.seconds:
        sics = setups()
        before = len(out.latencies)
        certified = _run_requests(ctx, sics, make_round(rng, package, multiplicity),
                                  out, f"r{len(round_times)}-")
        if len(out.latencies) == before:
            raise RuntimeError("every request of a round failed")
        out.certified += certified
        round_times.append(sum(out.latencies[before:]))
        round_rates.append(certified / round_times[-1])
    measured = sum(out.latencies)
    out.metrics = {
        "setup_s": setups.median(),
        "ops_per_s": statistics.median(round_rates),
        "op_p50_s": quantile(out.latencies, 0.5),
        "op_p90_s": quantile(out.latencies, 0.9),
        "total_s": statistics.median(round_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes.append(
        f"{len(round_times)} rounds, {out.attempted} requests, {out.certified} "
        f"certified decompositions in {measured:.3f} s timed; aliases: "
        "decomp_per_s = ops_per_s (median over rounds), decomp_p50_s = op_p50_s, "
        "decomp_p90_s = op_p90_s, total_s = one round")
    return out
