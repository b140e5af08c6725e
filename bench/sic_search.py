"""sic-search: multi-start fiducial search and certification, N = 12..18.

For every N a pass tries the CLI's whole budget of 20 search seeds, in the
CLI's order but starting at an offset drawn from the workload seed and
wrapping around, and certifies each fiducial found with
``sic_from_fiducial``.  ``sicpovm`` search and certification do all the
work; ``decompose`` and ``serialize`` never run.

The operation is the CLI's multi-start: from a start offset, search seed
after seed until the first success, then certify.  Its latency for each
of the 20 offsets follows from the per-seed times of the pass, so one pass
gives 20 samples per N and the mean over offsets of the time until every
N has a certified SIC (``total_s``, reported as ``sic_time_to_cert_s``).
Seeds that fail are wasted work and show in all three times.  Taking every
offset, not only the seed's own, keeps the figures steady across seeds; the
time from the seed's own offsets is printed as well.  The traced run is the
CLI's multi-start itself: from the seed's own offset to the first certified
SIC of every N, so its counts (nfev, seeds tried, success ratio) are those
of one real multi-start per N.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import (SEED_BUDGET, Outcome, Setups, clear_caches, peak_rss_mb,
                     quantile, traced_run)

DIMS = tuple(range(12, 19))
SMOKE_DIMS = (4, 5)


def _search_pass(ctx, dims, rng, out, first_only=False, between=None) -> dict:
    """Walk the seed budget of every N; returns N -> [(search_s, cert_s)].

    ``cert_s`` is None for a seed whose search failed.  The list is in
    walk order, so index i is the i-th start offset from the drawn one.
    With ``first_only`` the walk of each N stops at its first certified
    SIC, as the CLI's multi-start does.  ``between`` runs, untimed, before
    the walk of each N.
    """
    sicpovm = ctx.package.sicpovm
    rec = ctx.recorder
    walks = {}
    for dim in rng.sample(dims, len(dims)):
        if between:
            between()
        offset = rng.randrange(SEED_BUDGET)
        starts = []
        for i in range(SEED_BUDGET):
            seed = (offset + i) % SEED_BUDGET
            if rec:
                rec.request = f"N{dim}-seed{seed}"
            t0 = time.perf_counter()
            found = sicpovm.find_fiducial(dim, seed=seed)
            search_s = time.perf_counter() - t0
            cert_s = None
            if isinstance(found, sicpovm.Fiducial):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    sic = sicpovm.sic_from_fiducial(found)
                    cert_s = time.perf_counter() - t0
                    if sic.states.shape != (dim * dim, dim):
                        raise ValueError(f"SIC has shape {sic.states.shape}")
                    out.certified += 1
                except ValueError as exc:  # NotAFiducialError is a ValueError
                    out.failed += 1
                    out.notes.append(f"N={dim} seed={seed}: {exc}")
                    cert_s = None
            starts.append((search_s, cert_s))
            if first_only and cert_s is not None:
                break
        if all(c is None for _, c in starts):
            out.attempted += 1
            out.failed += 1
            out.notes.append(f"N={dim}: no certified SIC within {SEED_BUDGET} seeds")
        walks[dim] = starts
    if rec:
        rec.request = None
    return walks


def _times_to_cert(starts) -> list[float]:
    """Multi-start time to a certified SIC from each of the start offsets."""
    out = []
    k = len(starts)
    for first in range(k):
        elapsed = 0.0
        for j in range(k):
            search_s, cert_s = starts[(first + j) % k]
            elapsed += search_s
            if cert_s is not None:
                out.append(elapsed + cert_s)
                break
    return out


def run(ctx) -> Outcome:
    package = ctx.package
    dims = SMOKE_DIMS if ctx.smoke else DIMS

    def setup():
        clear_caches(package)
        for dim in dims:
            package.sicpovm.wh_displacements(dim)
            package.blochspace.su_generators(dim)

    if ctx.trace:
        def work(_, out):
            _search_pass(ctx, dims, random.Random(ctx.seed), out, first_only=True)
            return out.certified
        return traced_run(ctx, setup, work)

    setups = Setups(setup)
    rng = random.Random(ctx.seed)
    out, pass_totals, own_offset, measured = Outcome(), [], [], 0.0
    while not pass_totals or measured < ctx.seconds:
        walks = _search_pass(ctx, dims, rng, out, between=setups)
        per_dim = {dim: _times_to_cert(starts) for dim, starts in walks.items()}
        for times in per_dim.values():
            out.latencies.extend(times)
        pass_totals.append(sum(statistics.mean(t) for t in per_dim.values() if t))
        own_offset.append(sum(t[0] for t in per_dim.values() if t))
        measured += sum(s + (c or 0.0) for starts in walks.values() for s, c in starts)
    out.metrics = {
        "setup_s": setups.median(),
        "ops_per_s": out.certified / measured,
        "op_p50_s": quantile(out.latencies, 0.5),
        "op_p90_s": quantile(out.latencies, 0.9),
        "total_s": statistics.median(pass_totals),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.notes.append(
        f"{len(pass_totals)} passes over N={dims[0]}..{dims[-1]}, "
        f"{SEED_BUDGET} seeds each, {out.certified} certified SICs in "
        f"{measured:.3f} s timed; from this seed's own offsets a certified SIC "
        f"for every N took {statistics.median(own_offset):.3f} s; aliases: "
        "sic_time_to_cert_s = total_s")
    return out
