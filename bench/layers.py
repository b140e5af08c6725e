"""Layer hooks with computed kernel counts, and the per-layer metric table.

The layers are the package modules.  Flops and bytes here are *computed*
from array shapes under the models stated below, not measured: they
ignore caches and library internals, and they repeat exactly for the
same inputs, which the benchmark asserts by tracing the same work twice.
"""

from __future__ import annotations

import inspect
import statistics

PACKAGE = "simplex_decomp"
LAYERS = ("blochspace", "simplex", "sicpovm", "states", "decompose",
          "serialize", "cli")
SUBCOMMANDS = ("classify", "regions", "sic", "decompose")
# Public functions left unwrapped: format_float runs once per number written
# (some 600 000 times for one N = 12 decompose), so a span around it would
# cost more than the work it measures and would swamp the serialize figures.
UNTRACED = ("serialize.format_float",)

C16 = 16  # bytes per complex128
F8 = 8    # bytes per float64


def decompose_counts(n: int) -> tuple[int, int]:
    """Flops and bytes of ``decompose`` for dimension n.

    The vertex contraction a_i . L is a real (N^2, M) by complex (M, N, N)
    product, M = N^2 - 1: 4 flops per term, M terms per complex output,
    N^4 outputs.  Building the two factor stacks costs 4 flops per complex
    element each.  Bytes: vertices and generators read, the operator stack
    written, then read twice and two factor stacks written.
    """
    m, n4 = n * n - 1, n ** 4
    flop = 4 * m * n4 + 2 * 4 * n4
    nbytes = F8 * n * n * m + C16 * m * n * n + C16 * n4 + 2 * (2 * C16 * n4)
    return flop, nbytes


def reconstruct_counts(n: int) -> tuple[int, int]:
    """Flops and bytes of ``reconstruct``: N^2 Kronecker terms of N^4 entries.

    Each term is N^4 complex products (6 flops) accumulated into the output
    (2 flops).  Bytes per term: both factors read, the Kronecker product
    written and read back, the accumulator read and written.
    """
    n4 = n ** 4
    flop = n * n * 8 * n4 + 2 * n4
    nbytes = n * n * (2 * C16 * n * n + 4 * C16 * n4)
    return flop, nbytes


def eigvalsh_counts(n: int) -> tuple[int, int]:
    """Flops and bytes of the two batched ``eigvalsh`` calls in verification.

    Model: eigenvalues of a complex Hermitian n x n matrix through
    tridiagonal reduction, 16/3 n^3 real flops; 2 N^2 matrices of order N.
    Bytes: both factor stacks read, 2 N^2 vectors of N eigenvalues written.
    """
    flop = 2 * n * n * (16 * n ** 3) // 3
    nbytes = 2 * C16 * n ** 4 + 2 * F8 * n ** 3
    return flop, nbytes


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def make_hooks(package) -> dict:
    """Hooks keyed by span name; each adds computed counts for one call."""
    bind_decompose = _binder(package.decompose.decompose)
    bind_find = _binder(package.sicpovm.find_fiducial)

    def on_decompose(rec, args, kwargs, result):
        flop, nbytes = decompose_counts(bind_decompose(args, kwargs)["dim"])
        rec.count("decompose.decompose.flop_computed", flop)
        rec.count("decompose.decompose.bytes_computed", nbytes)

    def on_reconstruct(rec, args, kwargs, result):
        flop, nbytes = reconstruct_counts(args[0].dim)
        rec.count("decompose.reconstruct.flop_computed", flop)
        rec.count("decompose.reconstruct.bytes_computed", nbytes)

    def on_verify(rec, args, kwargs, result):
        flop, nbytes = eigvalsh_counts(args[0].dim)
        rec.count("decompose.verify_decomposition.eigvalsh_flop_computed", flop)
        rec.count("decompose.verify_decomposition.eigvalsh_bytes_computed", nbytes)

    def on_find(rec, args, kwargs, result):
        bound = bind_find(args, kwargs)
        ok = isinstance(result, package.sicpovm.Fiducial)
        nfev = result.provenance.iterations if ok else result.iterations
        rec.count("sicpovm.find_fiducial.nfev", nfev)
        rec.count("sicpovm.find_fiducial.successes", int(ok))
        rec.count("sicpovm.find_fiducial.seed:%d:%d"
                  % (bound["dimension"], bound["seed"]))

    def on_dumps(rec, args, kwargs, result):
        rec.count("serialize.dumps.bytes", len(result.encode("utf-8")))

    return {"decompose.decompose": on_decompose,
            "decompose.reconstruct": on_reconstruct,
            "decompose.verify_decomposition": on_verify,
            "sicpovm.find_fiducial": on_find,
            "serialize.dumps": on_dumps}


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("decompose.decompose.calls", "count"),
    ("decompose.decompose.s", "s"),
    ("decompose.decompose.flop_computed", "flop"),
    ("decompose.decompose.bytes_computed", "B"),
    ("decompose.reconstruct.calls", "count"),
    ("decompose.reconstruct.s", "s"),
    ("decompose.reconstruct.flop_computed", "flop"),
    ("decompose.reconstruct.bytes_computed", "B"),
    ("decompose.verify_decomposition.calls", "count"),
    ("decompose.verify_decomposition.self_s", "s"),
    ("decompose.verify_decomposition.eigvalsh_flop_computed", "flop"),
    ("decompose.verify_decomposition.eigvalsh_bytes_computed", "B"),
    ("decompose.verifications_per_certified", "ratio"),
    ("states.closed_form.calls", "count"),
    ("states.closed_form.s", "s"),
    ("simplex.verify_simplex.calls", "count"),
    ("simplex.verify_simplex.s", "s"),
    ("simplex.verify_per_decomposition", "ratio"),
    ("sicpovm.find_fiducial.calls", "count"),
    ("sicpovm.find_fiducial.s", "s"),
    ("sicpovm.find_fiducial.nfev", "count"),
    ("sicpovm.find_fiducial.seeds_tried", "count"),
    ("sicpovm.find_fiducial.success_ratio", "ratio"),
    ("sicpovm.s_per_nfev", "s"),
    ("sicpovm.sic_from_fiducial.calls", "count"),
    ("sicpovm.sic_from_fiducial.s", "s"),
    ("sicpovm.known_fiducial.s", "s"),
    ("blochspace.su_generators.cold_s", "s"),
    ("sicpovm.wh_displacements.cold_s", "s"),
    ("serialize.dumps.calls", "count"),
    ("serialize.dumps.s", "s"),
    ("serialize.dumps.bytes", "B"),
    ("serialize.bytes_per_s", "B/s"),
    ("cli.import_s", "s"),
    *[(f"cli.{cmd}.p50_s", "s") for cmd in SUBCOMMANDS],
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]

# Counts, and ratios of counts, that must repeat exactly when the same work
# is traced again.
EXACT_COUNTS = [name for name, unit in PER_LAYER
                if unit in ("count", "flop", "ratio") or name.endswith("bytes_computed")
                or name == "serialize.dumps.bytes"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rec, certified: int, import_s: float,
                      overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced recorder.

    ``certified`` is the number of certified decompositions the workload
    received; ratios with an empty base read 0.
    """
    tot = rec.totals()
    cnt = rec.counts

    def t(name, key):
        return tot.get(name, {}).get(key, 0.0)

    find = "sicpovm.find_fiducial"
    seeds = sum(1 for k in cnt if k.startswith(find + ".seed:"))
    nfev = cnt[find + ".nfev"]
    dumps_bytes = cnt["serialize.dumps.bytes"]
    out = {
        "decompose.decompose.calls": t("decompose.decompose", "calls"),
        "decompose.decompose.s": t("decompose.decompose", "s"),
        "decompose.reconstruct.calls": t("decompose.reconstruct", "calls"),
        "decompose.reconstruct.s": t("decompose.reconstruct", "s"),
        "decompose.verify_decomposition.calls":
            t("decompose.verify_decomposition", "calls"),
        "decompose.verify_decomposition.self_s":
            t("decompose.verify_decomposition", "self_s"),
        "decompose.verifications_per_certified":
            _ratio(t("decompose.verify_decomposition", "calls"), certified),
        "states.closed_form.calls": t("states.werner_density", "calls")
        + t("states.isotropic_density", "calls"),
        "states.closed_form.s": t("states.werner_density", "s")
        + t("states.isotropic_density", "s"),
        "simplex.verify_simplex.calls": t("simplex.verify_simplex", "calls"),
        "simplex.verify_simplex.s": t("simplex.verify_simplex", "s"),
        "simplex.verify_per_decomposition":
            _ratio(t("simplex.verify_simplex", "calls"),
                   t("decompose.decompose", "calls")),
        "sicpovm.find_fiducial.calls": t(find, "calls"),
        "sicpovm.find_fiducial.s": t(find, "s"),
        "sicpovm.find_fiducial.nfev": nfev,
        "sicpovm.find_fiducial.seeds_tried": seeds,
        "sicpovm.find_fiducial.success_ratio":
            _ratio(cnt[find + ".successes"], t(find, "calls")),
        "sicpovm.s_per_nfev": _ratio(t(find, "s"), nfev),
        "sicpovm.sic_from_fiducial.calls": t("sicpovm.sic_from_fiducial", "calls"),
        "sicpovm.sic_from_fiducial.s": t("sicpovm.sic_from_fiducial", "s"),
        "sicpovm.known_fiducial.s": t("sicpovm.known_fiducial", "s"),
        "blochspace.su_generators.cold_s": cnt["blochspace.su_generators.cold_s"],
        "sicpovm.wh_displacements.cold_s": cnt["sicpovm.wh_displacements.cold_s"],
        "serialize.dumps.calls": t("serialize.dumps", "calls"),
        "serialize.dumps.s": t("serialize.dumps", "s"),
        "serialize.dumps.bytes": dumps_bytes,
        "serialize.bytes_per_s": _ratio(dumps_bytes, t("serialize.dumps", "s")),
        "cli.import_s": import_s,
        "trace.spans": len(rec.spans),
        "trace.overhead_s": overhead_s,
    }
    for key in ("decompose.decompose", "decompose.reconstruct"):
        out[key + ".flop_computed"] = cnt[key + ".flop_computed"]
        out[key + ".bytes_computed"] = cnt[key + ".bytes_computed"]
    for key in ("eigvalsh_flop_computed", "eigvalsh_bytes_computed"):
        out["decompose.verify_decomposition." + key] = \
            cnt["decompose.verify_decomposition." + key]
    for cmd in SUBCOMMANDS:
        runs = rec.durations(f"cli.cmd_{cmd}")
        out[f"cli.{cmd}.p50_s"] = statistics.median(runs) if runs else 0.0
    return {name: out[name] for name, _ in PER_LAYER}
