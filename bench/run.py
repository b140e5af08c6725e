"""Benchmark of simplex_decomp: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload decompose-lib --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload cli-mix --smoke          # tiny load
    python3 -m pytest bench                                  # smoke test

Workloads (each one closed loop with a single caller; see their modules):
``decompose-lib`` (decomposition requests in process), ``sic-search``
(multi-start fiducial search and certification) and ``cli-mix`` (CLI
invocations as separate processes).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` a separate traced run of a fixed piece of the same
work gives the per-layer metrics: the public functions of every layer
module are wrapped from outside, the work is traced twice, and computed
counts must repeat exactly between the two passes.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it report the same figures with units, sample counts and run
metadata.  Results, and the spans of a traced run, are also written under
``bench/out/``.  Without the package source next to this directory the run
exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.cap_thread_pools()  # before numpy starts its thread pool

from layers import (EXACT_COUNTS, LAYERS, PACKAGE, PER_LAYER,  # noqa: E402
                    UNTRACED, make_hooks, per_layer_metrics)
from tracing import Recorder, instrument  # noqa: E402

WORKLOADS = {"decompose-lib": "decompose_lib", "sic-search": "sic_search",
             "cli-mix": "cli_mix"}


def load_package():
    """The layer modules of the package in ``src/`` beside this directory."""
    src = harness.ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no {PACKAGE} source under {src}")
    sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    where = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"bench: imported {PACKAGE} from {where}, not from {src}")
    return types.SimpleNamespace(**modules)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny load, to check the plumbing")
    args = parser.parse_args(argv)

    ctx = harness.Context(workload=args.workload, seed=args.seed,
                          seconds=0.0 if args.smoke else args.seconds,
                          trace=bool(args.trace), smoke=args.smoke)
    ctx.package = load_package()
    workload = importlib.import_module(WORKLOADS[args.workload])
    if ctx.trace:
        ctx.recorder = Recorder()
        ctx.recorder.enabled = False
        restore = instrument(ctx.recorder, PACKAGE, LAYERS, make_hooks(ctx.package),
                             skip=UNTRACED)
        try:
            out = workload.run(ctx)
        finally:
            restore()
        first, again = (per_layer_metrics(rec, certified, out.import_s, out.overhead_s)
                        for rec, certified in out.traces)
        metrics = first
        units = dict(PER_LAYER)
        out.problems += [f"{name} = {first[name]!r}, repeated pass {again[name]!r}"
                         for name in EXACT_COUNTS if first[name] != again[name]]
    else:
        out = workload.run(ctx)
        metrics = out.metrics
        units = dict(harness.END_TO_END)

    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    meta = harness.metadata(args.seed)
    report = [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    report.append(f"failed_share = {out.failed}/{out.attempted} = "
                  f"{out.failed / max(out.attempted, 1):.4g}")
    if not ctx.trace:
        report.append(harness.percentile_note("op latency", out.latencies))
    report += out.notes + [f"NOT CORRECT: {p}" for p in out.problems]
    report.append("meta: " + json.dumps(meta, sort_keys=True))

    mode = "trace" if ctx.trace else "e2e"
    results = harness.OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{ctx.tag}-{mode}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "meta": meta, "report": report,
                   "latencies": out.latencies}, fh, indent=1)
    if ctx.trace:
        traces = harness.OUT_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        out.traces[0][0].dump(traces / f"{ctx.tag}.jsonl")

    print(f"workload {args.workload}, seed {args.seed}, {mode}")
    for line in report:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
