"""Shared pieces of the benchmark: run context, statistics, metadata,
the traced run, and SIC acquisition by multi-start search."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SEED_BUDGET = 20    # seeds per multi-start, as in the CLI
SETUP_REPEATS = 5   # fewest set-ups per run; setup_s is their median

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    package: object = None
    recorder: object = None

    @property
    def tag(self) -> str:
        return f"{self.workload}-seed{self.seed}" + ("-smoke" if self.smoke else "")


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # reasons correct is false
    metrics: dict = field(default_factory=dict)   # name -> value
    notes: list = field(default_factory=list)     # extra report lines
    latencies: list = field(default_factory=list)  # seconds per operation
    certified: int = 0        # certified results the caller received
    overhead_s: float = 0.0   # traced minus untraced time of the same work
    traces: list = field(default_factory=list)  # (recorder, certified) per traced pass
    import_s: float = 0.0     # import of simplex_decomp.cli in a fresh interpreter


def quantile(values, q: float) -> float:
    """Inclusive linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_note(label: str, values) -> str:
    """Sample counts behind p50/p90 and the highest percentile with at least
    ten samples beyond it."""
    n = len(values)
    supported = [p for p in (50, 90, 99) if n * (100 - p) / 100 >= 10]
    best = f"p{supported[-1]}" if supported else "none"
    return (f"{label}: n={n}, beyond p50={n * 0.5:g}, beyond p90={n * 0.1:g}; "
            f"highest percentile with >=10 beyond: {best}")


class Setups:
    """Repeated set-ups of one run; ``setup_s`` is the median of their times.

    Workloads call it between units of measured work, not only up front:
    machine speed on a shared host drifts over seconds to minutes, and
    set-ups spread over the run see the same conditions as the work they
    are compared with.
    """

    def __init__(self, setup) -> None:
        self._setup = setup
        self.times: list[float] = []

    def __call__(self):
        t0 = time.perf_counter()
        state = self._setup()
        self.times.append(time.perf_counter() - t0)
        return state

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self()
        return statistics.median(self.times)


def traced_run(ctx, setup, work) -> Outcome:
    """Set up and run one fixed piece of work four times: untraced, traced,
    traced, untraced.  ``work(state, outcome)`` returns the number of
    certified results.

    The returned outcome is that of the first traced pass, with the
    problems found in every pass; ``traces`` holds (recorder, certified) of
    both traced passes, set-up included, so that the caller can check that
    computed counts repeat exactly.  The tracing overhead is the mean traced
    time minus the mean untraced time; the symmetric order cancels a steady
    drift in machine speed.
    """
    rec = ctx.recorder
    times = {False: [], True: []}
    out, traces, problems = None, [], []
    for traced in (False, True, True, False):
        rec.enabled = traced
        rec.request = "setup"
        state = setup()
        rec.request = None
        this = Outcome()
        t0 = time.perf_counter()
        certified = work(state, this)
        times[traced].append(time.perf_counter() - t0)
        problems += [p for p in this.problems if p not in problems]
        if traced:
            traces.append((rec.take(), certified))
            if out is None:
                out, out.certified = this, certified
    rec.enabled = False
    out.traces, out.problems = traces, problems
    out.overhead_s = statistics.mean(times[True]) - statistics.mean(times[False])
    return out


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_thread_pools() -> None:
    """Keep native thread pools at or below nproc (default: nproc)."""
    limit = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= limit:
            os.environ[var] = str(limit)


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import ctypes
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu": _cpu_model(),
        "seed": seed,
    }


def multistart(package, dim: int):
    """First fiducial found over seeds 0..SEED_BUDGET-1, else None."""
    sicpovm = package.sicpovm
    for seed in range(SEED_BUDGET):
        found = sicpovm.find_fiducial(dim, seed=seed)
        if isinstance(found, sicpovm.Fiducial):
            return found
    return None


def acquire_sic(package, dim: int):
    """SIC as the CLI obtains one: registry, else search from seed 0."""
    fid = package.sicpovm.known_fiducial(dim) or multistart(package, dim)
    if fid is None:
        raise RuntimeError(f"no fiducial found for N = {dim}")
    return package.sicpovm.sic_from_fiducial(fid)


def clear_caches(package) -> None:
    """Drop the per-dimension caches so a set-up starts cold."""
    for fn in (package.blochspace.su_generators, package.sicpovm.wh_displacements):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()
