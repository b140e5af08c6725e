"""cli-mix: sequential ``python -m simplex_decomp`` invocations over a seeded mix.

One caller runs the CLI as a fresh process per command, so interpreter and
import start-up count, and so does ``serialize``, which writes every
decompose result.  A pass holds ``classify``, ``regions``, ``sic 3
--verify``, ``decompose`` at N = 3, and at N = 8 and 12 from fiducial
caches written in set-up (``sicpovm`` is reached through a cache read, not
a search), plus inputs whose documented exits are 4 and 5.  One of those,
``--r nan``, documents exit 5; a run counts it as failed while the program
exits otherwise.  Commands without seeded arguments are pinned: their exit
code and output must hash to the constants in ``PINNED``.

The run measures whole passes until --seconds have passed, and at least
MIN_PASSES of them, so that the p50 has ten invocations beyond it.  The
traced run calls ``cli.main`` in process, so that spans of the layers below
the CLI exist, and times the import of ``simplex_decomp.cli`` in a separate
interpreter.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from harness import (OUT_DIR, ROOT, Outcome, Setups, clear_caches, multistart,
                     peak_rss_mb, quantile, traced_run)

CACHED_DIMS = (8, 12)
SMOKE_CACHED_DIMS = (4, 5)
TIMEOUT_S = 120
IMPORT_REPEATS = 3
SETUP_EVERY = 4  # commands between two timed set-ups
MIN_PASSES = 2   # 22 invocations: 11 beyond the p50

# sha256 of exit code and standard output of each pinned command.  The CLI
# writes every number as a 17-digit decimal, so this output is fixed; a
# change that alters it on purpose updates these constants with it.
PINNED = {
    "sic 3 --verify":
        "e71678ffac855266f83262f19644dec746b719b237e30a3d6539fb7d6faefaab",
    "decompose werner 2 --tau 1 --r 1":
        "d2813555ea23f5d9edaf108de934cd7abf05a37eab3673b5bc5c8c0ce0405eaf",
}


def make_pass(rng: random.Random, caches: dict, workdir: str) -> list[tuple]:
    """(argv, documented exit) for one pass, in a seeded order."""
    def fam():
        return rng.choice(("werner", "iso"))
    small, large = sorted(caches)
    n1, n2, n4 = rng.randint(2, 10), rng.randint(2, 10), rng.randint(3, 6)
    lo4, wmin4 = -2.0 / n4, -2.0 * (n4 + 1.0) / n4
    mix = [
        (["classify", "werner", str(n1),
          "--tau", repr(rng.uniform(-2.0 * (n1 + 1) / n1, 2.0 * (n1 - 1) / n1))], 0),
        (["classify", "iso", str(n2), "--eta",
          repr(rng.uniform(-1.0 / (n2 * n2 - 1), 1.0))], 0),
        (["regions", "--family", rng.choice(("both", "werner", "iso")),
          "--n-list", "2,3,...,40"], 0),
        (["sic", "3", "--verify"], 0),
        (["decompose", "werner", "2", "--tau", "1", "--r", "1"], 0),
        (["decompose", fam(), "3", "--tau", repr(rng.uniform(-0.6, 1.3)),
          "--count", "4"], 0),
        (["decompose", fam(), str(small), "--tau",
          repr(rng.uniform(-1.5 / small, 1.5)), "--count", "2",
          "--fiducial-cache", caches[small]], 0),
        (["decompose", fam(), str(large), "--tau",
          repr(rng.uniform(-1.5 / large, 1.5)), "--count", "4",
          "--fiducial-cache", caches[large],
          "--out", os.path.join(workdir, "decompose.json")], 0),
        (["decompose", "werner", str(n4), "--tau",
          repr(lo4 - rng.uniform(0.2, 0.8) * (lo4 - wmin4))], 4),
        (["decompose", "werner", "3", "--tau", repr(rng.uniform(0.1, 1.2)),
          "--r", repr(rng.uniform(1.5, 2.5))], 5),
        (["decompose", "werner", "3", "--tau", "0.5", "--r", "nan"], 5),
    ]
    rng.shuffle(mix)
    return mix


def _subprocess(argv, workdir):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "simplex_decomp", *argv],
                          cwd=workdir, env=env, capture_output=True,
                          timeout=TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def _in_process(package, argv):
    clear_caches(package)  # every CLI process starts with cold caches
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = package.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is what the CLI would exit 1 on
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def _certified(argv, stdout: bytes) -> int:
    """Decompositions in a decompose result; raises ValueError unless each
    carries a separable certificate."""
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            stdout = fh.read()
    body = json.loads(stdout)
    items = body if isinstance(body, list) else [body]
    if not items or not all(d["report"]["separable_certificate"] is True for d in items):
        raise ValueError("decomposition without separable_certificate")
    return len(items)


def _run_pass(ctx, mix, workdir, out, in_process,
              between=None) -> tuple[int, float]:
    """Run one pass; returns (certified decompositions, pass wall seconds).

    ``between`` runs, untimed, before every SETUP_EVERY-th command after
    the first.
    """
    certified, wall = 0, 0.0
    for i, (argv, expected) in enumerate(mix):
        if between and i and i % SETUP_EVERY == 0:
            between()
        out.attempted += 1
        t0 = time.perf_counter()
        if in_process:
            code, stdout, stderr = _in_process(ctx.package, argv)
        else:
            code, stdout, stderr = _subprocess(argv, workdir)
        elapsed = time.perf_counter() - t0
        wall += elapsed
        out.latencies.append(elapsed)
        command = " ".join(argv)
        try:
            if code != expected:
                raise ValueError(f"exit {code}, documented {expected}")
            if "Traceback" in stderr:
                raise ValueError("traceback on stderr")
            if argv[0] == "decompose" and expected == 0:
                certified += _certified(argv, stdout)
        except (ValueError, KeyError, OSError) as exc:
            out.failed += 1
            out.notes.append(f"failed: {command}: {exc}")
        pin = PINNED.get(command)
        if pin and hashlib.sha256(b"%d\n" % code + stdout).hexdigest() != pin:
            out.problems.append(f"pinned output changed: {command}")
    return certified, wall


def run(ctx) -> Outcome:
    package = ctx.package
    dims = SMOKE_CACHED_DIMS if ctx.smoke else CACHED_DIMS
    workdir = OUT_DIR / "tmp" / f"cli-mix-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(ctx.seed)
    os.environ.pop("SIMPLEX_DECOMP_CACHE", None)  # it would override every cache flag

    def setup():
        clear_caches(package)
        caches = {}
        for dim in dims:
            fid = multistart(package, dim)
            if fid is None:
                raise RuntimeError(f"no fiducial found for N = {dim}")
            caches[dim] = str(workdir / f"fiducial-{dim}.json")
            package.sicpovm.save_fiducial_cache(caches[dim], fid)
        return caches

    try:
        if ctx.trace:
            out = _traced(ctx, setup, workdir)
        else:
            out = _timed(ctx, setup, rng, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _traced(ctx, setup, workdir) -> Outcome:
    def work(caches, out):
        mix = make_pass(random.Random(ctx.seed), caches, str(workdir))
        return _run_pass(ctx, mix, workdir, out, in_process=True)[0]

    out = traced_run(ctx, setup, work)
    code = ("import time; t0 = time.perf_counter(); import simplex_decomp.cli; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(workdir),
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              check=True)
        imports.append(float(proc.stdout.strip()))
    out.import_s = statistics.median(imports)
    return out


def _timed(ctx, setup, rng, workdir) -> Outcome:
    setups = Setups(setup)
    caches = setups()
    out, pass_walls = Outcome(), []
    min_passes = 1 if ctx.smoke else MIN_PASSES
    while len(pass_walls) < min_passes or sum(pass_walls) < ctx.seconds:
        # Set-ups rewrite the same cache files, so the mix is unaffected.
        certified, wall = _run_pass(ctx, make_pass(rng, caches, str(workdir)),
                                    workdir, out, in_process=False,
                                    between=setups)
        out.certified += certified
        pass_walls.append(wall)
    measured = sum(pass_walls)
    out.metrics = {
        "setup_s": setups.median(),
        "ops_per_s": (out.attempted - out.failed) / measured,
        "op_p50_s": quantile(out.latencies, 0.5),
        "op_p90_s": quantile(out.latencies, 0.9),
        "total_s": statistics.median(pass_walls),
        "peak_rss_mb": peak_rss_mb(children=True),
    }
    out.notes.append(
        f"{len(pass_walls)} passes, {out.attempted} invocations, "
        f"{out.certified} certified decompositions written; aliases: "
        "cli_p50_s = op_p50_s, cli_total_s = total_s, peak_rss_mb = children's peak")
    return out
