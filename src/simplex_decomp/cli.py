"""Command-line front-end.

Subcommands construct SIC fiducials, emit verified separable
decompositions, classify states, and dump region tables; ``selftest`` runs
a reduced version of the full invariant suite.  All numeric output uses
17-significant-digit decimals, so identical flags, seed, and cache produce
byte-identical output on one platform.

Exit codes (stable contract): 0 success, 1 selftest/certificate failure,
2 search failure, 3 I/O error, 4 non-separable input, 5 bad parameter.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import selftest as selftest_mod
from . import serialize
from .decompose import (Decomposition, VerificationReport, certify,
                        contour_radii, separable_decompose)
from .errors import (CertificateError, DimensionMismatchError,
                     FiducialCacheError, FiducialSearchError,
                     InadmissibleRadiusError, NotAFiducialError,
                     NotSeparableError, ParameterRangeError,
                     SicUnavailableError, SimplexStructureError)
from .sicpovm import (TOLERANCES, FiducialSearchFailure, find_fiducial,
                      known_fiducial, max_overlap_deviation, obtain_sic,
                      save_fiducial_cache)
from .states import StateKind, classify, convert_params, region_csv, region_table

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_SEARCH = 2
EXIT_IO = 3
EXIT_NOT_SEPARABLE = 4
EXIT_BAD_PARAMETER = 5

ENV_CACHE = "SIMPLEX_DECOMP_CACHE"

# Exit code of each error that reaches main; the first matching row wins.
_EXIT_CODES = (
    ((NotSeparableError,), EXIT_NOT_SEPARABLE),
    ((CertificateError,), EXIT_SELFTEST),
    ((NotAFiducialError, FiducialSearchError, FiducialCacheError), EXIT_SEARCH),
    ((ParameterRangeError, DimensionMismatchError, SimplexStructureError,
      SicUnavailableError), EXIT_BAD_PARAMETER),
    ((OSError,), EXIT_IO),
)


def _resolve_cache(flag_value: str | None) -> str | None:
    return os.environ.get(ENV_CACHE) or flag_value


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _simplex_dict(s) -> dict:
    return {"ambient_dim": s.ambient_dim,
            "vertices": serialize.encode_rmatrix(s.vertices)}


def _report_dict(rep: VerificationReport) -> dict:
    return {
        "reconstruction_error": rep.reconstruction_error,
        "min_eig_R": rep.min_eig_r,
        "min_eig_S": rep.min_eig_s,
        "all_factors_psd": rep.all_factors_psd,
        "separable_certificate": rep.separable_certificate,
    }


def _decomposition_dict(d: Decomposition, rep: VerificationReport) -> dict:
    return {
        "kind": d.kind.value,
        "N": d.dim,
        "tau": d.tau,
        "r": d.r,
        "s": d.s,
        "simplex": _simplex_dict(d.simplex),
        "factors": [{"R": serialize.encode_cmatrix(d.factors_r[i]),
                     "S": serialize.encode_cmatrix(d.factors_s[i])}
                    for i in range(d.n_factors)],
        "report": _report_dict(rep),
    }


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", type=float)
    group.add_argument("--phi", type=float)
    group.add_argument("--alpha", type=float)
    group.add_argument("--beta", type=float)
    group.add_argument("--eta", type=float)


def _given_param(args, kind: StateKind) -> tuple[str, float]:
    for name in ("tau", "phi", "alpha", "beta", "eta"):
        value = getattr(args, name)
        if value is not None:
            if kind is StateKind.WERNER and name == "eta":
                raise ParameterRangeError("--eta applies to isotropic states only")
            if kind is StateKind.ISOTROPIC and name in ("phi", "alpha", "beta"):
                raise ParameterRangeError(f"--{name} applies to Werner states only")
            return name, value
    raise ParameterRangeError("one parameter flag is required")


def cmd_sic(args) -> int:
    cache_path = _resolve_cache(args.cache)
    if args.find:
        residual_tol = {} if args.tol is None else {"tol": args.tol}
        result = find_fiducial(args.N, seed=args.seed, max_iters=args.max_iters,
                               **residual_tol)
        if isinstance(result, FiducialSearchFailure):
            payload = {"N": result.dim, "seed": result.seed,
                       "iterations": result.iterations,
                       "residual": result.best_residual, "success": False}
            print(serialize.dumps(payload))
            return EXIT_SEARCH
        if cache_path is not None:
            try:
                save_fiducial_cache(cache_path, result)
            except OSError as exc:
                print(f"cannot write fiducial cache {cache_path}: {exc}", file=sys.stderr)
                return EXIT_IO
        payload = {"N": result.dim, "seed": result.provenance.seed,
                   "iterations": result.provenance.iterations,
                   "residual": result.provenance.residual, "success": True,
                   "cache": cache_path}
        print(serialize.dumps(payload))
        return EXIT_OK
    # --verify
    fid = known_fiducial(args.N, cache_path)
    if fid is None:
        print(f"no fiducial known for N = {args.N}; run --find first", file=sys.stderr)
        return EXIT_BAD_PARAMETER
    deviation = max_overlap_deviation(fid)
    tol = TOLERANCES[fid.provenance.kind].overlap if args.tol is None else args.tol
    payload = {"N": args.N, "max_overlap_deviation": deviation, "tol": tol,
               "provenance": fid.provenance.kind, "ok": deviation <= tol}
    print(serialize.dumps(payload))
    return EXIT_OK if deviation <= tol else EXIT_SEARCH


def cmd_decompose(args) -> int:
    kind = StateKind.parse(args.kind)
    name, value = _given_param(args, kind)
    params = convert_params(kind, args.N, name, value)
    cls = classify(kind, args.N, params.tau)
    if cls.name != "Separable":
        print(serialize.dumps({"class": cls.name, "boundaries": cls.boundaries,
                               "params": params.as_dict()}))
        print(f"state is {cls.name}, not separable: no product decomposition exists",
              file=sys.stderr)
        return EXIT_NOT_SEPARABLE
    sic = obtain_sic(args.N, _resolve_cache(args.fiducial_cache))
    if args.r is not None:
        radii = [args.r]
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            radii = contour_radii(args.N, params.tau, args.count)
        for w in caught:
            print(str(w.message), file=sys.stderr)
    try:
        items = [separable_decompose(kind, args.N, params.tau, r, sic=sic)
                 for r in radii]
    except InadmissibleRadiusError as exc:
        print(str(exc), file=sys.stderr)
        print(serialize.dumps({"admissible_r_intervals":
                               [[a, b] for a, b in exc.intervals],
                               "nearest": exc.nearest}))
        return EXIT_BAD_PARAMETER
    dicts = [_decomposition_dict(d, certify(d, args.tol)) for d in items]
    body = dicts[0] if len(dicts) == 1 else dicts
    try:
        _write_output(serialize.dumps(body) + "\n", args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_classify(args) -> int:
    kind = StateKind.parse(args.kind)
    name, value = _given_param(args, kind)
    params = convert_params(kind, args.N, name, value)
    cls = classify(kind, args.N, params.tau)
    payload = {"class": cls.name, "boundaries": cls.boundaries,
               "params": params.as_dict()}
    if cls.note:
        payload["note"] = cls.note
    print(serialize.dumps(payload))
    return EXIT_OK


def parse_n_list(text: str) -> list[int]:
    """Comma-separated dimensions with range sugar: '2,3,...,100' or '2-100'."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    values: list[int] = []
    ellipsis_pending = False
    for tok in tokens:
        if tok in ("...", ".."):
            if not values:
                raise ParameterRangeError("'...' needs a number before it")
            ellipsis_pending = True
            continue
        if "-" in tok and not tok.lstrip().startswith("-"):
            lo_s, hi_s = tok.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ParameterRangeError(f"bad range {tok!r}")
            chunk = list(range(lo, hi + 1))
        else:
            chunk = [int(tok)]
        if ellipsis_pending:
            step = values[-1] - values[-2] if len(values) >= 2 else 1
            if step < 1:
                step = 1
            values.extend(range(values[-1] + step, chunk[0], step))
            ellipsis_pending = False
        values.extend(chunk)
    if ellipsis_pending:
        raise ParameterRangeError("'...' needs a number after it")
    seen, out = set(), []
    for v in values:
        if v < 2:
            raise ParameterRangeError(f"dimension {v} must be >= 2")
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def cmd_regions(args) -> int:
    dims = parse_n_list(args.n_list)
    rows = []
    for n in dims:
        for row in region_table(n):
            if args.family == "both" or row.family == args.family:
                rows.append(row)
    try:
        _write_output(region_csv(rows), args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_selftest(args) -> int:
    return selftest_mod.run_selftest(
        n_max=args.n_max, tol=args.tol,
        fiducial_cache=_resolve_cache(args.fiducial_cache), writer=sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-decomp",
        description="Werner/isotropic state toolkit: SIC-POVM construction, "
                    "separable decompositions, nonlocality regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sic", help="find or verify a SIC fiducial")
    p.add_argument("N", type=int)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--find", action="store_true")
    mode.add_argument("--verify", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--cache", type=str, default=None,
                   help=f"fiducial cache file (env {ENV_CACHE} overrides)")
    p.set_defaults(func=cmd_sic)

    p = sub.add_parser("decompose", help="emit verified separable decompositions")
    p.add_argument("kind", choices=["werner", "iso", "isotropic"])
    p.add_argument("N", type=int)
    _add_param_flags(p)
    p.add_argument("--r", type=float, default=None,
                   help="left factor radius on the contour r*s = tau")
    p.add_argument("--count", type=int, default=1,
                   help="number of contour samples when --r is not given")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--tol", type=float, default=None,
                   help="reconstruction tolerance for the certificate")
    p.add_argument("--fiducial-cache", type=str, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="nonlocality class of a state")
    p.add_argument("kind", choices=["werner", "iso", "isotropic"])
    p.add_argument("N", type=int)
    _add_param_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("regions", help="region boundaries and fractions as CSV")
    p.add_argument("--family", choices=["both", "werner", "iso", "isotropic"],
                   default="both")
    p.add_argument("--n-list", type=str, default="2,3,...,10")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("selftest", help="run the reduced invariant suite")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--fiducial-cache", type=str, default=None)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "regions" and args.family == "iso":
        args.family = "isotropic"
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        print(str(exc), file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
