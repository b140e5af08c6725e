"""Command-line front-end.

Subcommands construct SIC fiducials, emit verified separable
decompositions, classify states, and dump region tables; ``selftest`` runs
a reduced version of the full invariant suite.  All numeric output uses
17-significant-digit decimals, so identical flags, seed, and cache produce
byte-identical output on one platform.

Exit codes (stable contract): 0 success, 1 selftest/certificate failure,
2 search failure, 3 I/O error, 4 non-separable input, 5 bad parameter
(a usage error or a request too large to allocate included).  Commands
print their stdout payload and raise; ``main`` maps the error to its code.

The array layers (``decompose``, ``sicpovm``, ``selftest``) are imported
inside the commands that use them, so that ``classify``, ``regions`` and a
``decompose`` refused on its parameters never load numpy.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import serialize
from .errors import (CertificateError, DimensionMismatchError,
                     FiducialCacheError, FiducialSearchError,
                     InadmissibleRadiusError, NotAFiducialError,
                     NotSeparableError, ParameterRangeError,
                     SimplexStructureError)
from .params import (StateKind, check_dimension, check_radius, check_sample_count,
                     classify, convert_params, region_csv, region_table)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_SEARCH = 2
EXIT_IO = 3
EXIT_NOT_SEPARABLE = 4
EXIT_BAD_PARAMETER = 5

# Exit code of each error that reaches main; the first matching row wins.
_EXIT_CODES = (
    ((NotSeparableError,), EXIT_NOT_SEPARABLE),
    ((CertificateError,), EXIT_SELFTEST),
    ((NotAFiducialError, FiducialSearchError, FiducialCacheError), EXIT_SEARCH),
    ((ParameterRangeError, DimensionMismatchError, SimplexStructureError,
      MemoryError), EXIT_BAD_PARAMETER),
    ((OSError,), EXIT_IO),
)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _decomposition_dict(d, rep) -> dict:
    """JSON payload of a :class:`~simplex_decomp.decompose.Decomposition` and
    its :class:`~simplex_decomp.decompose.VerificationReport`."""
    # Each stack is encoded once; a factor is a view of its stack.
    left = serialize.encode_cmatrix(d.factors_r)
    right = serialize.encode_cmatrix(d.factors_s)
    return {
        "kind": d.kind.value, "N": d.dim, "tau": d.tau, "r": d.r, "s": d.s,
        "simplex": {"ambient_dim": d.simplex.ambient_dim,
                    "vertices": d.simplex.vertices},
        "factors": [{"R": a, "S": b} for a, b in zip(left, right)],
        "report": {"reconstruction_error": rep.reconstruction_error,
                   "min_eig_R": rep.min_eig_r, "min_eig_S": rep.min_eig_s,
                   "all_factors_psd": rep.all_factors_psd,
                   "separable_certificate": rep.separable_certificate},
    }


# The parameter flags of classify and decompose; convert_params decides
# which of them a family takes.
_PARAM_FLAGS = ("tau", "phi", "alpha", "beta", "eta")


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    for name in _PARAM_FLAGS:
        group.add_argument(f"--{name}", type=float)


def _given_param(args) -> tuple[str, float]:
    """The one parameter flag given, which the required group guarantees."""
    name = next(name for name in _PARAM_FLAGS if getattr(args, name) is not None)
    return name, getattr(args, name)


def cmd_sic(args) -> int:
    from .sicpovm import (TOLERANCES, FiducialSearchFailure, find_fiducial,
                          known_fiducial, max_overlap_deviation,
                          save_fiducial_cache)
    if args.find:
        result = find_fiducial(args.N, seed=args.seed, max_iters=args.max_iters)
        if isinstance(result, FiducialSearchFailure):
            print(serialize.dumps({"N": result.dim, "seed": result.seed,
                                   "iterations": result.iterations,
                                   "residual": result.best_residual, "success": False}))
            raise FiducialSearchError(f"fiducial search failed for N = {result.dim} "
                                      f"at seed {result.seed}")
        if args.cache is not None:
            save_fiducial_cache(args.cache, result)
        payload = {"N": result.dim, "seed": result.provenance.seed,
                   "iterations": result.provenance.iterations,
                   "residual": result.provenance.residual, "success": True,
                   "cache": args.cache}
        print(serialize.dumps(payload))
        return EXIT_OK
    # --verify
    fid = known_fiducial(args.N, args.cache)
    if fid is None:
        raise ParameterRangeError(f"no fiducial known for N = {args.N}; run --find first")
    deviation = max_overlap_deviation(fid)
    tol = TOLERANCES[fid.provenance.kind].overlap
    payload = {"N": args.N, "max_overlap_deviation": deviation, "tol": tol,
               "provenance": fid.provenance.kind, "ok": deviation <= tol}
    print(serialize.dumps(payload))
    if not deviation <= tol:
        raise NotAFiducialError(f"displacement orbit is not equiangular: deviation "
                                f"{deviation:.3e} exceeds {tol:.1e}", deviation)
    return EXIT_OK


def cmd_decompose(args) -> int:
    kind = StateKind.parse(args.kind)
    params = convert_params(kind, args.N, *_given_param(args))
    cls = classify(kind, args.N, params.tau)
    if cls.name != "Separable":
        print(serialize.dumps({"class": cls.name, "boundaries": cls.boundaries,
                               "params": params.as_dict()}))
        raise NotSeparableError(f"state is {cls.name}, not separable: no product "
                                f"decomposition exists", classification=cls)
    # The radii are fixed before any array layer is loaded: a given radius
    # passes check_radius, a count check_sample_count, and contour_radii
    # gives admissible radii by construction.
    if args.r is not None:
        try:
            check_radius(args.N, params.tau, args.r)
        except InadmissibleRadiusError as exc:
            print(serialize.dumps({"admissible_r_intervals":
                                   [[a, b] for a, b in exc.intervals],
                                   "nearest": exc.nearest}))
            raise
    elif args.count is not None:
        check_sample_count(args.count)
    from .decompose import _certify_contour, contour_radii, separable_decompose
    from .sicpovm import obtain_sic
    if args.r is not None:
        radii = [args.r]
    else:
        radii = contour_radii(args.N, params.tau,
                              1 if args.count is None else args.count)
    sic = obtain_sic(args.N, args.fiducial_cache)
    items = [separable_decompose(kind, args.N, params.tau, r, sic=sic)
             for r in radii]
    reports = _certify_contour(items, None)
    dicts = [_decomposition_dict(d, rep) for d, rep in zip(items, reports)]
    _write_output(serialize.dumps(dicts[0] if len(dicts) == 1 else dicts) + "\n",
                  args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    kind = StateKind.parse(args.kind)
    params = convert_params(kind, args.N, *_given_param(args))
    cls = classify(kind, args.N, params.tau)
    payload = {"class": cls.name, "boundaries": cls.boundaries,
               "params": params.as_dict()}
    if cls.note:
        payload["note"] = cls.note
    print(serialize.dumps(payload))
    return EXIT_OK


def _dimension(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterRangeError(f"{token!r} is not an integer dimension") from None


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
            lo, hi = _dimension(lo_s), _dimension(hi_s)
            if hi < lo:
                raise ParameterRangeError(f"bad range {tok!r}")
            chunk = list(range(lo, hi + 1))
        else:
            chunk = [_dimension(tok)]
        if ellipsis_pending:
            # An ellipsis counts up: a descending pair before it is refused, as
            # is an end below the number before it.
            if len(values) >= 2 and values[-1] < values[-2]:
                raise ParameterRangeError(
                    f"bad range '{values[-2]},{values[-1]},...,{tok}'")
            if chunk[0] < values[-1]:
                raise ParameterRangeError(f"bad range '{values[-1]},...,{tok}'")
            step = max(values[-1] - values[-2], 1) if len(values) >= 2 else 1
            values.extend(range(values[-1] + step, chunk[0], step))
            ellipsis_pending = False
        values.extend(chunk)
    if ellipsis_pending:
        raise ParameterRangeError("'...' needs a number after it")
    for v in values:
        check_dimension(v)
    return list(dict.fromkeys(values))  # first occurrences, in order


def cmd_regions(args) -> int:
    family = "isotropic" if args.family == "iso" else args.family
    rows = [row for n in parse_n_list(args.n_list) for row in region_table(n)
            if family in ("both", row.family)]
    _write_output(region_csv(rows), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return run_selftest(n_max=args.n_max, writer=sys.stdout)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that ``main``'s table gives its exit code."""

    def error(self, message):
        raise ParameterRangeError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    # Subparsers are built with the parser's own class.
    parser = _Parser(
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
    p.add_argument("--cache", type=str, default=None,
                   help="fiducial cache file: read by --verify, written by --find")
    p.set_defaults(func=cmd_sic)

    p = sub.add_parser("decompose", help="emit verified separable decompositions")
    p.add_argument("kind", choices=["werner", "iso", "isotropic"])
    p.add_argument("N", type=int)
    _add_param_flags(p)
    # --count defaults to 1 in cmd_decompose: argparse takes a value equal to
    # its default as absent, so "--r 0.9 --count 1" would pass the group.
    sample = p.add_mutually_exclusive_group()
    sample.add_argument("--r", type=float, default=None,
                        help="left factor radius on the contour r*s = tau")
    sample.add_argument("--count", type=int, default=None,
                        help="number of contour samples (default 1)")
    p.add_argument("--out", type=str, default=None)
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
    p.set_defaults(func=cmd_selftest)
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(str(message), file=sys.stderr)


def main(argv=None) -> int:
    # Each distinct warning reaches stderr once per command, as its bare message.
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
            print(str(exc), file=sys.stderr)
            return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
