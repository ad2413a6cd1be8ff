"""Command line front end.

Exit codes: 0 success, 1 malformed input or usage, 2 domain error
(invalid zeros, non-divisors, unsupported models, conditioning refusals),
3 verification suite failure.  The environment variable MODELSPACE_TOL
overrides the verification tolerance (default 1e-8); it must be a finite
number.

Each command imports the numerical modules it needs when it runs, so the
inner-function lattice commands (everything under ``inner`` but ``eval``)
load no numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ModelSpaceError, SerializationError
from .inner import (
    divides,
    enumerate_blaschke_divisors,
    exact_divide,
    gcd,
    lcm,
    multiply,
)
from .serialize import (
    canonical_dumps,
    certificate_to_json,
    complex_to_json,
    inner_from_json,
    inner_to_json,
    model_from_json,
    model_rows_to_json,
    model_to_json,
    parse_json,
    vector_from_json,
)

# verify.SUITE_NAMES, spelled out so that parsing arguments imports no
# numerical module; a test pins the two together
SUITE_NAMES = ("lattice", "calculus", "model", "classification", "extraction")

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SerializationError("cannot read %s: %s" % (path, e))


def _load_inner(path: str):
    return inner_from_json(parse_json(_read_file(path)))


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise SerializationError("cannot write %s: %s" % (out_path, e))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelspace",
        description="inner-function algebra, model operators, and certified "
        "invariant-subspace extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inner = sub.add_parser("inner", help="inner-function algebra")
    inner_sub = inner.add_subparsers(dest="inner_command", required=True)

    p = inner_sub.add_parser("eval", help="evaluate an inner function at a point")
    p.add_argument("--z", nargs=2, type=float, required=True, metavar=("RE", "IM"))
    p.add_argument("function", help="inner function JSON file")

    for name, help_text in (
        ("divides", "test divisibility of the first argument into the second"),
        ("gcd", "greatest common inner divisor"),
        ("lcm", "least common inner multiple"),
        ("mul", "product of two inner functions"),
        ("div", "exact quotient NUMERATOR / DENOMINATOR"),
    ):
        p = inner_sub.add_parser(name, help=help_text)
        p.add_argument("first", help="inner function JSON file")
        p.add_argument("second", help="inner function JSON file")

    p = inner_sub.add_parser("divisors", help="enumerate divisors of a Blaschke product")
    p.add_argument("function", help="inner function JSON file")

    p = sub.add_parser("model", help="build the compressed shift of a Blaschke product")
    p.add_argument("symbol", help="inner function JSON file")
    p.add_argument("--oracle", action="store_true", help="attach the truncated-shift comparison")
    p.add_argument("--trunc", type=int, default=None, help="oracle truncation (default 8x degree)")
    p.add_argument("--out", default=None, help="also write the bundle to this file")

    p = sub.add_parser("extract", help="extract a certified invariant subspace")
    p.add_argument("model", help="model bundle JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", dest="vector", default=None, help="vector JSON file")
    group.add_argument("--random", action="store_true", help="draw a seeded random vector")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--tolerance", type=float, default=1e-8, help="certification tolerance")
    p.add_argument("--out", default=None, help="also write the certificate to this file")

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=None, help="override the suite case count")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="also write the report to this file")
    return parser


def _cmd_inner(args) -> int:
    cmd = args.inner_command
    if cmd == "eval":
        theta = _load_inner(args.function)
        value = theta(complex(args.z[0], args.z[1]))
        _emit(canonical_dumps(complex_to_json(value)), None)
        return EXIT_OK
    if cmd == "divisors":
        theta = _load_inner(args.function)
        out = {"divisors": [inner_to_json(d) for d in enumerate_blaschke_divisors(theta)]}
        _emit(canonical_dumps(out), None)
        return EXIT_OK
    a = _load_inner(args.first)
    b = _load_inner(args.second)
    if cmd == "divides":
        _emit(canonical_dumps({"divides": divides(a, b)}), None)
        return EXIT_OK
    op = {"gcd": gcd, "lcm": lcm, "mul": multiply, "div": exact_divide}[cmd]
    _emit(canonical_dumps(inner_to_json(op(a, b))), None)
    return EXIT_OK


def _cmd_model(args) -> int:
    symbol = _load_inner(args.symbol)
    if not args.oracle:
        from .model import _model_zeros, compressed_shift_rows

        rows = compressed_shift_rows(_model_zeros(symbol))
        _emit(canonical_dumps(model_rows_to_json(symbol, rows)), args.out)
        return EXIT_OK
    from .model import build_model_operator, oracle_compressed_shift
    from .verify import oracle_deviations

    model = build_model_operator(symbol)
    bundle = model_to_json(model)
    trunc = args.trunc if args.trunc is not None else 8 * model.dimension
    oracle_matrix, trunc_used = oracle_compressed_shift(symbol, trunc)
    eig_dev, sv_dev = oracle_deviations(model, oracle_matrix)
    bundle["oracle"] = {
        "trunc_used": int(trunc_used),
        "eigenvalue_deviation": eig_dev,
        "singular_value_deviation": sv_dev,
    }
    _emit(canonical_dumps(bundle), args.out)
    return EXIT_OK


def _cmd_extract(args) -> int:
    import numpy as np

    from .extraction import extract_invariant_subspace

    model = model_from_json(parse_json(_read_file(args.model)))
    if args.vector is not None:
        h = vector_from_json(parse_json(_read_file(args.vector)))
    else:
        rng = np.random.default_rng(args.seed)
        n = model.dimension
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cert = extract_invariant_subspace(model.matrix, h, tolerance=args.tolerance)
    _emit(canonical_dumps(certificate_to_json(cert)), args.out)
    return EXIT_OK


def _csv_report(report: dict) -> str:
    suites = report["suites"] if "suites" in report else {report["name"]: report}
    lines = ["suite,check,passed,failures,worst"]
    for suite_name in sorted(suites):
        suite = suites[suite_name]
        for check_name in sorted(suite["checks"]):
            check = suite["checks"][check_name]
            worst = check.get("worst")
            lines.append(
                "%s,%s,%s,%d,%s"
                % (
                    suite_name,
                    check_name,
                    "true" if check["passed"] else "false",
                    check["failures"],
                    "" if worst is None else repr(worst),
                )
            )
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    from . import verify

    tolerance = 1e-8
    env = os.environ.get("MODELSPACE_TOL")
    if env:
        try:
            tolerance = float(env)
        except ValueError:
            raise SerializationError("MODELSPACE_TOL must be a number, got %r" % env)
        if not math.isfinite(tolerance):
            raise SerializationError("MODELSPACE_TOL must be finite, got %r" % env)
    if args.suite == "all":
        report = verify.run_all(args.seed, cases=args.cases, tolerance=tolerance)
    else:
        report = verify.run_suite(
            args.suite, args.seed, cases=args.cases, tolerance=tolerance
        )
    text = canonical_dumps(report) if args.format == "json" else _csv_report(report)
    _emit(text, args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors; fold that into the parse code
        return EXIT_OK if e.code == 0 else EXIT_PARSE
    try:
        if args.command == "inner":
            return _cmd_inner(args)
        if args.command == "model":
            return _cmd_model(args)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise AssertionError("unreachable command %r" % args.command)
    except SerializationError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_PARSE
    except ModelSpaceError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        print("invalid request: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
