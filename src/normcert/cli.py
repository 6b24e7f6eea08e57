"""Command-line front end: certify, verify, demo.

Exit codes: certify 0 on success, 2 when a search is exhausted, 3 on bad
input; verify 0 accept, 1 reject, 3 on bad input; certify, verify and demo
randsuite 4 on an internal error, an exact identity of the engine that
failed (a bug, not bad input); demo 0 unless a demo assertion fails or (for
randsuite) an instance fails to certify.  A malformed command line (an
unknown flag, `--bound 0`, `--seed x`, a randsuite `--count` below 1) is
bad input too: every command prints argparse's usage message and exits 3,
so exit 2 always means an exhausted search.  The seed falls back to the
NPCERT_SEED environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import os
import sys

from .certify import certify, verify
from .charp import GF, char2_squares_report, char3_vanishing_report
from .errors import InternalAssertion, NormCertError, SearchExhausted
from .genpos import DEFAULT_BOUND, DEFAULT_MAX_TRIES
from .instances import run_random_suite
from .rings import QQ
from .serialize import (
    FormatError,
    certificate_to_json,
    dumps,
    load_certificate,
    load_instance,
    trace_to_json,
)

CHAR2_FIELDS = (2, 4, 8)
CHAR3_FIELDS = (3, 9, 27)

# each report-table demo: its fields, its report, and its columns as
# (title, width, report attribute)
_TABLES = {
    "char2": (CHAR2_FIELDS, char2_squares_report, (
        ("field", 6, "field"), ("elements", 9, "total"), ("off-line", 9, "squares_off_line"),
        ("image", 6, "image_size"), ("=k*1", 5, "image_equals_line"),
        ("prim.sq", 8, "primitive_squares"))),
    "char3": (CHAR3_FIELDS, char3_vanishing_report, (
        ("field", 6, "field"), ("elements", 9, "total"), ("units", 7, "units"),
        ("qualifying", 11, "qualifying"), ("violations", 11, "violations"))),
}


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("NPCERT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"ignoring non-integer NPCERT_SEED={env!r}", file=sys.stderr)
    return 0


def _option(args, inst, name, default):
    cli_value = getattr(args, name)
    if cli_value is not None:
        return cli_value
    return inst.options.get(name, default)


def _internal_error(exc: InternalAssertion) -> int:
    print(f"internal error: {exc}", file=sys.stderr)
    return 4


def _cmd_certify(args) -> int:
    try:
        inst = load_instance(args.input)
    except (FormatError, OSError) as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 3
    seed = _resolve_seed(_option(args, inst, "seed", None))
    try:
        cert = certify(
            inst.ext,
            inst.q,
            inst.xs,
            rng=seed,
            max_tries=_option(args, inst, "max_tries", DEFAULT_MAX_TRIES),
            bound=_option(args, inst, "bound", DEFAULT_BOUND),
        )
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 2
    except InternalAssertion as exc:
        return _internal_error(exc)
    except NormCertError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 3
    out = certificate_to_json(inst.ring, cert)
    if args.trace:
        out["trace"] = trace_to_json(inst.ring, cert.trace)
    payload = dumps(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_verify(args) -> int:
    try:
        inst = load_instance(args.input)
        cert = load_certificate(args.certificate, inst.ring)
    except (FormatError, OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    try:
        outcome = verify(inst.ext, inst.q, inst.xs, cert)
    except InternalAssertion as exc:
        return _internal_error(exc)
    if outcome:
        print("certificate accepted")
        return 0
    print(f"certificate rejected: {outcome.failure}", file=sys.stderr)
    return 1


def _demo_table(args) -> int:
    """The report of each field as a table row, then all of them as JSON."""
    fields, report, columns = _TABLES[args.kind]
    orders = [args.field_order] if args.field_order else fields
    reports = [report(GF(order)) for order in orders]
    print(" ".join(f"{title:>{width}}" for title, width, _ in columns))
    for rep in reports:
        # str() first: a bool formatted with a width prints as an int
        print(" ".join(f"{str(getattr(rep, name)):>{width}}" for _, width, name in columns))
    print(dumps([rep.__dict__ for rep in reports]), end="")
    return 0 if all(rep.ok for rep in reports) else 1


def _demo_randsuite(args) -> int:
    seed = _resolve_seed(args.seed)
    result = run_random_suite(
        QQ,
        count=args.count,
        seed=seed,
        max_tries=args.max_tries or DEFAULT_MAX_TRIES,
        bound=args.bound or DEFAULT_BOUND,
    )
    for index, reason in result.failures:
        print(f"instance {index}: {reason}", file=sys.stderr)
    for index, reason in result.internal_errors:
        print(f"instance {index}: internal error: {reason}", file=sys.stderr)
    print(f"{result.verified}/{result.total} certificates verified ({result.elapsed:.1f}s)")
    if result.internal_errors:
        return 4
    return 0 if result.ok else 1


def _parse_field(value: str, allowed) -> int:
    name = value.upper().lstrip("F")
    try:
        order = int(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad field {value!r}") from None
    if order not in allowed:
        choices = ", ".join(f"F{o}" for o in allowed)
        raise argparse.ArgumentTypeError(f"field must be one of {choices}")
    return order


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return n


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3 (bad input), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="normcert",
        description="Exact certificates for norms of quadratic-form values "
        "over simple ring extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="produce a certificate for an instance file")
    cert.add_argument("--input", required=True, help="instance JSON path")
    cert.add_argument("--output", help="certificate JSON path (stdout when omitted)")
    cert.add_argument("--seed", type=int, default=None)
    cert.add_argument("--max-tries", dest="max_tries", type=_positive_int, default=None)
    cert.add_argument("--bound", type=_positive_int, default=None)
    cert.add_argument("--trace", action="store_true", help="include per-level audit records")
    cert.set_defaults(fn=_cmd_certify)

    ver = sub.add_parser("verify", help="check a certificate against an instance")
    ver.add_argument("--input", required=True, help="instance JSON path")
    ver.add_argument("--certificate", required=True, help="certificate JSON path")
    ver.set_defaults(fn=_cmd_verify)

    demo = sub.add_parser("demo", help="built-in demonstrations")
    kinds = demo.add_subparsers(dest="kind", required=True)

    for kind, help_text in (("char2", "squares collapse onto k*1 in char 2"),
                            ("char3", "vanishing top coordinates in char 3")):
        fields = _TABLES[kind][0]
        table = kinds.add_parser(kind, help=help_text)
        table.add_argument("--field", dest="field_order", default=None,
                           type=lambda v, fields=fields: _parse_field(v, fields))
        table.set_defaults(fn=_demo_table)

    rs = kinds.add_parser("randsuite", help="random certify+verify round trips")
    rs.add_argument("--count", type=_positive_int, default=100)
    rs.add_argument("--seed", type=int, default=None)
    rs.add_argument("--max-tries", dest="max_tries", type=_positive_int, default=None)
    rs.add_argument("--bound", type=_positive_int, default=None)
    rs.set_defaults(fn=_demo_randsuite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
