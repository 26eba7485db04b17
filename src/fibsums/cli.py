"""Command-line front end.

Subcommands: ``seq`` (exact sequence terms), ``verify`` (grid sweeps of
catalog identities), ``div`` (divisibility witness tables), ``catalog``
(the entry listing). Exit codes: 0 success, 1 a sweep found a failing
instance, 2 usage error, or a sweep that exhausted memory or recursion
depth (narrower ranges may fit). Output is deterministic: identical
invocations produce byte-identical bytes on stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .identities import ENTRIES, Context, UsageError, get_entry, irange, sweep
from .reports import (catalog_csv, catalog_payload, catalog_text, div_csv,
                      document, sweep_payload, to_json, verify_csv, witness_row)
from .scalars import DomainError, render_scalar
from .sequences import (HoradamParams, fib, horadam_w, lucas, lucas_u,
                        lucas_v, pell, pell_lucas)

_RANGE = re.compile(r"^--([A-Za-z][A-Za-z0-9_]*)=(-?\d+)(?:\.\.(-?\d+))?$")

#: Most grid points the given ranges may span together (the product of
#: their lengths); checked before any value list is built.
MAX_RANGE_POINTS = 10 ** 6

#: Largest magnitude a range bound may have. Sequence tables store every
#: term up to the indices a sweep reads, so one bound such as --n=5000000
#: would fill memory although it spans one point. The benchmark's largest
#: bound is 6,861.
MAX_RANGE_BOUND = 10 ** 4

#: Largest |n| that ``seq`` computes. A term's length grows linearly in n:
#: ``seq fib -n 1000000`` takes about 0.6 s and a Horadam term below zero
#: about 2 s, while ``-n 100000000`` would not finish.
MAX_SEQ_INDEX = 10 ** 6


def _parse_ranges(extras: list[str]) -> dict[str, list[int]]:
    """Turn ``--r=-6..6 --n=0`` style flags into value lists."""
    bounds = {}
    for token in extras:
        m = _RANGE.match(token)
        if m is None:
            raise UsageError(
                f"unrecognized argument {token!r} "
                "(parameter ranges look like --r=-6..6 or --n=0)")
        name, lo, hi = m.group(1), m.group(2), m.group(3)
        try:
            lo = int(lo)
            hi = lo if hi is None else int(hi)
        except ValueError:      # past CPython's str->int digit limit
            raise UsageError(
                f"range for parameter {name!r} has too many digits") from None
        if name in bounds:
            raise UsageError(f"duplicate range for parameter {name!r}")
        if lo > hi:
            raise UsageError(f"empty range {lo}..{hi} for parameter {name!r}")
        bounds[name] = lo, hi
    points = math.prod(hi - lo + 1 for lo, hi in bounds.values())
    if points > MAX_RANGE_POINTS:
        raise UsageError(f"parameter ranges span {points} grid points, "
                         f"over the limit of {MAX_RANGE_POINTS}")
    for name, (lo, hi) in bounds.items():
        reach = max(-lo, hi)
        if reach > MAX_RANGE_BOUND:
            raise UsageError(f"range for parameter {name!r} reaches {reach} "
                             f"in magnitude, over the limit of {MAX_RANGE_BOUND}")
    return {name: irange(lo, hi) for name, (lo, hi) in bounds.items()}


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_exhausted(entry, exc: Exception) -> int:
    limit = "memory" if isinstance(exc, MemoryError) else "recursion depth"
    return _fail_usage(f"{entry.id}: the sweep ran out of {limit}; "
                       "try narrower parameter ranges")


def _fail_unknown_id(message: str) -> int:
    code = _fail_usage(message)
    print("known catalog entries:", file=sys.stderr)
    sys.stderr.write(catalog_text(ENTRIES))
    return code


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

#: family -> (required flags, function of those flags' values and n)
_SEQ_FAMILIES = {
    "fib": ((), fib),
    "lucas": ((), lucas),
    "pell": ((), pell),
    "pell_lucas": ((), pell_lucas),
    "horadam": (("a", "b", "p", "q"),
                lambda a, b, p, q, n: horadam_w(HoradamParams(a, b, p, q), n)),
    "u": (("p", "q"), lucas_u),
    "v": (("p", "q"), lucas_v),
}


def _cmd_seq(args) -> int:
    needs, term = _SEQ_FAMILIES[args.family]
    given = {k: getattr(args, k) for k in ("a", "b", "p", "q")
             if getattr(args, k) is not None}
    missing = [k for k in needs if k not in given]
    extra = sorted(set(given) - set(needs))
    if missing:
        return _fail_usage(f"seq {args.family} requires -{' -'.join(missing)}")
    if extra:
        return _fail_usage(f"seq {args.family} does not take -{' -'.join(extra)}")
    if abs(args.n) > MAX_SEQ_INDEX:
        return _fail_usage(f"seq index {args.n} is over the limit of "
                           f"{MAX_SEQ_INDEX} in magnitude")
    try:
        value = term(*(given[k] for k in needs), args.n)
    except DomainError as exc:
        return _fail_usage(str(exc))
    print(render_scalar(value))
    return 0


# ---------------------------------------------------------------------------
# verify / div
# ---------------------------------------------------------------------------

def _cmd_verify(args, ranges) -> int:
    if args.all_entries and args.id is not None:
        return _fail_usage("give an identity id or --all, not both")
    if args.all_entries and ranges:
        return _fail_usage("parameter ranges apply to a single identity, "
                           "not --all")
    if not args.all_entries and args.id is None:
        return _fail_usage("verify needs an identity id or --all")

    try:
        entries = ENTRIES if args.all_entries else [get_entry(args.id)]
    except UsageError as exc:
        return _fail_unknown_id(str(exc))
    ctx = Context()
    reports = []
    try:
        for entry in entries:
            reports.append(sweep(entry, ranges or None, ctx))
    except UsageError as exc:
        return _fail_usage(str(exc))
    except (MemoryError, RecursionError) as exc:
        return _fail_exhausted(entry, exc)

    if args.format == "csv":
        sys.stdout.write(verify_csv(reports))
    else:
        doc = document("verify", [sweep_payload(r) for r in reports])
        sys.stdout.write(to_json(doc))
    return 0 if all(r.verified for r in reports) else 1


def _cmd_div(args, ranges) -> int:
    try:
        entry = get_entry(args.id)
    except UsageError as exc:
        return _fail_unknown_id(str(exc))
    if entry.kind != "divisibility":
        return _fail_usage(f"{entry.id} is not a divisibility entry "
                           "(use `verify` for identities)")
    rows: list[dict] = []
    try:
        rep = sweep(entry, ranges or None, Context(),
                    on_result=lambda ev: rows.append(witness_row(ev)))
    except UsageError as exc:
        return _fail_usage(str(exc))
    except (MemoryError, RecursionError) as exc:
        return _fail_exhausted(entry, exc)

    if args.format == "csv":
        sys.stdout.write(div_csv(entry.params, rows))
    else:
        doc = document("div", [sweep_payload(rep, rows=rows)])
        sys.stdout.write(to_json(doc))
    return 0 if rep.verified else 1


def _cmd_catalog(args) -> int:
    if args.format == "csv":
        sys.stdout.write(catalog_csv(ENTRIES))
    elif args.format == "json":
        sys.stdout.write(to_json(document("catalog", catalog_payload(ENTRIES))))
    else:
        sys.stdout.write(catalog_text(ENTRIES))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a range such as --a=0..0 must not be read as --all
    parser = argparse.ArgumentParser(
        prog="fibsums", allow_abbrev=False,
        description="Exact verification of weighted Fibonacci/Lucas-family "
                    "sum identities and their divisibility corollaries.")
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p_seq = add("seq", help="print one exact sequence term")
    p_seq.add_argument("family", choices=sorted(_SEQ_FAMILIES))
    p_seq.add_argument("-n", type=int, required=True, help="term index")
    for flag in ("a", "b", "p", "q"):
        p_seq.add_argument(f"-{flag}", type=int, help=f"parameter {flag}")

    p_ver = add("verify", help="sweep identities over grids")
    p_ver.add_argument("id", nargs="?", help="catalog id, e.g. I07")
    p_ver.add_argument("--all", action="store_true", dest="all_entries",
                       help="sweep every catalog entry on its default grid")
    p_ver.add_argument("--format", choices=["json", "csv"], default="json")

    p_div = add("div", help="divisibility witness tables")
    p_div.add_argument("id", help="divisibility id, e.g. D01")
    p_div.add_argument("--format", choices=["json", "csv"], default="json")

    p_cat = add("catalog", help="list every catalog entry")
    p_cat.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        ranges = _parse_ranges(extras)
    except UsageError as exc:
        return _fail_usage(str(exc))
    if ranges and args.command not in ("verify", "div"):
        return _fail_usage(f"{args.command} does not take parameter ranges")

    if args.command == "seq":
        return _cmd_seq(args)
    if args.command == "verify":
        return _cmd_verify(args, ranges)
    if args.command == "div":
        return _cmd_div(args, ranges)
    return _cmd_catalog(args)


if __name__ == "__main__":
    sys.exit(main())
