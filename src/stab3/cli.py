"""Batch command-line front end: dimension tables, verification suites, and
Greek-letter product tables, with human, CSV, and JSON output.

Exit codes: 0 success, 1 verification/internal failure, 2 usage error.
The default prime is 7, overridable by the STAB3_PRIME environment variable;
an explicit --prime flag always wins.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from . import __version__
from .fplinalg import check_prime


def _parse_t_range(text: str):
    lo, _, hi = text.partition("..") if ".." in text else ("1", "", text)
    try:
        t_range = range(int(lo), int(hi) + 1)
    except ValueError:
        raise SystemExit2(f"--t-range must be N or A..B in integers, got {text!r}") from None
    if not t_range:
        raise SystemExit2(f"--t-range {text!r} is empty")
    if t_range[0] < 1:
        raise SystemExit2(f"--t-range values must be >= 1, got {text!r}")
    return t_range


def _at_least(low: int):
    """argparse type: an integer >= low, so a bad bound is a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


def _open_output(output):
    """A context manager over the file `output` opened for writing, or stdout."""
    if output is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit2(f"cannot write {output}: {exc.strerror or exc}") from None


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _rows_to_human(header, rows) -> str:
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _format_rows(header, rows, fmt, meta=None) -> str:
    if fmt == "csv":
        return _rows_to_csv(header, rows)
    if fmt == "json":
        payload = {"meta": meta or {}, "header": list(header), "rows": [list(r) for r in rows]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return _rows_to_human(header, rows)


class SystemExit2(Exception):
    """Usage error carrying its message (mapped to exit code 2)."""


#: the `table` options of the cobar model, with their defaults
COBAR_TABLE_DEFAULTS = {"max_s": 2, "may_bound": 3, "sector_cap": 20000}


def cmd_table(args) -> int:
    passed = [name for name in COBAR_TABLE_DEFAULTS if getattr(args, name) is not None]
    if args.model == "exterior" and passed:
        flags = ", ".join("--" + name.replace("_", "-") for name in passed)
        raise SystemExit2(f"{flags}: only for --model cobar")
    for name, default in COBAR_TABLE_DEFAULTS.items():
        if name not in passed:
            setattr(args, name, default)
    meta = {"prime": args.prime, "version": __version__, "command": "table",
            "model": args.model}
    with _open_output(args.output) as fh:  # an unwritable path fails before any engine is built
        if args.model == "exterior":
            from .cohomology import ExteriorCohomology

            eng = ExteriorCohomology(args.prime)
            per_s = {}
            for (s, t, w, dim_c, dim_h) in eng.dims_table():
                tot_c, tot_h, secs = per_s.get(s, (0, 0, 0))
                per_s[s] = (tot_c + dim_c, tot_h + dim_h, secs + (1 if dim_h else 0))
            rows = [
                (s, per_s[s][0], per_s[s][1], per_s[s][2]) for s in sorted(per_s)
            ]
            header = ("s", "dim_cochains", "dim_cohomology", "nonzero_sectors")
        else:
            from .hopf_cobar import CobarEngine

            eng = CobarEngine(args.prime, weight_bound=args.may_bound,
                              sector_cap=args.sector_cap)
            rows = eng.dims_table(args.max_s)
            header = ("s", "t", "w", "dim_cochains", "dim_cohomology")
        fh.write(_format_rows(header, rows, args.format, meta))
    return 0


def cmd_verify(args) -> int:
    from .reports import SUITE_NAMES, run_suites

    suites = args.suite or None
    if suites:
        unknown = set(suites) - set(SUITE_NAMES)
        if unknown:
            raise SystemExit2(
                f"unknown suite(s) {sorted(unknown)}; available: {', '.join(SUITE_NAMES)}"
            )
    t_range = _parse_t_range(args.t_range) if args.t_range is not None else None
    with _open_output(args.output) as fh:  # an unwritable path fails before any suite runs
        report = run_suites(args.prime, suites=suites, t_range=t_range)
        if args.format == "human":
            fh.write("".join(f"{c['status'].upper():4s} {c['name']}: {c['ref']}\n"
                             for c in report["checks"]))
        else:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    failures = [c for c in report["checks"] if c["status"] != "pass"]
    if failures:
        first = failures[0]
        sys.stderr.write(
            f"FAILED {first['name']}: {json.dumps(first['certificate'], sort_keys=True)}\n"
        )
        return 1
    return 0


def cmd_greek(args) -> int:
    from . import greek

    meta = {"prime": args.prime, "version": __version__, "command": "greek"}
    if args.bidegree is not None:
        if args.t_range is not None:
            raise SystemExit2("--t-range: not with --bidegree")
        try:
            A = tuple(int(x) for x in args.bidegree.split(","))
        except ValueError:
            raise SystemExit2(f"--bidegree must be comma-separated integers, e.g. 1,1,1,2, "
                              f"got {args.bidegree!r}") from None
        try:
            spec = greek.GreekSpec(A, "custom")
        except ValueError as exc:
            raise SystemExit2(f"--bidegree {args.bidegree!r}: {exc}") from None
        n, tA = greek.bidegree(spec, args.prime)
        header = ("bidegree_n", "bidegree_tA")
        with _open_output(args.output) as fh:
            fh.write(f"({n}, {tA})\n" if args.format == "human"
                     else _format_rows(header, [(n, tA)], args.format, meta))
        return 0
    if args.prime == 5:
        sys.stderr.write(
            "warning: the product table is validated for primes greater than 5; "
            "predicate agreement at p = 5 is not guaranteed\n"
        )
    t_range = _parse_t_range(args.t_range) if args.t_range is not None else None
    header = (
        "t",
        "bidegree_n",
        "bidegree_tA",
        *greek.PRODUCT_NAMES,
        "predicate_full",
        "predicate_pair",
        "agree",
    )
    with _open_output(args.output) as fh:  # an unwritable path fails before any engine is built
        rows_raw = greek.classify_products(args.prime, t_range)
        rows = []
        for row in rows_raw:
            n, tA = greek.bidegree(greek.gamma(row["t"]), args.prime)
            rows.append(
                (
                    row["t"],
                    n,
                    tA,
                    *(int(row["products"][name]["nonzero"]) for name in greek.PRODUCT_NAMES),
                    int(row["predicate_full"]),
                    int(row["predicate_pair"]),
                    "agree" if row["agree"] else "DISAGREE",
                )
            )
        fh.write(_format_rows(header, rows, args.format, meta))
    return 0 if all(r["agree"] for r in rows_raw) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stab3",
        description="Exact verification engine for a rank-3 exterior cohomology "
        "model, its cobar cross-checks, and Greek-letter product tables.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, formats=("human", "csv", "json")):
        sp.add_argument("--prime", type=int,
                        help="odd prime > 3 (default from STAB3_PRIME or 7)")
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--output", help="write output to this path instead of stdout")

    sp = sub.add_parser("table", help="per-sector dimension tables")
    common(sp)
    sp.add_argument("--sector-cap", type=_at_least(1),
                    help="cobar: abort if a sector basis that is built exceeds this "
                    "dimension (default 20000); bases are built for degrees "
                    "<= max-s + 1 only")
    sp.add_argument("--model", choices=("exterior", "cobar"), default="exterior")
    sp.add_argument("--max-s", type=_at_least(0),
                    help="cobar: bound on cohomological degree (default 2)")
    sp.add_argument("--may-bound", type=_at_least(0),
                    help="cobar: bound on the weight grading (default 3)")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("verify", help="run verification suites, emit a JSON report")
    common(sp, formats=("json", "human"))
    sp.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    sp.add_argument("--t-range", help="range of t values, e.g. 1..49")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("greek", help="Greek-letter bidegrees and product table")
    common(sp)
    sp.add_argument("--t-range", help="range of t values, e.g. 1..49")
    sp.add_argument("--bidegree", help="comma-separated sequence, e.g. 1,1,1,2")
    sp.set_defaults(fn=cmd_greek)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.prime is None:  # no --prime flag
            text = os.environ.get("STAB3_PRIME", "7")
            try:
                args.prime = int(text)
            except ValueError:
                raise SystemExit2(f"STAB3_PRIME must be an integer, got {text!r}") from None
        try:
            check_prime(args.prime)
        except ValueError as exc:
            raise SystemExit2(str(exc)) from None
        return args.fn(args)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a failed computation or an internal error
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
