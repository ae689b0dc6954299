"""Command-line surface: run experiments, emit CSV/JSON reports.

Every report carries the tool version, a config echo, the seed, and the
wall time.  Reports are deterministic for a fixed config and seed up to
the wall-time field (float sums are correctly rounded, so their order
does not matter); golden-file comparisons strip wall time.  Exit status:
0 success, 2 precondition failure (an unwritable `--out` included), 3 budget
exhaustion.

The parser is built once per process, on the first `main` call, and
each call looks its handler up by subcommand name, so a `cmd_*` rebound
in this module after import is the one that runs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import random
import sys
import time
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Sequence

from . import __version__
from .arith import prime_power
from .census import DegreeCensus
from .errors import BudgetExceededError
from .euler_global import euler_report
from .finite_oracle import centralizer_indices, character_degrees, sl2_group
from .isotropic_census import block_structure_ok, build_census_family, distinct_class_count
from .local_sl2 import (
    evaluate_local,
    factor_bounds_check,
    irrep_count,
    level_census,
    sl2_local_factor,
    sl2_quotient_order,
)
from .orbit_method import make_orbit_datum, orbit_dimension
from .rootsys import build_root_datum
from .symmetric import an_census, young_levels
from .witten import FIT_MIN_DISTINCT, abscissa_estimate, enumerate_dimensions

SAMPLE_BUDGET = 20_000  # orbit samples per run


def _scalar(v: Any) -> str:
    """One scalar as `json.dumps` writes it, a float rounded to 12 significant digits first."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        v = float(f"{v:.12g}")
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


class Table(dict):
    """A report table: column name -> sequence of scalars, the columns in CSV order.

    Every column has one value per row.  `_to_json` writes a table as
    `json.dumps` writes the list of its rows (each a dict), and
    `_write_csv` writes its names as the header row.
    """

    def add_row(self, *values: Any) -> None:
        for column, value in zip(self.values(), values, strict=True):
            column.append(value)


def _census_table(census: DegreeCensus) -> Table:
    """degree, multiplicity and R_n per census entry; R_n is the census's own running count."""
    return Table(
        degree=list(map(itemgetter(0), census.entries)),
        multiplicity=list(map(itemgetter(1), census.entries)),
        R_n=census.running_count,
    )


def _to_json(value: Any) -> str:
    """The report as `json.dumps(..., sort_keys=True, indent=2)` writes it.

    One pass, floats rounded to 12 significant digits as they are written;
    every scalar renders exactly as the `json` module renders it.  A
    `Table` is written as the list of its rows, column by column: each
    column in one `map` (none when every value's type is `int`, which the
    template's `%s` writes as its repr) and each row in one piece from a
    row template built once from the sorted column names.
    Every other value, a list of dicts included, takes the recursive path,
    each output line one piece.  So the pieces take little more memory
    than the text they join into.
    """
    parts: list[str] = []
    append = parts.append

    def write(head: str, v: Any, indent: str) -> None:
        # head: the text before v on its line (separator, indent, key)
        if isinstance(v, Table):
            names = sorted(v)
            columns = [v[name] for name in names]
            if not columns or not columns[0]:
                append(head + "[]")
                return
            inner = indent + "  "
            field = inner + "  "
            template = "," + inner + "{" + field + ("," + field).join(
                encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name in names
            ) + inner + "}"
            rendered = list(map(template.__mod__, zip(*(
                # bool stays apart: its type is not int
                column if set(map(type, column)) == {int} else map(_scalar, column)
                for column in columns
            ))))
            rendered[0] = head + "[" + rendered[0][1:]  # the first row takes the head, no comma
            parts.extend(rendered)
            append(indent + "]")
        elif isinstance(v, dict):
            if not v:
                append(head + "{}")
                return
            inner = indent + "  "
            sep = head + "{" + inner
            for key in sorted(v):
                write(sep + encode_basestring_ascii(key) + ": ", v[key], inner)
                sep = "," + inner
            append(indent + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                append(head + "[]")
                return
            inner = indent + "  "
            sep = head + "[" + inner
            for item in v:
                write(sep, item, inner)
                sep = "," + inner
            append(indent + "]")
        else:
            append(head + _scalar(v))

    write("", value, "\n")
    return "".join(parts)


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes a field: quoted, quotes doubled, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _lone_field(text: str) -> str:
    """The field of a one-column row: `csv.writer` quotes an empty one, so the row is not blank."""
    return _csv_field(text) or '""'


def _write_csv(fh: Any, table: Table) -> None:
    """The column names as the header row, then the rows, as `csv.writer` writes them.

    Like `_to_json`'s rows, each row is one piece from one `%s` row
    template, and the rows go to `fh.writelines` as they are made.  An
    all-int column goes into the template as it is; the text of every
    other cell is `_fmt_cell`'s, and it and each name are quoted as
    `csv.writer` quotes them (minimal quoting, CRLF rows).
    """
    field = _lone_field if len(table) == 1 else _csv_field
    columns = [
        column if set(map(type, column)) == {int} else map(field, map(_fmt_cell, column))
        for column in table.values()
    ]
    fh.write(",".join(map(field, table)) + "\r\n")
    template = ",".join(["%s"] * len(columns)) + "\r\n"
    fh.writelines(map(template.__mod__, zip(*columns)))


def cmd_witten(args: argparse.Namespace) -> dict[str, Any]:
    datum = build_root_datum(args.series, args.rank)
    census = enumerate_dimensions(datum, args.bound)
    result: dict[str, Any] = {
        "series": args.series,
        "rank": args.rank,
        "bound": args.bound,
        "kappa": datum.kappa,
        "coxeter_number": datum.coxeter_number,
        "r_over_kappa": [datum.rank, datum.kappa],
        "distinct_degrees": len(census.entries),
        "total_count": census.total_count,
    }
    if len(census.entries) >= FIT_MIN_DISTINCT:
        est = abscissa_estimate(census)
        result["abscissa"] = {
            "slope": est.slope,
            "standard_error": est.standard_error,
            "window": est.window,
            "target": datum.rank / datum.kappa,
        }
    else:
        result["abscissa"] = None
    result["table"] = _census_table(census)
    return result


def cmd_local_sl2(args: argparse.Namespace) -> dict[str, Any]:
    factor = sl2_local_factor(args.q)
    census = level_census(factor, args.level)
    expected_order = sl2_quotient_order(args.q, args.level)
    result: dict[str, Any] = {
        "q": args.q,
        "level": args.level,
        "head_terms": [list(tm) for tm in factor.head_terms],
        "tail_terms": [list(tm) for tm in factor.tail_terms],
        "irrep_count": irrep_count(factor, args.level),
        "mass": census.mass,
        "group_order": expected_order,
        "mass_matches_order": census.mass == expected_order,
        "values": {
            f"{s:.12g}": value
            for s, [value] in zip(args.s_grid, evaluate_local([factor], args.s_grid))
        },
        "bounds": {
            f"{s:.12g}": list(factor_bounds_check(factor, s))
            for s in args.s_grid
            if 2.0 <= s <= 3.0
        },
    }
    result["table"] = _census_table(census)
    return result


def cmd_oracle(args: argparse.Namespace) -> dict[str, Any]:
    group = sl2_group(args.modulus)
    census = character_degrees(group)
    result: dict[str, Any] = {
        "group": f"SL2(Z/{args.modulus})",
        "order": group.order,
        "class_count": census.total_count,
        "degree_mass": census.mass,
    }
    # cross-link with the closed formula when the modulus is an odd prime power
    pp = prime_power(args.modulus)
    if pp is not None and pp[0] % 2 == 1:
        factor = sl2_local_factor(pp[0])
        formula = level_census(factor, pp[1])
        result["formula_census_matches"] = formula.entries == census.entries
        result["formula_irrep_count"] = irrep_count(factor, pp[1])
    result["table"] = _census_table(census)
    return result


def cmd_orbit(args: argparse.Namespace) -> dict[str, Any]:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.samples > SAMPLE_BUDGET:
        raise BudgetExceededError(f"{args.samples} samples exceed the budget {SAMPLE_BUDGET}")
    rng = random.Random(args.seed)
    samples, dims = [], []
    for _ in range(args.samples):
        d = rng.choice((2, 3))
        p = rng.choice((3, 5, 7))
        k = rng.randint(1, 3)
        mod = p ** (k + 2)
        eigs = [rng.randrange(mod) for _ in range(d - 1)]
        eigs.append((-sum(eigs)) % mod)
        datum = make_orbit_datum(d, p, k, eigs)
        samples.append((datum.eigenvalues, p, k))
        dims.append(orbit_dimension(datum))
    table = Table(d=[], p=[], k=[], eigenvalues=[], dimension=[], centralizer_index=[], match=[])
    for (eigs, p, k), dim, index in zip(samples, dims, centralizer_indices(samples)):
        eigenvalues = ";".join(str(e) for e in eigs)
        table.add_row(len(eigs), p, k, eigenvalues, dim, index, dim * dim == index)
    return {"samples": args.samples, "all_match": all(table["match"]), "table": table}


def cmd_census8(args: argparse.Namespace) -> dict[str, Any]:
    if args.sample is not None and args.sample < 1:
        raise ValueError(f"--sample must be >= 1, got {args.sample}")
    family = build_census_family(args.m, args.q, args.k, args.t)
    sample = None if args.sample is None else list(range(min(args.sample, len(family.y_reps))))
    report = distinct_class_count(family, sample=sample)
    structure_ok = all(block_structure_ok(w, family) for _, _, w in report.witnesses)
    return {
        "m": args.m,
        "q": args.q,
        "k": args.k,
        "t": args.t,
        "modulus_exp": family.modulus_exp,
        "representatives": len(family.y_reps),
        "sampled": len(report.assignments),
        "classes_found": report.classes_found,
        "bound": report.bound,
        "certified": report.certified,
        "exhaustive": report.exhaustive,
        "unknown_pairs": report.unknown_pairs,
        "conjugator_blocks_ok": structure_ok,
        "table": Table(member=range(len(report.assignments)), class_id=report.assignments),
    }


def cmd_alt(args: argparse.Namespace) -> dict[str, Any]:
    if not args.s > 0:  # also rejects NaN, even when a kmax below 5 computes no row
        raise ValueError("s must be positive")
    table = Table(k=[], zeta=[], irreducibles=[], mass_ok=[])
    for k, degrees in young_levels(args.kmax):  # raises outside 1..MAX_K before the first level
        if k < 5:  # the trend starts at the first simple alternating group
            continue
        census = an_census(k, degrees)
        mass_ok = 2 * census.mass == math.factorial(k)
        table.add_row(k, census.zeta(args.s), census.total_count, mass_ok)
    return {"s": args.s, "kmax": args.kmax, "table": table}


def cmd_euler(args: argparse.Namespace) -> dict[str, Any]:
    rows, scan = euler_report(args.prime_bound, args.s_grid, args.scan_grid or ())
    table = Table(s=[], partial_product=[], sandwich_ok=[])
    for row in rows:
        table.add_row(*row)
    result: dict[str, Any] = {"prime_bound": args.prime_bound, "table": table}
    if scan is not None:
        result["divergence_scan"] = scan
    return result


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `repzeta` parser, built on the first call and shared by every later one.

    Its defaults are immutable, since every call reads the same objects.
    It binds no handler: `main` looks each one up through `_handler`.
    """
    parser = argparse.ArgumentParser(
        prog="repzeta", description="representation zeta experiments with exact cross-checks"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed recorded in every report")
    common.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("witten", "degree census and abscissa fit for a complex simple group")
    p.add_argument("--series", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--bound", required=True, type=int)

    p = add_parser("local-sl2", "explicit SL2 local factor, level census, bounds")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--s-grid", type=_float_list, default=(2.0, 2.5, 3.0))

    p = add_parser("oracle", "brute-force group census (order, classes, degrees)")
    p.add_argument("--modulus", required=True, type=int)

    p = add_parser("orbit", "orbit-dimension formula vs Smith-form centralizer oracle")
    p.add_argument("--samples", type=int, default=20)

    p = add_parser("census8", "block-unipotent family conjugacy certificate")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--sample", type=int, default=None, help="test only the first N members")

    p = add_parser("alt", "alternating-group zeta table")
    p.add_argument("--kmax", required=True, type=int)
    p.add_argument("--s", type=float, default=1.0)

    p = add_parser("euler", "partial Euler products, sandwich, divergence scan")
    p.add_argument("--prime-bound", required=True, type=int)
    p.add_argument("--s-grid", type=_float_list, default=(2.5,))
    p.add_argument("--scan-grid", type=_int_list, default=None)
    return parser


def _handler(command: str) -> Callable[[argparse.Namespace], dict[str, Any]]:
    """The `cmd_*` function of a subcommand.

    The table is built on each call, so a `cmd_*` rebound after import
    (a tracing wrapper, a test's patch) is the one that runs.
    """
    return {
        "witten": cmd_witten,
        "local-sl2": cmd_local_sl2,
        "oracle": cmd_oracle,
        "orbit": cmd_orbit,
        "census8": cmd_census8,
        "alt": cmd_alt,
        "euler": cmd_euler,
    }[command]


def _unwritable(path: str) -> OSError | None:
    """The error that opening `path` for writing would raise, or None; found without opening it."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not (os.access(path, os.W_OK) if os.path.exists(path)
              else os.access(parent, os.W_OK | os.X_OK)):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), path)


def _emit(report: dict[str, Any], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = _to_json(report) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return
    # csv: table to --out (metadata, sans table, to stdout as JSON), or table
    # to stdout and metadata to stderr, so stdout stays pure CSV
    meta = {k: v for k, v in report.items() if k != "result"}
    meta["result"] = {k: v for k, v in report["result"].items() if k != "table"}
    meta_text = _to_json(meta) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, report["result"]["table"])
        sys.stdout.write(meta_text)
    else:
        _write_csv(sys.stdout, report["result"]["table"])
        sys.stderr.write(meta_text)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # before any work, and without creating or truncating a file a failed run would leave behind
    problem = _unwritable(args.out) if args.out else None
    if problem is not None:
        print(f"cannot write report: {problem}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        result = _handler(args.command)(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    report = {
        "tool": "repzeta",
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("out", "format")},
        "seed": args.seed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    try:
        _emit(report, args)
    except OSError as exc:  # --out became unwritable while the report was computed
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
