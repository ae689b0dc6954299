"""Command-line surface: run experiments, emit CSV/JSON reports.

Every report carries the tool version, a config echo, the seed, and the
wall time.  Reports are deterministic for a fixed config and seed up to
the wall-time field (float sums are correctly rounded, so their order
does not matter); golden-file comparisons strip wall time.  Exit status:
0 success, 2 precondition failure, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import random
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from . import __version__
from .arith import prime_power
from .census import DegreeCensus
from .errors import BudgetExceededError
from .euler_global import DivergenceScan, divergence_scan, euler_partial_product, sandwich_check
from .euler_global import EulerProductSpec
from .finite_oracle import character_degrees, sl2_group
from .isotropic_census import block_structure_ok, build_census_family, distinct_class_count
from .local_sl2 import (
    evaluate_local,
    factor_bounds_check,
    irrep_count,
    level_census,
    sl2_local_factor,
    sl2_quotient_order,
)
from .orbit_method import centralizer_index_oracle, make_orbit_datum, orbit_dimension
from .rootsys import build_root_datum
from .symmetric import ak_zeta, an_degrees
from .witten import abscissa_estimate, enumerate_dimensions


def _to_json(value: Any) -> str:
    """The report as `json.dumps(..., sort_keys=True, indent=2)` writes it.

    One pass, floats rounded to 12 significant digits as they are written;
    every scalar renders exactly as the `json` module renders it.  Each
    output line is one piece, so the pieces take little more memory than
    the text they join into.
    """
    parts: list[str] = []
    append = parts.append

    def write(head: str, v: Any, indent: str) -> None:
        # head: the text before v on its line (separator, indent, key)
        if isinstance(v, str):
            append(head + encode_basestring_ascii(v))
        elif v is None:
            append(head + "null")
        elif isinstance(v, bool):
            append(head + ("true" if v else "false"))
        elif isinstance(v, int):
            append(head + int.__repr__(v))
        elif isinstance(v, float):
            v = float(f"{v:.12g}")
            if v != v:
                append(head + "NaN")
            elif v == math.inf:
                append(head + "Infinity")
            elif v == -math.inf:
                append(head + "-Infinity")
            else:
                append(head + float.__repr__(v))
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
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

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


def _census_rows(census: DegreeCensus) -> list[dict[str, Any]]:
    rows = []
    running = 0
    for deg, mult in census.entries:
        running += mult
        rows.append({"degree": deg, "multiplicity": mult, "R_n": running})
    return rows


def cmd_witten(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
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
    if len(census.entries) >= 8:
        est = abscissa_estimate(census)
        result["abscissa"] = {
            "slope": est.slope,
            "standard_error": est.standard_error,
            "window": est.window,
            "target": datum.rank / datum.kappa,
        }
    else:
        result["abscissa"] = None
    result["table"] = _census_rows(census)
    return result, ["degree", "multiplicity", "R_n"]


def cmd_local_sl2(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    factor = sl2_local_factor(args.q)
    lc = level_census(args.q, args.level)
    expected_order = sl2_quotient_order(args.q, args.level)
    result: dict[str, Any] = {
        "q": args.q,
        "level": args.level,
        "head_terms": [list(tm) for tm in factor.head_terms],
        "tail_terms": [list(tm) for tm in factor.tail_terms],
        "irrep_count": irrep_count(args.q, args.level),
        "mass": lc.census.mass,
        "group_order": expected_order,
        "mass_matches_order": lc.census.mass == expected_order,
        "values": {f"{s:.12g}": evaluate_local(factor, s) for s in args.s_grid},
        "bounds": {
            f"{s:.12g}": list(factor_bounds_check(args.q, s))
            for s in args.s_grid
            if 2.0 <= s <= 3.0
        },
    }
    result["table"] = _census_rows(lc.census)
    return result, ["degree", "multiplicity", "R_n"]


def cmd_oracle(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    if args.group != "sl2":
        raise ValueError(f"unknown group family {args.group!r}; only 'sl2' is available")
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
        formula = level_census(*pp)
        result["formula_census_matches"] = formula.census.entries == census.entries
        result["formula_irrep_count"] = irrep_count(*pp)
    result["table"] = _census_rows(census)
    return result, ["degree", "multiplicity", "R_n"]


def cmd_orbit(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    rng = random.Random(args.seed)
    rows = []
    all_match = True
    for _ in range(args.samples):
        d = rng.choice((2, 3))
        p = rng.choice((3, 5, 7))
        k = rng.randint(1, 3)
        mod = p ** (k + 2)
        eigs = [rng.randrange(mod) for _ in range(d - 1)]
        eigs.append((-sum(eigs)) % mod)
        datum = make_orbit_datum(d, p, k, eigs)
        dim = orbit_dimension(datum)
        index = centralizer_index_oracle(datum)
        match = dim * dim == index
        all_match = all_match and match
        rows.append(
            {
                "d": d,
                "p": p,
                "k": k,
                "eigenvalues": ";".join(str(e) for e in datum.eigenvalues),
                "dimension": dim,
                "centralizer_index": index,
                "match": match,
            }
        )
    result = {"samples": args.samples, "all_match": all_match, "table": rows}
    return result, ["d", "p", "k", "eigenvalues", "dimension", "centralizer_index", "match"]


def cmd_census8(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    if args.sample is not None and args.sample < 1:
        raise ValueError(f"--sample must be >= 1, got {args.sample}")
    family = build_census_family(args.m, args.q, args.k, args.t)
    sample = None if args.sample is None else list(range(min(args.sample, len(family.y_reps))))
    report = distinct_class_count(family, sample=sample)
    structure_ok = all(block_structure_ok(w, family) for _, _, w in report.witnesses)
    result = {
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
        "table": [{"member": i, "class_id": cid} for i, cid in enumerate(report.assignments)],
    }
    return result, ["member", "class_id"]


def cmd_alt(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    rows = []
    for k in range(5, args.kmax + 1):
        census = an_degrees(k)
        rows.append(
            {
                "k": k,
                "zeta": ak_zeta(k, args.s, census=census),
                "irreducibles": census.total_count,
                "mass_ok": 2 * census.mass == math.factorial(k),
            }
        )
    result = {"s": args.s, "kmax": args.kmax, "table": rows}
    return result, ["k", "zeta", "irreducibles", "mass_ok"]


def cmd_euler(args: argparse.Namespace) -> tuple[dict[str, Any], list[str]]:
    rows = []
    for s in args.s_grid:
        value = euler_partial_product(
            EulerProductSpec(prime_bound=args.prime_bound), s, scan=s <= 2.0
        )
        entry: dict[str, Any] = {"s": s, "partial_product": value}
        entry["sandwich_ok"] = sandwich_check(args.prime_bound, s) if 2.0 < s <= 3.0 else None
        rows.append(entry)
    result: dict[str, Any] = {"prime_bound": args.prime_bound, "table": rows}
    if args.scan_grid:
        scan: DivergenceScan = divergence_scan(args.scan_grid)
        result["divergence_scan"] = {
            "prime_bounds": list(scan.prime_bounds),
            "products": list(scan.products),
            "strictly_increasing": scan.strictly_increasing,
            "growth_ratio": scan.growth_ratio,
            "threshold": scan.threshold,
            "diverging": scan.diverging,
        }
    return result, ["s", "partial_product", "sandwich_ok"]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_witten)

    p = add_parser("local-sl2", "explicit SL2 local factor, level census, bounds")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--s-grid", type=_float_list, default=[2.0, 2.5, 3.0])
    p.set_defaults(func=cmd_local_sl2)

    p = add_parser("oracle", "brute-force group census (order, classes, degrees)")
    p.add_argument("--group", default="sl2")
    p.add_argument("--modulus", required=True, type=int)
    p.set_defaults(func=cmd_oracle)

    p = add_parser("orbit", "orbit-dimension formula vs Smith-form centralizer oracle")
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_orbit)

    p = add_parser("census8", "block-unipotent family conjugacy certificate")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--sample", type=int, default=None, help="test only the first N members")
    p.set_defaults(func=cmd_census8)

    p = add_parser("alt", "alternating-group zeta table")
    p.add_argument("--kmax", required=True, type=int)
    p.add_argument("--s", type=float, default=1.0)
    p.set_defaults(func=cmd_alt)

    p = add_parser("euler", "partial Euler products, sandwich, divergence scan")
    p.add_argument("--prime-bound", required=True, type=int)
    p.add_argument("--s-grid", type=_float_list, default=[2.5])
    p.add_argument("--scan-grid", type=_int_list, default=None)
    p.set_defaults(func=cmd_euler)
    return parser


def _emit(report: dict[str, Any], columns: list[str], args: argparse.Namespace) -> None:
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
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in report["result"]["table"]:
        writer.writerow([_fmt_cell(row[c]) for c in columns])
    meta = {k: v for k, v in report.items() if k != "result"}
    meta["result"] = {k: v for k, v in report["result"].items() if k != "table"}
    meta_text = _to_json(meta) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
        sys.stdout.write(meta_text)
    else:
        sys.stdout.write(buf.getvalue())
        sys.stderr.write(meta_text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        result, columns = args.func(args)
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
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "format") and not callable(v)
        },
        "seed": args.seed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    _emit(report, columns, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
