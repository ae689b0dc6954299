import ast
import contextlib
import copy
import csv
import hashlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
from argparse import Namespace, _SubParsersAction
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scalar_local import evaluate_local_scalar

from repzeta import arith, cli, euler_global, isotropic_census, local_sl2, witten
from repzeta.census import DegreeCensus
from repzeta.cli import main
from repzeta.euler_global import odd_primes_upto
from repzeta.local_sl2 import sl2_local_factor


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def moved_top_degree(census):
    """The census with its top degree moved up by one, so its mass is off."""
    *head, top = census.degrees
    return DegreeCensus((*head, top + 1), census.multiplicities, top + 1)


def strip_wall_time(report):
    report = copy.deepcopy(report)
    report.pop("wall_time_s", None)
    return report


def test_witten_json(capsys):
    code, out = run_cli(capsys, ["witten", "--series", "A", "--rank", "2", "--bound", "2000"])
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "repzeta" and report["command"] == "witten"
    result = report["result"]
    assert result["kappa"] == 3
    assert result["table"][0] == {"degree": 1, "multiplicity": 1, "R_n": 1}
    assert result["abscissa"]["slope"] > 0


def test_witten_csv(capsys):
    code, out = run_cli(
        capsys, ["witten", "--series", "A", "--rank", "1", "--bound", "5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,multiplicity,R_n"
    assert lines[1:] == ["1,1,1", "2,1,2", "3,1,3", "4,1,4", "5,1,5"]


def test_local_sl2_report(capsys):
    code, out = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["irrep_count"] == 25
    assert result["mass"] == 648
    assert result["mass_matches_order"] is True
    degrees = {row["degree"]: row["multiplicity"] for row in result["table"]}
    assert degrees == {1: 3, 2: 3, 3: 1, 4: 12, 6: 4, 12: 2}


def test_local_sl2_reports_a_census_whose_mass_differs(capsys, monkeypatch):
    """`mass_matches_order` reads false, and the run still exits 0, when the mass is not the order."""
    monkeypatch.setattr(
        cli, "level_census", lambda factor, k: moved_top_degree(local_sl2.level_census(factor, k))
    )
    code, out = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2"])
    assert code == 0
    assert '"mass_matches_order": false,' in out
    result = json.loads(out)["result"]
    assert result["mass_matches_order"] is False
    assert result["mass"] != result["group_order"] == 648


def _printed_bounds(out):
    """The `bounds` pairs as printed: {s: [lower_ok, upper_ok]}, each verdict its JSON word."""
    block = out.split('"bounds": {', 1)[1].split("}", 1)[0]
    pairs = re.findall(r'"([\d.]+)": \[\s*(\w+),\s*(\w+)\s*\]', block)
    return {s: [lower, upper] for s, lower, upper in pairs}


@pytest.mark.parametrize(
    "edge, printed", [("lower", ["false", "true"]), ("upper", ["true", "false"])]
)
def test_local_sl2_reports_a_float_value_outside_the_bounds(capsys, monkeypatch, edge, printed):
    """At s = 2.5 the `bounds` pair reads [false, true] for 0.9 times the lower edge
    (1 - q^(1-s))^(-1/2), and [true, false] for 1.1 times the upper edge (1 - q^(1-s))^(-100).

    The report values each s once, so the bounds compare the printed value, the patched one.
    """
    s, q = 2.5, 3
    x = 1 - q ** (1 - s)
    value = 0.9 * x ** -0.5 if edge == "lower" else 1.1 * x ** -100.0
    monkeypatch.setattr(
        cli, "evaluate_local", lambda columns, exponents: [[value] for _ in exponents]
    )
    code, out = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2", "--s-grid", "2.5"])
    assert code == 0
    assert _printed_bounds(out) == {"2.5": printed}
    result = json.loads(out)["result"]
    assert result["bounds"] == {"2.5": [word == "true" for word in printed]}
    assert result["values"] == {"2.5": float(f"{value:.12g}")}


def test_local_sl2_values_each_exponent_once(capsys, count_calls):
    """One evaluator call values every s of the grid; the float bounds compare those values,
    and only the integer s, compared exactly, reach `factor_bounds_check`."""
    evaluated = count_calls(cli, "evaluate_local")
    inner = count_calls(local_sl2, "evaluate_local")
    checked = count_calls(cli, "factor_bounds_check")
    argv = ["local-sl2", "--q", "5", "--level", "2", "--s-grid", "2,2.25,2.5,3,3.5"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert [columns.q for columns in evaluated] == [(5,)]
    assert inner == []
    assert len(checked) == 2  # s = 2 and s = 3
    result = json.loads(out)["result"]
    assert list(result["bounds"]) == ["2", "2.25", "2.5", "3"]
    factor = sl2_local_factor(5)
    for s in (2.25, 2.5):
        assert result["bounds"][f"{s:.12g}"] == list(local_sl2.factor_bounds_check(factor, s))


def test_local_sl2_builds_its_factor_columns_once(capsys, count_calls):
    """A local-sl2 report builds its factor's one-q columns once, in `sl2_local_factor`, and
    the float sandwich values the factor it is given.  `local_sl2`'s binding of
    `factor_columns` is counted, and `cli`'s if it has one."""
    modules = [module for module in (local_sl2, cli) if hasattr(module, "factor_columns")]
    builds = [count_calls(module, "factor_columns") for module in modules]
    argv = ["local-sl2", "--q", "5", "--level", "2", "--s-grid", "2,2.25,2.5,3,3.5"]
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert [q for seen in builds for q in seen] == [(5,)]
    factor = sl2_local_factor(5)
    for seen in builds:
        seen.clear()
    assert local_sl2.factor_bounds_check(factor, 2.5) == (True, True)
    assert builds == [[] for _ in modules]


@pytest.mark.parametrize(
    "edge, printed", [("lower", ["false", "true"]), ("upper", ["true", "false"])]
)
def test_local_sl2_reports_an_exact_value_outside_the_bounds(capsys, monkeypatch, edge, printed):
    """At s = 2 and 3, compared exactly, the `bounds` pair reads [false, true] for the value 1,
    below the lower edge (1 - q^(1-s))^(-1/2), and [true, false] for twice the upper edge
    (1 - q^(1-s))^(-100)."""
    q = 3

    def value(factor, s):
        one_minus = Fraction(q ** (s - 1) - 1, q ** (s - 1))
        return Fraction(1) if edge == "lower" else 2 / one_minus ** 100

    monkeypatch.setattr(local_sl2, "evaluate_local_exact", value)
    code, out = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2", "--s-grid", "2,3"])
    assert code == 0
    assert _printed_bounds(out) == {"2": printed, "3": printed}
    verdicts = [word == "true" for word in printed]
    assert json.loads(out)["result"]["bounds"] == {"2": verdicts, "3": verdicts}


def test_oracle_cross_links_formula(capsys):
    code, out = run_cli(capsys, ["oracle", "--modulus", "9"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 648
    assert result["class_count"] == 25
    assert result["formula_census_matches"] is True


def test_oracle_reports_a_closed_census_that_differs(capsys, monkeypatch):
    """`formula_census_matches` reads false, and the run still exits 0, when the censuses differ."""

    monkeypatch.setattr(
        cli, "level_census", lambda factor, k: moved_top_degree(local_sl2.level_census(factor, k))
    )
    code, out = run_cli(capsys, ["oracle", "--modulus", "9"])
    assert code == 0
    assert '"formula_census_matches": false,' in out
    result = json.loads(out)["result"]
    assert result["formula_census_matches"] is False
    assert result["class_count"] == result["formula_irrep_count"] == 25


def test_orbit_table(capsys):
    code, out = run_cli(capsys, ["orbit", "--samples", "10", "--seed", "5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_match"] is True
    assert len(result["table"]) == 10


def test_orbit_reports_a_dimension_that_differs(capsys, monkeypatch):
    """`all_match` and a row's `match` read false, and the run still exits 0, when dim^2 != index."""
    dimension = cli.orbit_dimension
    monkeypatch.setattr(cli, "orbit_dimension", lambda datum: datum.p * dimension(datum))
    code, out = run_cli(capsys, ["orbit", "--samples", "10", "--seed", "5"])
    assert code == 0
    assert '"all_match": false,' in out
    result = json.loads(out)["result"]
    assert result["all_match"] is False
    assert any(row["match"] is False for row in result["table"])


def test_census8_reports_a_conjugator_off_the_block_shape(capsys, monkeypatch):
    """`conjugator_blocks_ok` reads false when a witness has a unit in its lower-left block."""
    decide = isotropic_census.are_conjugate

    def off_shape(m1, m2, p, n):
        result = decide(m1, m2, p, n)
        if result.witness is None:
            return result
        rows = [list(row) for row in result.witness]
        rows[len(rows) // 2][0] = 1
        return result._replace(witness=tuple(map(tuple, rows)))

    monkeypatch.setattr(isotropic_census, "are_conjugate", off_shape)
    code, out = run_cli(capsys, ["census8", "--m", "2", "--q", "3", "--k", "2", "--t", "1"])
    assert code == 0
    assert '"conjugator_blocks_ok": false,' in out
    result = json.loads(out)["result"]
    assert result["conjugator_blocks_ok"] is False
    assert result["certified"] is True


def test_census8_small(capsys):
    code, out = run_cli(
        capsys, ["census8", "--m", "2", "--q", "3", "--k", "1", "--t", "1"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certified"] is True
    assert result["classes_found"] >= result["bound"]
    assert result["conjugator_blocks_ok"] is True


def test_census8_reports_an_exhaustive_census_below_its_bound(capsys, monkeypatch):
    """`certified` reads false when an exhaustive census finds fewer classes than its bound."""
    argv = ["census8", "--m", "2", "--q", "3", "--k", "2", "--t", "1"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    found = json.loads(out)["result"]["classes_found"]
    monkeypatch.setattr(isotropic_census.CensusFamily, "class_count_floor", lambda family: found + 1)
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert '"certified": false,' in out
    result = json.loads(out)["result"]
    assert result["certified"] is False
    assert result["exhaustive"] is True
    assert result["unknown_pairs"] == 0
    assert (result["classes_found"], result["bound"]) == (found, found + 1)


def test_census8_subsample_flag(capsys):
    code, out = run_cli(
        capsys,
        ["census8", "--m", "4", "--q", "3", "--k", "1", "--t", "1", "--sample", "6"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sampled"] == 6
    assert result["exhaustive"] is False
    assert result["certified"] is False


def test_alt_table(capsys):
    code, out = run_cli(capsys, ["alt", "--kmax", "8"])
    assert code == 0
    result = json.loads(out)["result"]
    assert [row["k"] for row in result["table"]] == [5, 6, 7, 8]
    assert all(row["mass_ok"] for row in result["table"])


def test_alt_reports_a_census_whose_mass_differs(capsys, monkeypatch):
    """`mass_ok` reads false in the row whose census has a degree moved, and the run still exits 0."""
    census_of = cli.an_census

    def moved_at_a6(k, degrees):
        census = census_of(k, degrees)
        return moved_top_degree(census) if k == 6 else census

    monkeypatch.setattr(cli, "an_census", moved_at_a6)
    code, out = run_cli(capsys, ["alt", "--kmax", "7"])
    assert code == 0
    assert re.findall(r'"mass_ok": (\w+),', out) == ["true", "false", "true"]
    table = json.loads(out)["result"]["table"]
    assert [row["mass_ok"] for row in table] == [True, False, True]


def test_euler_report(capsys):
    code, out = run_cli(
        capsys,
        ["euler", "--prime-bound", "100", "--s-grid", "2.5", "--scan-grid", "100,1000"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["table"][0]["sandwich_ok"] is True
    assert result["divergence_scan"]["strictly_increasing"] is True


@pytest.mark.parametrize(
    "scan, increasing, ratio",
    [("114,126", "false", 1.0), ("100,150", "true", 1.0994)],
    ids=["no-prime-in-between", "growth-below-threshold"],
)
def test_euler_reports_a_scan_that_does_not_diverge(capsys, scan, increasing, ratio):
    """`diverging` reads false, and `strictly_increasing` too when (114, 126] holds no prime."""
    code, out = run_cli(capsys, ["euler", "--prime-bound", "100", "--scan-grid", scan])
    assert code == 0
    assert f'"strictly_increasing": {increasing},' in out
    assert '"diverging": false,' in out
    result = json.loads(out)["result"]["divergence_scan"]
    assert result["strictly_increasing"] is (increasing == "true")
    assert result["diverging"] is False
    assert result["growth_ratio"] == pytest.approx(ratio, abs=1e-4)
    assert result["growth_ratio"] < result["threshold"]


@pytest.mark.parametrize("edge_share, verdict", [(None, "false"), (0.9, "false"), (1.1, "true")])
def test_euler_reports_a_product_below_the_sandwich(capsys, monkeypatch, edge_share, verdict):
    """`sandwich_ok` at s = 2.5 reads false for a product of local factors 1, and false or true
    for equal factors whose product is 0.9 or 1.1 times the lower edge zeta(s - 1)^(1/2)."""
    s = 2.5
    primes = [p for p in range(3, 101) if all(p % d for d in range(2, p))]
    half_log_zeta = 0.5 * sum(-math.log(1 - p ** (1 - s)) for p in primes)
    value = 1.0 if edge_share is None else math.exp(edge_share * half_log_zeta / len(primes))
    monkeypatch.setattr(
        euler_global, "evaluate_local",
        lambda columns, exponents: [[value] * len(columns.q) for _ in exponents],
    )
    code, out = run_cli(capsys, ["euler", "--prime-bound", "100", "--s-grid", str(s)])
    assert code == 0
    assert f'"sandwich_ok": {verdict}\n' in out
    assert json.loads(out)["result"]["table"][0]["sandwich_ok"] is (verdict == "true")


def test_euler_sandwich_reads_only_the_primes_up_to_the_prime_bound(capsys, monkeypatch):
    """With a scan bound above the prime bound the sieve runs further, but the sandwich's
    zeta(s - 1) still runs over the primes <= the prime bound: at s = 2.1, equal factors whose
    product is 1.1 times the lower edge over the primes <= 100 read true, though that product
    is below the lower edge over the primes <= 1000."""
    s = 2.1
    primes = [p for p in range(3, 101) if all(p % d for d in range(2, p))]
    half_log_zeta = 0.5 * sum(-math.log(1 - p ** (1 - s)) for p in primes)
    value = math.exp(1.1 * half_log_zeta / len(primes))
    assert len(primes) * math.log(value) < 0.5 * sum(
        -math.log(1 - p ** (1 - s)) for p in odd_primes_upto(1000))
    monkeypatch.setattr(
        euler_global, "evaluate_local",
        lambda columns, exponents: [[value] * len(columns.q) for _ in exponents],
    )
    argv = ["euler", "--prime-bound", "100", "--s-grid", str(s), "--scan-grid", "50,1000"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["result"]["table"][0]["sandwich_ok"] is True


def test_euler_sandwich_verdict_range_ends(capsys):
    """The sandwich verdict is computed for s in (2, 3] and printed null outside it.

    At s = 2.0 and at the float just above 3.0 it reads null; at the
    float just above 2.0 and at 3.0 it is computed, and true.
    """
    grid = [2.0, math.nextafter(2.0, 3.0), 3.0, math.nextafter(3.0, 4.0)]
    argv = ["euler", "--prime-bound", "100", "--s-grid", ",".join(map(repr, grid))]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert re.findall(r'"sandwich_ok": (\w+)\n', out) == ["null", "true", "true", "null"]
    table = json.loads(out)["result"]["table"]
    assert [row["sandwich_ok"] for row in table] == [None, True, True, None]


def test_exit_code_precondition(capsys):
    code = main(["local-sl2", "--q", "4", "--level", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid parameters" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--samples", "0"],
        ["orbit", "--samples", "-1"],
        ["census8", "--m", "4", "--q", "3", "--k", "1", "--t", "1", "--sample", "-1"],
        ["census8", "--m", "4", "--q", "3", "--k", "1", "--t", "1", "--sample", "0"],
    ],
)
def test_sample_counts_below_one_rejected(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid parameters" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_alt_kmax_below_one_rejected(capsys, kmax):
    """young_levels checks 1 <= kmax <= MAX_K before it builds any level."""
    assert main(["alt", "--kmax", kmax]) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid parameters: k must be in 1..36\n"
    assert captured.out == ""


def test_exit_code_budget(capsys):
    code = main(["oracle", "--modulus", "125"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


def test_witten_root_budget_exit_code(capsys):
    """A rank past `rootsys.ROOT_BUDGET` exits 3."""
    code = main(["witten", "--series", "A", "--rank", "100", "--bound", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exhausted" in captured.err and "5050 positive roots" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_census8_pair_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(isotropic_census, "PAIR_BUDGET", 1)
    code = main(["census8", "--m", "4", "--q", "3", "--k", "1", "--t", "1", "--sample", "20"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exhausted" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "module,constant,argv",
    [
        (witten, "NODE_BUDGET", ["witten", "--series", "A", "--rank", "1", "--bound", "1000"]),
        (euler_global, "SIEVE_BUDGET", ["euler", "--prime-bound", "1000"]),
        (euler_global, "SIEVE_BUDGET",
         ["euler", "--prime-bound", "100", "--scan-grid", "100,1000"]),
        (arith, "TRIAL_DIVISION_BUDGET", ["local-sl2", "--q", "10000019", "--level", "1"]),
        (cli, "SAMPLE_BUDGET", ["orbit", "--samples", "1000"]),
        (local_sl2, "ORDER_BITS_BUDGET", ["local-sl2", "--q", "3", "--level", "167"]),
    ],
    ids=["witten-nodes", "euler-sieve", "euler-scan-sieve", "trial-division", "orbit-samples",
         "level-order-bits"],
)
def test_walk_and_sieve_budget_exit_code(capsys, monkeypatch, module, constant, argv):
    monkeypatch.setattr(module, constant, 999)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exhausted" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["local-sl2", "--q", str(3 ** 700), "--level", "1"], 2),  # q^2 + q past the float range
        (["local-sl2", "--q", "3", "--level", "3100"], 3),  # group order past the int-to-str limit
        (["local-sl2", "--q", "1000000000000000003", "--level", "1"], 3),  # a prime near 10^18
        (["orbit", "--samples", "300000000"], 3),
        # euler checks each argument in order before it sieves: the grid's order comes first
        (["euler", "--prime-bound", "100", "--scan-grid", "2000000,100"], 2),
        (["euler", "--prime-bound", "2000000", "--s-grid", "2.5,0.5"], 3),
        (["euler", "--prime-bound", "2000000", "--s-grid", "0.5,2.5"], 2),
        (["alt", "--kmax", "37"], 2),  # past MAX_K: no level is built
    ],
    ids=["q-float-range", "level-3100", "q-prime-1e18", "orbit-3e8", "euler-scan-order",
         "euler-sieve-before-second-s", "euler-first-s-before-sieve", "alt-kmax-37"],
)
def test_oversized_inputs_exit_before_work(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--prime-bound", "1"], 2, "invalid parameters: prime bound must be >= 2"),
        (["--prime-bound", "100", "--scan-grid", "1,100"], 2,
         "invalid parameters: prime bound must be >= 2"),
        (["--prime-bound", "100", "--s-grid", "2.5,1"], 2,
         "invalid parameters: every local factor diverges at s <= 1"),
        (["--prime-bound", "2", "--s-grid", "2.5"], 2,
         "invalid parameters: need at least one odd prime"),
        (["--prime-bound", "100", "--scan-grid", "100,100"], 2,
         "invalid parameters: prime bounds must strictly increase"),
        (["--prime-bound", "2000000"], 3,
         "budget exhausted: prime bound 2000000 exceeds the sieve budget 1000000"),
        (["--prime-bound", "100", "--scan-grid", "100,2000000"], 3,
         "budget exhausted: prime bound 2000000 exceeds the sieve budget 1000000"),
        # a bad s and a bad scan: the s is checked first
        (["--prime-bound", "100", "--s-grid", "0.5", "--scan-grid", "100,50"], 2,
         "invalid parameters: every local factor diverges at s <= 1"),
    ],
    ids=["bound-grid", "bound-scan", "s-at-most-1", "no-odd-prime", "scan-order", "sieve",
         "scan-sieve", "s-before-scan"],
)
def test_euler_rejection_messages(capsys, argv, code, message):
    assert main(["euler", *argv]) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["local-sl2", "--q", "3", "--level", "1", "--s-grid", "nan"],
         "invalid parameters: s must exceed 1 (the tail ratio is q^(1-s))"),
        (["euler", "--prime-bound", "10", "--s-grid", "nan"],
         "invalid parameters: every local factor diverges at s <= 1"),
        (["alt", "--kmax", "5", "--s", "nan"], "invalid parameters: s must be positive"),
        # kmax < 5 computes no row, so s is checked before the sweep
        (["alt", "--kmax", "4", "--s", "nan"], "invalid parameters: s must be positive"),
        (["alt", "--kmax", "4", "--s=-1"], "invalid parameters: s must be positive"),
    ],
    ids=["local-sl2", "euler", "alt", "alt-no-row-nan", "alt-no-row-negative"],
)
def test_nan_exponent_rejected(capsys, argv, message):
    """NaN fails every comparison, so it passes no s > 1 or s > 0 check and exits 2.

    A negative s exits 2 with the same message.
    """
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


def run_fuzzed(argv):
    """Run one argv; assert exit 0, 2 or 3 and no traceback; return the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


# s-values for the fuzz: non-finite, negative, the pole s = 1, and values on both sides of 2 and 3
S_TEXT = st.sampled_from(
    ["nan", "inf", "-inf", "-2.5", "-1", "0", "1", "1.0000001", "1.5", "2", "2.5", "3", "7.3",
     "1e308"]
)
S_GRID = st.lists(S_TEXT, min_size=1, max_size=3).map(",".join)


@settings(max_examples=50, deadline=None)
@given(
    modulus=st.one_of(st.integers(-4, 16).map(str), st.text(max_size=6).filter(_not_an_int)),
    group=st.one_of(st.none(), st.sampled_from(["sl2", "gl3", ""])),
)
def test_oracle_argv_fuzz(modulus, group):
    """Every oracle argv ends in exit 0, 2 or 3, never in a traceback."""
    argv = ["oracle", "--modulus", modulus] + ([] if group is None else ["--group", group])
    code, out = run_fuzzed(argv)
    if code == 0 and int(modulus) in (3, 5, 7, 9, 11, 13):
        assert json.loads(out)["result"]["formula_census_matches"] is True


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(-1, 4),
    q=st.integers(-1, 7),
    k=st.integers(-1, 1),
    t=st.integers(-1, 2),
    sample=st.integers(-1, 4),
)
@example(m=4, q=3, k=1, t=1, sample=4)
@example(m=4, q=7, k=1, t=1, sample=4)
@example(m=2, q=5, k=1, t=1, sample=1)
def test_census8_argv_fuzz(m, q, k, t, sample):
    """Every census8 argv ends in exit 0, 2 or 3, never in a traceback."""
    argv = ["census8", "--m", str(m), "--q", str(q), "--k", str(k), "--t", str(t),
            "--sample", str(sample)]
    code, out = run_fuzzed(argv)
    if code == 0:
        result = json.loads(out)["result"]
        assert result["conjugator_blocks_ok"] is True
        assert result["classes_found"] <= result["sampled"]


@settings(max_examples=50, deadline=None)
@given(
    series=st.sampled_from(list("ABCDEFGH")),
    rank=st.integers(-1, 9),
    bound=st.one_of(st.integers(-2, 5000).map(str), st.sampled_from(["", "1e3", "x"])),
)
@example(series="A", rank=1, bound="7")
@example(series="E", rank=8, bound="5000")
def test_witten_argv_fuzz(series, rank, bound):
    """Every witten argv ends in exit 0, 2 or 3, never in a traceback."""
    code, out = run_fuzzed(["witten", "--series", series, "--rank", str(rank), "--bound", bound])
    if code == 0:
        result = json.loads(out)["result"]
        table = result["table"]
        assert table[-1]["R_n"] == result["total_count"] and table[-1]["degree"] <= int(bound)
        fitted = result["distinct_degrees"] >= witten.FIT_MIN_DISTINCT
        assert (result["abscissa"] is not None) == fitted


@settings(max_examples=50, deadline=None)
@given(q=st.integers(-2, 30), level=st.integers(-1, 6), grid=st.one_of(st.none(), S_GRID))
@example(q=3, level=2, grid="nan,inf,1")
@example(q=27, level=6, grid="2,2.5,3")
@example(q=3 ** 700, level=1, grid=None)
@example(q=3, level=3100, grid=None)
def test_local_sl2_argv_fuzz(q, level, grid):
    """Every local-sl2 argv ends in exit 0, 2 or 3, never in a traceback."""
    argv = ["local-sl2", "--q", str(q), "--level", str(level)]
    code, out = run_fuzzed(argv + ([] if grid is None else [f"--s-grid={grid}"]))
    if code == 0:
        result = json.loads(out)["result"]
        assert result["mass_matches_order"] is True
        assert all(lower and upper for lower, upper in result["bounds"].values())


@settings(max_examples=50, deadline=None)
@given(kmax=st.integers(-2, 14), s=st.one_of(st.none(), S_TEXT))
@example(kmax=8, s="nan")
@example(kmax=8, s="-2.5")
def test_alt_argv_fuzz(kmax, s):
    """Every alt argv ends in exit 0, 2 or 3, never in a traceback."""
    code, out = run_fuzzed(["alt", "--kmax", str(kmax)] + ([] if s is None else [f"--s={s}"]))
    if code == 0:
        table = json.loads(out)["result"]["table"]
        assert [row["k"] for row in table] == list(range(5, kmax + 1))
        assert all(row["mass_ok"] for row in table)


def _reference_log_product(bound, s):
    """Reference for the Euler table: the factor at each odd prime <= bound, its terms written
    and valued by the scalar oracle of `tests/scalar_local.py`."""
    return math.fsum(
        math.log(evaluate_local_scalar(p, s)) for p in odd_primes_upto(bound)
    )


def _reference_product(bound, s):
    try:
        return math.exp(_reference_log_product(bound, s))
    except OverflowError:
        return math.inf


def _reference_sandwich(bound, s):
    log_zeta = math.fsum(-math.log(-math.expm1((1.0 - s) * math.log(p)))
                         for p in odd_primes_upto(bound))
    return 0.5 * log_zeta < _reference_log_product(bound, s) < 100.0 * log_zeta


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@contextlib.contextmanager
def written_reports():
    """The reports `cli._to_json` is given, before any rounding."""
    written = []
    writer = cli._to_json

    def spy(value):
        written.append(value)
        return writer(value)

    with mock.patch.object(cli, "_to_json", spy):
        yield written


@settings(max_examples=50, deadline=None)
@given(
    prime_bound=st.integers(-2, 3000),
    grid=st.one_of(st.none(), S_GRID),
    scan=st.one_of(st.none(), st.lists(st.integers(-2, 3000), max_size=3).map(
        lambda bounds: ",".join(map(str, bounds)))),
)
@example(prime_bound=100, grid="2.5,nan,inf", scan="100,1000")
@example(prime_bound=2, grid="2.5", scan="2,3")
@example(prime_bound=227, grid="1.0000001", scan=None)  # the product overflows a float
@example(prime_bound=100, grid="2.5,3", scan="50,1000")  # a scan bound above the prime bound
@example(prime_bound=2000, grid="2.25,3", scan="10,500")  # scan bounds below it
@example(prime_bound=500, grid="1.5,2", scan="100,600")  # s <= 2
@example(prime_bound=500, grid="3.5,7.3", scan="20")  # s > 3
def test_euler_argv_fuzz(prime_bound, grid, scan):
    """Every euler argv ends in exit 0, 2 or 3, never in a traceback.

    A report's products, sandwich verdicts and scan equal, unrounded,
    those of the per-prime loop.
    """
    argv = ["euler", "--prime-bound", str(prime_bound)]
    argv += [] if grid is None else [f"--s-grid={grid}"]
    argv += [] if scan is None else [f"--scan-grid={scan}"]
    with written_reports() as written:
        code, _ = run_fuzzed(argv)
    if code == 0:
        result = written[0]["result"]
        table = result["table"]
        for s, product, sandwich_ok in zip(
            table["s"], table["partial_product"], table["sandwich_ok"], strict=True
        ):
            assert sandwich_ok is (True if 2 < s <= 3 else None)
            assert _same_float(product, _reference_product(prime_bound, s))
            if 2 < s <= 3:
                assert sandwich_ok == _reference_sandwich(prime_bound, s)
        if "divergence_scan" in result:
            scan_result = result["divergence_scan"]
            assert scan_result["products"] == [
                _reference_product(bound, 2.0) for bound in scan_result["prime_bounds"]
            ]


def test_euler_report_sieves_once(capsys, count_calls, evaluator_calls):
    """One sieve per report, one column build whose q column is the sieve's odd primes, no
    per-prime factor, no prime-power test of a sieved prime, and one evaluator call that values
    every factor at the report's distinct exponents."""
    sieves = count_calls(euler_global, "odd_primes_upto")
    builds = count_calls(euler_global, "factor_columns")
    factors = count_calls(local_sl2, "sl2_local_factor")
    prime_tests = count_calls(local_sl2, "prime_power")
    argv = ["euler", "--prime-bound", "1000", "--s-grid", "2.5,3,2.5", "--scan-grid", "100,2000"]
    code, _ = run_cli(capsys, argv)
    assert code == 0
    assert sieves == [2000]
    assert builds == [odd_primes_upto(2000)]
    assert factors == []
    assert prime_tests == []  # the sieve is the proof that each q is prime
    # the grid's distinct s, the scan's 2
    assert evaluator_calls == [(odd_primes_upto(2000), [2.5, 3.0, 2.0])]


def test_local_sl2_tests_q_once(capsys, count_calls):
    """A local-sl2 report decides q's prime power once, in sl2_local_factor."""
    calls = count_calls(local_sl2, "prime_power")
    code, _ = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2"])
    assert code == 0
    assert calls == [3]


@settings(max_examples=30, deadline=None)
@given(samples=st.integers(-2, 12), seed=st.integers(-10 ** 6, 10 ** 6))
def test_orbit_argv_fuzz(samples, seed):
    """Every orbit argv ends in exit 0, 2 or 3, never in a traceback."""
    code, out = run_fuzzed(["orbit", "--samples", str(samples), "--seed", str(seed)])
    if code == 0:
        result = json.loads(out)["result"]
        assert result["all_match"] is True and len(result["table"]) == samples


def test_determinism_modulo_wall_time(capsys):
    argv = ["local-sl2", "--q", "5", "--level", "3", "--seed", "7"]
    _, out1 = run_cli(capsys, argv)
    _, out2 = run_cli(capsys, argv)
    # byte-identical apart from the wall-time line
    drop = lambda text: "\n".join(l for l in text.splitlines() if "wall_time_s" not in l)
    assert drop(out1) == drop(out2)
    assert strip_wall_time(json.loads(out1)) == strip_wall_time(json.loads(out2))


GOLDEN = Path(__file__).parent / "golden"
WITTEN_CSV = ["witten", "--series", "G", "--rank", "2", "--bound", "200", "--format", "csv"]


def _drop_wall_time(text):
    return "".join(line for line in text.splitlines(True) if '"wall_time_s": ' not in line)


@pytest.mark.parametrize(
    "argv,stdout,stderr,out_file",
    [
        (["witten", "--series", "A", "--rank", "2", "--bound", "50"], "witten_a2_50.json", None,
         None),
        (WITTEN_CSV, "witten_g2_200.csv", "witten_g2_200_meta.json", None),
        (WITTEN_CSV + ["--out"], "witten_g2_200_out_meta.json", None, "witten_g2_200.csv"),
        (["alt", "--kmax", "4"], "alt_kmax4.json", None, None),  # no k >= 5: an empty table
        (["alt", "--kmax", "7", "--s", "0.7"], "alt_kmax7.json", None, None),
        (["euler", "--prime-bound", "100", "--s-grid=", "--scan-grid", "100,1000"],
         "euler_empty_grid.json", None, None),
        (["euler", "--prime-bound", "100", "--s-grid", "1.5,2.5,3"], "euler_p100.json", None,
         None),
        (["orbit", "--samples", "4", "--seed", "5"], "orbit_s4.json", None, None),
        # 33 reduced p*ad(x), 29 permutation classes: samples share one elimination
        (["orbit", "--samples", "40", "--seed", "7"], "orbit_s40_seed7.json", None, None),
        (["census8", "--m", "2", "--q", "3", "--k", "1", "--t", "1"], "census8_2311.json", None,
         None),
        (["oracle", "--modulus", "9"], "oracle_m9.json", None, None),
        (["local-sl2", "--q", "5", "--level", "2", "--s-grid", "2,2.5,3"],
         "local_sl2_q5_k2.json", None, None),
        (["local-sl2", "--q", "3", "--level", "2"], "local_sl2_q3_k2.json", None, None),
    ],
    ids=["witten-json", "witten-csv-stdout", "witten-csv-out", "alt-empty", "alt", "euler-empty",
         "euler", "orbit", "orbit-merged-classes", "census8", "oracle", "local-sl2-q5",
         "local-sl2-q3"],
)
def test_golden_report_bytes(tmp_path, capsys, argv, stdout, stderr, out_file):
    """Every stream of a report equals its golden file byte for byte, bar the wall-time line."""
    target = tmp_path / "table.csv"
    code = main(argv + [str(target)] if out_file else argv)
    captured = capsys.readouterr()
    assert code == 0

    def golden(name):
        return _drop_wall_time(GOLDEN.joinpath(name).read_bytes().decode("utf-8"))

    assert _drop_wall_time(captured.out) == golden(stdout)
    assert _drop_wall_time(captured.err) == (golden(stderr) if stderr else "")
    if out_file:
        assert target.read_bytes() == GOLDEN.joinpath(out_file).read_bytes()


def test_csv_metadata_to_stderr_without_out(capsys):
    code = main(["witten", "--series", "A", "--rank", "1", "--bound", "5", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "degree,multiplicity,R_n"
    meta = json.loads(captured.err)
    assert meta["command"] == "witten"
    assert meta["result"]["total_count"] == 5
    assert "table" not in meta["result"]


def test_rebound_handler_runs_through_the_cached_parser(capsys, monkeypatch):
    """A `cmd_*` rebound after the parser is built is the one that runs, as a tracer needs."""
    argv = ["oracle", "--modulus", "3"]
    code, plain = run_cli(capsys, argv)  # builds and caches the parser
    assert code == 0
    assert cli.build_parser() is cli.build_parser()
    original, calls = cli.cmd_oracle, []

    def recording(args):
        calls.append(args.modulus)
        return original(args)

    monkeypatch.setattr(cli, "cmd_oracle", recording)
    code, wrapped = run_cli(capsys, argv)
    assert code == 0
    assert calls == [3]
    assert _drop_wall_time(wrapped) == _drop_wall_time(plain)


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, _SubParsersAction)]
    return set(action.choices)


def _handler_table():
    """`_handler`'s dict literal, read from its source: subcommand -> name of its `cmd_*`."""
    tree = ast.parse(inspect.getsource(cli._handler))
    (table,) = [node for node in ast.walk(tree) if isinstance(node, ast.Dict)]
    return {key.value: value.id for key, value in zip(table.keys, table.values, strict=True)}


def test_dispatch_covers_every_subcommand_and_handler():
    table = _handler_table()
    assert set(table) == _subcommands(cli.build_parser())
    handlers = {name for name, obj in vars(cli).items()
                if name.startswith("cmd_") and inspect.isfunction(obj)}
    assert sorted(table.values()) == sorted(handlers)  # each handler once
    for command, name in table.items():
        assert cli._handler(command) is getattr(cli, name)


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
def test_help_text_repeats_in_one_process(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stopped:
            main(argv)
        assert stopped.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: repzeta")


@pytest.mark.parametrize(
    "argv,grid",
    [(["local-sl2", "--q", "3", "--level", "2"], [2.0, 2.5, 3.0]),
     (["euler", "--prime-bound", "100"], [2.5])],
)
def test_default_grids_are_immutable_and_repeat(capsys, argv, grid):
    """The cached parser hands every call the same default grid, so it is a tuple."""
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert _drop_wall_time(first) == _drop_wall_time(second)
    assert json.loads(first)["config"]["s_grid"] == grid
    assert cli.build_parser().parse_args(argv).s_grid == tuple(grid)


def _round12(value):
    """Reference for the report writer: the rounding step it replaced.

    A `Table` becomes the list of its rows, each a dict, as the reports held them before.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, cli.Table):
        return [_round12(dict(zip(value, row))) for row in zip(*value.values())]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def reference_json(value):
    return json.dumps(_round12(value), sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["witten", "--series", "A", "--rank", "2", "--bound", "2000"],
        ["local-sl2", "--q", "3", "--level", "2", "--s-grid", "2.0,2.3,3.0"],
        ["oracle", "--modulus", "5"],
        ["orbit", "--samples", "5", "--seed", "3"],
        ["census8", "--m", "2", "--q", "3", "--k", "1", "--t", "1"],
        ["alt", "--kmax", "8", "--s", "0.7"],
        ["euler", "--prime-bound", "100", "--s-grid", "2.1,2.5", "--scan-grid", "100,1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_writer_matches_json_dumps(capsys, argv):
    with written_reports() as written:
        code, out = run_cli(capsys, argv)
    assert code == 0 and len(written) == 1
    assert out == reference_json(written[0]) + "\n"


FLAT_TABLES = {
    "bool-and-int": [{"a": True, "b": 1}, {"a": 1, "b": True}, {"a": 0, "b": False}],
    "floats": [{"x": v, "n": i} for i, v in enumerate(
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1 + 0.2, 10.0 ** 20])],
    "none": [{"v": None, "w": 3}, {"v": 2.5, "w": None}],
    "strings": [
        {'p%d "q" \u00e9\u2228': "x % y", "%s": "\U0001d518"},
        {'p%d "q" \u00e9\u2228': "", "%s": 'a"b\\'},
    ],
    "one-row": [{"degree": 1, "multiplicity": 10 ** 40, "R_n": -7}],
    "signed-big-ints": [  # all-int columns go into the row template as they are
        {"n": -(2 ** 64) - 1, "m": 2 ** 64, "z": 0},
        {"n": -1, "m": 10 ** 30, "z": -(10 ** 25)},
        {"n": 2 ** 64 + 1, "m": -(2 ** 63), "z": 12},
    ],
    "tuple": ({"k": 5, "zeta": 1 / 3}, {"k": 6, "zeta": 2 / 3}),
}
OTHER_TABLES = {
    "keys-differ": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "key-missing": [{"a": 1, "b": 2}, {"a": 1}],
    "nested-list": [{"a": 1, "b": [2, 3]}, {"a": 4, "b": [5]}],
    "nested-dict": [{"a": {"x": 1.5}}, {"a": {"x": 2.5}}],
    "nested-tuple": [{"a": (1,)}],
    "empty-rows": [{}, {}],
    "not-dicts": [{"a": 1}, 2, "x"],
}


def test_report_writer_matches_json_dumps_on_edge_values():
    value = {
        "nan": float("nan"),
        "inf": [float("inf"), -float("inf")],
        "zero": -0.0,
        "tiny": 1e-300,
        "sum": 0.1 + 0.2,
        "flags": [True, 1, False, 0, None],
        "text": "Weyl \u00e9t\u00e9 \u03b1\u2228 \U0001d518",
        "escapes": 'quote " backslash \\ tab \t',
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "nested": (1, (2.5, ("x", (3, 1 / 3))), [()]),
        "big": 10**40,
    }
    assert cli._to_json(value) == reference_json(value)
    for scalar in (float("nan"), -0.0, 2.0 / 3.0, True, 7, None, "a\"b", [], {}):
        assert cli._to_json(scalar) == reference_json(scalar)
    # a list of rows takes the recursive path, flat or not
    for name, rows in {**FLAT_TABLES, **OTHER_TABLES}.items():
        for wrapped in (rows, {"result": {"table": rows, "n": len(rows)}}, [rows, rows]):
            assert cli._to_json(wrapped) == reference_json(wrapped), name


def as_table(rows):
    """The `Table` of a flat table's rows: one column per key, in the first row's key order."""
    return cli.Table((name, [row[name] for row in rows]) for name in rows[0])


EDGE_TABLES = {
    **{name: as_table(rows) for name, rows in FLAT_TABLES.items()},
    "zero-rows": cli.Table(degree=[], multiplicity=[], R_n=[]),
    "no-columns": cli.Table(),
    "tuple-and-range": cli.Table(member=range(3), class_id=(0, 1, 1)),
    # a lone empty field is written quoted, so its row is not blank; a comma is quoted too
    "one-column-blanks": cli.Table(v=["", None, "a,b", "x"]),
    "quoted-names": cli.Table({'a,b': [1, 2], 'say "hi"': ["x", 'y"z'], "c\nd": [None, 0.5]}),
}


@pytest.mark.parametrize("name", list(EDGE_TABLES))
def test_table_writer_matches_json_dumps_on_edge_columns(name):
    """A `Table` is written as `json.dumps` writes the list of its rows."""
    table = EDGE_TABLES[name]
    for wrapped in (table, {"result": {"table": table, "n": 1}}, [table, table]):
        assert cli._to_json(wrapped) == reference_json(wrapped)
    if name in FLAT_TABLES:
        assert cli._to_json(table) == reference_json(FLAT_TABLES[name])


@pytest.mark.parametrize("name", list(EDGE_TABLES))
def test_table_csv_matches_per_cell_writer_on_edge_columns(name):
    """The column-wise CSV table equals csv.writer over `_fmt_cell` of each cell."""
    table = EDGE_TABLES[name]
    got = io.StringIO()
    cli._write_csv(got, table)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(table)
    for row in zip(*table.values()):
        writer.writerow(map(cli._fmt_cell, row))
    assert got.getvalue() == expected.getvalue()


def test_csv_table_matches_per_cell_writer(capsys):
    """The column-wise CSV table equals csv.writer over `_fmt_cell` of each cell."""
    columns = ["n", "x", "flag", "maybe", "mixed"]
    rows = [
        {"n": 10 ** 40, "x": 1 / 3, "flag": True, "maybe": None, "mixed": 1},
        {"n": -3, "x": float("nan"), "flag": False, "maybe": 7, "mixed": True},
        {"n": 0, "x": -0.0, "flag": True, "maybe": 2.5, "mixed": None},
        {"n": 12, "x": 1e-300, "flag": False, "maybe": "a,b\"c", "mixed": 0},
    ]
    report = {"tool": "repzeta", "result": {"table": as_table(rows), "rows": len(rows)}}
    cli._emit(report, Namespace(format="csv", out=None))
    captured = capsys.readouterr()
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cli._fmt_cell(row[c]) for c in columns])
    assert captured.out == buf.getvalue()
    assert json.loads(captured.err) == {"tool": "repzeta", "result": {"rows": 4}}


def per_cell_csv(table):
    """Reference for the CSV writer: csv.writer over `_fmt_cell` of each cell, row by row."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(table)
    for row in zip(*table.values()):
        writer.writerow(map(cli._fmt_cell, row))
    return expected.getvalue()


def mixed_table(rows):
    """A table of `rows` rows with int, float, bool, None-or-int and string columns; some
    strings hold `%`, `%s`, `%%`, a comma or a quote."""
    texts = ["%", "%s", "%%", "a,b", 'say "%d"', "plain", ""]
    return cli.Table(
        n=list(range(-3, rows - 3)),
        x=[i / 7 for i in range(rows)],
        flag=[i % 3 == 0 for i in range(rows)],
        maybe=[None if i % 2 else i for i in range(rows)],
        text=[texts[i % len(texts)] + str(i) * (i % 2) for i in range(rows)],
    )


@pytest.mark.parametrize("offset", [-1, 0, 1, "2 blocks + 1"])
def test_blocked_csv_matches_per_cell_writer(offset):
    """Tables of one block less one row, one block, one block and one row, and two blocks
    and one row are written as csv.writer writes them."""
    block = cli.CSV_BLOCK_ROWS
    rows = 2 * block + 1 if offset == "2 blocks + 1" else block + offset
    table = mixed_table(rows)
    got = io.StringIO()
    cli._write_csv(got, table)
    assert got.getvalue() == per_cell_csv(table)


@pytest.mark.parametrize("name", ["percent-cells", "percent-names", "one-percent-column"])
def test_blocked_csv_writes_percent_cells_as_text(monkeypatch, name):
    """Cells and names holding `%`, `%s` and `%%` are text, not format directives, in blocks
    of any size."""
    table = {
        "percent-cells": cli.Table(a=["%", "%s", "%%", "%d%%"], b=[1, 2, 3, 4]),
        "percent-names": cli.Table({"%s": [1, 2, 3], "%%": ["x", "%", "y"], "%": [0.5, None, 2.0]}),
        "one-percent-column": cli.Table(v=["%s", "", "%%", "%"]),
    }[name]
    for block in (1, 2, 3, 4096):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        got = io.StringIO()
        cli._write_csv(got, table)
        assert got.getvalue() == per_cell_csv(table), block


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("name", list(EDGE_TABLES))
def test_blocked_csv_matches_per_cell_writer_on_edge_columns(monkeypatch, name, block):
    """The edge tables (zero rows, no columns, a lone blank field among them) come out the
    same when every block holds one, two or three rows."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    table = EDGE_TABLES[name]
    got = io.StringIO()
    cli._write_csv(got, table)
    assert got.getvalue() == per_cell_csv(table)


class RecordingFile:
    """A file object that keeps each `write` call's text."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize("block", [3, 5, 4096])
def test_csv_writes_at_most_one_block_of_rows_at_a_time(monkeypatch, block):
    """After the header, each write holds one block of rows, the last one the rest."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    rows = 3 * block + 2
    table = cli.Table(n=list(range(rows)), x=[i / 3 for i in range(rows)], t=["%s"] * rows)
    fh = RecordingFile()
    cli._write_csv(fh, table)
    header, *blocks = fh.writes
    assert header == "n,x,t\r\n"
    assert [text.count("\r\n") for text in blocks] == [block, block, block, 2]
    assert "".join(fh.writes) == per_cell_csv(table)


# S_GRID variants of the benchmark's euler job: --prime-bound 10000 --scan-grid 100,1000,10000
# and sha256 of its stdout without the wall-time line, recorded before the column evaluator
BENCHMARK_EULER_DIGESTS = {
    "2.25,2.5625,2.875": "66675ebd02af34b42a3a7d8004a61cce81a216a68383cefee8dafa95b3616b49",
    "2.3125,2.625,2.9375": "05c1082487b62daa2d5434cfdc7bed42dc730cb8422174a8eb9d4bbc131f5545",
    "2.375,2.6875,3.0": "2437978b488a20b7a5eb7058d73eca08fc4f15e9e29a13dca95c5aa73f6f376e",
    "2.0625,2.4375,2.75": "028840993533a56e526e15709ff3a56c30ccceab1fc46c74e5eea576a8ec5bd8",
    "2.125,2.5,2.8125": "72c56125f5c4ed702c34fffe4dbf22f59386b91a1318d125fcdb9eb846275273",
    "2.1875,2.5625,2.875": "b037cedb6c5d4e6ccd8f83d4feb27cf04807debe4d968f38842991b1ca855a9b",
    "2.25,2.625,2.9375": "c16938daa1d30a331c5d3ed2628ce98ea6c3e45bf2e8c138203a73a1e39081f3",
    "2.3125,2.6875,3.0": "d9d122a8e5d0b5d5798ed9665cc22c856d9ccec6d843e86a4438e69827708f74",
    "2.0625,2.375,2.75": "954569b0c40ca8e73d987d0cc23ddacd6c7dcfca23a2125081a13b9f7c9da1d6",
    "2.125,2.4375,2.8125": "0e98ff4ddf721f4934663cdd753941f3dcdf07a0c3be31999e8777f88df4ee7a",
    "2.1875,2.5,2.875": "14ad50ae93aa5a8c8c2ed9baaa0b41219acd7d782729be47dd8139687c4a1397",
    "2.25,2.5625,2.9375": "38df9f6f03a2a55233b106957022efc8b6d69494da0d444cbd5124844486907c",
    "2.3125,2.625,3.0": "7ed9ab56039fd8e30235a30ff714f3a6e5668c46f419bb266197144533401939",
    "2.0625,2.375,2.6875": "c042c34c304dd49c503dc7b1367f025ff11775f8bdcbae74e92204e15ff7f4c3",
    "2.125,2.4375,2.75": "9a899f43d2b1fd82a6ef9d6ce2c1227aaac4b5d369adbee76cb2da96f7ac2159",
    "2.1875,2.5,2.8125": "a7571db27d8e9c91cb7a20e42fd10906ed7109fd154c4f9a560cfdef5991fe12",
}


@pytest.mark.parametrize("grid", list(BENCHMARK_EULER_DIGESTS))
def test_benchmark_euler_reports_are_pinned(capsys, grid):
    """The exact bytes of the benchmark's euler reports, so a faster evaluator cannot
    change a printed product, verdict or scan value."""
    argv = ["euler", "--prime-bound", "10000", "--s-grid", grid, "--scan-grid", "100,1000,10000"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    digest = hashlib.sha256(_drop_wall_time(out).encode()).hexdigest()
    assert digest == BENCHMARK_EULER_DIGESTS[grid]


def test_benchmark_a2_csv_is_pinned(tmp_path, capsys):
    """The exact `--out` bytes of the benchmark's CSV job, the A2 census to 10^6 (17,192 rows,
    more than one block), recorded before the blocked writer."""
    target = tmp_path / "a2.csv"
    argv = ["witten", "--series", "A", "--rank", "2", "--bound", "1000000",
            "--format", "csv", "--out", str(target)]
    code, _ = run_cli(capsys, argv)
    assert code == 0
    data = target.read_bytes()
    assert len(data) == 265_869
    assert hashlib.sha256(data).hexdigest() == (
        "46bf2a464e8bfe4321bc55ebf310ad8ebab2f4d94d6fdcd35fce6f793fde9e35"
    )


def test_out_file(tmp_path, capsys):
    target = tmp_path / "census.csv"
    code, out = run_cli(
        capsys,
        ["witten", "--series", "A", "--rank", "1", "--bound", "4",
         "--format", "csv", "--out", str(target)],
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "degree,multiplicity,R_n"
    meta = json.loads(out)
    assert meta["command"] == "witten"
    assert "table" not in meta["result"]


def unwritable_out_run(tmp_path, capsys, argv, fmt, where):
    """Run argv into an unwritable --out; assert exit 2 and the message that open gives."""
    target = tmp_path / "missing" / "report.out" if where == "missing-directory" else tmp_path
    code = main(argv + ["--format", fmt, "--out", str(target)])
    captured = capsys.readouterr()
    with pytest.raises(OSError) as opened:
        open(target, "w", encoding="utf-8")
    assert code == 2
    assert captured.err == f"cannot write report: {opened.value}\n"
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, fmt, where):
    """An unwritable --out is rejected before the handler runs."""

    def no_report(args):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "cmd_oracle", no_report)  # the report would take seconds
    unwritable_out_run(tmp_path, capsys, ["oracle", "--modulus", "49"], fmt, where)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_unwritable_at_the_write_exits_2(tmp_path, capsys, monkeypatch, fmt, where):
    """An --out that turns unwritable while the report is computed is caught at the write."""
    monkeypatch.setattr(cli, "_unwritable", lambda path: None)
    argv = ["witten", "--series", "A", "--rank", "1", "--bound", "5"]
    unwritable_out_run(tmp_path, capsys, argv, fmt, where)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,expected", [(["orbit", "--samples", "0"], 2),
                                           (["orbit", "--samples", "300000000"], 3)])
def test_failed_run_leaves_out_untouched(tmp_path, capsys, fmt, argv, expected):
    """A run that exits 2 or 3 neither creates nor truncates its --out file."""
    new, old = tmp_path / "new.out", tmp_path / "old.out"
    old.write_text("kept")
    assert main(argv + ["--format", fmt, "--out", str(new)]) == expected
    assert main(argv + ["--format", fmt, "--out", str(old)]) == expected
    assert capsys.readouterr().out == ""
    assert not new.exists() and old.read_text() == "kept"


def test_module_entry_point(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "repzeta.cli", "alt", "--kmax", "6"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "alt"
