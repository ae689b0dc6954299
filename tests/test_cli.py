import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repzeta import arith, cli, euler_global, isotropic_census, local_sl2, witten
from repzeta.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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


def test_oracle_cross_links_formula(capsys):
    code, out = run_cli(capsys, ["oracle", "--modulus", "9"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 648
    assert result["class_count"] == 25
    assert result["formula_census_matches"] is True


def test_orbit_table(capsys):
    code, out = run_cli(capsys, ["orbit", "--samples", "10", "--seed", "5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_match"] is True
    assert len(result["table"]) == 10


def test_census8_small(capsys):
    code, out = run_cli(
        capsys, ["census8", "--m", "2", "--q", "3", "--k", "1", "--t", "1"]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["certified"] is True
    assert result["classes_found"] >= result["bound"]
    assert result["conjugator_blocks_ok"] is True


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


def test_euler_report(capsys):
    code, out = run_cli(
        capsys,
        ["euler", "--prime-bound", "100", "--s-grid", "2.5", "--scan-grid", "100,1000"],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["table"][0]["sandwich_ok"] is True
    assert result["divergence_scan"]["strictly_increasing"] is True


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


def test_exit_code_budget(capsys):
    code = main(["oracle", "--modulus", "125"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


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
    ],
    ids=["q-float-range", "level-3100", "q-prime-1e18", "orbit-3e8"],
)
def test_oversized_inputs_exit_before_work(capsys, argv, expected):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
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
def test_euler_argv_fuzz(prime_bound, grid, scan):
    """Every euler argv ends in exit 0, 2 or 3, never in a traceback."""
    argv = ["euler", "--prime-bound", str(prime_bound)]
    argv += [] if grid is None else [f"--s-grid={grid}"]
    argv += [] if scan is None else [f"--scan-grid={scan}"]
    code, out = run_fuzzed(argv)
    if code == 0:
        for row in json.loads(out)["result"]["table"]:
            assert row["sandwich_ok"] is (True if 2 < row["s"] <= 3 else None)


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


def test_golden_report(capsys):
    from pathlib import Path

    golden_path = Path(__file__).parent / "golden" / "local_sl2_q3_k2.json"
    _, out = run_cli(capsys, ["local-sl2", "--q", "3", "--level", "2"])
    got = strip_wall_time(json.loads(out))
    expected = strip_wall_time(json.loads(golden_path.read_text()))
    assert got == expected


def test_csv_metadata_to_stderr_without_out(capsys):
    code = main(["witten", "--series", "A", "--rank", "1", "--bound", "5", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == "degree,multiplicity,R_n"
    meta = json.loads(captured.err)
    assert meta["command"] == "witten"
    assert meta["result"]["total_count"] == 5
    assert "table" not in meta["result"]


def _round12(value):
    """Reference for the report writer: the rounding step it replaced."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
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
def test_report_writer_matches_json_dumps(capsys, monkeypatch, argv):
    written = []
    writer = cli._to_json

    def spy(value):
        written.append(value)
        return writer(value)

    monkeypatch.setattr(cli, "_to_json", spy)
    code, out = run_cli(capsys, argv)
    assert code == 0 and len(written) == 1
    assert out == reference_json(written[0]) + "\n"


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


def test_module_entry_point(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "repzeta.cli", "alt", "--kmax", "6"],
        capture_output=True,
        text=True,
        env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "alt"
