"""Self-tests of the benchmark harness; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They use small jobs, so they take seconds, not a benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, canonical_hash, cross_check_failures, load_expected, run_pass  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import OUT_PLACEHOLDER, VARIANTS, WORKLOADS, Job, jobs_for, variant_jobs  # noqa: E402

WORK_DIR = ROOT / ".perfbench-work"
SMALL_JOBS = [
    Job(("oracle", "--modulus", "5")),
    Job(("witten", "--series", "A", "--rank", "1", "--bound", "2000")),
    Job(("witten", "--series", "A", "--rank", "2", "--bound", "20000",
         "--format", "csv", "--out", OUT_PLACEHOLDER)),
    Job(("alt", "--kmax", "9", "--s", "1.5")),
    Job(("euler", "--prime-bound", "200", "--s-grid", "2.5", "--scan-grid", "10,100")),
    Job(("local-sl2", "--q", "3", "--level", "2", "--s-grid", "2.25,2.75")),
    Job(("census8", "--m", "2", "--q", "3", "--k", "1", "--t", "1")),
    Job(("orbit", "--samples", "20", "--seed", "4")),
]
BAD_JOBS = [
    Job(("oracle", "--modulus", "1")),
    Job(("census8", "--m", "3", "--q", "3", "--k", "1", "--t", "1")),
]


@pytest.fixture()
def workdir():
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        yield Path(tmp)


def _traced_pass(jobs, workdir, expected=None):
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(jobs, workdir, expected, tracer)
    finally:
        tracer.uninstall()


def test_small_jobs_pass_their_cross_checks(workdir):
    jobs = run_pass(SMALL_JOBS, workdir, None)["jobs"]
    assert [job["failures"] for job in jobs] == [[] for _ in jobs]
    assert all(job["exit"] == 0 and job["sha256"] for job in jobs)


def test_job_times_are_scaled_by_the_reference_around_them():
    from run import REF_NOMINAL_S, scaled_samples, setup_metrics, timing_metrics

    def job(key, ns, ref_ns):
        return {"key": key, "command": "oracle", "ns": ns, "ref_ns": ref_ns}

    passes = [{"jobs": [job("a", 10, 2), job("b", 30, 4)]},
              {"jobs": [job("a", 12, 2), job("b", 30, 2)]}]
    # the first job of a run has only the reference after it
    ratios = {"a": [5.0, 4.0], "b": [10.0, 15.0]}
    assert scaled_samples(passes) == {
        key: [r * REF_NOMINAL_S for r in values] for key, values in ratios.items()
    }
    metrics = timing_metrics(passes)
    assert metrics["wall_s"] == metrics["oracle_s"] == pytest.approx((4.5 + 12.5) * REF_NOMINAL_S)
    assert metrics["wall_raw_s"] == pytest.approx((11 + 30) / 1e9)
    setup = setup_metrics([(0.2, 2 * REF_NOMINAL_S), (0.1, REF_NOMINAL_S), (0.5, REF_NOMINAL_S)])
    assert setup == {"setup_s": pytest.approx(0.1), "setup_raw_s": 0.2}


def test_every_job_is_followed_by_a_timed_reference(workdir):
    jobs = run_pass(SMALL_JOBS[:2], workdir, None)["jobs"]
    assert all(job["ref_ns"] > 0 for job in jobs)


def test_traced_and_untraced_hashes_match(workdir):
    plain = run_pass(SMALL_JOBS, workdir, None)["jobs"]
    traced = _traced_pass(SMALL_JOBS, workdir)["jobs"]
    assert [job["sha256"] for job in traced] == [job["sha256"] for job in plain]


def test_uninstall_restores_every_binding(workdir):
    import repzeta.cli
    import repzeta.finite_oracle

    before = (repzeta.cli.main, repzeta.cli.character_degrees, repzeta.finite_oracle.mat_inv_mod)
    _traced_pass(SMALL_JOBS[:1], workdir)
    after = (repzeta.cli.main, repzeta.cli.character_degrees, repzeta.finite_oracle.mat_inv_mod)
    assert after == before


def test_self_times_within_a_job_sum_to_no_more_than_its_span(workdir):
    result = _traced_pass(SMALL_JOBS, workdir)
    for job in result["jobs"]:
        assert 0 < job["span_self_ns"] <= job["ns"], job["key"]
    spans = result["spans"]
    assert spans["cli.main"]["calls"] == len(SMALL_JOBS)
    assert all(entry["self_ns"] >= 0 for entry in spans.values())


def test_traced_pass_sees_calls_bound_by_other_modules(workdir):
    # cli and finite_oracle import these names directly
    spans = _traced_pass(SMALL_JOBS[:1], workdir)["spans"]
    assert spans["finite_oracle.character_degrees"]["calls"] == 1
    assert spans["finite_oracle.conjugacy_classes"]["calls"] == 2
    assert spans["linalg.mat_inv_mod"]["calls"] > 0
    assert spans["finite_oracle.sl2_group"]["counts"] == {"elements": 120}


def test_layer_metrics_cover_cli_and_outcomes(workdir):
    result = _traced_pass(SMALL_JOBS, workdir)
    from run import traced_metrics

    metrics = traced_metrics([result])
    assert metrics["cli.self_s"] > 0
    assert metrics["cli.report_bytes"] == sum(job["report_bytes"] for job in result["jobs"])
    assert metrics["finite_oracle.character_degrees.classes"] == 9  # SL2(Z/5)
    assert metrics["symmetric.an_degrees.calls"] == 2 * (9 - 4)  # alt recomputes the census
    assert layer_metrics({}, 0)["isotropic_census.are_conjugate.hit_ratio"] == 0.0


def test_bad_jobs_count_as_failed_without_crashing(workdir):
    jobs = run_pass(BAD_JOBS + SMALL_JOBS[:1], workdir, None)["jobs"]
    assert [job["exit"] for job in jobs] == [2, 2, 0]
    assert all(job["failures"] for job in jobs[:2])
    assert jobs[2]["failures"] == []


def test_argparse_rejection_counts_as_failed(workdir):
    job = run_pass([Job(("oracle", "--modulus", "seven"))], workdir, None)["jobs"][0]
    assert job["exit"] == 2 and job["failures"]


def test_hash_differing_from_the_record_fails(workdir):
    job = SMALL_JOBS[0]
    good = run_pass([job], workdir, None)["jobs"][0]["sha256"]
    assert run_pass([job], workdir, {job.key: good})["jobs"][0]["failures"] == []
    failures = run_pass([job], workdir, {job.key: "0" * 64})["jobs"][0]["failures"]
    assert failures == ["result hash differs from the recorded hash"]
    assert run_pass([job], workdir, {})["jobs"][0]["failures"] == ["no recorded hash for this job"]


def test_cross_check_gate():
    assert cross_check_failures({"all_match": True, "table": [{"match": True}]}) == []
    assert cross_check_failures({"table": [{"mass_ok": False}]}) == ["mass_ok is false"]
    assert cross_check_failures({"table": [{"sandwich_ok": None}]}) == []
    assert cross_check_failures({"unknown_pairs": 1}) == ["unknown_pairs > 0"]
    assert cross_check_failures({"exhaustive": True, "certified": False}) == [
        "exhaustive run not certified"
    ]
    assert cross_check_failures({"exhaustive": False, "certified": False}) == []


def test_canonical_hash_ignores_key_order():
    assert canonical_hash({"a": 1, "b": [2.5]}) == canonical_hash({"b": [2.5], "a": 1})


def test_every_seed_has_recorded_hashes():
    expected = load_expected()
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            for job in variant_jobs(workload, variant):
                assert job.key in expected, job.key


def test_seed_fixes_inputs():
    for workload in WORKLOADS:
        assert jobs_for(workload, 7) == jobs_for(workload, 7)
        assert sorted(j.key for j in jobs_for(workload, 7)) == sorted(
            j.key for j in jobs_for(workload, 7 + VARIANTS)
        )


def test_run_fails_without_the_program():
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dixon", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
