"""Benchmark child process: runs one workload's jobs in-process.

Started by ``run.py`` as ``python3 perfbench/harness.py --workload W --seed N
--budget S --trace 0|1 --workdir DIR``.  It imports repzeta, prints
``ready`` and waits for one line on stdin.  It then times the reference
kernel, which ``run.py`` uses to scale the start-up time.  ``exit`` ends
it there (a set-up launch); ``run`` runs the job list in passes, one job
at a time, until another pass would overrun the budget (at least one
pass).  The last stdout line is a JSON record: the reference time, and
with ``run`` every job of every pass.

A job is one ``repzeta.cli.main(argv)`` call with stdout and stderr
captured.  It fails when its exit code is not 0, when a cross-check field
of its ``result`` is false, or when the SHA-256 of its canonical
``result`` differs from the hash recorded in ``expected.json``.  After
each job the harness times ``reference_kernel``, a fixed stretch of the
benchmark's own interpreter work, so that ``run.py`` can scale every
job's time by the reference times around it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repzeta.cli  # noqa: E402  (imports every layer module)
from workloads import OUT_PLACEHOLDER, Job, jobs_for  # noqa: E402
from tracer import SpanStats, Tracer, merge_stats  # noqa: E402

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
SETUP_REF_REPEATS = 10  # reference kernels timed right after start-up, to scale setup_s
# result fields that carry an independent cross-check; False means failed
CROSS_CHECKS = (
    "mass_matches_order",
    "formula_census_matches",
    "all_match",
    "match",
    "mass_ok",
    "sandwich_ok",
    "conjugator_blocks_ok",
)


def load_expected() -> dict[str, str]:
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["hashes"]


def canonical_hash(result: Any) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _false_checks(value: Any, found: list[str]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if key in CROSS_CHECKS and item is False:
                found.append(key)
            else:
                _false_checks(item, found)
    elif isinstance(value, list):
        for item in value:
            _false_checks(item, found)


def cross_check_failures(result: dict[str, Any]) -> list[str]:
    found: list[str] = []
    _false_checks(result, found)
    failures = sorted({f"{key} is false" for key in found})
    if result.get("unknown_pairs", 0) > 0:
        failures.append("unknown_pairs > 0")
    if result.get("exhaustive") is True and result.get("certified") is False:
        failures.append("exhaustive run not certified")
    return failures


def run_job(job: Job, workdir: Path) -> dict[str, Any]:
    """Run one job and check it; only the ``cli.main`` call is timed."""
    argv = list(job.argv)
    out_path = None
    if job.writes_file:
        out_path = workdir / f"job-{os.getpid()}.out"
        argv = [str(out_path) if a == OUT_PLACEHOLDER else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    main = repzeta.cli.main  # looked up per call so that traced wrappers apply
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects bad argv with exit code 2
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed harness
        code = 1
        stderr.write(traceback.format_exc())
    elapsed = time.perf_counter_ns() - start
    text = stdout.getvalue()
    record: dict[str, Any] = {
        "key": job.key,
        "command": job.command,
        "ns": elapsed,
        "exit": code,
        "report_bytes": len(text.encode("utf-8")),
        "sha256": None,
        "failures": [],
    }
    if code != 0:
        record["failures"].append(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
    else:
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            record["failures"].append(f"unreadable report: {exc}")
            result = None
        if result is not None:
            if out_path is not None:
                data = out_path.read_bytes()
                record["report_bytes"] += len(data)
                result["table_file_sha256"] = hashlib.sha256(data).hexdigest()
            record["failures"].extend(cross_check_failures(result))
            record["sha256"] = canonical_hash(result)
    if out_path is not None and out_path.exists():
        out_path.unlink()
    return record


def reference_kernel() -> int:
    """A fixed stretch of interpreter work, timed after start-up and every job.

    Its time tracks how fast the CPU runs the interpreter at that moment,
    which a shared host changes from one minute to the next.
    """
    acc = 0
    seen: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int]] = []
    for i in range(7000):
        a, b = (i * 7919) % 1009, (i * 104729) % 997
        key = (a % 31, b % 29)
        seen[key] = seen.get(key, 0) + a * b
        rows.append((b, a))
        if len(rows) == 16:
            rows.sort()
            acc = (acc * 31 + rows[0][0] + rows[-1][1]) % 1_000_003
            rows.clear()
    return acc + len(seen)


def run_pass(jobs: list[Job], workdir: Path, expected: dict[str, str] | None,
             tracer: Tracer | None = None) -> dict[str, Any]:
    """Run the job list once.  With ``expected`` set, a hash that differs fails."""
    records = []
    spans: dict[str, SpanStats] = {}
    for job in jobs:
        if tracer is not None:
            tracer.stats = {}
        record = run_job(job, workdir)
        # each job starts from a collected heap, as a fresh command would, so
        # peak RSS and in-job collections do not depend on the job order
        gc.collect()
        start = time.perf_counter_ns()
        reference_kernel()
        record["ref_ns"] = time.perf_counter_ns() - start
        if tracer is not None:
            record["span_self_ns"] = sum(entry.self_ns for entry in tracer.stats.values())
            merge_stats(spans, tracer.stats)
        if expected is not None and record["sha256"] is not None:
            want = expected.get(job.key)
            if want is None:
                record["failures"].append("no recorded hash for this job")
            elif want != record["sha256"]:
                record["failures"].append("result hash differs from the recorded hash")
        records.append(record)
    out: dict[str, Any] = {"jobs": records}
    if tracer is not None:
        out["spans"] = {name: entry.as_dict() for name, entry in sorted(spans.items())}
    return out


def run_passes(jobs: list[Job], budget_s: float, workdir: Path, expected: dict[str, str] | None,
               tracer: Tracer | None = None) -> list[dict[str, Any]]:
    """Run passes until the next one would end after ``budget_s``; at least one."""
    start = time.perf_counter()
    passes = []
    while True:
        before = time.perf_counter()
        passes.append(run_pass(jobs, workdir, expected, tracer))
        last = time.perf_counter() - before
        if time.perf_counter() - start + last > budget_s:
            return passes


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    jobs = jobs_for(args.workload, args.seed)
    expected = load_expected()
    real_stdout = sys.stdout
    real_stdout.write("ready\n")
    real_stdout.flush()
    command = sys.stdin.readline().strip()
    start = time.perf_counter_ns()
    for _ in range(SETUP_REF_REPEATS):
        reference_kernel()
    setup_ref_ns = (time.perf_counter_ns() - start) // SETUP_REF_REPEATS
    if command != "run":
        real_stdout.write(json.dumps({"setup_ref_ns": setup_ref_ns}) + "\n")
        real_stdout.flush()
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    passes = run_passes(jobs, args.budget, args.workdir, expected, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    real_stdout.write(json.dumps({"passes": passes, "peak_rss_kb": peak_kb,
                                  "setup_ref_ns": setup_ref_ns}) + "\n")
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
