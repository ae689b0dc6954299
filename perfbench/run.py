"""repzeta benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload dixon --seed 1 --seconds 32 --trace 0

Each workload runs in fresh child processes (``harness.py``) started from
this parent, one job at a time: a closed loop with one client and no
threads.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
an untraced child and then a child with spans recorded at every module
boundary, each for half of ``--seconds``, and prints the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run also writes a results file under ``.perfbench-work/results/``.

``--record-hashes`` reruns every parameter set of every workload and
rewrites ``expected.json``; do that only when a change is meant to alter
results.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SpanStats, layer_metrics  # noqa: E402
from workloads import VARIANTS, WORKLOADS, variant_jobs, variant_of  # noqa: E402

SETUP_LAUNCHES = 15  # child launches per run whose start-up is timed
# The speed that wall_s, setup_s and <cmd>_s are scaled to: times are reported
# as if the reference kernel took this long, about its time on an idle vCPU of
# the reference machine.  See README.md on noise.
REF_NOMINAL_S = 0.0032
CHILD_TIMEOUT_S = 170
WORK_DIR = ROOT / ".perfbench-work"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")  # the gated metrics of BENCHMARK.json
UNITS = {"peak_rss_mb": "MB", "failed_ratio": "failed/attempted"}  # others follow the name suffix


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed job)."""


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Child:
    """One harness process; ``setup_s`` is launch until it reports ready."""

    def __init__(self, workload: str, seed: int, budget: float, trace: int, workdir: Path) -> None:
        cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
               "--seed", str(seed), "--budget", repr(budget), "--trace", str(trace),
               "--workdir", str(workdir)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise BenchmarkError(f"harness did not start (exit code {self.proc.returncode})")

    def finish(self, command: str) -> str:
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchmarkError("harness timed out") from None
        if self.proc.returncode != 0:
            raise BenchmarkError(f"harness exited with code {self.proc.returncode}")
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def run_child(workload: str, seed: int, budget: float, trace: int, workdir: Path,
              setups: list[tuple[float, float]], command: str = "run") -> dict[str, Any]:
    """Run one child; append its (start-up seconds, reference seconds) to ``setups``."""
    child = Child(workload, seed, budget, trace, workdir)
    lines = child.finish(command).strip().splitlines()
    if not lines:
        raise BenchmarkError("harness printed no record")
    record = json.loads(lines[-1])
    setups.append((child.setup_s, record["setup_ref_ns"] / 1e9))
    return record


def setup_metrics(setups: list[tuple[float, float]]) -> dict[str, float]:
    """setup_raw_s is the median start-up; setup_s scales each one to REF_NOMINAL_S first."""
    return {
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups),
        "setup_raw_s": statistics.median(t for t, _ in setups),
    }


def job_samples(passes: list[dict[str, Any]]) -> dict[str, tuple[str, list[float]]]:
    """Job key -> (subcommand, seconds in each pass)."""
    out: dict[str, tuple[str, list[float]]] = {}
    for p in passes:
        for job in p["jobs"]:
            out.setdefault(job["key"], (job["command"], []))[1].append(job["ns"] / 1e9)
    return out


def scaled_samples(passes: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Job key -> its seconds in each pass, scaled to REF_NOMINAL_S.

    A job's time is multiplied by REF_NOMINAL_S over the reference kernel's
    time around it.  The kernel runs after every job, so each job lies
    between two kernel times (the first job of a run has only the one after).
    """
    out: dict[str, list[float]] = {}
    before = None
    for p in passes:
        for job in p["jobs"]:
            after = job["ref_ns"]
            ref = after if before is None else (before + after) / 2
            out.setdefault(job["key"], []).append(job["ns"] * REF_NOMINAL_S / ref)
            before = after
    return out


def timing_metrics(passes: list[dict[str, Any]]) -> dict[str, float]:
    """Sums over jobs of each job's median pass, scaled (``_s``) and as measured (``_raw_s``)."""
    raw = job_samples(passes)
    scaled = scaled_samples(passes)
    out = {
        "wall_s": sum(statistics.median(times) for times in scaled.values()),
        "wall_raw_s": sum(statistics.median(times) for _, times in raw.values()),
        "ref_s": statistics.median(job["ref_ns"] for p in passes for job in p["jobs"]) / 1e9,
    }
    for key, (cmd, times) in raw.items():
        name = cmd.replace("-", "_")
        out[name + "_s"] = out.get(name + "_s", 0.0) + statistics.median(scaled[key])
        out[name + "_raw_s"] = out.get(name + "_raw_s", 0.0) + statistics.median(times)
    return out


def tally(passes: list[dict[str, Any]]) -> tuple[int, int]:
    jobs = [job for p in passes for job in p["jobs"]]
    return len(jobs), sum(1 for job in jobs if job["failures"])


def traced_metrics(passes: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each pass's value."""
    per_pass = []
    for p in passes:
        stats = {}
        for name, d in p["spans"].items():
            entry = stats[name] = SpanStats()
            entry.calls, entry.total_ns, entry.self_ns = d["calls"], d["total_ns"], d["self_ns"]
            entry.counts = d["counts"]
        per_pass.append(layer_metrics(stats, sum(job["report_bytes"] for job in p["jobs"])))
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    """Run one workload; return its metrics, samples, tallies and job hashes."""
    WORK_DIR.mkdir(exist_ok=True)
    setups: list[tuple[float, float]] = []
    record: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workdir = Path(tmp)
        if trace:
            plain = run_child(workload, seed, seconds / 2, 0, workdir, setups)
            traced = run_child(workload, seed, seconds / 2, 1, workdir, setups)
            all_passes = plain["passes"] + traced["passes"]
            metrics = traced_metrics(traced["passes"])
            metrics["trace.overhead_s"] = (
                timing_metrics(traced["passes"])["wall_s"] - timing_metrics(plain["passes"])["wall_s"]
            )
            samples = {name: len(traced["passes"]) for name in metrics}
            samples["trace.overhead_s"] = min(len(plain["passes"]), len(traced["passes"]))
            record["spans"] = traced["passes"][0]["spans"]
            plain_hashes = {job["key"]: job["sha256"] for p in plain["passes"] for job in p["jobs"]}
            record["trace_checks"] = {
                "self_time_within_span": all(
                    job["span_self_ns"] <= job["ns"] for p in traced["passes"] for job in p["jobs"]
                ),
                "hashes_match_untraced": all(
                    job["sha256"] == plain_hashes[job["key"]] for p in traced["passes"] for job in p["jobs"]
                ),
            }
        else:
            for _ in range(SETUP_LAUNCHES - 1):
                run_child(workload, seed, 0.0, 0, workdir, setups, command="exit")
            run = run_child(workload, seed, seconds, 0, workdir, setups)
            all_passes = run["passes"]
            metrics = timing_metrics(all_passes)
            samples = {name: len(all_passes) for name in metrics}
            metrics.update(setup_metrics(setups), peak_rss_mb=run["peak_rss_kb"] / 1024)
            samples.update(setup_s=len(setups), setup_raw_s=len(setups), peak_rss_mb=1)
    attempted, failed = tally(all_passes)
    if not trace:
        metrics["failed_ratio"] = failed / attempted
        samples["failed_ratio"] = attempted
    hashes = {job["key"]: job["sha256"] for p in all_passes for job in p["jobs"]}
    failures = sorted({f"{job['key']}: {f}" for p in all_passes for job in p["jobs"] for f in job["failures"]})
    record.update(
        workload=workload, seed=seed, variant=variant_of(seed), seconds=seconds, trace=trace,
        python=platform.python_version(), implementation=platform.python_implementation(),
        nproc=len(os.sched_getaffinity(0)), platform=platform.platform(), commit=git_commit(),
        correct=failed == 0, attempted=attempted, failed=failed, failures=failures,
        metrics={name: {"value": v, "unit": _unit(name), "samples": samples[name]}
                 for name, v in metrics.items()},
        job_hashes=dict(sorted(hashes.items())),
        job_seconds={key: times for key, (_, times) in sorted(job_samples(all_passes).items())},
        job_scaled_seconds=dict(sorted(scaled_samples(all_passes).items())),
        ref_seconds=[[job["ref_ns"] / 1e9 for job in p["jobs"]] for p in all_passes],
        setup_seconds=[{"start_s": t, "ref_s": ref} for t, ref in setups],
        pass_wall_s=[sum(job["ns"] for job in p["jobs"]) / 1e9 for p in all_passes],
    )
    return record


def write_record(record: dict[str, Any]) -> Path:
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_table(record: dict[str, Any]) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:15s} {name:48s} {m['value']:>16.6f} {m['unit']:16s} n={m['samples']}")
    for failure in record["failures"]:
        print(f"{record['workload']:15s} FAILED {failure}")
    for check, ok in record.get("trace_checks", {}).items():
        print(f"{record['workload']:15s} {check}: {'ok' if ok else 'FAILED'}")


def record_hashes() -> None:
    """Run every parameter set once and rewrite expected.json."""
    from harness import EXPECTED_PATH, run_pass  # imports repzeta

    hashes: dict[str, str] = {}
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for workload in WORKLOADS:
            seen: set[str] = set()
            for variant in range(VARIANTS):
                jobs = [job for job in variant_jobs(workload, variant) if job.key not in seen]
                seen.update(job.key for job in jobs)
                for job in run_pass(jobs, Path(tmp), None)["jobs"]:
                    if job["failures"]:
                        raise BenchmarkError(f"{job['key']}: {job['failures']}")
                    hashes[job["key"]] = job["sha256"]
                print(f"recorded {workload} variant {variant}", file=sys.stderr)
    doc = {"commit": git_commit(), "variants": VARIANTS, "hashes": dict(sorted(hashes.items()))}
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repzeta benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repzeta" / "cli.py").is_file():
        print(f"repzeta sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_hashes:
        record_hashes()
        return 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(record)
        print(f"{record['workload']:15s} results file {write_record(record)}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(r["correct"] and all(r.get("trace_checks", {}).values()) for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "."
        for name, m in r["metrics"].items():
            if args.trace or name in END_TO_END:
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
