"""Workload job lists for the repzeta benchmark.

A job is one ``repzeta`` argv.  Each workload has a fixed job list whose
sizes set the amount of work.  No job takes more than about 0.25 s and a
pass under a second, so a run repeats each job dozens of times and takes
its median (see README.md on noise).  The seed picks one of ``VARIANTS``
parameter sets (orbit ``--seed``, ``--s-grid`` values in (2, 3], the
``alt --s`` value) and the job order.  None of these change the amount of
work, only the numbers.  Because the parameter space is finite, the
result hash of every job any seed can produce is recorded in
``expected.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16
S_GRID = tuple(2 + j / 16 for j in range(1, 17))  # sixteen values in (2, 3]
WORKLOADS = ("dixon", "certify", "formula")
OUT_PLACEHOLDER = "<out>"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]  # may contain OUT_PLACEHOLDER where a file path goes

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """Identifies the job's result; independent of seed order and file paths."""
        return " ".join(self.argv)

    @property
    def writes_file(self) -> bool:
        return OUT_PLACEHOLDER in self.argv


def _grid(values: list[float]) -> str:
    return ",".join(repr(v) for v in sorted(values))


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _dixon(variant: int) -> list[Job]:
    return [Job(("oracle", "--modulus", str(m))) for m in (3, 4, 5, 7, 8, 9, 11, 13)]


def _certify(variant: int) -> list[Job]:
    return [
        Job(("census8", "--m", "4", "--q", "3", "--k", "1", "--t", "1", "--sample", "20")),
        Job(("census8", "--m", "4", "--q", "5", "--k", "1", "--t", "1", "--sample", "15")),
        Job(("census8", "--m", "4", "--q", "7", "--k", "1", "--t", "1", "--sample", "5")),
        Job(("census8", "--m", "4", "--q", "3", "--k", "2", "--t", "1", "--sample", "10")),
        Job(("census8", "--m", "2", "--q", "3", "--k", "2", "--t", "1")),
        Job(("census8", "--m", "2", "--q", "3", "--k", "3", "--t", "1")),
        Job(("census8", "--m", "2", "--q", "5", "--k", "2", "--t", "1")),
        Job(("census8", "--m", "2", "--q", "7", "--k", "1", "--t", "1")),
        Job(("orbit", "--samples", "1000", "--seed", str(1000 + variant))),
    ]


def _formula(variant: int) -> list[Job]:
    local_grid = _grid([S_GRID[variant], S_GRID[(variant + 5) % 16], S_GRID[(variant + 11) % 16]])
    euler_grid = _grid([S_GRID[(variant + 3) % 16], S_GRID[(variant + 8) % 16], S_GRID[(variant + 13) % 16]])
    return [
        Job(("witten", "--series", "A", "--rank", "1", "--bound", "10000")),
        Job(("witten", "--series", "A", "--rank", "2", "--bound", "1000000",
             "--format", "csv", "--out", OUT_PLACEHOLDER)),
        Job(("witten", "--series", "A", "--rank", "3", "--bound", "5000000")),
        Job(("alt", "--kmax", "20", "--s", repr(0.5 + variant / 8))),
        Job(("euler", "--prime-bound", "10000", "--s-grid", euler_grid,
             "--scan-grid", "100,1000,10000")),
        Job(("local-sl2", "--q", "3", "--level", "8", "--s-grid", local_grid)),
        Job(("local-sl2", "--q", "5", "--level", "6", "--s-grid", local_grid)),
        Job(("local-sl2", "--q", "7", "--level", "4", "--s-grid", local_grid)),
    ]


_BUILDERS = {"dixon": _dixon, "certify": _certify, "formula": _formula}


def variant_jobs(workload: str, variant: int) -> list[Job]:
    """The job list of one parameter set, in its fixed order."""
    return _BUILDERS[workload](variant)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list a seed gives: its parameter set, in a seed-shuffled order."""
    jobs = variant_jobs(workload, variant_of(seed))
    random.Random(seed).shuffle(jobs)
    return jobs
