"""Span tracing at repzeta's module boundaries, from outside the program.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every ``repzeta`` module namespace that holds the
original, because modules import names directly (``cli`` binds
``character_degrees``, ``finite_oracle`` binds ``mat_inv_mod``).  In
``cli`` only ``main`` and the ``cmd_*`` handlers are wrapped; ``main``
calls ``build_parser`` on every run, so the parser picks up the wrapped
handlers.

Spans are aggregated in memory per name into calls, total and self time
(integer nanoseconds, so self times of one job add up exactly to the
root span).  A few functions also count work from their return values.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import ModuleType
from typing import Any, Callable

LAYERS = (
    "rootsys",
    "witten",
    "symmetric",
    "local_sl2",
    "euler_global",
    "finite_oracle",
    "linalg",
    "orbit_method",
    "isotropic_census",
    "cli",
)


def _count_degrees(counts: dict[str, int], census: Any) -> None:
    counts["degrees"] = counts.get("degrees", 0) + census.total_count


def _count_elements(counts: dict[str, int], group: Any) -> None:
    counts["elements"] = counts.get("elements", 0) + group.order


def _count_classes(counts: dict[str, int], census: Any) -> None:
    counts["classes"] = counts.get("classes", 0) + census.total_count


def _count_outcome(counts: dict[str, int], result: Any) -> None:
    counts[result.status] = counts.get(result.status, 0) + 1


# work counts read from return values, keyed by span name
COUNTERS: dict[str, Callable[[dict[str, int], Any], None]] = {
    "witten.enumerate_dimensions": _count_degrees,
    "finite_oracle.sl2_group": _count_elements,
    "finite_oracle.character_degrees": _count_classes,
    "isotropic_census.are_conjugate": _count_outcome,
}


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.counts: dict[str, int] = {}

    def merge(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counts": dict(self.counts),
        }


def _wrapped_names(module: ModuleType, layer: str) -> list[str]:
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if layer == "cli" and not (name == "main" or name.startswith("cmd_")):
            continue
        names.append(name)
    return sorted(names)


class Tracer:
    """Aggregates spans of the wrapped functions into ``self.stats``.

    Callers swap ``stats`` for a fresh dict to aggregate one job at a time.
    A recursive call adds to ``calls`` and ``self_ns`` but not again to
    ``total_ns``, so totals never count the same interval twice.
    """

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[int]] = []  # child time accumulated per open span
        self._active: dict[str, int] = {}
        self._rebound: list[tuple[ModuleType, str, Callable[..., Any]]] = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        active = self._active
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depth = active[name] = active[name] - 1
                entry = self.stats.get(name)
                if entry is None:
                    entry = self.stats[name] = SpanStats()
                entry.calls += 1
                entry.self_ns += elapsed - frame[0]
                if depth == 0:
                    entry.total_ns += elapsed
            if counter is not None:
                counter(entry.counts, result)
            return result

        return wrapper

    def install(self, package: str = "repzeta") -> None:
        """Wrap each layer's public functions in every module of ``package``."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for fname in _wrapped_names(module, layer):
                original = getattr(module, fname)
                span = f"{layer}.{fname}"
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for bound_name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound_name, wrapper)
                            self._rebound.append((mod, bound_name, original))

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced."""
        for mod, name, original in reversed(self._rebound):
            setattr(mod, name, original)
        self._rebound.clear()


def merge_stats(into: dict[str, SpanStats], part: dict[str, SpanStats]) -> None:
    for name, entry in part.items():
        into.setdefault(name, SpanStats()).merge(entry)


# (span, field) per reported metric, in layer order; a field is "calls",
# "self_s" or a work count from COUNTERS
SPAN_METRICS = (
    ("rootsys.build_root_datum", "self_s"),
    ("witten.enumerate_dimensions", "self_s"),
    ("witten.enumerate_dimensions", "degrees"),
    ("witten.abscissa_estimate", "self_s"),
    ("symmetric.an_degrees", "calls"),
    ("symmetric.an_degrees", "self_s"),
    ("symmetric.ak_zeta", "self_s"),
    ("local_sl2.evaluate_local", "calls"),
    ("local_sl2.evaluate_local", "self_s"),
    ("local_sl2.level_census", "self_s"),
    ("euler_global.euler_partial_product", "calls"),
    ("euler_global.euler_partial_product", "self_s"),
    ("euler_global.sandwich_check", "self_s"),
    ("euler_global.divergence_scan", "self_s"),
    ("finite_oracle.sl2_group", "self_s"),
    ("finite_oracle.sl2_group", "elements"),
    ("finite_oracle.generate_group", "self_s"),
    ("finite_oracle.conjugacy_classes", "calls"),
    ("finite_oracle.conjugacy_classes", "self_s"),
    ("finite_oracle.character_degrees", "self_s"),
    ("finite_oracle.character_degrees", "classes"),
    ("linalg.mat_inv_mod", "calls"),
    ("linalg.mat_inv_mod", "self_s"),
    ("linalg.poly_roots_mod_p", "calls"),
    ("linalg.poly_roots_mod_p", "self_s"),
    ("linalg.charpoly_mod_p", "self_s"),
    ("linalg.kernel_mod_p", "self_s"),
    ("linalg.rref_mod_p", "self_s"),
    ("linalg.smith_local", "calls"),
    ("linalg.smith_local", "self_s"),
    ("linalg.kernel_generators_local", "calls"),
    ("linalg.kernel_generators_local", "self_s"),
    ("linalg.det_int", "calls"),
    ("orbit_method.centralizer_index_oracle", "calls"),
    ("orbit_method.centralizer_index_oracle", "self_s"),
    ("orbit_method.orbit_dimension", "self_s"),
    ("isotropic_census.are_conjugate", "calls"),
    ("isotropic_census.are_conjugate", "self_s"),
    ("isotropic_census.are_conjugate", "conjugate"),
    ("isotropic_census.are_conjugate", "not_conjugate"),
    ("isotropic_census.are_conjugate", "unknown"),
    ("isotropic_census.conjugacy_module", "self_s"),
    ("isotropic_census.build_census_family", "self_s"),
)


def layer_metrics(stats: dict[str, SpanStats], report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one pass of a job list (tracing overhead aside).

    ``cli.self_s`` is the time in ``main`` minus the time in the ``cmd_*``
    handlers: parsing, report building and emitting.
    """
    empty = SpanStats()
    handlers = sum(entry.total_ns for name, entry in stats.items() if name.startswith("cli.cmd_"))
    out: dict[str, float] = {
        "cli.self_s": (stats.get("cli.main", empty).total_ns - handlers) / 1e9,
        "cli.report_bytes": report_bytes,
    }
    for span, field in SPAN_METRICS:
        entry = stats.get(span, empty)
        if field == "calls":
            value: float = entry.calls
        elif field == "self_s":
            value = entry.self_ns / 1e9
        else:
            value = entry.counts.get(field, 0)
        out[f"{span}.{field}"] = value
    conj = stats.get("isotropic_census.are_conjugate", empty)
    # conjugate outcomes over calls; its base is .calls (no calls reads as 0)
    out["isotropic_census.are_conjugate.hit_ratio"] = (
        conj.counts.get("conjugate", 0) / conj.calls if conj.calls else 0.0
    )
    return out
