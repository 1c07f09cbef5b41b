"""Spans around the public functions of each ``cluster_forge`` layer.

The benchmark, not the program, records these spans: :func:`install`
replaces each listed function in every ``cluster_forge`` module namespace
that binds it, so a call made through ``exact.build_quality_table`` and
one made through ``cli.build_quality_table`` are both seen, and a span
opened inside another span records it as its parent. Spans stay in
memory (``Tracer.spans``) until the pass ends.

A span is ``[span_id, parent_id, name, start, end, attrs]`` with times
from ``time.perf_counter``; ``attrs`` holds the counts a layer metric
needs (entries built, trials, oracle paths, bytes written).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from fractions import Fraction

# (module, function) pairs wrapped in a span named "<layer>.<function>".
FUNCTIONS = {
    "configuration": ["enumerate_configurations"],
    "strategies": ["validate_strategy"],
    "exact": [
        "build_quality_table", "cached_quality_table", "strategy_quality",
        "expected_attempts", "optimal_quality", "optimal_attempts",
        "event_tree_oracle",
    ],
    "bounds": [
        "razor_quality", "razor_upper_bound", "lp_attempts_bound",
        "modesty_quality_range", "modesty_lower_bound", "analytic_upper_bound",
        "static_lower_bound", "greed_asymptotic",
    ],
    "montecarlo": ["estimate_quality", "threshold_experiment"],
    "twodim": [
        "simulate_weave", "percolation_scan", "single_chain_weave_probability",
        "overall_success_probability", "hoeffding_bound",
    ],
}

# QualityTable methods wrapped in a span named "exact.QualityTable.<method>".
TABLE_METHODS = ["save", "load", "quality", "action"]

# Exact-layer functions whose ``ps`` argument, when a Fraction, promises a
# Fraction answer: name -> positional index of ``ps``.
EXACT_PS_POSITION = {
    "strategy_quality": 2, "expected_attempts": 2,
    "optimal_quality": 1, "optimal_attempts": 1,
}

LAYERS = ("configuration", "strategies", "exact", "bounds", "montecarlo", "twodim", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.decide_calls = 0
        self.inexact_answers = 0
        self._deciding = False

    def _open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                time.perf_counter(), None, {}]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def span_call(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                describe(span[5], args, kwargs, result)
            return result
        return wrapper

    def span_generator(self, name: str, fn):
        """Each ``next()`` on the generator is one span, so the time a
        lazy producer spends is charged to it, not to its consumer."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    span[5]["items"] = 1
                    yield item

            return timed()
        return wrapper

    def count_decisions(self, fn):
        """Counts top-level ``decide``/``decide_counts`` calls; a decision
        that delegates to an inner strategy counts once."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._deciding:
                return fn(*args, **kwargs)
            self._deciding = True
            self.decide_calls += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._deciding = False
        return wrapper


def _describe(name: str, tracer: Tracer):
    """Per-function attrs recorder, or None."""
    if name == "build_quality_table":
        return lambda attrs, args, kwargs, result: attrs.update(entries=len(result))
    if name in ("strategy_quality", "expected_attempts"):
        def strategy_attrs(attrs, args, kwargs, result):
            strategy = args[0] if args else kwargs["strategy"]
            attrs["strategy"] = strategy.name
            _count_inexact(tracer, name, args, kwargs, result)
        return strategy_attrs
    if name in EXACT_PS_POSITION:
        return lambda attrs, args, kwargs, result: _count_inexact(tracer, name, args, kwargs, result)
    if name == "event_tree_oracle":
        return lambda attrs, args, kwargs, result: attrs.update(paths=result.paths)
    if name == "estimate_quality":
        return lambda attrs, args, kwargs, result: attrs.update(
            strategy=result.strategy, trials=result.trials)
    return None


def _count_inexact(tracer: Tracer, name: str, args, kwargs, result) -> None:
    position = EXACT_PS_POSITION[name]
    ps = args[position] if len(args) > position else kwargs.get("ps", Fraction(1, 2))
    if isinstance(ps, Fraction) and not isinstance(result, Fraction):
        tracer.inexact_answers += 1


def _rebind(original, replacement) -> None:
    """Point every ``cluster_forge`` module global bound to ``original``
    at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cluster_forge" or mod_name.startswith("cluster_forge.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer functions listed above, the CLI entry point and
    the strategies' decision methods. Call after ``cluster_forge.cli``
    is imported."""
    import cluster_forge.cli as cli
    import cluster_forge.exact as exact
    import cluster_forge.strategies as strategies

    for layer, names in FUNCTIONS.items():
        module = sys.modules[f"cluster_forge.{layer}"]
        for name in names:
            original = getattr(module, name)
            if name == "enumerate_configurations":
                wrapped = tracer.span_generator(f"{layer}.{name}", original)
            else:
                wrapped = tracer.span_call(f"{layer}.{name}", original,
                                           _describe(name, tracer))
            _rebind(original, wrapped)

    table_cls = exact.QualityTable
    for method in TABLE_METHODS:
        raw = table_cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = tracer.span_call(f"exact.QualityTable.{method}", raw.__func__)
            setattr(table_cls, method, classmethod(wrapped))
        elif method == "save":
            def save_attrs(attrs, args, kwargs, result):
                attrs["bytes"] = os.path.getsize(args[1])
            setattr(table_cls, method, tracer.span_call("exact.QualityTable.save", raw, save_attrs))
        else:
            setattr(table_cls, method, tracer.span_call(f"exact.QualityTable.{method}", raw))

    for value in list(vars(strategies).values()):
        if isinstance(value, type) and value.__module__ == strategies.__name__:
            for method in ("decide", "decide_counts"):
                if method in value.__dict__:
                    setattr(value, method, tracer.count_decisions(value.__dict__[method]))

    original_main = cli.main

    @functools.wraps(original_main)
    def traced_main(argv=None):
        command = (argv or sys.argv[1:])[0]
        span = tracer._open(f"cli.{command}")
        try:
            return original_main(argv)
        finally:
            tracer._close(span)

    cli.main = traced_main


# ---------------------------------------------------------------------------
# per-layer metrics from a finished pass


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    The program is single-threaded, so children never overlap."""
    covered = [0.0] * len(spans)
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [s[4] - s[3] - covered[s[0]] for s in spans]


def _outermost(spans: list[list], name: str):
    """Spans called ``name`` with no ancestor of the same name."""
    for span in spans:
        if span[2] != name:
            continue
        parent = span[1]
        while parent is not None and spans[parent][2] != name:
            parent = spans[parent][1]
        if parent is None:
            yield span


def _total(spans, name: str, where=lambda span: True) -> float:
    return sum(s[4] - s[3] for s in _outermost(spans, name) if where(s))


def layer_metrics(spans: list[list], decide_calls: int, inexact_answers: int,
                  cli_commands: list[str], strategies: list[str]) -> dict[str, float]:
    """The per-layer metrics named in ``benchmarks/README.md``."""
    selfs = self_times(spans)
    metrics: dict[str, float] = {}

    enumerate_spans = [s for s in spans if s[2] == "configuration.enumerate_configurations"]
    metrics["configuration.enumerate_s"] = sum(s[4] - s[3] for s in enumerate_spans)
    metrics["configuration.configs"] = sum(s[5].get("items", 0) for s in enumerate_spans)

    builds = list(_outermost(spans, "exact.build_quality_table"))
    metrics["exact.build_s"] = sum(s[4] - s[3] for s in builds)
    metrics["exact.entries"] = sum(s[5].get("entries", 0) for s in builds)
    saves = [s for s in spans if s[2] == "exact.QualityTable.save"]
    metrics["exact.save_s"] = sum(s[4] - s[3] for s in saves)
    metrics["exact.table_bytes"] = sum(s[5]["bytes"] for s in saves)
    metrics["exact.load_s"] = _total(spans, "exact.QualityTable.load")

    cache_calls = list(_outermost(spans, "exact.cached_quality_table"))
    cache_ids = {s[0] for s in cache_calls}
    cache_builds = sum(1 for s in builds if s[1] in cache_ids)
    metrics["exact.cache_calls"] = len(cache_calls)
    metrics["exact.cache_builds"] = cache_builds
    metrics["exact.cache_hit_ratio"] = (
        (len(cache_calls) - cache_builds) / len(cache_calls) if cache_calls else 0.0
    )
    for name in strategies:
        metrics[f"exact.strategy_quality_s.{name}"] = _total(
            spans, "exact.strategy_quality", lambda s, name=name: s[5].get("strategy") == name)
    oracles = list(_outermost(spans, "exact.event_tree_oracle"))
    metrics["exact.oracle_s"] = sum(s[4] - s[3] for s in oracles)
    metrics["exact.oracle_paths"] = sum(s[5]["paths"] for s in oracles)
    metrics["exact.inexact_answers"] = inexact_answers

    metrics["strategies.validate_s"] = _total(spans, "strategies.validate_strategy")
    metrics["strategies.decide_calls"] = decide_calls

    metrics["bounds.razor_s"] = _total(spans, "bounds.razor_quality")
    metrics["bounds.lp_s"] = _total(spans, "bounds.lp_attempts_bound")
    metrics["bounds.modesty_range_s"] = _total(spans, "bounds.modesty_quality_range")

    for name in strategies:
        runs = [s for s in _outermost(spans, "montecarlo.estimate_quality")
                if s[5]["strategy"] == name and s[1] is not None
                and spans[s[1]][2].startswith("cli.")]
        trials = sum(s[5]["trials"] for s in runs)
        metrics[f"montecarlo.us_per_trial.{name}"] = (
            sum(s[4] - s[3] for s in runs) / trials * 1e6 if trials else 0.0
        )
    metrics["montecarlo.threshold_s"] = _total(spans, "montecarlo.threshold_experiment")
    metrics["twodim.weave_sim_s"] = _total(spans, "twodim.simulate_weave")
    metrics["twodim.scan_s"] = _total(spans, "twodim.percolation_scan")

    for command in cli_commands:
        metrics[f"cli.{command}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[2] == f"cli.{command}")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s[2].startswith(f"{layer}."))
    return metrics


def import_times(importtime_log: str) -> dict[str, float]:
    """Cumulative seconds per ``cluster_forge.<layer>``, and for the
    package ``cluster_forge`` itself, from the lines ``python -X
    importtime`` writes to stderr. A module's figure includes the modules
    it was the first to import: numpy for ``montecarlo``, scipy.stats for
    ``twodim``, and configuration, strategies and exact for the package,
    whose ``__init__`` imports them. ``import cluster_forge.cli`` imports
    the package first, and importtime nests that under
    ``cluster_forge.cli``, so ``cli.import_s`` is the whole import."""
    times: dict[str, float] = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module == "cluster_forge":
            times["cluster_forge.import_s"] = int(fields[1]) / 1e6
        elif module.startswith("cluster_forge."):
            layer = module[len("cluster_forge."):]
            if layer in LAYERS:
                times[f"{layer}.import_s"] = int(fields[1]) / 1e6
    return times
