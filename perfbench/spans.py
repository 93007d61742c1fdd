"""In-memory span recording around corrspectra's layer boundaries.

The traced run replaces module-level names that callers look up at call
time (``corrspectra.pipeline.eigendecompose`` and so on) with timing
wrappers, so it times the real ``run_analysis`` path and no library file
changes. A name that no longer exists is reported as a missing span rather
than raised, so a renamed function only drops its metrics.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name). Several attributes may share a span name;
# their times and counts add up under that name.
TARGETS = (
    ("corrspectra.cli", "run_analysis", "pipeline.run_analysis"),
    ("corrspectra.cli", "emit_reports", "pipeline.emit_reports"),
    ("corrspectra.pipeline", "load_price_panel", "panel.load"),
    ("corrspectra.pipeline", "compute_log_returns", "panel.returns"),
    ("corrspectra.pipeline", "roll_windows", "panel.roll"),
    ("corrspectra.pipeline", "cached_ensemble_stats", "nulls.ensemble"),
    ("corrspectra.pipeline", "correlation_matrix", "correlation.matrix"),
    ("corrspectra.pipeline", "coefficient_moments", "correlation.moments"),
    ("corrspectra.pipeline", "eigendecompose", "spectral.eigendecompose"),
    ("corrspectra.pipeline", "variance_fractions", "analytics.variance"),
    ("corrspectra.pipeline", "participation", "analytics.participation"),
    ("corrspectra.pipeline", "adjusted_component_correlations",
     "analytics.adjusted_corr"),
    ("corrspectra.pipeline", "kaiser_guttman_count", "analytics.counts"),
    ("corrspectra.pipeline", "scree_significant_count", "analytics.counts"),
    ("corrspectra.pipeline", "scree_exceedance_count", "analytics.counts"),
    ("corrspectra.nulls", "null_ensemble_stats", "nulls.compute"),
    ("corrspectra.nulls", "decompose_symmetric", "nulls.eigh"),
    ("corrspectra.nulls", "corr_from_standardized", "nulls.corr"),
)


class Tracer:
    """Records one span per wrapped call: [id, parent id, name, start, end]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, self.clock(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                return func(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = self.clock()

        return traced

    def install(self, targets=TARGETS):
        """Replace every target that exists; list the rest in `missing`."""
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            func = getattr(module, attr, None)
            if not callable(func):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(func, name))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and call count.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.
    """
    children: dict[int, list] = {}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        entry = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(span_id, []),
                                                    start, end)
        entry["calls"] += 1
    return out
