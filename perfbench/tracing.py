"""Span tracing around dcmkit's public entry points, from outside the package.

Each traced entry point is replaced, at every name it is bound to in every
loaded dcmkit module (``analysis.gcsr``, ``cli.solve_dcm_offline``, the
package re-exports, ...), by a wrapper that records a span: name, start,
end and the index of the enclosing span. Patching only the defining module
would miss every call made through an imported name. Spans stay in memory;
the runner writes them out once at the end.

Work counts are derived from instance sizes seen at the boundary, never
from the program's internals: the exact DP's state count is
(M+1)(N+1)(T+2), GCSR steps T*M unit server slices and CHASE T*N unit
generator slices, with M = max ceil(workload) and N the generator count.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _sizes(instance) -> tuple[int, int, int]:
    workload = np.asarray(instance.workload)
    return int(np.ceil(workload).max()), int(instance.generator.count), len(workload)


def _count_dp(counts, args, error) -> None:
    if error is None:
        m, n, t_end = _sizes(args[0])
        counts["offline.dp_states"] += (m + 1) * (n + 1) * (t_end + 2)
    elif type(error).__name__ == "CapacityError":
        counts["offline.capacity_fallbacks"] += 1


def _count_gcsr(counts, args, error) -> None:
    m, _, t_end = _sizes(args[0])
    counts["online.slice_steps"] += t_end * m


def _count_dcmon(counts, args, error) -> None:
    m, n, t_end = _sizes(args[0])
    counts["online.slice_steps"] += t_end * m
    counts["online.chase_slice_steps"] += t_end * n


def _targets():
    """(span name, owner, attribute, count hook) for every traced entry point."""
    from dcmkit import analysis, cli, harness, model, offline, online

    return [
        ("cli.main", cli, "main", None),
        ("harness.load_trace", harness.TraceFile, "load", None),
        ("harness.build_instance", harness, "build_instance", None),
        ("harness.emit_report", harness, "emit_report", None),
        ("analysis.run_comparison", analysis, "run_comparison", None),
        ("offline.solve_dcm_offline", offline, "solve_dcm_offline", _count_dp),
        ("offline.solve_cp_offline", offline, "solve_cp_offline", None),
        ("offline.solve_ep_offline", offline, "solve_ep_offline", None),
        ("online.gcsr", online, "gcsr", _count_gcsr),
        ("online.dcmon", online, "dcmon", _count_dcmon),
        ("online.gcsr_decide", online.GcsrFleet, "decide_next", None),
        ("online.chase_decide", online.ChaseFleet, "decide_next", None),
        ("model.demand_table", model.Instance, "demand_table", None),
        ("model.dispatched_schedule", model, "dispatched_schedule", None),
        ("model.evaluate", model, "evaluate", None),
    ]


class Tracer:
    """Records spans and counts while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
                if hook is not None:
                    hook(counts, args, error)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        targets = _targets()
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "dcmkit"]
        undo = []
        try:
            for name, owner, attr, hook in targets:
                original = owner.__dict__[attr]
                if isinstance(owner, type):
                    if isinstance(original, classmethod):
                        patched = classmethod(self._wrap(name, original.__func__, hook))
                    else:
                        patched = self._wrap(name, original, hook)
                    setattr(owner, attr, patched)
                    undo.append((owner, attr, original))
                    continue
                patched = self._wrap(name, original, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, patched)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def span_totals(spans) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Inclusive seconds and call counts per span name, and self seconds per
    layer (the name's first component).

    A span's self time is its duration minus the time covered by its direct
    children; calls are single-threaded, so children never overlap and the
    covered time is the sum of their durations. Self times over all spans
    therefore add up to the total duration of the root spans.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        inclusive[name] += end - start
        calls[name] += 1
        self_time[name.split(".")[0]] += end - start - covered[index]
    return inclusive, calls, self_time
