"""Span recording around calls into cpdilate's public functions.

The library itself is not instrumented: `instrument` swaps each stage
function for a timing wrapper in every loaded cpdilate module that refers to
it (so nested calls, such as the certificate re-check inside
`build_product_system`, are recorded too) and restores the originals on exit.
Spans are kept in memory and aggregated per operation at the end.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

# Stage name -> (defining module, public function). The table order is the
# pipeline order used in reports.
STAGES = {
    "strongcomm.check_commute": ("cpdilate.strongcomm", "check_commute"),
    "strongcomm.certificate": ("cpdilate.strongcomm", "strong_commutation_certificate"),
    "strongcomm.verify_certificate": ("cpdilate.strongcomm", "verify_certificate"),
    "prodsys.build": ("cpdilate.prodsys", "build_product_system"),
    "prodsys.verify_representation": ("cpdilate.prodsys", "verify_representation"),
    "dilation.big_space": ("cpdilate.dilation", "build_big_space"),
    "dilation.space": ("cpdilate.dilation", "build_dilation_space"),
    "dilation.lift": ("cpdilate.dilation", "lift_operators"),
    "dilation.verify": ("cpdilate.dilation", "verify_e_dilation"),
    "dilation.minimality": ("cpdilate.dilation", "minimality_check"),
    "chan.decode": ("cpdilate.chan", "channel_from_json"),
    "cli.main": ("cpdilate.cli", "main"),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int | None      # index into Tracer.spans, None for a root span
    start: float
    end: float = 0.0
    peak_mb: float = 0.0    # tracemalloc peak above the allocation at entry


class Tracer:
    """Records nested spans; with alloc=True also the tracemalloc peak of each.

    tracemalloc has a single peak counter, so each span folds the peak seen so
    far into its parent before resetting the counter for itself.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[Span] = []
        self._stack: list[tuple[int, int, int]] = []  # (span index, base bytes, peak bytes)
        self.op = -1

    @contextmanager
    def span(self, name: str):
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                idx, base, best = self._stack[-1]
                self._stack[-1] = (idx, base, max(best, peak - base))
            tracemalloc.reset_peak()
        else:
            current = 0
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append((len(self.spans) - 1, current, 0))
        try:
            yield
        finally:
            end = time.perf_counter()
            idx, base, best = self._stack.pop()
            record = self.spans[idx]
            record.end = end
            if self.alloc:
                peak = max(best, tracemalloc.get_traced_memory()[1] - base)
                record.peak_mb = peak / 2**20
                if self._stack:
                    pidx, pbase, pbest = self._stack[-1]
                    self._stack[-1] = (pidx, pbase, max(pbest, base - pbase + peak))
                tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every reference to a stage function through tracer spans."""
    originals = {
        getattr(sys.modules[mod], attr): name for name, (mod, attr) in STAGES.items()
    }
    patched = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("cpdilate") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            name = originals.get(value) if callable(value) else None
            if name is not None:
                patched.append((module, attr, value))
                setattr(module, attr, tracer.wrap(name, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def per_op(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """{op: {span name: {"total", "self", "calls", "peak_mb"}}} over all spans.

    A span's self time is its duration minus that of its direct children;
    the root span of an operation is named "op".
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[int, dict[str, dict[str, float]]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(s.op, {}).setdefault(
            s.name, {"total": 0.0, "self": 0.0, "calls": 0, "peak_mb": 0.0}
        )
        row["total"] += s.end - s.start
        row["self"] += s.end - s.start - child_time[i]
        row["calls"] += 1
        row["peak_mb"] = max(row["peak_mb"], s.peak_mb)
    return out
