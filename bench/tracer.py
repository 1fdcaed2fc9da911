"""Span tracing from outside the package.

:func:`install` replaces every public function of the package's modules at
every module binding that holds it (so ``analytic.coeff_power`` and
``xstate.coeff_power`` both record), plus ``__post_init__`` and the public
methods of the public classes.  Each call becomes a span attributed to the
module that defines the callee, which is the span's layer.

Self time is a span's duration minus the time covered by its children,
accumulated as spans close.  Whole spans (name, start, end, parent,
request) are kept in memory up to ``keep_spans`` and written out by the
caller at the end of the run.  Counts are read off what a traced call
returns, through public attributes only; a counter that cannot read a
result is counted in ``trace.counter_failures`` and the call goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("hawking", "modes_state", "xstate", "gme", "analytic", "verify", "cli")


class Tracer:
    def __init__(self, keep_spans: int = 0) -> None:
        self.keep_spans = keep_spans
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def span(self, name: str, fn, args, kwargs, count=None):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        returned = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            end = time.perf_counter()
            stack.pop()
            self.self_s[name] += end - start - frame[1]
            self.calls[name] += 1
            if len(self.spans) < self.keep_spans:
                self.spans.append((self.request, span_id, parent, name, start, end))
            if returned and count is not None:
                try:
                    count(self.counts, result)
                except Exception:  # a changed return type must not fail the traced call
                    self.counts["trace.counter_failures"] += 1
            if stack:
                # Bookkeeping and counting after `end` stay out of the parent's self time.
                stack[-1][1] += time.perf_counter() - start
        return result

    def layer_totals(self) -> tuple[dict, dict]:
        """Self seconds and calls summed per layer (the name's first part)."""
        seconds: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for name, value in self.self_s.items():
            seconds[name.split(".", 1)[0]] += value
        for name, value in self.calls.items():
            calls[name.split(".", 1)[0]] += value
        return seconds, calls


def _count_xstate(counts: Counter, x) -> None:
    nonzero = sum(1 for abc in zip(x.a, x.b, x.c) if any(abc))
    counts["xstate.slots"] += x.half_dimension
    counts["xstate.nonzero_blocks"] += nonzero


def _count_amplitudes(counts: Counter, state) -> None:
    counts["modes_state.amplitudes"] += len(state.amplitudes)


def _count_entries(counts: Counter, rho) -> None:
    counts["modes_state.density_entries"] += len(rho.entries)


#: Counts derived from what a traced call returns.
COUNTERS = {
    "xstate.extract_xstate": _count_xstate,
    "xstate.build_block_matrix": _count_xstate,
    "modes_state.expand_kruskal": _count_amplitudes,
    "modes_state.partial_trace": _count_entries,
    "modes_state.SparseDensity.reduce": _count_entries,
}


def _wrapper(tracer: Tracer, name: str, fn):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs, count)

    return traced


def install(tracer: Tracer):
    """Wrap the package's public callables; return a function that undoes it."""
    modules = {layer: importlib.import_module(f"dilaton_gme.{layer}") for layer in LAYERS}
    wrappers = {}
    undo = []
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[obj] = _wrapper(tracer, f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                        setattr(obj, meth, _wrapper(tracer, f"{layer}.{attr}.{meth}", fn))
                        undo.append((obj, meth, fn))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                undo.append((module, attr, obj))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
