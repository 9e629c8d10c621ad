"""Span recorder for the traced run.

The tracer replaces selected public functions of distilkit's modules by
wrappers that record one span per call: name, start, end, parent span and
item id.  Calls between modules and inside a module go through the module
namespace, so nested public calls become child spans.  Spans stay in memory
and are written out when the run ends.  Only the standard library is used
here, so the traced CLI child pays for nothing but the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

#: the public calls that get spans, by module; each is one layer metric
LAYERS = {
    "states": ("construct_state", "tensor_power", "partial_transpose", "partial_trace",
               "state_to_dict", "load_state"),
    "distillability": ("f2", "fD", "single_copy_distillable", "n_copy_distillable", "is_ppt",
                       "symmetric_dual_positive"),
    "symmetry": ("symmetrize", "symmetrize_matrix", "double_symmetrize", "mixture_of_powers",
                 "best_product_mixture_distance"),
    "tomography": ("estimation_pipeline", "closest_state", "simulate_measurements"),
    "activation": ("search_activator", "activation_witness"),
}

#: the CLI child also brackets the whole verb
CLI_LAYERS = {"cli": ("run",)}

#: private inner loops that are counted, without spans, as deterministic
#: per-item work counts; a name that no longer exists is skipped
COUNTERS = {"distillability": ("_rayleigh_step",)}

#: a single-copy search value below this is a violation (the library's own tolerance)
VIOLATION_TOL = 1e-9

NAME, START, END, PARENT, ITEM, EXTRA = range(6)


class Tracer:
    """Records spans ``[name, start, end, parent index, item, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.counts: dict = {}
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if name == "distillability.single_copy_distillable":
                span[EXTRA] = [int(result.restarts), bool(result.value < -VIOLATION_TOL)]
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            per_item = counts.setdefault(self.item, {})
            per_item[name] = per_item.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, layers: dict = LAYERS, count: bool = False) -> None:
        for mod, names in layers.items():
            module = importlib.import_module(f"distilkit.{mod}")
            for fname in names:
                if count and not hasattr(module, fname):
                    continue
                orig = getattr(module, fname)
                self._saved.append((module, fname, orig))
                make = self.counter if count else self.wrap
                setattr(module, fname, make(f"{mod}.{fname}", orig))

    def uninstall(self) -> None:
        while self._saved:
            module, fname, orig = self._saved.pop()
            setattr(module, fname, orig)

    def extend(self, spans: list[list], item) -> None:
        """Append spans recorded in another process, re-basing parent indices."""
        base = len(self.spans)
        for span in spans:
            parent = span[PARENT]
            self.spans.append([span[NAME], span[START], span[END],
                               None if parent is None else parent + base, item, span[EXTRA]])

    def add_counts(self, counts: dict, item) -> None:
        per_item = self.counts.setdefault(item, {})
        for name, n in counts.items():
            per_item[name] = per_item.get(name, 0) + n


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans: list[list]) -> dict:
    """name -> {"s": summed self time, "calls": count, "attempts", "violations"}."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span[NAME], {"s": 0.0, "calls": 0, "attempts": 0, "violations": 0})
        t["s"] += own
        t["calls"] += 1
        if span[EXTRA] is not None:
            t["attempts"] += span[EXTRA][0]
            t["violations"] += int(span[EXTRA][1])
    return totals


def item_self_sums(spans: list[list]) -> dict:
    """item -> (sum of self times of its spans, number of spans)."""
    sums: dict = {}
    for span, own in zip(spans, self_times(spans)):
        total, count = sums.get(span[ITEM], (0.0, 0))
        sums[span[ITEM]] = (total + own, count + 1)
    return sums


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer().wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
