"""In-memory spans around szegolab's public functions, and what they add up to.

The traced run rebinds every public function of the wrapped modules, in
every szegolab module that holds a reference to it, to a wrapper that
records one span per call: name, start, end, parent span and case id.
Nothing under ``src/`` is edited, and ``restore()`` puts the originals back.

``precision`` is not wrapped: it is called on every arithmetic step, so
its cost lands in each caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass, field

from mpmath import mp, mpf

LAYERS = ("laguerre", "rootfinding", "szego", "measures", "potential", "asymptotics", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its child spans."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        out.append(span.end - span.start - covered)
    return out


# Per-call counters, read from the arguments and result after the span ends.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _find_roots_attrs(args, kwargs, zs):
    """Degree, bits, and how many bits the worst residual beats tol by."""
    bits = _arg(args, kwargs, 1, "precision_bits")
    tol = _arg(args, kwargs, 2, "tol")
    worst = max(zs.residuals, default=mpf(0))
    worst_log2 = -bits if worst == 0 else float(mp.log(worst, 2))
    tol_log2 = -(bits // 2) if tol is None else float(mp.log(mpf(tol), 2))
    degree = _arg(args, kwargs, 0, "coeffs").degree
    return {"degree": degree, "bits": bits, "margin_bits": tol_log2 - worst_log2}


def _energy_attrs(args, kwargs, _result):
    m = len(_arg(args, kwargs, 0, "mu").points)
    return {"pairs": m * (m - 1) // 2}


COUNTERS = {
    "rootfinding.find_roots": _find_roots_attrs,
    "szego.trace_level_curve": lambda a, k, _r: {"nodes": _arg(a, k, 1, "M")},
    "measures.log_potential": lambda a, k, _r: {
        "pairs": len(_arg(a, k, 0, "mu").points)
    },
    "potential.weighted_energy": _energy_attrs,
    "potential.weighted_leja": lambda a, k, _r: {
        "pair_updates": _arg(a, k, 1, "N") * _arg(a, k, 2, "grid_M")
    },
    "cli.write_text_atomic": lambda a, k, _r: {
        "bytes": len(_arg(a, k, 1, "text").encode("utf-8"))
    },
}


class Recorder:
    """Collects spans from the wrappers it installs, while ``case`` is set.

    Single caller only: the span stack assumes calls nest.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.case is None:  # outside a timed case, e.g. in a check
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.case)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.attrs.update(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> list:
        """Wrap the public functions of every layer; returns their span names."""
        for layer in LAYERS:
            importlib.import_module(f"szegolab.{layer}")
        package = sys.modules["szegolab"]
        holders = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("szegolab.")
        ]
        names = []
        for layer in LAYERS:
            module = sys.modules[f"szegolab.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                names.append(f"{layer}.{attr}")
                for holder in holders:
                    for held_name, held in list(vars(holder).items()):
                        if held is fn:
                            setattr(holder, held_name, wrapped)
                            self._undo.append((holder, held_name, fn))
        return names

    def restore(self) -> None:
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()


def summarize(spans) -> dict:
    """Per span name: calls, self_s and the sum of each counter."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in span.attrs.items():
            if key == "bits":
                entry["bits_max"] = max(entry.get("bits_max", 0), value)
            elif key == "margin_bits":
                entry["margin_bits_min"] = min(entry.get("margin_bits_min", value), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out
