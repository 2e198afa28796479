"""In-memory span tracer that times library functions by rebinding their names.

A traced function is replaced, in every module namespace that holds it (or on
its class, for a method), by a wrapper that records one span per call:
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span or -1.  Spans stay in a list until the run ends.  A span's self time is
its duration minus the part of its interval covered by its child spans.

Nothing here imports numpy, so a process can load this module before the
measured import of the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``layer`` names the metric prefix, ``module`` the module that defines the
    function and ``qualname`` its path inside that module (``"f"`` or
    ``"Class.method"``).  ``counter``, when given, maps the call's
    ``(args, kwargs)`` to ``(counter_name, amount)`` added to the tracer's
    counters, for work computed from the arguments (such as flop counts).
    """

    layer: str
    module: str
    qualname: str
    counter: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(args, kwargs)
                counters[key] = counters.get(key, 0) + amount
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)


def _resolve(target: Target):
    """(owner, attribute, original) or None when the function does not exist."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def install(tracer: Tracer, targets, package: str) -> Callable[[], None]:
    """Rebind every target found and return a function that undoes it.

    A module-level function is replaced in each loaded module of ``package``
    whose namespace holds the same object, so callers that imported it by
    name are traced too.  A method is replaced on its class.  A target that
    does not exist is skipped; its metrics read as zero calls.
    """
    undo = []
    for target in targets:
        found = _resolve(target)
        if found is None:
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(target.name, original, target.counter)
        if isinstance(owner, type):
            undo.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore():
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    clipped to its own interval."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, targets) -> dict[str, float]:
    """``<name>.calls``, ``.total_s`` and ``.self_s`` for every target, and
    ``<layer>.self_s`` per layer.  Targets without spans read as zero."""
    stats = {t.name: [0, 0.0, 0.0] for t in targets}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    metrics: dict[str, float] = {}
    layers: dict[str, float] = {}
    for target in targets:
        calls, total, own = stats[target.name]
        metrics[f"{target.name}.calls"] = calls
        metrics[f"{target.name}.total_s"] = total
        metrics[f"{target.name}.self_s"] = own
        layers[target.layer] = layers.get(target.layer, 0.0) + own
    for layer, own in layers.items():
        metrics[f"{layer}.self_s"] = own
    return metrics


def write_spans(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,name,start,end,parent\n")
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{index},{name},{start!r},{end!r},{parent}\n")
