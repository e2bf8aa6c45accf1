"""In-memory span recorder for the traced run.

Spans are (name, start, end, parent) rows kept in parallel lists and saved
once at the end. Tracing is done from outside the library: every public
function of each walras module is replaced by a wrapper that opens a span
around the call, in every loaded walras module that binds the function by
name, so calls through by-name imports (ggs2's iteration_cap,
make_unit_demand, make_instance and others) are traced too. restore() puts
the original objects back.

A span's self time is its duration minus the durations of its child spans.
Calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

LAYERS = ("model", "demand", "oracle", "structure", "auctions", "ggs2")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def arrays(self):
        return (np.asarray(self.name, dtype=np.int64),
                np.asarray(self.start, dtype=np.float64),
                np.asarray(self.end, dtype=np.float64),
                np.asarray(self.parent, dtype=np.int64))

    def save(self, path: Path) -> None:
        name, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), name=name, start=start,
                 end=end, parent=parent)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(rec: Recorder) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    name, start, end, parent = rec.arrays()
    own = self_times(start, end, parent)
    calls = np.bincount(name, minlength=len(rec.names))
    secs = np.bincount(name, weights=own, minlength=len(rec.names))
    return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(rec.names)}


def _public_functions(module) -> Iterable[tuple[str, object]]:
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        plain = inspect.unwrap(obj)
        if inspect.isfunction(plain) and not inspect.isgeneratorfunction(plain):
            yield attr, obj


class Tracing:
    """Wrap the public functions of the walras layers; restore() undoes it."""

    def __init__(self, rec: Recorder, exclude: Iterable[str]):
        exclude = set(exclude)
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"walras.{layer}"]
            for attr, fn in _public_functions(module):
                if attr not in exclude:
                    wrappers[id(fn)] = (fn, rec.wrap(fn, f"{layer}.{attr}"))
        self._saved = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "walras" and not mod_name.startswith("walras."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved = []
