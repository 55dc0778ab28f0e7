"""Span recorder that times program layers from outside the program.

Each probed function is replaced by a wrapper that records one span per call:
name, start, end, parent span and an optional amount of work. Every module
binding of the function is replaced, including names brought in with
``from ... import``, so a call is recorded whichever name it goes through.
Spans stay in memory as flat integer arrays until the pass ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Probe:
    """One program function to wrap.

    ``work(args, kwargs, result)`` returns the units of work the call did
    (rows, draws, bytes...); ``label(args, kwargs)`` returns a suffix that
    splits the span name by argument, as in ``sampler_decode.gibbs``.
    """

    module: str
    attr: str
    work: Optional[Callable] = None
    label: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    self_ns: float
    incl_ns: float
    work: int


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        clock = time.perf_counter_ns
        fixed_id = self._intern(probe.name)
        label, work = probe.label, probe.work
        name_id, parent, start, end, work_arr = (
            self.name_id, self.parent, self.start, self.end, self.work
        )
        stack = self._stack

        def wrapper(*args, **kwargs):
            nid = fixed_id if label is None else self._intern(f"{probe.name}.{label(args, kwargs)}")
            sid = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            work_arr.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if work is not None:
                work_arr[sid] = int(work(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(self, package: str, probes: "list[Probe]") -> Callable[[], None]:
        """Wrap every binding of each probed function in the package; return the undo."""
        wrappers = {}
        for probe in probes:
            fn = getattr(sys.modules[f"{package}.{probe.module}"], probe.attr)
            wrappers[id(fn)] = (fn, self.wrap(fn, probe))
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    undo.append((mod, key, value))

        def restore() -> None:
            for mod, key, value in undo:
                setattr(mod, key, value)

        return restore

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("name_id", "parent", "start", "end", "work")
        }

    def totals(self) -> dict[str, LayerTotals]:
        """Per span name: calls, self time, inclusive time and work.

        Self time is a span's duration minus the durations of its direct
        children, i.e. the part of its interval no wrapped callee covers.
        """
        a = self._arrays()
        k = len(self.names)
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_sum = np.bincount(a["name_id"], weights=self_ns, minlength=k)
        incl_sum = np.bincount(a["name_id"], weights=dur, minlength=k)
        work_sum = np.bincount(a["name_id"], weights=a["work"].astype(float), minlength=k)
        return {
            name: LayerTotals(int(calls[i]), float(self_sum[i]), float(incl_sum[i]), int(work_sum[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self._arrays())
