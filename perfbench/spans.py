"""In-memory span tracer that wraps recipgeo's module attributes at run time.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run goes on and are written out once at the end; self time, counts and the
per-layer metrics are derived from them afterwards.  Nothing in the program
changes: the wrappers replace module attributes, and the `rhs`/`stop`
callables passed into `ode.integrate` are wrapped on the way in.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Functions of these modules are layers.  `cli` is the caller being measured,
# not a layer: its own functions stay unwrapped so that cli.main's self time
# is everything it does outside the library.
LAYER_MODULES = ("ode", "core", "hessian", "connection", "geodesics", "flows",
                 "infogeo", "verify", "tolerances")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()   # per-name work counts (samples, accepted steps)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call; `count(args, result)` adds to
        counts[name] after the span closes."""
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if count is None:
            return traced
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            counts[name] += count(args, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever a recipgeo
        module holds it, the verify suites in verify.SUITES, SymMatrix.to_dense,
        and the rhs/stop callables handed to ode.integrate."""
        from recipgeo import geodesics, hessian, ode, verify

        wrapped = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"recipgeo.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)

        wrapped[ode.step] = self.wrap("ode.step", ode.step, count=lambda a, r: int(r[0].accepted))
        wrapped[ode.dense_sample] = self.wrap("ode.dense_sample", ode.dense_sample,
                                              count=lambda a, r: len(a[1]))
        wrapped[geodesics.qr_residual] = self.wrap("geodesics.qr_residual", geodesics.qr_residual,
                                                   count=lambda a, r: len(a[0].samples))
        integrate = self.wrap("ode.integrate", ode.integrate)

        def integrate_traced(rhs, y0, span, cfg=None, stop=None):
            return integrate(self.wrap("ode.rhs", rhs), y0, span, cfg,
                             None if stop is None else self.wrap("ode.stop", stop))

        wrapped[ode.integrate] = functools.wraps(ode.integrate)(integrate_traced)

        for name, mod in list(sys.modules.items()):
            if name == "recipgeo" or name.startswith("recipgeo."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        for key, fn in verify.SUITES.items():
            verify.SUITES[key] = wrapped[fn]
        hessian.SymMatrix.to_dense = self.wrap("hessian.to_dense", hessian.SymMatrix.to_dense)

    def mark(self) -> int:
        """Index of the next span, to split the run into phases."""
        return len(self.start)

    def aggregate(self, lo: int, hi: int) -> dict:
        """name -> (calls, total ns, self ns) over spans [lo, hi).  Self time is
        a span's duration minus that of its direct children."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(float)
        has = par >= lo
        child = np.bincount(par[has] - lo, weights=dur[has], minlength=hi - lo)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=own, minlength=k)
        return {self.names[i]: (int(calls[i]), float(total[i]), float(selft[i]))
                for i in range(k) if calls[i]}

    def save(self, path: str, meta: dict) -> None:
        np.savez(path,
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 names=np.array(self.names),
                 meta=np.array(json.dumps(meta)))
