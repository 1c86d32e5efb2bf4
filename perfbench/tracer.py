"""Span tracing of distmap from outside the program.

The tracer rebinds every public function of each distmap module, in every
distmap namespace that imported it (the modules use ``from .curve import
point_add``, so rebinding the defining module alone is not enough), plus
the methods ``PrimeField.inv/sqrt/legendre`` and ``Curve.validate``.

Each call records a span (name, start, end, parent span).  Spans are kept
in memory in flat arrays and written out once, at the end of the run.
Calls, total time (outermost spans of a name only, so recursion is not
counted twice), self time (duration minus the time covered by direct
child spans) and raised exceptions are aggregated as the spans close.
"""

import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("field", "curve", "torsion", "pairing", "endo", "classify", "ddh",
          "catalog", "cli")
METHODS = (("field", "PrimeField", ("inv", "sqrt", "legendre")),
           ("curve", "Curve", ("validate",)))


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("H")
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.raised = []
        self._depth = []
        self.child_calls = {}  # (parent name id, name id) -> count
        self._stack = []  # [span index, name id, time covered by children]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self._depth.append(0)
            self.self_s.append(0.0)
            self.raised.append(0)
        return self._ids[name]

    def _open(self, nid):
        stack = self._stack
        if stack:
            parent, pnid = stack[-1][0], stack[-1][1]
            key = (pnid, nid)
            self.child_calls[key] = self.child_calls.get(key, 0) + 1
        else:
            parent = -1
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        self.name_id.append(nid)
        frame = [idx, nid, 0.0]
        stack.append(frame)
        self._depth[nid] += 1
        return frame

    def _close(self, frame, t0, t1):
        self._stack.pop()
        idx, nid, covered = frame
        d = t1 - t0
        self.start[idx] = t0
        self.end[idx] = t1
        self.calls[nid] += 1
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total_s[nid] += d
        self.self_s[nid] += d - covered
        if self._stack:
            self._stack[-1][2] += d

    @contextmanager
    def span(self, name):
        """A root or intermediate span opened by the benchmark itself."""
        if not self.active:
            yield
            return
        frame = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, perf_counter())

    def wrap(self, name, fn):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                tracer._close(frame, t0, perf_counter())

        return traced

    def install(self, dm):
        """Rebind the public functions and traced methods of a freshly
        loaded distmap (see run.load_distmap) to traced wrappers."""
        modules = [dm.package] + [getattr(dm, layer) for layer in LAYERS]
        for layer in LAYERS:
            mod = getattr(dm, layer)
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for ns in modules:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
        for layer, cls_name, methods in METHODS:
            cls = getattr(getattr(dm, layer), cls_name)
            for meth in methods:
                setattr(cls, meth, self.wrap(f"{layer}.{meth}", getattr(cls, meth)))

    def totals(self, name):
        """(calls, total_s, self_s, raised) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return (self.calls[nid], self.total_s[nid], self.self_s[nid],
                self.raised[nid])

    def layer_self_s(self, layer):
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.startswith(layer + "."))

    def child_count(self, parent, child):
        """Spans named child whose parent span is named parent."""
        key = (self._ids.get(parent), self._ids.get(child))
        return self.child_calls.get(key, 0)

    def parents_with_child(self, parent, child):
        """Spans named parent that have at least one child named child."""
        pid, cid = self._ids.get(parent), self._ids.get(child)
        names, parents = self.name_id, self.parent
        return len({parents[i] for i in range(len(names))
                    if names[i] == cid and parents[i] >= 0
                    and names[parents[i]] == pid})

    def dump(self, path):
        """Write all spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": ["start:float64", "end:float64", "parent:int64",
                       "name_id:uint16"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name_id):
                arr.tofile(fh)
