"""Span tracing from outside the program, by wrapping module attributes.

A probe names an attribute that its caller looks up at call time, such
as ``ovsam.solver:merit`` (the ``merit`` that ``ovsam.solver`` calls) or
``ovsam.assembly:SparseSymmetricSystem.to_dense``.  While a Tracer is
installed, each probed attribute is replaced by a wrapper that records
one span per call: layer name, start, end, parent span, request id, and
whether the call returned a result (a raise or a ``None`` return counts
as no result).  Spans stay in flat in-memory arrays until the run ends.

A probe whose module or attribute does not exist is listed in
``Tracer.absent`` and skipped, so a later change that deletes or
renames a probed function does not break the run; the layers it fed
then read zero.
"""

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_REQUEST = -1  # spans outside any timed request (checks, comparisons)


class Tracer:
    def __init__(self, probes):
        """probes: iterable of (layer name, "module:attr" or "module:Class.attr")."""
        self.probes = list(probes)
        self.layers = list(dict.fromkeys(layer for layer, _ in self.probes))
        self.absent = []  # probe targets that could not be resolved
        self.restored = None  # True once every wrapped attribute is back
        self.request_id = NO_REQUEST
        self._name = array("H")
        self._parent = array("q")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")
        self._no_result = array("b")
        self._stack = [-1]
        self._installed = []  # (owner, attr, original)

    def __len__(self):
        return len(self._start)

    @contextmanager
    def installed(self):
        """Wrap every resolvable probe for the duration of the block."""
        self.absent = []
        try:
            for layer, target in self.probes:
                owner, attr = _resolve(target)
                if owner is None:
                    self.absent.append(target)
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, original))
                self._installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._installed):
                setattr(owner, attr, original)
            self.restored = all(getattr(o, a) is f for o, a, f in self._installed)
            self._installed = []

    def _wrap(self, layer, fn):
        nid = self.layers.index(layer)
        clock = time.perf_counter
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, no_result, stack = self._start, self._end, self._no_result, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0.0)
            no_result.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if result is not None:
                no_result[idx] = 0
            return result

        return traced

    def summary(self, request_ids):
        """Per-layer totals over the spans of the given requests.

        Returns {layer: {"calls", "total_s", "self_s", "no_result"}}.
        Self time is a span's duration minus the durations of its
        direct children; children nest strictly inside their parent on
        the one thread that runs the benchmark.
        """
        n = len(self)
        start = np.frombuffer(self._start, dtype=np.float64, count=n)
        dur = np.frombuffer(self._end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self._parent, dtype=np.int64, count=n)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        name = np.frombuffer(self._name, dtype=np.uint16, count=n)
        keep = np.isin(np.frombuffer(self._request, dtype=np.int64, count=n), request_ids)
        no_result = np.frombuffer(self._no_result, dtype=np.int8, count=n)
        k = len(self.layers)
        calls = np.bincount(name[keep], minlength=k)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        self_t = np.bincount(name[keep], weights=own[keep], minlength=k)
        fails = np.bincount(name[keep], weights=no_result[keep], minlength=k)
        return {
            layer: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_t[i]),
                "no_result": int(fails[i]),
            }
            for i, layer in enumerate(self.layers)
        }


def _resolve(target):
    """Return (owner, attribute name) for a probe target, or (None, None)."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None or not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr
