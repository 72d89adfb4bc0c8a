"""Boundary spans around the simulator's layers, installed from outside.

A traced round swaps each object the engine calls into for a subclass
whose boundary methods open and close a span; the simulator's own code
is untouched. The objects and their layers:

* ``System.finalize``                      -> ``sim.finalize``
* ``home.handle_access``                   -> ``coherence.access``
* ``home.handle_private_eviction``         -> ``coherence.eviction``
* ``home.directory`` / ``home.tiny``       -> ``directory``
* ``home.banks``                           -> ``llc``
* ``home.dram``                            -> ``memory``
* ``home.mesh`` / ``home.traffic``         -> ``interconnect``
* ``ProtocolAuditor.audit``                -> ``resilience.audit``
* ``ValueOracle.pre_state`` / ``observe``  -> ``verify.oracle``

Each span records its duration and the part of it its child spans
cover, so a layer's self time is exact. A call into a layer from inside
the same layer (a bank method calling another bank method) is not a new
span. Per-call spans are folded into per-layer totals as they close,
because a round makes millions of them; the coarse spans (generation,
build, one ``run_trace`` per cell, sweep, render) are kept whole.
"""

from __future__ import annotations

import time

#: Span group of each layer; calls within one group do not nest.
GROUPS = {
    "coherence.access": "coherence",
    "coherence.eviction": "coherence",
}


class SpanRecorder:
    """In-memory spans: per-layer totals plus the list of coarse spans."""

    def __init__(self) -> None:
        #: Open frames: [group, time covered by children].
        self.stack: "list[list]" = []
        #: layer -> [calls, total seconds, self seconds].
        self.totals: "dict[str, list]" = {}
        #: Coarse spans: (name, start, end, parent index or -1).
        self.spans: "list[tuple]" = []
        self._open: "list[int]" = []

    def wrap(self, layer: str, fn):
        """``fn`` wrapped in a ``layer`` span."""
        group = GROUPS.get(layer, layer)
        stack = self.stack
        record = self.totals.setdefault(layer, [0, 0.0, 0.0])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        timed.__name__ = getattr(fn, "__name__", layer)
        return timed

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as a coarse span: kept whole and totalled."""
        parent = self._open[-1] if self._open else -1
        self.spans.append((layer, time.perf_counter(), None, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            return self.wrap(layer, fn)(*args, **kwargs)
        finally:
            self._open.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def snapshot(self) -> "dict[str, tuple]":
        return {layer: tuple(rec) for layer, rec in self.totals.items()}


def _public_functions(cls) -> "list[str]":
    """Names of the plain public methods defined along ``cls``'s MRO."""
    names = []
    for klass in cls.__mro__[:-1]:
        for name, value in vars(klass).items():
            if (
                not name.startswith("_")
                and callable(value)
                and not isinstance(value, (staticmethod, classmethod, type))
                and name not in names
            ):
                names.append(name)
    return names


class Instrumentation:
    """Swaps objects' classes for timed subclasses; :meth:`undo` restores."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._classes: "dict[tuple, type]" = {}
        self._swapped: "list[tuple]" = []

    def _timed_class(self, cls, methods: "dict[str, str]"):
        key = (cls, tuple(sorted(methods.items())))
        timed = self._classes.get(key)
        if timed is None:
            namespace = {"__slots__": ()}
            for method, layer in methods.items():
                namespace[method] = self.recorder.wrap(layer, getattr(cls, method))
            timed = type(f"Timed{cls.__name__}", (cls,), namespace)
            self._classes[key] = timed
        return timed

    def swap(self, obj, methods: "dict[str, str]") -> None:
        """Time ``methods`` (name -> layer) on ``obj``."""
        original = type(obj)
        obj.__class__ = self._timed_class(original, methods)
        self._swapped.append((obj, original))

    def swap_layer(self, obj, layer: str) -> None:
        """Time every public method of ``obj`` as ``layer``."""
        self.swap(obj, {name: layer for name in _public_functions(type(obj))})

    def system(self, system, auditor=None, oracle=None) -> None:
        """Instrument one built :class:`~repro.sim.system.System`."""
        home = system.home
        self.swap(system, {"finalize": "sim.finalize"})
        self.swap(
            home,
            {
                "handle_access": "coherence.access",
                "handle_private_eviction": "coherence.eviction",
            },
        )
        for bank in home.banks:
            self.swap_layer(bank, "llc")
        for name in ("directory", "tiny"):
            structure = getattr(home, name, None)
            if structure is not None:
                self.swap_layer(structure, "directory")
        self.swap_layer(home.dram, "memory")
        self.swap_layer(home.mesh, "interconnect")
        self.swap_layer(home.traffic, "interconnect")
        if auditor is not None:
            self.swap(auditor, {"audit": "resilience.audit"})
        if oracle is not None:
            self.swap(
                oracle,
                {"pre_state": "verify.oracle", "observe": "verify.oracle"},
            )

    def undo(self) -> None:
        while self._swapped:
            obj, original = self._swapped.pop()
            obj.__class__ = original
