"""Structured trace events.

A :class:`TraceEvent` is one observation of the simulator doing
something interesting: a memory transaction starting or finishing, a
tracking structure allocating or evicting an entry, a spill, a
back-invalidation, an STRA classification, an audit window closing, or
a recovery repair. Events are *structured* — a short ``group:action``
kind string plus typed context fields — so a trace can be filtered,
aggregated, and replayed mechanically instead of being grepped out of
log prose.

Every event kind is one row of :data:`TRANSITIONS`, the single table
the rest of the simulator derives its vocabularies from: the trace
kinds (:data:`EVENT_KINDS`), the per-scheme coverage universes the
verifier gates on (:data:`repro.verify.coverage.KNOWN_TRANSITIONS`),
and the event table in ``docs/telemetry.md`` (kept in lockstep by
``tools/check_docs.py``). A row names the kind, the module that emits
it, the event-specific data fields, and the schemes whose coverage
universe contains it.

Serialization is line-oriented JSON (JSONL): one
:func:`TraceEvent.to_dict` object per line, reversible bit-exactly via
:func:`TraceEvent.from_dict` — the round trip is pinned by
``tests/test_telemetry.py``.
"""

from __future__ import annotations

from typing import NamedTuple


class Transition(NamedTuple):
    """One row of :data:`TRANSITIONS`."""

    kind: str
    module: str
    fields: "tuple[str, ...]"
    schemes: "tuple[str, ...]"


#: Universe of kinds coverage counts but no verify floor gates: MESI
#: corners the fuzzer reaches only by chance, and the shared-only sparse
#: variant (Fig. 3), which the verifier does not run.
UNGATED = "ungated"

_ALL = ("sparse", "in_llc", "tiny", "mgd", "stash")
_DIR = ("sparse", "mgd", "stash")
_LLC = ("in_llc", "tiny")
_HARNESS = "repro.verify.harness"
_BASE = "repro.coherence.base"
_SPARSE = "repro.coherence.sparse_home"
_INLLC = "repro.coherence.inllc_home"

#: Every transition the simulator reports to an observer, in
#: coverage-report order. ``mesi:*`` rows are derived by the verify
#: harness from quiet pre/post state probes and ``guard:*`` rows go
#: straight to a sweep's tracer; every other row is emitted through the
#: home controller's ``observer`` slot.
TRANSITIONS: "tuple[Transition, ...]" = tuple(
    Transition(*row)
    for row in (
        ("mesi:I->E:read", _HARNESS, (), _ALL),
        ("mesi:I->S:read", _HARNESS, (), _ALL),
        ("mesi:I->S:ifetch", _HARNESS, (), _ALL),
        ("mesi:I->M:write", _HARNESS, (), _ALL),
        ("mesi:S->M:write", _HARNESS, (), _ALL),
        ("mesi:E->M:write", _HARNESS, (), _ALL),
        ("mesi:S->S:read", _HARNESS, (), _ALL),
        ("mesi:S->S:ifetch", _HARNESS, (), _ALL),
        ("mesi:E->E:read", _HARNESS, (), _ALL),
        ("mesi:M->M:read", _HARNESS, (), _ALL),
        ("mesi:M->M:write", _HARNESS, (), _ALL),
        ("mesi:E->E:ifetch", _HARNESS, (), (UNGATED,)),
        ("mesi:M->M:ifetch", _HARNESS, (), (UNGATED,)),
        ("inval:M->I", _BASE, (), _DIR),
        ("inval:E->I", _BASE, (), _DIR),
        ("inval:S->I", _BASE, (), _DIR),
        ("dir:alloc", _SPARSE, (), ("sparse", "stash")),
        ("dir:evict", _SPARSE, (), ("sparse", "stash")),
        ("dir:drop", _SPARSE, (), ("sparse", "stash")),
        ("dir:back_invalidate", _SPARSE, ("holders",), _DIR),
        ("dir:fwd_exclusive", _SPARSE, (), _DIR),
        ("dir:write_shared", _SPARSE, (), _DIR),
        ("dir:upgrade", _SPARSE, (), _DIR),
        ("llc:mark_tracked", _INLLC, (), _LLC),
        ("llc:restore", _INLLC, (), _LLC),
        ("llc:evict_tracked", _INLLC, ("holders",), _LLC),
        ("llc:evict_dirty", _INLLC, (), _LLC),
        ("llc:lengthened_read", _INLLC, (), _LLC),
        ("tiny:hit", _INLLC, (), ("tiny",)),
        ("tiny:spill_hit", _INLLC, (), ("tiny",)),
        ("tiny:fwd_refill", _INLLC, (), ("tiny",)),
        ("tiny:unspill", _INLLC, (), ("tiny",)),
        ("tiny:alloc", _INLLC, (), ("tiny",)),
        ("tiny:evict", _INLLC, ("holders",), ("tiny",)),
        ("tiny:decline", _INLLC, (), ("tiny",)),
        ("tiny:spill", _INLLC, (), ("tiny",)),
        ("tiny:rehome_spill", _INLLC, (), ("tiny",)),
        ("tiny:rehome_corrupt", _INLLC, (), ("tiny",)),
        ("tiny:recall", _INLLC, (), ("tiny",)),
        ("llc:back_invalidate", _INLLC, ("holders",), ("tiny",)),
        ("mgd:region_alloc", _SPARSE, (), ("mgd",)),
        ("mgd:region_extend", _SPARSE, (), ("mgd",)),
        ("mgd:region_demote", _SPARSE, (), ("mgd",)),
        ("mgd:region_shrink", _SPARSE, (), ("mgd",)),
        ("mgd:block_alloc", _SPARSE, (), ("mgd",)),
        ("mgd:evict_region", _SPARSE, ("region",), ("mgd",)),
        ("stash:stash", _SPARSE, (), ("stash",)),
        ("stash:recover", _SPARSE, (), ("stash",)),
        ("stash:unstash", _SPARSE, (), ("stash",)),
        ("shared_only:private", _SPARSE, (), (UNGATED,)),
        ("shared_only:promote", _SPARSE, (), (UNGATED,)),
        ("shared_only:demote", _SPARSE, (), (UNGATED,)),
        ("stra:classify", _BASE, ("category", "fwd_reads"), ()),
        ("txn:start", "repro.sim.system", ("op",), ()),
        ("txn:finish", "repro.sim.system", ("latency",), ()),
        ("evict:notice", "repro.sim.system", ("state",), ()),
        ("measure:start", "repro.sim.engine", ("warmup_accesses",), ()),
        ("audit:window", "repro.sim.engine", ("audits",), ()),
        ("audit:violation", "repro.sim.engine", ("error",), ()),
        ("fault:inject", "repro.resilience.faults", ("fault", "location"), ()),
        ("recovery:repair", "repro.recovery.manager", ("action", "verified"), ()),
        ("guard:pressure", "repro.analysis.runner", ("resource", "observed", "limit"), ()),
        ("guard:throttle", "repro.parallel.executor", ("reason", "jobs_from", "jobs_to"), ()),
        ("guard:restore", "repro.parallel.executor", ("reason", "jobs_from", "jobs_to"), ()),
    )
)

#: Every event kind the simulator emits, in table order.
EVENT_KINDS: "tuple[str, ...]" = tuple(row.kind for row in TRANSITIONS)


class TraceEvent:
    """One structured simulator observation.

    ``seq`` is a per-tracer monotonic sequence number (emission order),
    ``kind`` one of :data:`EVENT_KINDS`, and ``cycle``/``core``/``addr``
    the simulated context where known. Anything event-specific rides in
    ``data``.
    """

    __slots__ = ("seq", "kind", "cycle", "core", "addr", "data")

    def __init__(
        self,
        seq: int,
        kind: str,
        cycle: "int | None" = None,
        core: "int | None" = None,
        addr: "int | None" = None,
        data: "dict | None" = None,
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.cycle = cycle
        self.core = core
        self.addr = addr
        self.data = data or {}

    def to_dict(self) -> dict:
        """A compact JSON-serializable form (omits absent context)."""
        payload: dict = {"seq": self.seq, "kind": self.kind}
        if self.cycle is not None:
            payload["cycle"] = self.cycle
        if self.core is not None:
            payload["core"] = self.core
        if self.addr is not None:
            payload["addr"] = self.addr
        if self.data:
            payload["data"] = self.data
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            seq=payload["seq"],
            kind=payload["kind"],
            cycle=payload.get("cycle"),
            core=payload.get("core"),
            addr=payload.get("addr"),
            data=dict(payload.get("data") or {}),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # pragma: no cover - events are not keys
        return hash((self.seq, self.kind, self.addr))

    def __repr__(self) -> str:
        parts = [f"#{self.seq} {self.kind}"]
        if self.cycle is not None:
            parts.append(f"@{self.cycle}")
        if self.core is not None:
            parts.append(f"core={self.core}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        parts.extend(f"{key}={value}" for key, value in self.data.items())
        return " ".join(parts)
