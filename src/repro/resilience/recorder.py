"""Bounded per-address transaction flight recorder.

The recorder is one of the observers a home controller's ``observer``
slot can hold: it keeps the last few events of every recently touched
block — accesses, invalidations, tracking allocations and evictions,
spills, back-invalidations, injected faults. When a protocol invariant
trips, the auditor attaches the corrupted address's records to the
raised :class:`~repro.errors.InvariantViolation`, so the diagnostic
shows *how* the block got into the bad state — not just that it is bad.

Recording is off unless an auditor is attached: the slot is ``None``
by default and every emission site tests it first, so a run without
auditing records nothing and behaves bit-identically.
"""

from __future__ import annotations

from collections import OrderedDict, deque


class TransactionRecord:
    """One captured protocol event for one block address."""

    __slots__ = ("seq", "event", "addr", "core", "data")

    def __init__(self, seq: int, event: str, addr: int, core: "int | None", data: tuple) -> None:
        self.seq = seq
        self.event = event
        self.addr = addr
        self.core = core
        #: Event-specific fields, flat: the names, then their values.
        self.data = data

    def __str__(self) -> str:
        core = f" core={self.core}" if self.core is not None else ""
        half = len(self.data) // 2
        detail = "".join(
            f" {key}={value}" for key, value in zip(self.data[:half], self.data[half:])
        )
        return f"#{self.seq} {self.event}{core}{detail}"

    __repr__ = __str__


class FlightRecorder:
    """Keeps the last ``depth`` transactions of each recently-seen address.

    Bounded on both axes: each address keeps a ``depth``-deep ring, and at
    most ``max_addresses`` addresses are retained (least recently recorded
    are forgotten first), so arbitrarily long runs cannot grow the
    recorder without bound. Rings hold plain tuples, which are cheaper
    to build and to garbage-collect than records; :meth:`history` wraps
    them into :class:`TransactionRecord` objects on demand.
    """

    def __init__(self, depth: int = 8, max_addresses: int = 4096) -> None:
        self.depth = max(1, depth)
        self.max_addresses = max(1, max_addresses)
        self.seq = 0
        self._per_addr: "OrderedDict[int, deque[tuple]]" = OrderedDict()

    def emit(self, kind: str, cycle=None, core=None, addr=None, **data) -> None:
        """Observer entry point.

        Events without an address are skipped, and so is ``txn:finish``:
        the ``txn:start`` record already names the access, and keeping
        only one record per access keeps the rings deep in history.
        """
        if addr is None or kind == "txn:finish":
            return
        self.seq += 1
        rings = self._per_addr
        ring = rings.get(addr)
        if ring is None:
            ring = rings[addr] = deque(maxlen=self.depth)
            if len(rings) > self.max_addresses:
                rings.popitem(last=False)
        else:
            rings.move_to_end(addr)
        ring.append((self.seq, kind, core, (*data, *data.values())))

    def record(self, addr: int, event: str, core: "int | None" = None, **data) -> None:
        """Record one event for ``addr`` (:meth:`emit`, address first)."""
        self.emit(event, None, core, addr, **data)

    def history(self, addr: int) -> "tuple[TransactionRecord, ...]":
        ring = self._per_addr.get(addr, ())
        return tuple(
            TransactionRecord(seq, event, addr, core, data)
            for seq, event, core, data in ring
        )
