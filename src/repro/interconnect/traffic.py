"""Interconnect traffic accounting.

The paper's Figure 5 splits traffic into three message classes:

* **processor** — private-cache miss requests and their responses,
* **writeback** — eviction notices from the cores and their
  acknowledgements,
* **coherence** — requests forwarded by the home LLC bank (interventions,
  invalidations) and the busy-clear / acknowledgement messages they
  generate.

Message sizes follow the usual convention: a control message is one
8-byte flit; a data message carries the 64-byte block plus the header.
Partial-reconstruction messages (the ``4 + ceil(log2 C)`` borrowed bits an
E-state eviction carries back to the LLC, Section III-B) round up to the
header plus two bytes.
"""

from __future__ import annotations

import enum

#: Size in bytes of a header-only control message.
CONTROL_BYTES = 8

#: Size in bytes of a full data-carrying message (64-byte block + header).
DATA_BYTES = 72

#: Size of an eviction notice that carries the borrowed coherence bits.
PARTIAL_BYTES = 10


class MessageClass(enum.Enum):
    """Traffic class of an interconnect message (paper Fig. 5)."""

    PROCESSOR = "processor"
    WRITEBACK = "writeback"
    COHERENCE = "coherence"

    def __init__(self, value: str) -> None:
        #: Index of this class's counters in :class:`TrafficMeter`. A
        #: plain attribute, so counting a message never hashes the member.
        self.slot = len(type(self)._member_names_)


class TrafficMeter:
    """Accumulates interconnect bytes per :class:`MessageClass`.

    Counters are lists indexed by :attr:`MessageClass.slot`; they sit on
    the path of every message the home controllers send.
    """

    __slots__ = ("_bytes", "_messages")

    def __init__(self) -> None:
        self._bytes = [0] * len(MessageClass)
        self._messages = [0] * len(MessageClass)

    def clear(self) -> None:
        """Zero all counters in place (warmup boundary)."""
        for slot in range(len(MessageClass)):
            self._bytes[slot] = 0
            self._messages[slot] = 0

    def control(self, message_class: MessageClass, count: int = 1) -> None:
        """Record control (header-only) messages."""
        slot = message_class.slot
        self._bytes[slot] += CONTROL_BYTES * count
        self._messages[slot] += count

    def data(self, message_class: MessageClass, count: int = 1) -> None:
        """Record full data messages."""
        slot = message_class.slot
        self._bytes[slot] += DATA_BYTES * count
        self._messages[slot] += count

    def partial(self, message_class: MessageClass, count: int = 1) -> None:
        """Record partial-block reconstruction messages."""
        slot = message_class.slot
        self._bytes[slot] += PARTIAL_BYTES * count
        self._messages[slot] += count

    def bytes_for(self, message_class: MessageClass) -> int:
        """Total bytes recorded for ``message_class``."""
        return self._bytes[message_class.slot]

    def messages_for(self, message_class: MessageClass) -> int:
        """Total message count recorded for ``message_class``."""
        return self._messages[message_class.slot]

    @property
    def total_bytes(self) -> int:
        """Total bytes across all classes."""
        return sum(self._bytes)

    def as_dict(self) -> "dict[str, int]":
        """Bytes per class keyed by the class value (for reports)."""
        return {cls.value: self._bytes[cls.slot] for cls in MessageClass}

    def dump(self) -> "dict[str, dict[str, int]]":
        """Full serializable snapshot (bytes and message counts)."""
        return {
            "bytes": self.as_dict(),
            "messages": {cls.value: self._messages[cls.slot] for cls in MessageClass},
        }

    @classmethod
    def load(cls, payload: "dict[str, dict[str, int]]") -> "TrafficMeter":
        """Rebuild a meter from :meth:`dump` output."""
        meter = cls()
        for name, value in payload.get("bytes", {}).items():
            meter._bytes[MessageClass(name).slot] = value
        for name, value in payload.get("messages", {}).items():
            meter._messages[MessageClass(name).slot] = value
        return meter
