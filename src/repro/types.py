"""Common value types shared across the simulator.

The simulator works at cache-block granularity. A *block address* is the
physical address with the block-offset bits stripped (i.e. ``addr >>
log2(block_size)``). All structures in this package index blocks by their
block address, never by byte address; helpers here convert between the two.
"""

from __future__ import annotations

import enum

#: Size of a cache block in bytes (Table I of the paper).
BLOCK_SIZE = 64

#: log2 of the block size, used for byte<->block address conversion.
BLOCK_SHIFT = 6


class AccessKind(enum.Enum):
    """Kind of memory access issued by a core.

    ``IFETCH`` is an instruction read. The protocol responds to instruction
    reads in the S state even for a single requester (Section III-B of the
    paper) to accelerate code sharing.
    """

    READ = "read"
    WRITE = "write"
    IFETCH = "ifetch"

    def __init__(self, value: str) -> None:
        #: True for accesses that do not require exclusive ownership. A
        #: member attribute rather than a property: the home controllers
        #: read it on every transaction.
        self.is_read = value != "write"


class PrivateState(enum.Enum):
    """MESI state of a block in a core's private cache hierarchy."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __init__(self, value: str) -> None:
        #: True when the holder owns the only valid private copy (M or E).
        self.is_exclusive = value in ("M", "E")


class LLCState(enum.Enum):
    """Stable state of an LLC block under in-LLC tracking (Table III).

    The two physical state bits (V, D) of an LLC block encode four states.
    ``CORRUPTED`` is the (V=0, D=1) encoding introduced by the paper: part
    of the data block is reused to store extended coherence state, so the
    data held in the LLC is not the authoritative block content.
    ``SPILLED_ENTRY`` also uses the (V=0, D=1) encoding but for a block
    that holds a *spilled coherence tracking entry* of another LLC-resident
    block with the same tag (Section IV-B1); it is distinguished here as a
    separate enum member for clarity.
    """

    INVALID = "invalid"  # V=0, D=0
    CLEAN = "clean"  # V=1, D=0: valid, unowned, not shared
    DIRTY = "dirty"  # V=1, D=1: valid, modified, unowned, not shared
    CORRUPTED = "corrupted"  # V=0, D=1: owned/shared, data bits borrowed
    SPILLED_ENTRY = "spilled"  # V=0, D=1: holds another block's tracking entry


def block_address(byte_address: int) -> int:
    """Return the block address for ``byte_address``."""
    return byte_address >> BLOCK_SHIFT


def byte_address(block_addr: int) -> int:
    """Return the first byte address of block ``block_addr``."""
    return block_addr << BLOCK_SHIFT


class Access:
    """A single memory access in a trace.

    Attributes:
        core: issuing core id, in ``[0, num_cores)``.
        addr: block address (not byte address).
        kind: read / write / instruction fetch.
        gap: compute cycles the core spends before issuing this access;
            models the non-memory work between consecutive accesses and is
            the knob through which workload CPI enters the timing model.

    Implemented with ``__slots__`` rather than a dataclass because traces
    hold hundreds of thousands of these.
    """

    __slots__ = ("core", "addr", "kind", "gap")

    def __init__(self, core: int, addr: int, kind: AccessKind, gap: int = 0) -> None:
        self.core = core
        self.addr = addr
        self.kind = kind
        self.gap = gap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Access):
            return NotImplemented
        return (
            self.core == other.core
            and self.addr == other.addr
            and self.kind == other.kind
            and self.gap == other.gap
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Access(core={self.core}, addr={self.addr:#x}, "
            f"kind={self.kind.value}, gap={self.gap})"
        )
