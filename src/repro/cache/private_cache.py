"""Per-core private cache hierarchy: iL1, dL1, and a unified L2.

Coherence state is kept at the L2 level; the L1s are treated as inclusive
subsets of the L2 (the paper's hierarchy is non-inclusive, but inclusion
changes neither the hop counts nor the directory pressure that drive the
paper's results, and it keeps invalidation handling simple). Evictions
from the L2 are notified to the home LLC bank for every state, per the
paper's baseline protocol [29].

Each level is a dict from set index to the list of block addresses
resident in that set, in LRU order (MRU last); a set appears on its first
fill and is never deleted. The L2's MESI states live in one per-core dict
keyed by block address, so ``addr in state`` is the L2 presence test. A
lookup is a C-level ``addr in lines`` or one dict probe, a recency touch
is ``remove`` + ``append``, and the LRU victim is ``pop(0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, ProtocolError
from repro.types import AccessKind, PrivateState


@dataclass(frozen=True)
class EvictionNotice:
    """An L2 victim that must be reported to its home LLC bank."""

    addr: int
    state: PrivateState


class ProbeResult:
    """Outcome of probing the private hierarchy for an access."""

    __slots__ = ("level", "needs_upgrade")

    def __init__(self, level: str, needs_upgrade: bool = False) -> None:
        #: "l1", "l2", or "miss".
        self.level = level
        #: True when the block is held in S but the access is a write, so
        #: an upgrade request must be sent to the home bank.
        self.needs_upgrade = needs_upgrade

    @property
    def is_hit(self) -> bool:
        """True when the access completes within the private hierarchy."""
        return self.level != "miss" and not self.needs_upgrade


class PrivateCore:
    """The private cache hierarchy of one core."""

    __slots__ = (
        "core_id", "il1", "dl1", "l2", "state",
        "l1_sets", "l1_assoc", "l2_sets", "l2_assoc",
    )

    def __init__(
        self,
        core_id: int,
        l1_sets: int,
        l1_assoc: int,
        l2_sets: int,
        l2_assoc: int,
    ) -> None:
        if min(l1_sets, l1_assoc, l2_sets, l2_assoc) <= 0:
            raise ConfigError(
                f"private cache sets and ways must be positive, got L1 "
                f"{l1_sets}x{l1_assoc}, L2 {l2_sets}x{l2_assoc}"
            )
        self.core_id = core_id
        self.l1_sets = l1_sets
        self.l1_assoc = l1_assoc
        self.l2_sets = l2_sets
        self.l2_assoc = l2_assoc
        self.il1: "dict[int, list[int]]" = {}
        self.dl1: "dict[int, list[int]]" = {}
        self.l2: "dict[int, list[int]]" = {}
        #: MESI state of every block resident in the L2.
        self.state: "dict[int, PrivateState]" = {}

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------

    #: :meth:`classify` return codes.
    MISS = 0
    L1_HIT = 1
    L2_HIT = 2
    UPGRADE_L1 = 3
    UPGRADE_L2 = 4

    def classify(self, addr: int, kind: AccessKind) -> int:
        """Probe the hierarchy for an access; returns an int code.

        The fast-lane twin of :meth:`probe` — identical side effects
        (recency touches in both levels, L1 promotion on an L2 hit, the
        silent E->M write upgrade, the inclusion check) but an int code
        instead of a :class:`ProbeResult` allocation. A lookup is one
        state-dict probe for the L2 plus a C-level scan of the L1 set's
        at most ``l1_assoc`` addresses.

        Codes: ``MISS`` (0), ``L1_HIT`` (1), ``L2_HIT`` (2, promoted
        into the L1), ``UPGRADE_L1``/``UPGRADE_L2`` (3/4: held in S but
        the access is a write, so the home must serve an upgrade).
        """
        l1 = self.il1 if kind is AccessKind.IFETCH else self.dl1
        lines = l1.get(addr % self.l1_sets, ())
        in_l1 = addr in lines
        state = self.state.get(addr)
        if state is None:
            if in_l1:
                raise ProtocolError(
                    f"core {self.core_id}: block {addr:#x} in L1 but not L2"
                )
            return 0
        if in_l1 and lines[-1] != addr:
            lines.remove(addr)
            lines.append(addr)
        lines = self.l2[addr % self.l2_sets]
        if lines[-1] != addr:
            lines.remove(addr)
            lines.append(addr)
        if kind is AccessKind.WRITE:
            if state is PrivateState.SHARED:
                return 3 if in_l1 else 4
            if state is PrivateState.EXCLUSIVE:
                self.state[addr] = PrivateState.MODIFIED
        if in_l1:
            return 1
        # L2 hit: promote into L1 (inclusive, so no notice is needed for
        # the L1 victim -- the L2 still holds it).
        self._l1_fill(l1, addr)
        return 2

    def probe(self, addr: int, kind: AccessKind) -> ProbeResult:
        """Probe the hierarchy for an access without filling anything.

        On an L2 hit the block is promoted into the appropriate L1. A
        write that finds the block in S state reports ``needs_upgrade``;
        a write that finds it in E state silently upgrades to M.
        Delegates to :meth:`classify`, so the reference and fast lanes
        share one probe implementation.
        """
        code = self.classify(addr, kind)
        if code == 0:
            return ProbeResult("miss")
        if code == 3:
            return ProbeResult("l1", needs_upgrade=True)
        if code == 4:
            return ProbeResult("l2", needs_upgrade=True)
        return ProbeResult("l1" if code == 1 else "l2")

    def _l1_fill(self, l1: "dict[int, list[int]]", addr: int) -> None:
        index = addr % self.l1_sets
        lines = l1.get(index)
        if lines is None:
            l1[index] = [addr]
            return
        if len(lines) >= self.l1_assoc:
            del lines[0]
        lines.append(addr)

    # ------------------------------------------------------------------
    # Fill and state-change paths (driven by the home controller)
    # ------------------------------------------------------------------

    def fill(self, addr: int, kind: AccessKind, state: PrivateState) -> "list[EvictionNotice]":
        """Install a block granted in ``state``; returns eviction notices.

        The block must not be resident. At most one L2 victim is
        produced; its L1 copies are removed to preserve inclusion.
        """
        if state is PrivateState.INVALID:
            raise ProtocolError("cannot fill a block in state I")
        notices = []
        index = addr % self.l2_sets
        lines = self.l2.get(index)
        if lines is None:
            self.l2[index] = [addr]
        else:
            if len(lines) >= self.l2_assoc:
                victim = lines.pop(0)
                self._drop_from_l1s(victim)
                notices.append(EvictionNotice(victim, self.state.pop(victim)))
            lines.append(addr)
        self.state[addr] = state
        self._l1_fill(self.il1 if kind is AccessKind.IFETCH else self.dl1, addr)
        return notices

    def complete_upgrade(self, addr: int) -> None:
        """Transition a block held in S to M after an upgrade response."""
        if self.state.get(addr) is not PrivateState.SHARED:
            raise ProtocolError(
                f"core {self.core_id}: upgrade completion for block {addr:#x} "
                f"not held in S"
            )
        self.state[addr] = PrivateState.MODIFIED

    def invalidate(self, addr: int) -> PrivateState:
        """Invalidate a block everywhere in this hierarchy.

        Returns the state the block was held in (``INVALID`` when the
        block was not present, which callers treat as a stale-tracker
        protocol error where appropriate).
        """
        prior = self.state.pop(addr, None)
        if prior is not None:
            self.l2[addr % self.l2_sets].remove(addr)
        self._drop_from_l1s(addr)
        return PrivateState.INVALID if prior is None else prior

    def downgrade(self, addr: int) -> PrivateState:
        """Downgrade an exclusively held block to S (intervention).

        Returns the prior state (M or E) so the caller can account for a
        dirty writeback.
        """
        prior = self.state.get(addr)
        if prior is None or not prior.is_exclusive:
            raise ProtocolError(
                f"core {self.core_id}: downgrade of block {addr:#x} "
                f"not held exclusively"
            )
        self.state[addr] = PrivateState.SHARED
        return prior

    def _drop_from_l1s(self, addr: int) -> None:
        index = addr % self.l1_sets
        for l1 in (self.il1, self.dl1):
            lines = l1.get(index, ())
            if addr in lines:
                lines.remove(addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state_of(self, addr: int) -> PrivateState:
        """The MESI state of ``addr`` in this hierarchy (I if absent)."""
        return self.state.get(addr, PrivateState.INVALID)

    def holds(self, addr: int) -> bool:
        """True when the block is valid anywhere in this hierarchy."""
        return addr in self.state

    def resident_blocks(self):
        """Yield (addr, state) for every valid block (for invariants):
        L2 sets in first-use order, each set's blocks in LRU order."""
        state = self.state
        for lines in self.l2.values():
            for addr in lines:
                yield addr, state[addr]
