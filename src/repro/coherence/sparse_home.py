"""Home controllers for the sparse-directory scheme family.

:class:`SparseHome` is the baseline write-invalidate MESI home node with a
sparse directory (Section II / Fig. 1 of the paper). The MESI
transitions themselves — grant, forward to the exclusive owner, shared
read, write-invalidate, upgrade, back-invalidation and dirty-data
deposit — are :class:`~repro.coherence.base.BaseHome`'s; this module
supplies where tracking lives, through three small hooks — :meth:`_find`,
:meth:`_install`, :meth:`_drop` — plus the ``dir:*`` events and the
sparse data placement (a non-inclusive LLC refilled on a forwarded
read, written-back data allocating an LLC line). The competing
organizations are subclasses overriding the hooks:

* :class:`SharedOnlyHome` — the Fig. 3 idealized design: only shared
  blocks occupy the limited directory; private/exclusive blocks live in a
  zero-cost unbounded structure.
* :class:`StashHome` — Stash directory [14]: private entries are dropped
  without invalidation and recovered by broadcast on later sharing.
* :class:`MgdHome` — multi-grain directory [47]: one entry per private
  1 KB region, block-grain entries for shared data.
"""

from __future__ import annotations

from repro.coherence.base import BaseHome
from repro.coherence.info import CohInfo
from repro.coherence.transaction import AccessOutcome
from repro.directory.mgd import BLOCKS_PER_REGION, MultiGrainDirectory, RegionEntry
from repro.directory.stash import StashState
from repro.errors import InvariantViolation, ProtocolError
from repro.interconnect.traffic import MessageClass
from repro.types import AccessKind, PrivateState


class SparseHome(BaseHome):
    """Baseline MESI home node with a sparse directory."""

    __slots__ = ("directory",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats)
        self.directory = directory

    # ------------------------------------------------------------------
    # Tracking hooks (overridden by scheme variants)
    # ------------------------------------------------------------------

    def _find(self, addr: int, core: int, now: int, out: "AccessOutcome | None") -> "CohInfo | None":
        """Locate the tracking info for ``addr``, or None if untracked."""
        return self.directory.lookup(addr)

    def _install(self, addr: int, coh: CohInfo, now: int) -> None:
        """Start tracking ``addr``; back-invalidates any directory victim."""
        if self.observer is not None:
            self.observer.emit("dir:alloc", cycle=now, addr=addr)
        victim = self.directory.allocate(addr, coh)
        if victim is not None:
            if self.observer is not None:
                self.observer.emit("dir:evict", cycle=now, addr=victim[0])
            self._back_invalidate(*victim, now, "dir:back_invalidate")

    def _drop(self, addr: int, coh: CohInfo) -> None:
        """Stop tracking ``addr`` (no private copies remain)."""
        if self.observer is not None:
            self.observer.emit("dir:drop", addr=addr)
        self.directory.remove(addr)

    def _after_update(self, addr: int, coh: CohInfo, now: int) -> None:
        """Hook called after mutating a tracked block's CohInfo."""
        if coh.is_idle:
            self._drop(addr, coh)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr: int, truth: CohInfo, now: int = 0) -> str:
        """Repair the directory entry for ``addr`` against ``truth``."""
        coh = self.directory.peek(addr)
        if truth.is_idle:
            if coh is None:
                return "directory:already-absent"
            self.directory.remove(addr)
            return "directory:removed"
        if coh is not None:
            coh.owner = truth.owner
            coh.sharers = truth.sharers
            return "directory:rewritten"
        self._install(addr, truth.copy(), now)
        return "directory:reinstalled"

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------

    def handle_access(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        now: int,
        upgrade: bool = False,
    ) -> AccessOutcome:
        out = AccessOutcome()
        home = addr % self.num_banks
        bank = self.banks[home]
        self.traffic.control(MessageClass.PROCESSOR)  # the request
        coh = self._find(addr, core, now, out)
        line, _ = bank.lookup(addr)

        if upgrade:
            if self.observer is not None:
                self.observer.emit("dir:upgrade", cycle=now, core=core, addr=addr)
            self._upgrade(core, addr, coh, home, now, out)
            self._after_update(addr, coh, now)
            return out

        if coh is None or coh.is_idle:
            coh, _ = self._grant(core, addr, kind, line, home, now, out)
            self._install(addr, coh, now)
            return out

        if line is not None and kind.is_read:
            line.total_reads += 1
            if coh.is_shared:
                line.fwd_reads += 1
        if coh.is_exclusive:
            if self.observer is not None:
                self.observer.emit("dir:fwd_exclusive", cycle=now, core=core, addr=addr)
            self._forward_exclusive(core, addr, kind, coh, home, now, out, allocate=True)
        elif kind is AccessKind.WRITE:
            if self.observer is not None:
                self.observer.emit("dir:write_shared", cycle=now, core=core, addr=addr)
            self._write_shared(core, addr, coh, home, now, out, line is not None)
            if line is not None:
                line.note_holders(coh)
        else:
            self._read_shared(core, coh, home, out, line is not None)
            if line is None:
                # Non-inclusive LLC lost the clean copy: refill it
                # alongside the forwarded data.
                self.traffic.data(MessageClass.WRITEBACK)
                line = self._fill_llc(addr, now)
            line.note_holders(coh)
        self._after_update(addr, coh, now)
        return out

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        self._take_notice(addr, state, now, allocate=True)
        coh = self._find(addr, core, now, None)
        if coh is None:
            return
        coh.remove(core)
        self._after_update(addr, coh, now)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        """True when the tracking structures record ``core`` holding
        ``addr`` (used by the reverse invariant)."""
        coh = self.directory.peek(addr)
        return coh is not None and coh.holds(core)

    def check_invariants(self) -> None:
        if hasattr(self.directory, "iter_entries"):
            for addr, coh in self.directory.iter_entries():
                for holder in coh.holders():
                    state = self.cores[holder].state_of(addr)
                    if state is PrivateState.INVALID:
                        raise InvariantViolation(
                            f"directory records core {holder} holding "
                            f"{addr:#x} but its cache does not",
                            addr=addr,
                            cores=(holder,),
                        )
                    if coh.is_exclusive and not state.is_exclusive:
                        raise InvariantViolation(
                            f"directory says {addr:#x} exclusive at {holder}, "
                            f"cache says {state}",
                            addr=addr,
                            cores=(holder,),
                        )
        super().check_invariants()


class SharedOnlyHome(SparseHome):
    """Idealized design tracking only shared blocks in the directory.

    Private and exclusively-owned blocks live in an unbounded zero-cost
    map (the paper's Fig. 3 experiment explicitly ignores its overhead).
    A block moves into the limited directory when it enters the S state
    with two distinct sharers, and back out when it becomes exclusively
    owned again.
    """

    __slots__ = ("_unbounded",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats, directory)
        self._unbounded: "dict[int, CohInfo]" = {}

    def _find(self, addr, core, now, out):
        coh = self._unbounded.get(addr)
        if coh is not None:
            return coh
        return self.directory.lookup(addr)

    def _install(self, addr, coh, now):
        if coh.sharer_count() >= 2:
            super()._install(addr, coh, now)
        else:
            if self.observer is not None:
                self.observer.emit("shared_only:private", cycle=now, addr=addr)
            self._unbounded[addr] = coh

    def _drop(self, addr, coh):
        if self._unbounded.pop(addr, None) is None:
            self.directory.remove(addr)

    def _after_update(self, addr, coh, now):
        if coh.is_idle:
            self._drop(addr, coh)
            return
        if addr in self._unbounded:
            if coh.sharer_count() >= 2:
                del self._unbounded[addr]
                if self.observer is not None:
                    self.observer.emit("shared_only:promote", cycle=now, addr=addr)
                super()._install(addr, coh, now)
        else:
            if coh.is_exclusive:
                # The limited directory only holds shared blocks.
                if self.directory.remove(addr) is not None:
                    if self.observer is not None:
                        self.observer.emit("shared_only:demote", cycle=now, addr=addr)
                    self._unbounded[addr] = coh

    def _tracks(self, addr, core):
        coh = self._unbounded.get(addr)
        if coh is not None and coh.holds(core):
            return True
        return super()._tracks(addr, core)

    def rebuild_tracking(self, addr, truth, now=0):
        # Purge both structures, then reinstall through _install so the
        # record lands on the side the shared-only split dictates.
        in_unbounded = self._unbounded.pop(addr, None) is not None
        in_directory = self.directory.peek(addr) is not None
        if in_directory:
            self.directory.remove(addr)
        if truth.is_idle:
            if in_unbounded or in_directory:
                return "shared-only:removed"
            return "shared-only:already-absent"
        self._install(addr, truth.copy(), now)
        return "shared-only:reinstalled"

    def check_invariants(self) -> None:
        super().check_invariants()
        for addr, coh in self._unbounded.items():
            if coh.sharer_count() >= 2:
                raise InvariantViolation(
                    f"block {addr:#x} with two sharers left in the "
                    f"unbounded private tracker",
                    addr=addr,
                    cores=tuple(coh.holders()),
                )
            for holder in coh.holders():
                if self.cores[holder].state_of(addr) is PrivateState.INVALID:
                    raise InvariantViolation(
                        f"unbounded tracker records core {holder} holding "
                        f"{addr:#x} but its cache does not",
                        addr=addr,
                        cores=(holder,),
                    )


class StashHome(SparseHome):
    """Stash directory: drop private entries, broadcast to recover."""

    __slots__ = ("stash",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        super().__init__(config, mesh, dram, cores, stats, directory)
        self.stash = StashState()

    def _install(self, addr, coh, now):
        if self.observer is not None:
            self.observer.emit("dir:alloc", cycle=now, addr=addr)
        victim = self.directory.allocate(addr, coh)
        if victim is None:
            return
        vaddr, vcoh = victim
        if self.observer is not None:
            self.observer.emit("dir:evict", cycle=now, addr=vaddr)
        if vcoh.is_exclusive:
            # Leave the private copy in place, untracked.
            if self.observer is not None:
                self.observer.emit("stash:stash", cycle=now, core=vcoh.owner, addr=vaddr)
            self.stash.stash(vaddr, vcoh.owner)
        else:
            self._back_invalidate(vaddr, vcoh, now, "dir:back_invalidate")

    def _find(self, addr, core, now, out):
        coh = self.directory.lookup(addr)
        if coh is not None:
            return coh
        holder = self.stash.owner_of(addr)
        if holder is None:
            return None
        # Broadcast recovery: query every core, collect responses.
        if self.observer is not None:
            self.observer.emit("stash:recover", cycle=now, core=holder, addr=addr)
        self.stash.unstash(addr)
        self.stats.broadcasts += 1
        num_cores = self.config.num_cores
        self.traffic.control(MessageClass.COHERENCE, count=num_cores)
        self.traffic.control(MessageClass.COHERENCE, count=num_cores)
        if out is not None:
            max_span = (
                (self.mesh.width - 1 + self.mesh.height - 1) * self.mesh.hop_cycles
            )
            out.latency += 2 * max_span
        if not self.cores[holder].holds(addr):
            # The stashed copy was silently gone (should not happen: all
            # evictions are notified); treat as untracked.
            return None
        coh = CohInfo(owner=holder)
        self._install(addr, coh, now)
        return self.directory.lookup(addr)

    def handle_private_eviction(self, core, addr, state, now):
        if self.stash.owner_of(addr) == core:
            if self.observer is not None:
                self.observer.emit("stash:unstash", cycle=now, core=core, addr=addr)
            self.stash.unstash(addr)
        super().handle_private_eviction(core, addr, state, now)

    def _tracks(self, addr, core):
        if self.stash.owner_of(addr) == core:
            return True
        return super()._tracks(addr, core)

    def rebuild_tracking(self, addr, truth, now=0):
        holder = self.stash.owner_of(addr)
        if holder is not None:
            if (
                truth.is_exclusive
                and truth.owner == holder
                and self.directory.peek(addr) is None
            ):
                # The stash record itself is the repaired ground truth.
                return "stash:confirmed"
            self.stash.unstash(addr)
            if truth.is_idle and self.directory.peek(addr) is None:
                return "stash:unstashed"
        return super().rebuild_tracking(addr, truth, now)

    def check_invariants(self) -> None:
        super().check_invariants()
        for addr in list(self.stash._stashed):
            holder = self.stash.owner_of(addr)
            if not self.cores[holder].holds(addr):
                raise InvariantViolation(
                    f"stashed block {addr:#x} is not cached by core {holder}",
                    addr=addr,
                    cores=(holder,),
                )


class MgdHome(SparseHome):
    """Multi-grain directory home: region entries for private data."""

    __slots__ = ("_region_hit",)

    def __init__(self, config, mesh, dram, cores, stats, directory) -> None:
        if not isinstance(directory, MultiGrainDirectory):
            raise ProtocolError("MgdHome requires a MultiGrainDirectory")
        super().__init__(config, mesh, dram, cores, stats, directory)
        self._region_hit: "RegionEntry | None" = None

    def _find(self, addr, core, now, out):
        self._region_hit = None
        coh = self.directory.lookup_block(addr)
        if coh is not None:
            return coh
        region_entry = self.directory.lookup_region(addr)
        if region_entry is None:
            return None
        if region_entry.owner == core:
            # The owner extends its own private region.
            self._region_hit = region_entry
            return None
        # Another core touches a privately tracked region: demote the
        # region to block-grain entries.
        self._demote_region(addr, region_entry, now, out)
        return self.directory.lookup_block(addr)

    def _demote_region(self, addr, region_entry, now, out) -> None:
        if self.observer is not None:
            self.observer.emit(
                "mgd:region_demote", cycle=now, core=region_entry.owner, addr=addr
            )
        region = addr // BLOCKS_PER_REGION
        self.directory.remove_region(region)
        owner = region_entry.owner
        for baddr in region_entry.blocks(region):
            state = self.cores[owner].state_of(baddr)
            if state is PrivateState.INVALID:
                continue
            self.traffic.control(MessageClass.COHERENCE)
            victim = self.directory.allocate_block(baddr, CohInfo(owner=owner))
            self._handle_mgd_victim(victim, now)
        if out is not None:
            out.latency += self.config.llc_tag_latency

    def _install(self, addr, coh, now):
        if coh.is_exclusive:
            region = addr // BLOCKS_PER_REGION
            offset = addr % BLOCKS_PER_REGION
            entry = self._region_hit
            if entry is None or entry.owner != coh.owner:
                entry = self.directory.lookup_region(addr)
            if entry is not None and entry.owner == coh.owner:
                if self.observer is not None:
                    self.observer.emit("mgd:region_extend", cycle=now, addr=addr)
                entry.presence |= 1 << offset
                return
            if entry is None:
                if self.observer is not None:
                    self.observer.emit("mgd:region_alloc", cycle=now, addr=addr)
                victim = self.directory.allocate_region(
                    region, RegionEntry(coh.owner, 1 << offset)
                )
                self._handle_mgd_victim(victim, now)
                return
        if self.observer is not None:
            self.observer.emit("mgd:block_alloc", cycle=now, addr=addr)
        victim = self.directory.allocate_block(addr, coh)
        self._handle_mgd_victim(victim, now)

    def _handle_mgd_victim(self, victim, now) -> None:
        if victim is None:
            return
        kind, key, payload = victim
        if kind == "block":
            self._back_invalidate(key, payload, now, "dir:back_invalidate")
        else:
            if self.observer is not None:
                self.observer.emit("mgd:evict_region", cycle=now, region=key)
            owner = payload.owner
            for baddr in payload.blocks(key):
                state = self.cores[owner].invalidate(baddr)
                if state is PrivateState.INVALID:
                    continue
                self.stats.invalidations += 1
                self.stats.back_invalidations += 1
                self.traffic.control(MessageClass.COHERENCE)
                if state is PrivateState.MODIFIED:
                    self.traffic.data(MessageClass.COHERENCE)
                    self._deposit_dirty(baddr, now)
                else:
                    self.traffic.control(MessageClass.COHERENCE)

    def _drop(self, addr, coh):
        self.directory.remove_block(addr)

    def handle_private_eviction(self, core, addr, state, now):
        self._take_notice(addr, state, now, allocate=True)
        coh = self.directory.lookup_block(addr)
        if coh is not None:
            coh.remove(core)
            self._after_update(addr, coh, now)
            return
        region_entry = self.directory.lookup_region(addr)
        if region_entry is not None and region_entry.owner == core:
            if self.observer is not None:
                self.observer.emit("mgd:region_shrink", cycle=now, core=core, addr=addr)
            region_entry.presence &= ~(1 << (addr % BLOCKS_PER_REGION))
            if region_entry.presence == 0:
                self.directory.remove_region(addr // BLOCKS_PER_REGION)

    def _tracks(self, addr, core):
        coh = self.directory.peek_block(addr)
        if coh is not None and coh.holds(core):
            return True
        entry = self.directory.peek_region(addr)
        return (
            entry is not None
            and entry.owner == core
            and bool(entry.presence >> (addr % BLOCKS_PER_REGION) & 1)
        )

    def rebuild_tracking(self, addr, truth, now=0):
        offset = addr % BLOCKS_PER_REGION
        coh = self.directory.peek_block(addr)
        entry = self.directory.peek_region(addr)
        if entry is not None and entry.presence >> offset & 1:
            if coh is None and truth.is_exclusive and truth.owner == entry.owner:
                # The region entry already expresses the probed truth.
                return "mgd:region-confirmed"
            # Shrink the region out of this block; the truth is recorded
            # at block grain (or nowhere) below.
            entry.presence &= ~(1 << offset)
            if entry.presence == 0:
                self.directory.remove_region(addr // BLOCKS_PER_REGION)
        if truth.is_idle:
            if coh is None:
                return "mgd:already-absent"
            self.directory.remove_block(addr)
            return "mgd:removed"
        if coh is not None:
            coh.owner = truth.owner
            coh.sharers = truth.sharers
            return "mgd:block-rewritten"
        self._region_hit = None
        self._install(addr, truth.copy(), now)
        return "mgd:reinstalled"

    def check_invariants(self) -> None:
        self._check_single_writer()
        for addr, coh in self.directory.iter_blocks():
            for holder in coh.holders():
                if self.cores[holder].state_of(addr) is PrivateState.INVALID:
                    raise InvariantViolation(
                        f"MgD block entry records core {holder} holding "
                        f"{addr:#x} but its cache does not",
                        addr=addr,
                        cores=(holder,),
                    )
        for region, entry in self.directory.iter_regions():
            for baddr in entry.blocks(region):
                if self.cores[entry.owner].state_of(baddr) is PrivateState.INVALID:
                    raise InvariantViolation(
                        f"MgD region {region:#x} marks block {baddr:#x} "
                        f"present at core {entry.owner} but its cache "
                        f"does not hold it",
                        addr=baddr,
                        cores=(entry.owner,),
                    )
        self._check_copies_tracked()
