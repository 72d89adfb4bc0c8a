"""Home controllers for in-LLC tracking and the tiny directory.

:class:`InLLCHome` implements Section III of the paper: there is no
sparse directory, and a block's location/sharers are tracked by borrowing
a few bits of the block's LLC data way (the *corrupted* states of Tables
III/IV). Reads to corrupted-shared blocks must be forwarded to an elected
sharer, lengthening their critical path to three hops — the design's key
shortcoming. The ``tag_extended`` flag selects the storage-heavy variant
whose LLC tags carry the tracking state instead, leaving data intact
(left bars of Fig. 4).

:class:`TinyHome` implements Section IV: the in-LLC mechanism augmented
with a tiny directory that tracks the high-STRA subset of shared blocks,
and optionally with dynamic spilling of tracking entries into LLC ways.

The MESI transitions are :class:`~repro.coherence.base.BaseHome`'s, shared
with the sparse family; both controllers here supply only where the
tracking record lives (the corrupted line, a tiny-directory entry or a
spilled entry) and its STRA counters, the §IV-C decode cycles of a
corrupted line, whether the LLC data is valid, the in-LLC forwarder's
data-carrying ack and block reconstruction, and the ``llc:*`` and
``tiny:*`` events.
"""

from __future__ import annotations

from repro.cache.llc import LLCLine
from repro.coherence.base import BaseHome
from repro.coherence.info import CohInfo
from repro.coherence.transaction import AccessOutcome
from repro.core.spill import DynamicSpillPolicy, SpillConfig
from repro.core.stra import StraCounters
from repro.core.tiny_directory import TinyDirectory
from repro.errors import InvariantViolation, ProtocolError
from repro.interconnect.traffic import MessageClass
from repro.types import AccessKind, LLCState, PrivateState


class InLLCHome(BaseHome):
    """Home node tracking coherence inside the LLC (no sparse directory)."""

    __slots__ = ("tag_extended", "stra_limit")

    def __init__(self, config, mesh, dram, cores, stats, tag_extended=False) -> None:
        super().__init__(config, mesh, dram, cores, stats)
        self.tag_extended = tag_extended
        #: Saturation value of freshly created STRA counters (six-bit in
        #: the paper; widened/narrowed by the ablation knob).
        self.stra_limit = 63

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def _corrupted_extra(self, line: LLCLine) -> int:
        """Extra LLC serialization for decoding a corrupted block (§IV-C):
        the data read plus the state-decoder cycle."""
        if self.tag_extended or line.state is not LLCState.CORRUPTED:
            return 0
        return self.config.llc_data_latency + self.config.corrupted_decode_latency

    def _mark_tracked(self, line: LLCLine, bank, coh: CohInfo, stra: StraCounters) -> None:
        """Record ``coh``/``stra`` in ``line`` and move it into the
        corrupted (tracking) state."""
        if self.observer is not None:
            self.observer.emit("llc:mark_tracked", addr=line.tag)
        line.coh = coh
        line.stra = stra
        if self.tag_extended:
            return
        line.underlying_dirty = line.underlying_dirty or line.state is LLCState.DIRTY
        line.state = LLCState.CORRUPTED
        bank.data_writes += 1  # the borrowed bits are written in the data array

    def _restore_line(self, line: LLCLine, bank) -> None:
        """Return a line to the unowned valid state (last copy gone)."""
        if self.observer is not None:
            self.observer.emit("llc:restore", addr=line.tag)
        line.coh = None
        line.stra = None
        if self.tag_extended:
            return
        line.state = LLCState.DIRTY if line.underlying_dirty else LLCState.CLEAN
        line.underlying_dirty = False
        bank.data_writes += 1

    def _track_in_line(self, line: LLCLine, bank, coh: CohInfo) -> None:
        """Start tracking a freshly granted block in its LLC line."""
        stra = StraCounters(limit=self.stra_limit)
        stra.record_other()
        self._mark_tracked(line, bank, coh, stra)

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        self._flush_residency(victim)
        if victim.coh is not None and not victim.coh.is_idle:
            self._evict_tracked_victim(victim, now)
        elif victim.state is LLCState.DIRTY or victim.underlying_dirty:
            if self.observer is not None:
                self.observer.emit("llc:evict_dirty", cycle=now, addr=victim.tag)
            self._dram_write(victim.tag, now)

    def _evict_tracked_victim(self, victim: LLCLine, now: int) -> None:
        """Reconstruct and back-invalidate an evicted corrupted block; its
        dirty data (from a holder or the line) goes to memory once."""
        had_modified = self._back_invalidate(
            victim.tag, victim.coh, now, "llc:evict_tracked", to_memory=True
        )
        if not self.tag_extended and not had_modified:
            # One holder supplies the borrowed bits for reconstruction.
            self.traffic.partial(MessageClass.COHERENCE)
        if not had_modified and (
            victim.state is LLCState.DIRTY or victim.underlying_dirty
        ):
            self._dram_write(victim.tag, now)

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
        self.traffic.control(MessageClass.PROCESSOR)
        line, _ = bank.lookup(addr)
        if upgrade:
            self._upgrade_in_line(core, addr, line, bank, home, now, out)
        elif line is None or line.coh is None:
            coh, line = self._grant(core, addr, kind, line, home, now, out)
            self._track_in_line(line, bank, coh)
        else:
            self._serve_in_line(core, addr, kind, line, home, now, out)
        return out

    def _serve_in_line(self, core, addr, kind, line, home, now, out) -> bool:
        """Serve a miss to a block tracked in its (corrupted) LLC line;
        returns whether it was a read to a shared block."""
        coh = line.coh
        shared_read = kind.is_read and coh.is_shared
        if line.stra is not None:
            if shared_read:
                line.stra.record_shared_read()
            else:
                line.stra.record_other()
        if kind.is_read:
            line.total_reads += 1
            if shared_read:
                line.fwd_reads += 1
        extra = self._corrupted_extra(line)
        if coh.is_exclusive:
            # A downgraded M copy's data lands in the line's intact data.
            self._forward_exclusive(core, addr, kind, coh, home, now, out, extra, line)
        elif kind is AccessKind.WRITE:
            self._write_shared(
                core, addr, coh, home, now, out, False, extra, ack_carries_data=True
            )
        else:
            if not self.tag_extended:
                if self.observer is not None:
                    self.observer.emit("llc:lengthened_read", cycle=now, core=core, addr=addr)
                out.lengthened = True
            # Only tag-extended tracking leaves the LLC data intact.
            self._read_shared(core, coh, home, out, self.tag_extended, extra)
        line.note_holders(coh)
        return shared_read

    def _upgrade_in_line(self, core, addr, line, bank, home, now, out) -> None:
        """Serve an S->M upgrade of a block tracked in its LLC line."""
        if line is None or line.coh is None:
            raise ProtocolError(f"upgrade for untracked block {addr:#x}")
        if line.stra is not None:
            line.stra.record_other()
        self._upgrade(core, addr, line.coh, home, now, out, self._corrupted_extra(line))
        self._mark_tracked(line, bank, line.coh, line.stra)

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        bank = self.banks[addr % self.num_banks]
        line, _ = bank.lookup(addr, touch=False)
        if line is None or line.coh is None:
            # The line (and its tracking) was concurrently evicted and the
            # holders back-invalidated; nothing to update.
            self.traffic.control(MessageClass.WRITEBACK)
            self.traffic.control(MessageClass.WRITEBACK)
            return
        coh = line.coh
        if state is PrivateState.MODIFIED:
            self.traffic.data(MessageClass.WRITEBACK)
            self._deposit_dirty(addr, now, line)
        elif state is PrivateState.EXCLUSIVE and not self.tag_extended:
            # The notice carries the borrowed bits for reconstruction.
            self.traffic.partial(MessageClass.WRITEBACK)
        else:
            self.traffic.control(MessageClass.WRITEBACK)
        coh.remove(core)
        if coh.is_idle:
            if (
                state is PrivateState.SHARED
                and not self.tag_extended
            ):
                # Last sharer: the LLC requests the borrowed bits back.
                self.traffic.control(MessageClass.WRITEBACK)
                self.traffic.partial(MessageClass.WRITEBACK)
            self._restore_line(line, bank)
        self.traffic.control(MessageClass.WRITEBACK)  # acknowledgement

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr: int, truth, now: int = 0) -> str:
        """Repair the LLC line's borrowed tracking bits against ``truth``."""
        bank = self.banks[self.bank_of(addr)]
        line, _ = bank.peek(addr)
        if line is None:
            if truth.is_idle:
                return "llc:already-absent"
            # Private copies exist but the home data line is gone:
            # refetch the block and re-mark it as tracking.
            line = self._fill_llc(addr, now)
        if truth.is_idle:
            if line.coh is not None:
                self._restore_line(line, bank)
                return "llc:restored"
            return "llc:already-untracked"
        if line.coh is None:
            self._mark_tracked(line, bank, truth.copy(), StraCounters(limit=self.stra_limit))
        else:
            line.coh.owner = truth.owner
            line.coh.sharers = truth.sharers
        line.note_holders(line.coh)
        return "llc:rewritten"

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        """True when some structure records ``core`` holding ``addr``."""
        bank = self.banks[self.bank_of(addr)]
        line, spill = bank.peek(addr)
        if line is not None and line.coh is not None and line.coh.holds(core):
            return True
        return spill is not None and spill.coh.holds(core)

    def check_invariants(self) -> None:
        for bank in self.banks:
            for line in bank.iter_lines():
                if line.is_spill or line.coh is None:
                    continue
                for holder in line.coh.holders():
                    state = self.cores[holder].state_of(line.tag)
                    if state is PrivateState.INVALID:
                        raise InvariantViolation(
                            f"LLC tracks core {holder} holding {line.tag:#x} "
                            f"but its cache does not",
                            addr=line.tag,
                            cores=(holder,),
                        )
        super().check_invariants()


class TinyHome(InLLCHome):
    """In-LLC tracking plus the tiny directory (and optional spilling)."""

    __slots__ = ("tiny", "spill_enabled", "spill_policies")

    def __init__(
        self,
        config,
        mesh,
        dram,
        cores,
        stats,
        tiny: TinyDirectory,
        spill_enabled: bool = False,
        spill_config: "SpillConfig | None" = None,
        stra_limit: int = 63,
    ) -> None:
        super().__init__(config, mesh, dram, cores, stats, tag_extended=False)
        self.stra_limit = stra_limit
        self.tiny = tiny
        self.spill_enabled = spill_enabled
        self.spill_policies = [
            DynamicSpillPolicy(spill_config) for _ in range(self.num_banks)
        ]

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
        self.traffic.control(MessageClass.PROCESSOR)
        entry = self.tiny.lookup(addr, now)
        line, spill = bank.lookup(addr)
        shared_read = False

        if upgrade:
            if entry is not None:
                entry.stra.record_other()
                self._upgrade(core, addr, entry.coh, home, now, out)
            elif spill is not None:
                spill.stra.record_other()
                self._upgrade(core, addr, spill.coh, home, now, out)
                # A write transfers the spilled info back into the data
                # block, which switches to corrupted exclusive (§IV-B1).
                out.latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank)
            else:
                self._upgrade_in_line(core, addr, line, bank, home, now, out)
        elif entry is not None:
            if self.observer is not None:
                self.observer.emit("tiny:hit", cycle=now, core=core, addr=addr)
            shared_read = self._serve_via_tracker(
                core, addr, kind, entry.coh, entry.stra, line, home, now, out,
                via_spill=False,
            )
        elif spill is not None:
            if self.observer is not None:
                self.observer.emit("tiny:spill_hit", cycle=now, core=core, addr=addr)
            shared_read = self._serve_via_tracker(
                core, addr, kind, spill.coh, spill.stra, line, home, now, out,
                via_spill=True,
            )
            if kind is AccessKind.WRITE:
                out.latency += self.config.llc_data_latency
                self._unspill_into_line(spill, line, bank)
        elif line is None or line.coh is None:
            coh, line = self._grant(core, addr, kind, line, home, now, out)
            self._track_in_line(line, bank, coh)
            if kind is AccessKind.IFETCH:
                # Allocation situation (ii): an instruction read to an
                # unowned block (§IV).
                self._consider_tracking(addr, line, bank, home, now)
        else:
            shared_read = self._serve_in_line(core, addr, kind, line, home, now, out)
            if kind.is_read:
                # Allocation situation (i): a read to a corrupted block.
                self._consider_tracking(addr, line, bank, home, now)

        if self.spill_enabled:
            self.spill_policies[home].record_access(
                in_sample_set=bank.is_no_spill_set(
                    (addr // bank.bank_stride) % bank.num_sets
                ),
                is_miss=out.dram_access,
                is_shared_read=shared_read,
            )
        return out

    # ------------------------------------------------------------------
    # Serving accesses whose tracking lives in the tiny directory or a
    # spilled entry: the LLC data stays valid, so shared reads take two
    # hops — the whole point of the proposal.
    # ------------------------------------------------------------------

    def _serve_via_tracker(
        self, core, addr, kind, coh, stra, line, home, now, out, via_spill
    ) -> bool:
        shared_read = kind.is_read and coh.is_shared
        if shared_read:
            stra.record_shared_read()
        else:
            stra.record_other()
        if line is not None and kind.is_read:
            line.total_reads += 1
            if shared_read:
                line.fwd_reads += 1
        if coh.is_exclusive:
            # A downgraded M copy's data goes to memory if the line is gone.
            self._forward_exclusive(core, addr, kind, coh, home, now, out, 0, line)
        elif kind is AccessKind.WRITE:
            self._write_shared(
                core, addr, coh, home, now, out, line is not None, count_forward=False
            )
        else:
            if line is None:
                # Tracked here but the LLC data line was evicted: forward
                # to a sharer.
                if self.observer is not None:
                    self.observer.emit("tiny:fwd_refill", cycle=now, core=core, addr=addr)
            elif via_spill and shared_read:
                out.spill_saved = True
            self._read_shared(core, coh, home, out, line is not None)
        if line is not None:
            line.note_holders(coh)
        return shared_read

    def _unspill_into_line(self, spill, line, bank) -> None:
        """Invalidate a spilled entry, moving its info into the data block
        (which becomes corrupted exclusive)."""
        if self.observer is not None:
            self.observer.emit("tiny:unspill", addr=spill.tag)
        bank.remove(spill)
        if line is not None:
            self._mark_tracked(line, bank, spill.coh, spill.stra)

    # ------------------------------------------------------------------
    # Tracking placement: tiny-directory allocation and spilling
    # ------------------------------------------------------------------

    def _consider_tracking(self, addr, line, bank, home, now) -> None:
        """Try to move ``line``'s tracking into the tiny directory or a
        spilled entry; on success the data block returns to a valid state
        (reconstructed along the forwarded request, §IV)."""
        coh, stra = line.coh, line.stra
        category = stra.category()
        entry, victim = self.tiny.try_allocate(addr, category, coh, stra, now)
        if entry is not None:
            if self.observer is not None:
                self.observer.emit("tiny:alloc", cycle=now, addr=addr)
            if victim is not None:
                if self.observer is not None:
                    self.observer.emit(
                        "tiny:evict", cycle=now, addr=victim.addr,
                        holders=victim.coh.holders(),
                    )
                self._rehome_victim(victim, now)
            self._detach_tracking(line, bank)
            return
        if self.observer is not None:
            self.observer.emit("tiny:decline", cycle=now, addr=addr)
        if not self.spill_enabled:
            return
        if not self.spill_policies[home].allows(category):
            return
        spill_line, svictim = bank.insert_spill(addr, coh, stra)
        if spill_line is None:
            return  # no-spill sample set
        if svictim is not None:
            if svictim is line:
                # Degenerate: spilling displaced the very block it tracks.
                bank.remove(spill_line)
                self._handle_llc_victim(svictim, now)
                return
            self._handle_llc_victim(svictim, now)
        if self.observer is not None:
            self.observer.emit("tiny:spill", cycle=now, addr=addr)
        self.stats.spills += 1
        self._detach_tracking(line, bank)

    def _detach_tracking(self, line, bank) -> None:
        """Reconstruct the data block after its tracking moved elsewhere."""
        was_corrupted = line.state is LLCState.CORRUPTED
        line.coh = None
        line.stra = None
        line.state = LLCState.DIRTY if line.underlying_dirty else LLCState.CLEAN
        line.underlying_dirty = False
        if was_corrupted:
            # The forwarded target also ships the borrowed bits to the LLC.
            self.traffic.partial(MessageClass.COHERENCE)
            bank.data_writes += 1

    def _rehome_victim(self, victim_entry, now) -> None:
        """A tiny-directory victim: transfer its state to the LLC block
        (corrupting it), spill it, or — if the data block is gone —
        back-invalidate (§IV)."""
        vaddr = victim_entry.addr
        coh, stra = victim_entry.coh, victim_entry.stra
        if coh.is_idle:
            return
        home = vaddr % self.num_banks
        bank = self.banks[home]
        vline, vspill = bank.lookup(vaddr, touch=False)
        if vspill is not None:
            raise ProtocolError(
                f"block {vaddr:#x} tracked in both tiny directory and spill"
            )
        if vline is None:
            self._back_invalidate(vaddr, coh, now, "llc:back_invalidate", to_memory=True)
            return
        if self.spill_enabled and coh.is_shared:
            if self.spill_policies[home].allows(stra.category()):
                spill_line, svictim = bank.insert_spill(vaddr, coh, stra)
                if spill_line is not None:
                    if svictim is vline:
                        bank.remove(spill_line)
                        self._back_invalidate(
                            vaddr, coh, now, "llc:back_invalidate", to_memory=True
                        )
                        self._handle_llc_victim(svictim, now)
                        return
                    if svictim is not None:
                        self._handle_llc_victim(svictim, now)
                    if self.observer is not None:
                        self.observer.emit("tiny:rehome_spill", cycle=now, addr=vaddr)
                    self.stats.spills += 1
                    return
        # Corrupt the victim's data line with the transferred state.
        if self.observer is not None:
            self.observer.emit("tiny:rehome_corrupt", cycle=now, addr=vaddr)
        self._mark_tracked(vline, bank, coh, stra)

    # ------------------------------------------------------------------
    # LLC victims: spilled entries and companions need special care
    # ------------------------------------------------------------------

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        bank = self.banks[victim.tag % self.num_banks]
        if victim.is_spill:
            # Transfer the tracking back into the companion data block.
            b_line, _ = bank.lookup(victim.tag, touch=False)
            if b_line is not None and b_line.coh is None:
                if self.observer is not None:
                    self.observer.emit("tiny:recall", cycle=now, addr=victim.tag)
                self._mark_tracked(b_line, bank, victim.coh, victim.stra)
            else:
                self._back_invalidate(
                    victim.tag, victim.coh, now, "llc:back_invalidate", to_memory=True
                )
            return
        # A data line: drop any spilled companion alongside it.
        _, spill = bank.lookup(victim.tag, touch=False)
        if spill is not None:
            bank.remove(spill)
            self._back_invalidate(
                victim.tag, spill.coh, now, "llc:back_invalidate", to_memory=True
            )
            self._flush_residency(victim)
            if victim.state is LLCState.DIRTY or victim.underlying_dirty:
                self._dram_write(victim.tag, now)
            return
        super()._handle_llc_victim(victim, now)

    # ------------------------------------------------------------------
    # Eviction notices
    # ------------------------------------------------------------------

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        entry = self.tiny.find_quiet(addr)
        bank = self.banks[addr % self.num_banks]
        if entry is not None:
            self._take_notice(addr, state, now)
            entry.coh.remove(core)
            if entry.coh.is_idle:
                self.tiny.remove(addr)
            return
        _, spill = bank.lookup(addr, touch=False)
        if spill is not None:
            self._take_notice(addr, state, now)
            spill.coh.remove(core)
            if spill.coh.is_idle:
                bank.remove(spill)
            return
        super().handle_private_eviction(core, addr, state, now)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def rebuild_tracking(self, addr, truth, now=0):
        entry = self.tiny.find_quiet(addr)
        if entry is not None:
            if truth.is_idle:
                self.tiny.remove(addr)
                return "tiny:removed"
            entry.coh.owner = truth.owner
            entry.coh.sharers = truth.sharers
            return "tiny:rewritten"
        bank = self.banks[self.bank_of(addr)]
        _, spill = bank.peek(addr)
        if spill is not None:
            if truth.is_idle:
                bank.remove(spill)
                return "spill:removed"
            spill.coh.owner = truth.owner
            spill.coh.sharers = truth.sharers
            return "spill:rewritten"
        return super().rebuild_tracking(addr, truth, now)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _tracks(self, addr: int, core: int) -> bool:
        entry = self.tiny.find_quiet(addr)
        if entry is not None and entry.coh.holds(core):
            return True
        return super()._tracks(addr, core)

    def check_invariants(self) -> None:
        super().check_invariants()
        for entry in self.tiny.iter_entries():
            for holder in entry.coh.holders():
                if not self.cores[holder].holds(entry.addr):
                    raise InvariantViolation(
                        f"tiny directory tracks core {holder} holding "
                        f"{entry.addr:#x} but its cache does not",
                        addr=entry.addr,
                        cores=(holder,),
                    )
        for bank in self.banks:
            for line in bank.iter_lines():
                if line.is_spill:
                    data_line, _ = bank.peek(line.tag)
                    if data_line is None:
                        raise InvariantViolation(
                            f"spilled entry {line.tag:#x} without its data block",
                            addr=line.tag,
                        )
                    for holder in line.coh.holders():
                        if not self.cores[holder].holds(line.tag):
                            raise InvariantViolation(
                                f"spilled entry tracks core {holder} holding "
                                f"{line.tag:#x} but its cache does not",
                                addr=line.tag,
                                cores=(holder,),
                            )
