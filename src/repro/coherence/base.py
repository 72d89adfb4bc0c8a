"""Common machinery for home LLC-bank controllers.

A *home controller* implements the home-node side of the MESI protocol
for one coherence-tracking scheme. The :class:`System` routes every
private-cache miss, upgrade, and eviction notice to the controller, which
manipulates the LLC banks, the tracking structures, and the private
caches of remote cores, while accounting latency and traffic.

The simulation is functionally synchronous: a transaction completes
before the next one starts, so the transient/busy states of the real
protocol (and their NACK/retry traffic) are not modelled. The paper
reports that effect as a ~1% processor-traffic increase; everything else
the figures measure — hop counts, invalidations, miss rates, message
volumes — is captured.

Every home-side MESI transition — granting an unowned block, forwarding
to an exclusive owner, reading and writing a shared block, the S->M
upgrade, back-invalidating an evicted tracking record, and depositing
retrieved dirty data — has exactly one implementation here, in
:class:`BaseHome`. A scheme controller supplies where a block's
tracking record lives (lookup, install, drop), where its data goes, and
its own trace events; what else differs between schemes (the §IV-C
decode cycles, whether the LLC data line is valid, the in-LLC
forwarder's data-carrying ack) is an argument of the shared transition.
"""

from __future__ import annotations

from repro.cache.llc import LLCBank, LLCLine
from repro.cache.private_cache import PrivateCore
from repro.coherence.info import CohInfo
from repro.coherence.transaction import AccessOutcome
from repro.errors import InvariantViolation, ProtocolError, RecoveryError
from repro.interconnect.mesh import Mesh2D
from repro.interconnect.traffic import MessageClass, TrafficMeter
from repro.memory.dram import DramModel
from repro.core.stra import stra_category
from repro.sim.config import SystemConfig
from repro.types import AccessKind, LLCState, PrivateState

#: ``inval:<prior>->I`` kind per invalidated private state.
_INVAL_KIND = {state: f"inval:{state.value}->I" for state in PrivateState}

#: Default ``line`` of :meth:`BaseHome._deposit_dirty`: probe the home
#: bank for the block's data line.
_PROBE = object()


class BaseHome:
    """Shared state and helpers for all home controllers."""

    __slots__ = (
        "config",
        "mesh",
        "dram",
        "cores",
        "stats",
        "traffic",
        "observer",
        "num_banks",
        "banks",
        "_hit_latency_data",
        "_hit_latency_tag",
        "_latency",
        "_tiles",
        "_memory_latency",
    )

    def __init__(
        self,
        config: SystemConfig,
        mesh: Mesh2D,
        dram: DramModel,
        cores: "list[PrivateCore]",
        stats,
    ) -> None:
        self.config = config
        self.mesh = mesh
        self.dram = dram
        self.cores = cores
        self.stats = stats
        self.traffic: TrafficMeter = stats.traffic
        #: Where every protocol transition is reported (one row of
        #: repro.telemetry.TRANSITIONS per kind): None unless a tracer,
        #: the auditor's flight recorder or a coverage map is attached.
        self.observer = None
        self.num_banks = config.num_banks
        # Precomputed LLC hit latencies; these feed every _two_hop /
        # _three_hop call on the transaction critical path.
        self._hit_latency_tag = config.llc_tag_latency
        self._hit_latency_data = config.llc_tag_latency + config.llc_data_latency
        # The mesh's flat tables, bound once: tile-to-tile latency indexed
        # [src * tiles + dst] and tile-to-nearest-controller latency. The
        # transaction paths index them instead of calling Mesh2D.
        self._latency = mesh._latency_table
        self._tiles = mesh.num_tiles
        self._memory_latency = mesh._mc_latency
        self.banks = [
            LLCBank(
                config.llc_sets_per_bank,
                config.llc_assoc,
                bank_stride=self.num_banks,
                bank_index=index,
            )
            for index in range(self.num_banks)
        ]

    # ------------------------------------------------------------------
    # Geometry and latency helpers
    # ------------------------------------------------------------------

    def bank_of(self, addr: int) -> int:
        """Home bank (== home tile) of block ``addr``; the transaction
        paths inline ``addr % self.num_banks``."""
        return addr % self.num_banks

    def _two_hop(self, core: int, home: int, with_data: bool = True) -> int:
        """Requester -> home -> requester latency, including LLC lookup."""
        return 2 * self._latency[core * self._tiles + home] + (
            self._hit_latency_data if with_data else self._hit_latency_tag
        )

    def _three_hop(
        self, core: int, home: int, target: int, llc_extra: int = 0
    ) -> int:
        """Requester -> home -> target -> requester latency.

        ``llc_extra`` adds serialization beyond the tag lookup (e.g. the
        data read + decode of a corrupted block, Section IV-C).
        """
        latency = self._latency
        tiles = self._tiles
        return (
            latency[core * tiles + home]
            + self._hit_latency_tag
            + llc_extra
            + latency[home * tiles + target]
            + self.config.l2_latency
            + latency[target * tiles + core]
        )

    def _invalidation_latency(self, home: int, holders: "list[int]", requester: int) -> int:
        """Slowest home -> holder -> requester invalidation/ack path."""
        latency = self._latency
        tiles = self._tiles
        slowest = 0
        for holder in holders:
            path = latency[home * tiles + holder] + latency[holder * tiles + requester]
            if path > slowest:
                slowest = path
        return slowest

    def _closest_sharer(self, coh: CohInfo, home: int) -> int:
        """Elect the sharer nearest to the home tile to forward data
        (latency is hop count times a constant, so nearest == fastest)."""
        latency = self._latency
        row = home * self._tiles
        return min(coh.sharer_list(), key=lambda core: latency[row + core])

    # ------------------------------------------------------------------
    # DRAM
    # ------------------------------------------------------------------

    def _dram_fetch(self, addr: int, now: int, out: AccessOutcome) -> int:
        """Fetch a block from memory; returns the added latency."""
        latency = (
            2 * self._memory_latency[addr % self.num_banks]
            + self.dram.access(addr, now, is_write=False)
        )
        out.dram_access = True
        out.llc_data_hit = False
        return latency

    def _dram_write(self, addr: int, now: int) -> None:
        """Write a block back to memory (off the critical path)."""
        self.dram.access(addr, now, is_write=True)

    # ------------------------------------------------------------------
    # LLC data placement
    # ------------------------------------------------------------------

    def _fill_llc(self, addr: int, now: int, state: LLCState = LLCState.CLEAN) -> LLCLine:
        """Allocate the block's LLC data line, handling the victim."""
        line, victim = self.banks[addr % self.num_banks].insert_block(addr, state)
        if victim is not None:
            self._handle_llc_victim(victim, now)
        return line

    def _handle_llc_victim(self, victim: LLCLine, now: int) -> None:
        """An evicted LLC line: flush its residency, write back dirty data."""
        self._flush_residency(victim)
        if victim.state is LLCState.DIRTY:
            self._dram_write(victim.tag, now)

    def _deposit_dirty(self, addr: int, now: int, line=_PROBE, allocate: bool = False) -> None:
        """Place dirty data retrieved from a private copy at the home.

        The data goes into the block's LLC data line — its intact data
        portion when the line is corrupted — else into a freshly
        allocated dirty line when ``allocate``, else into memory.
        ``line`` is the data line when the caller already holds it
        (None: absent); by default the home bank is probed for it.
        """
        bank = self.banks[addr % self.num_banks]
        if line is _PROBE:
            line, _ = bank.lookup(addr, touch=False)
        if line is None:
            if allocate:
                self._fill_llc(addr, now, LLCState.DIRTY)
            else:
                self._dram_write(addr, now)
        else:
            if line.state is LLCState.CORRUPTED:
                # The borrowed bits stay authoritative for tracking.
                line.underlying_dirty = True
            else:
                line.state = LLCState.DIRTY
            bank.data_writes += 1

    def _take_notice(self, addr: int, state: PrivateState, now: int, allocate: bool = False) -> None:
        """Account a private eviction notice and deposit an M copy's data
        (see :meth:`_deposit_dirty` for ``allocate``)."""
        if state is PrivateState.MODIFIED:
            self.traffic.data(MessageClass.WRITEBACK)
            self._deposit_dirty(addr, now, allocate=allocate)
        else:
            self.traffic.control(MessageClass.WRITEBACK)
        self.traffic.control(MessageClass.WRITEBACK)  # acknowledgement

    # ------------------------------------------------------------------
    # MESI home transitions, shared by every scheme
    # ------------------------------------------------------------------

    def _invalidate_holders(
        self,
        addr: int,
        coh: CohInfo,
        now: int,
        except_core: "int | None" = None,
        forwarder: "int | None" = None,
    ) -> bool:
        """Invalidate every private copy recorded in ``coh`` but
        ``except_core``'s, then clear the record.

        Traffic: one invalidation and one acknowledgement per holder; the
        ack carries the data of an M copy, and that of ``forwarder``,
        which forwards the block to the requester. Returns True when an
        M copy was found; the caller places its data.
        """
        had_dirty = False
        for holder in coh.holders():
            if holder == except_core:
                continue
            prior = self.cores[holder].invalidate(addr)
            if prior is PrivateState.INVALID:
                # A recorded holder without a copy: the tracking entry is
                # stale (lost notice, dropped copy, phantom sharer). Flag
                # it at the access that trips over it instead of silently
                # cleansing the record.
                raise InvariantViolation(
                    f"invalidation sent to core {holder} for block "
                    f"{addr:#x} it does not hold (stale tracking entry)",
                    addr=addr,
                    cores=(holder,),
                )
            if self.observer is not None:
                self.observer.emit(_INVAL_KIND[prior], cycle=now, core=holder, addr=addr)
            self.traffic.control(MessageClass.COHERENCE)  # invalidation
            if holder == forwarder:
                self.traffic.data(MessageClass.PROCESSOR)  # ack + data to requester
            elif prior is PrivateState.MODIFIED:
                had_dirty = True
                self.traffic.data(MessageClass.COHERENCE)  # ack + data
            else:
                self.traffic.control(MessageClass.COHERENCE)  # ack
            self.stats.invalidations += 1
        coh.clear()
        return had_dirty

    def _grant(self, core, addr, kind, line, home, now, out) -> "tuple[CohInfo, LLCLine]":
        """Grant a block no private cache holds, in 2 hops: E to a read,
        M to a write, S to an instruction fetch. An absent block is
        fetched from memory into the LLC. Returns the new tracking record
        and the block's LLC line; the caller starts tracking it."""
        latency = self._two_hop(core, home)
        if line is None:
            latency += self._dram_fetch(addr, now, out)
            line = self._fill_llc(addr, now)
        if kind.is_read:
            line.total_reads += 1
        coh = CohInfo()
        if kind is AccessKind.WRITE:
            coh.set_owner(core)
            out.fill_state = PrivateState.MODIFIED
        elif kind is AccessKind.IFETCH:
            coh.add_sharer(core)
            out.fill_state = PrivateState.SHARED
        else:
            coh.set_owner(core)
            out.fill_state = PrivateState.EXCLUSIVE
        line.note_holders(coh)
        self.traffic.data(MessageClass.PROCESSOR)  # the data response
        out.latency = latency
        return coh, line

    def _forward_exclusive(
        self, core, addr, kind, coh, home, now, out, llc_extra=0, line=_PROBE, allocate=False
    ) -> None:
        """Forward a request to the block's exclusive owner (3 hops).

        A write takes the block from the owner; a read downgrades the
        owner to a sharer, and a downgraded M copy deposits its data at
        the home (:meth:`_deposit_dirty` with ``line`` and ``allocate``).
        ``llc_extra`` is the corrupted-state decode of §IV-C.
        """
        owner = coh.owner
        if owner == core:
            raise ProtocolError(
                f"core {core} missed on block {addr:#x} it supposedly owns"
            )
        out.hops = 3
        out.latency = self._three_hop(core, home, owner, llc_extra)
        self.traffic.control(MessageClass.COHERENCE)  # forwarded request
        self.traffic.data(MessageClass.PROCESSOR)  # owner -> requester data
        self.traffic.control(MessageClass.COHERENCE)  # busy-clear to home
        if kind is AccessKind.WRITE:
            prior = self.cores[owner].invalidate(addr)
            if prior is PrivateState.INVALID:
                raise ProtocolError(f"stale owner for block {addr:#x}")
            if self.observer is not None:
                self.observer.emit(_INVAL_KIND[prior], cycle=now, core=owner, addr=addr)
            self.stats.invalidations += 1
            coh.set_owner(core)
            out.fill_state = PrivateState.MODIFIED
        else:
            if self.cores[owner].downgrade(addr) is PrivateState.MODIFIED:
                self.traffic.data(MessageClass.WRITEBACK)
                self._deposit_dirty(addr, now, line, allocate)
            coh.add_sharer(core)
            out.fill_state = PrivateState.SHARED

    def _read_shared(self, core, coh, home, out, line_valid, llc_extra=0) -> None:
        """Serve a read to a block in S: the LLC supplies the data (2
        hops) or, when its data line is not valid, the sharer closest to
        the home forwards it (3 hops)."""
        if line_valid:
            out.latency = self._two_hop(core, home)
            self.traffic.data(MessageClass.PROCESSOR)
        else:
            out.hops = 3
            out.latency = self._three_hop(
                core, home, self._closest_sharer(coh, home), llc_extra
            )
            self.traffic.control(MessageClass.COHERENCE)  # forwarded request
            self.traffic.data(MessageClass.PROCESSOR)  # sharer -> requester data
            self.traffic.control(MessageClass.COHERENCE)  # busy-clear to home
        coh.add_sharer(core)
        out.fill_state = PrivateState.SHARED

    def _write_shared(
        self, core, addr, coh, home, now, out, line_valid,
        llc_extra=0, ack_carries_data=False, count_forward=True,
    ) -> None:
        """Serve a write to a block in S: invalidate every sharer, grant M.

        The LLC supplies the data when its line is valid (2 hops);
        otherwise the sharer closest to the home forwards it (3 hops),
        after a forward request of its own or, with
        ``ack_carries_data``, in the ack to its invalidation.
        ``count_forward=False`` keeps the tiny directory's accounting of
        a forwarded write: three-hop latency, counted as a two-hop LLC
        response. The write also waits for the slowest invalidation ack.
        """
        inval_path = self._invalidation_latency(home, coh.sharer_list(), core)
        ack_forwarder = None
        if line_valid:
            base = self._two_hop(core, home)
        else:
            forwarder = self._closest_sharer(coh, home)
            base = self._three_hop(core, home, forwarder, llc_extra)
            if ack_carries_data:
                ack_forwarder = forwarder
                out.hops = 3
            elif count_forward:
                out.hops = 3
                self.traffic.control(MessageClass.COHERENCE)  # forward request
        if ack_forwarder is None:
            self.traffic.data(MessageClass.PROCESSOR)  # data to the requester
        self._invalidate_holders(addr, coh, now, forwarder=ack_forwarder)
        coh.set_owner(core)
        out.fill_state = PrivateState.MODIFIED
        out.latency = max(
            base,
            self._latency[core * self._tiles + home]
            + self.config.llc_tag_latency
            + llc_extra
            + inval_path,
        )

    def _upgrade(self, core, addr, coh, home, now, out, llc_extra=0) -> None:
        """Serve an S->M upgrade: invalidate the other sharers and grant
        ownership without data (2 hops, 3 with invalidations)."""
        if coh is None or not coh.holds(core):
            raise ProtocolError(
                f"core {core} upgrades block {addr:#x} the tracker does not "
                f"record it sharing"
            )
        out.is_upgrade = True
        holders = [h for h in coh.sharer_list() if h != core]
        inval_path = self._invalidation_latency(home, holders, core)
        self._invalidate_holders(addr, coh, now, except_core=core)
        coh.set_owner(core)
        self.traffic.control(MessageClass.PROCESSOR)  # grant
        latency = self._latency
        tiles = self._tiles
        request_leg = latency[core * tiles + home] + self.config.llc_tag_latency + llc_extra
        out.latency = request_leg + max(latency[home * tiles + core], inval_path)
        out.hops = 2 if not holders else 3

    def _back_invalidate(self, addr, coh, now, event: str, to_memory: bool = False) -> bool:
        """Invalidate every private copy of a block whose tracking record
        was evicted, reporting ``event`` (the scheme's own kind).

        Dirty data is deposited at the home, or written straight to
        memory when ``to_memory`` (the block's LLC line is gone). Returns
        True when a holder had an M copy.
        """
        holders = coh.holders()
        if self.observer is not None:
            self.observer.emit(event, cycle=now, addr=addr, holders=holders)
        self.stats.back_invalidations += len(holders)
        had_dirty = self._invalidate_holders(addr, coh, now)
        if had_dirty:
            if to_memory:
                self._dram_write(addr, now)
            else:
                self._deposit_dirty(addr, now)
        return had_dirty

    # ------------------------------------------------------------------
    # Residency bookkeeping
    # ------------------------------------------------------------------

    def _flush_residency(self, line: LLCLine) -> None:
        if not line.is_spill:
            if self.observer is not None and line.fwd_reads > 0:
                ratio = (
                    line.fwd_reads / line.total_reads
                    if line.total_reads
                    else 1.0
                )
                self.observer.emit(
                    "stra:classify",
                    addr=line.tag,
                    category=stra_category(ratio),
                    fwd_reads=line.fwd_reads,
                )
            self.stats.flush_residency(line)

    def finalize(self) -> None:
        """Flush residency statistics of still-resident LLC lines."""
        for bank in self.banks:
            for line in bank.iter_lines():
                self._flush_residency(line)

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------

    def probe_truth(self, addr: int) -> CohInfo:
        """Reconstruct the ground-truth tracking record for ``addr``.

        Quiet-probes every private hierarchy (no replacement state is
        touched, no statistics are charged — the RecoveryManager charges
        the probe's traffic and latency to the recovery section) and
        rebuilds the sharer vector / exclusive owner exactly as scrubbing
        hardware would. Raises :class:`~repro.errors.RecoveryError` when
        the caches themselves are contradictory (two exclusive copies, or
        an exclusive copy coexisting with sharers) — that state cannot be
        expressed in a tracking record and is not repairable.
        """
        truth = CohInfo()
        exclusive: "list[int]" = []
        for core in self.cores:
            state = core.state_of(addr)
            if state is PrivateState.INVALID:
                continue
            if state.is_exclusive:
                exclusive.append(core.core_id)
            else:
                truth.sharers |= 1 << core.core_id
        if exclusive:
            if len(exclusive) > 1 or truth.sharers:
                raise RecoveryError(
                    f"private caches disagree on block {addr:#x}: exclusive "
                    f"in cores {exclusive} alongside sharer mask "
                    f"{truth.sharers:#x}"
                )
            truth.owner = exclusive[0]
        return truth

    def rebuild_tracking(self, addr: int, truth: CohInfo, now: int = 0) -> str:
        """Overwrite the tracking state for ``addr`` with ``truth``.

        Scheme controllers implement this as the repair half of the
        detect->diagnose->repair cycle: whatever structure (directory
        entry, tiny entry, spilled entry, corrupted LLC line, region
        entry) currently claims ``addr`` is rewritten in place or
        reinstalled so it matches the probed ground truth. Returns a
        short label describing the action taken, for the repair log.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Interface implemented by scheme controllers
    # ------------------------------------------------------------------

    def handle_access(
        self,
        core: int,
        addr: int,
        kind: AccessKind,
        now: int,
        upgrade: bool = False,
    ) -> AccessOutcome:
        """Serve a private miss (or S->M upgrade) for ``core``."""
        raise NotImplementedError

    def handle_private_eviction(
        self, core: int, addr: int, state: PrivateState, now: int
    ) -> None:
        """Process an eviction notice from ``core``'s private hierarchy."""
        raise NotImplementedError

    def _tracks(self, addr: int, core: int) -> bool:
        """True when some tracking structure records ``core`` holding
        ``addr`` (quietly: no replacement state or counter is touched)."""
        raise NotImplementedError

    def check_invariants(self) -> None:
        """Tracking and private caches must mirror each other.

        Scheme controllers first check that every record they hold
        names real copies (tracking ⊆ caches); this checks single-writer
        and caches ⊆ tracking.
        """
        self._check_single_writer()
        self._check_copies_tracked()

    def _check_single_writer(self) -> None:
        """At most one M/E copy of a block, and no other copy beside it."""
        exclusive_holder: "dict[int, int]" = {}
        holders: "dict[int, list[int]]" = {}
        for core in self.cores:
            for addr, state in core.resident_blocks():
                holders.setdefault(addr, []).append(core.core_id)
                if state.is_exclusive:
                    if addr in exclusive_holder:
                        raise InvariantViolation(
                            f"block {addr:#x} exclusively held by both "
                            f"{exclusive_holder[addr]} and {core.core_id}",
                            addr=addr,
                            cores=(exclusive_holder[addr], core.core_id),
                        )
                    exclusive_holder[addr] = core.core_id
        for addr, holder in exclusive_holder.items():
            if len(holders[addr]) > 1:
                raise InvariantViolation(
                    f"block {addr:#x} held exclusively by {holder} while "
                    f"also cached by {holders[addr]}",
                    addr=addr,
                    cores=tuple(holders[addr]),
                )

    def _check_copies_tracked(self) -> None:
        """Every privately cached block is recorded by :meth:`_tracks`."""
        for core in self.cores:
            for addr, _ in core.resident_blocks():
                if not self._tracks(addr, core.core_id):
                    raise InvariantViolation(
                        f"core {core.core_id} caches {addr:#x} but no "
                        f"tracking structure records it",
                        addr=addr,
                        cores=(core.core_id,),
                    )
