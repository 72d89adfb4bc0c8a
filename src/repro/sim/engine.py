"""Trace-driven execution engine.

Each core executes its access stream with a private clock: an access
costs its ``gap`` (compute cycles since the previous access) plus the
memory latency the system reports. The engine always advances the core
with the smallest clock, which interleaves the streams the way a real
machine's memory system would observe them (fast cores race ahead until
their memory stalls let others catch up). Execution time is the largest
final core clock — the parallel region ends when the slowest thread
finishes, matching the paper's whole-ROI execution-time metric.

When a :class:`~repro.resilience.auditor.ProtocolAuditor` is supplied,
the engine re-verifies every protocol invariant each ``audit_interval``
accesses (and once more at end of trace), so a corruption raises an
:class:`~repro.errors.InvariantViolation` within one audit window
instead of silently poisoning the rest of the run. A
:class:`~repro.verify.oracle.ValueOracle` can likewise be threaded
through: each access is bracketed by a quiet pre-state probe and a
post-access value check, validating every observed load against the
sequentially-consistent reference memory.

A :class:`~repro.recovery.manager.RecoveryManager` turns detection into
self-healing: audit windows are routed through the manager, which
repairs a tripped invariant (probe the private caches, rebuild the
tracking entry, re-verify) and lets the trace loop *resume* from the
same point instead of aborting — the next heap pop continues exactly
where the violation was caught. Recovery costs are published to the
statistics' recovery section after finalize.

Every ``CHECK_STRIDE`` accesses the loop samples the
:mod:`repro.guard.watchdog`, so the harness timeout raises
:class:`~repro.errors.RunTimeoutError` and an armed ``RunBudget`` (wall
clock, peak RSS) raises a structured
:class:`~repro.errors.BudgetExceeded` within one stride of the limit
being crossed — in any lane, on any platform, in any worker.

The engine has two lanes over the same protocol code. Unobserved runs
take the fast lane, which inlines the private-hit short circuit into
the trace loop and batches its counters; its statistics are
bit-identical to the reference lane's (pinned by
``tests/test_fastpath.py`` across all five schemes). Anything that must
see individual accesses — an auditor, oracle, recovery manager, fault
injector, or an observer in the home's slot — selects the reference
lane, as does ``fast_path=False``.
"""

from __future__ import annotations

import heapq

from repro.errors import InvariantViolation, ProtocolError, TraceError
from repro.guard.watchdog import CHECK_STRIDE, check_watchdog
from repro.sim.stats import SimStats
from repro.sim.system import System
from repro.telemetry import fan_out
from repro.types import Access, AccessKind, PrivateState


class TraceEngine:
    """Interleaves per-core access streams over a :class:`System`.

    ``warmup_fraction`` of the accesses are executed to populate the
    caches and directories but excluded from the reported statistics,
    mirroring the paper's practice of measuring only the region of
    interest after warmup. The warmup window is clamped so that at least
    one access is always measured (guarding against zero or negative
    measurement windows on very short traces).
    """

    def __init__(
        self,
        system: System,
        streams: "list[list[Access]]",
        warmup_fraction: float = 0.4,
        auditor=None,
        oracle=None,
        recovery=None,
        observer=None,
        fast_path: bool = True,
    ) -> None:
        if len(streams) > system.config.num_cores:
            raise ValueError(
                f"{len(streams)} streams for {system.config.num_cores} cores"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.system = system
        self.streams = streams
        self.warmup_fraction = warmup_fraction
        self.auditor = auditor
        self.oracle = oracle
        self.recovery = recovery
        #: Attached to the home's observer slot when the run starts.
        self.observer = observer
        self.fast_path = fast_path

    def fast_lane_engaged(self) -> bool:
        """True when this run will execute on the fast lane.

        The fast lane only engages for *unobserved* runs: no auditor, no
        value oracle, no recovery manager, no observer (passed here or
        already in the home's slot), and no fault injector — each of
        those needs to see every individual access, which the private-hit
        short circuit skips. Observed runs silently fall back to the
        reference lane, so correctness tooling never has to know the fast
        lane exists.
        """
        return (
            self.fast_path
            and self.auditor is None
            and self.oracle is None
            and self.recovery is None
            and self.observer is None
            and self.system.home.observer is None
            and self.system.fault_injector is None
        )

    def _audit(self, system) -> None:
        """One audit window, routed through recovery when enabled."""
        observer = system.home.observer
        try:
            if self.recovery is not None:
                self.recovery.audit(self.auditor, system)
            else:
                self.auditor.audit(system)
        except InvariantViolation as err:
            if observer is not None:
                observer.emit("audit:violation", addr=err.addr, error=err.message)
            raise
        if observer is not None:
            observer.emit("audit:window", audits=self.auditor.audits)

    def run(self) -> SimStats:
        """Run every stream to completion; returns finalized stats."""
        if self.fast_lane_engaged():
            return self._run_fast()
        return self._run_reference()

    def _run_reference(self) -> SimStats:
        """The reference lane: full observer support, one
        :meth:`System.access` call per access."""
        system = self.system
        auditor = self.auditor
        oracle = self.oracle
        if auditor is not None:
            auditor.install(system)
        system.home.observer = observer = fan_out(system.home.observer, self.observer)
        total = sum(len(stream) for stream in self.streams)
        warmup_left = int(total * self.warmup_fraction)
        if total and warmup_left >= total:
            # Degenerate fraction/rounding: always measure >= 1 access.
            warmup_left = total - 1
        heap = [
            (0, core, 0)
            for core, stream in enumerate(self.streams)
            if stream
        ]
        heapq.heapify(heap)
        finish = 0
        measure_start = 0
        processed = 0
        while heap:
            clock, core, index = heapq.heappop(heap)
            acc = self.streams[core][index]
            issue_time = clock + acc.gap
            pre_state = (
                oracle.pre_state(system, acc.core, acc.addr)
                if oracle is not None
                else None
            )
            latency = system.access(acc, issue_time)
            if oracle is not None:
                oracle.observe(system, acc.core, acc.addr, acc.kind, pre_state)
            done = issue_time + latency
            if done > finish:
                finish = done
            processed += 1
            if processed % CHECK_STRIDE == 0:
                check_watchdog()
            if auditor is not None and processed % auditor.interval == 0:
                self._audit(system)
            if warmup_left and processed == warmup_left:
                system.stats.reset()
                measure_start = finish
                if observer is not None:
                    observer.emit(
                        "measure:start", cycle=finish, warmup_accesses=processed
                    )
            index += 1
            if index < len(self.streams[core]):
                heapq.heappush(heap, (done, core, index))
        if auditor is not None and (total == 0 or processed % auditor.interval):
            # Close the final (partial) audit window.
            self._audit(system)
        stats = system.finalize()
        stats.cycles = max(0, finish - measure_start)
        if self.recovery is not None:
            self.recovery.publish(stats)
        return stats

    def _run_fast(self) -> SimStats:
        """The fast lane: private hits short-circuit inside the loop.

        Mirrors :meth:`repro.sim.system.System._access` exactly, but a
        private hit costs a C-level scan of the L1 set's addresses, one
        probe of the core's L2 state dict, the two recency touches and a
        handful of local-variable updates — no ProbeResult allocation, no
        per-access stats method calls, no home dispatch. The inlined
        lookup is the literal twin of :meth:`PrivateCore.classify`
        (same recency touches, same L1 promotion, same silent E->M
        upgrade, same inclusion check); the bit-identity tests in
        ``tests/test_fastpath.py`` pin the two against each other. The
        batched counters commute with everything the miss path touches,
        so flushing them at the warmup boundary and at end of trace
        yields statistics bit-identical to the reference lane.
        """
        system = self.system
        stats = system.stats
        config = system.config
        home = system.home
        cores = system.cores
        streams = self.streams
        l1_latency = config.l1_latency
        hit_latency = config.l1_latency + config.l2_latency
        num_cores = config.num_cores
        read_kind = AccessKind.READ
        write_kind = AccessKind.WRITE
        ifetch_kind = AccessKind.IFETCH
        shared_state = PrivateState.SHARED
        exclusive_state = PrivateState.EXCLUSIVE
        modified_state = PrivateState.MODIFIED
        handle_access = home.handle_access
        handle_eviction = home.handle_private_eviction
        on_outcome = stats.on_outcome
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        # Per-core lookup tables: (il1, dl1, l2, l2 states, core).
        core_tables = [
            (core.il1, core.dl1, core.l2, core.state, core) for core in cores
        ]
        # Every core shares one geometry.
        l1_num_sets = config.l1_sets
        l1_assoc = config.l1_assoc
        l2_num_sets = config.l2_sets
        total = sum(len(stream) for stream in streams)
        warmup_left = int(total * self.warmup_fraction)
        if total and warmup_left >= total:
            warmup_left = total - 1
        heap = [
            (0, core, 0)
            for core, stream in enumerate(streams)
            if stream
        ]
        heapq.heapify(heap)
        finish = 0
        measure_start = 0
        processed = 0
        # Batched access counters (flushed into stats below).
        reads = writes = ifetches = l1_hits = l2_hits = 0
        while heap:
            clock, core_id, index = heap[0]
            stream = streams[core_id]
            acc = stream[index]
            issue_time = clock + acc.gap
            acc_core = acc.core
            if not 0 <= acc_core < num_cores:
                raise TraceError(
                    f"access from core {acc_core} outside the system"
                )
            kind = acc.kind
            is_ifetch = False
            if kind is read_kind:
                reads += 1
            elif kind is write_kind:
                writes += 1
            else:
                ifetches += 1
                is_ifetch = True
            addr = acc.addr
            il1, dl1, l2, l2_state, core = core_tables[acc_core]
            # -- inlined PrivateCore.classify ---------------------------
            l1 = il1 if is_ifetch else dl1
            lines = l1.get(addr % l1_num_sets, ())
            in_l1 = addr in lines
            state = l2_state.get(addr)
            code = 0
            if state is None:
                if in_l1:
                    raise ProtocolError(
                        f"core {acc_core}: block {addr:#x} in L1 but not L2"
                    )
            else:
                if in_l1 and lines[-1] != addr:
                    lines.remove(addr)
                    lines.append(addr)
                l2_lines = l2[addr % l2_num_sets]
                if l2_lines[-1] != addr:
                    l2_lines.remove(addr)
                    l2_lines.append(addr)
                if kind is write_kind and state is shared_state:
                    code = 3 if in_l1 else 4
                else:
                    if kind is write_kind and state is exclusive_state:
                        l2_state[addr] = modified_state
                    if in_l1:
                        code = 1
                    else:
                        # L2 hit: promote into the L1.
                        if not lines:
                            l1[addr % l1_num_sets] = [addr]
                        else:
                            if len(lines) >= l1_assoc:
                                del lines[0]
                            lines.append(addr)
                        code = 2
            # -- end inlined classify -----------------------------------
            if code == 1:  # L1 hit
                l1_hits += 1
                latency = l1_latency
            elif code == 2:  # L2 hit (promoted into the L1)
                l2_hits += 1
                latency = hit_latency
            else:
                upgrade = code >= 3
                out = handle_access(acc_core, addr, kind, issue_time, upgrade)
                on_outcome(kind, out)
                if upgrade:
                    core.complete_upgrade(addr)
                    latency = l1_latency + out.latency
                else:
                    for notice in core.fill(addr, kind, out.fill_state):
                        handle_eviction(
                            acc_core, notice.addr, notice.state, issue_time
                        )
                    latency = hit_latency + out.latency
            done = issue_time + latency
            if done > finish:
                finish = done
            processed += 1
            if processed % CHECK_STRIDE == 0:
                check_watchdog()
            if warmup_left and processed == warmup_left:
                # stats.reset() zeroes every counter, so the batch is
                # dropped rather than flushed.
                reads = writes = ifetches = 0
                l1_hits = l2_hits = 0
                stats.reset()
                measure_start = finish
            index += 1
            if index < len(stream):
                # Entries are unique, so replacing the head in place pops
                # in the same order as a pop followed by a push.
                heapreplace(heap, (done, core_id, index))
            else:
                heappop(heap)
        stats.accesses += reads + writes + ifetches
        stats.reads += reads
        stats.writes += writes
        stats.ifetches += ifetches
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        system.access_index += processed
        final = system.finalize()
        final.cycles = max(0, finish - measure_start)
        return final


def run_trace(
    system: System,
    streams: "list[list[Access]]",
    warmup_fraction: float = 0.4,
    auditor=None,
    oracle=None,
    recovery=None,
    observer=None,
    fast_path: bool = True,
) -> SimStats:
    """Convenience wrapper: run ``streams`` on ``system`` and return stats."""
    return TraceEngine(
        system,
        streams,
        warmup_fraction,
        auditor=auditor,
        oracle=oracle,
        recovery=recovery,
        observer=observer,
        fast_path=fast_path,
    ).run()
