"""Unit tests for the per-core private hierarchy."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.private_cache import EvictionNotice, PrivateCore
from repro.errors import ConfigError, ProtocolError
from repro.types import AccessKind, PrivateState


def make_core(l1_sets=2, l1_assoc=2, l2_sets=4, l2_assoc=2) -> PrivateCore:
    return PrivateCore(0, l1_sets, l1_assoc, l2_sets, l2_assoc)


class TestProbe:
    def test_miss_when_empty(self):
        core = make_core()
        assert core.probe(0x10, AccessKind.READ).level == "miss"

    def test_l1_hit_after_fill(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert core.probe(0x10, AccessKind.READ).level == "l1"

    def test_ifetch_and_data_use_separate_l1s(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        # The block is in dL1 + L2; an ifetch probe hits only at L2.
        assert core.probe(0x10, AccessKind.IFETCH).level == "l2"

    def test_l2_hit_promotes_to_l1(self):
        core = make_core()
        core.fill(0x10, AccessKind.IFETCH, PrivateState.SHARED)
        assert core.probe(0x10, AccessKind.READ).level == "l2"
        assert core.probe(0x10, AccessKind.READ).level == "l1"

    def test_write_to_shared_needs_upgrade(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        probe = core.probe(0x10, AccessKind.WRITE)
        assert probe.needs_upgrade and not probe.is_hit

    def test_write_to_exclusive_silently_modifies(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        probe = core.probe(0x10, AccessKind.WRITE)
        assert probe.is_hit
        assert core.state_of(0x10) is PrivateState.MODIFIED

    def test_write_to_modified_hits(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.probe(0x10, AccessKind.WRITE).is_hit


class TestFillAndEvict:
    def test_fill_invalid_state_rejected(self):
        with pytest.raises(ProtocolError):
            make_core().fill(0x10, AccessKind.READ, PrivateState.INVALID)

    def test_l2_eviction_produces_notice(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(0, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        notices = core.fill(2, AccessKind.READ, PrivateState.EXCLUSIVE)
        assert len(notices) == 1
        assert notices[0].addr == 0
        assert notices[0].state is PrivateState.EXCLUSIVE

    def test_eviction_preserves_inclusion(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(0, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(1, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(2, AccessKind.READ, PrivateState.EXCLUSIVE)
        # Block 0 left the L2, so it must not linger in any L1.
        assert core.probe(0, AccessKind.READ).level == "miss"

    def test_no_notice_when_way_free(self):
        core = make_core()
        assert core.fill(0x10, AccessKind.READ, PrivateState.SHARED) == []


class TestStateChanges:
    def test_invalidate_returns_prior_state(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.invalidate(0x10) is PrivateState.MODIFIED
        assert not core.holds(0x10)

    def test_invalidate_absent_returns_invalid(self):
        assert make_core().invalidate(0x99) is PrivateState.INVALID

    def test_downgrade_m_to_s(self):
        core = make_core()
        core.fill(0x10, AccessKind.WRITE, PrivateState.MODIFIED)
        assert core.downgrade(0x10) is PrivateState.MODIFIED
        assert core.state_of(0x10) is PrivateState.SHARED

    def test_downgrade_requires_exclusive(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        with pytest.raises(ProtocolError):
            core.downgrade(0x10)

    def test_complete_upgrade(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.SHARED)
        core.complete_upgrade(0x10)
        assert core.state_of(0x10) is PrivateState.MODIFIED

    def test_complete_upgrade_requires_shared(self):
        core = make_core()
        core.fill(0x10, AccessKind.READ, PrivateState.EXCLUSIVE)
        with pytest.raises(ProtocolError):
            core.complete_upgrade(0x10)

    def test_resident_blocks_enumeration(self):
        core = make_core()
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.WRITE, PrivateState.MODIFIED)
        resident = dict(core.resident_blocks())
        assert resident == {1: PrivateState.SHARED, 2: PrivateState.MODIFIED}


class TestGeometry:
    @pytest.mark.parametrize(
        "geometry", [(0, 2, 4, 2), (2, 0, 4, 2), (2, 2, 0, 2), (2, 2, 4, 0)]
    )
    def test_zero_sets_or_ways_rejected(self, geometry):
        with pytest.raises(ConfigError):
            PrivateCore(0, *geometry)


class TestLRU:
    """The L2 (and each L1) replaces its least recently used block."""

    def test_evicts_least_recently_used(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        assert [n.addr for n in core.fill(3, AccessKind.READ, PrivateState.SHARED)] == [1]

    def test_lookup_refreshes_recency(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.SHARED)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        assert core.classify(1, AccessKind.READ) == PrivateCore.L1_HIT
        assert [n.addr for n in core.fill(3, AccessKind.READ, PrivateState.SHARED)] == [2]

    def test_untouched_lookup_preserves_order(self):
        core = make_core(l2_sets=1, l2_assoc=2)
        core.fill(1, AccessKind.READ, PrivateState.EXCLUSIVE)
        core.fill(2, AccessKind.READ, PrivateState.SHARED)
        # Introspection and state changes do not touch recency.
        assert core.state_of(1) is PrivateState.EXCLUSIVE and core.holds(1)
        core.downgrade(1)
        assert [n.addr for n in core.fill(3, AccessKind.READ, PrivateState.SHARED)] == [1]

    def test_no_eviction_with_free_ways(self):
        core = make_core(l2_sets=1, l2_assoc=4)
        assert core.fill(1, AccessKind.READ, PrivateState.SHARED) == []
        assert core.fill(2, AccessKind.READ, PrivateState.SHARED) == []

    def test_l1_evicts_least_recently_used(self):
        core = make_core(l1_sets=1, l1_assoc=2, l2_sets=4, l2_assoc=2)
        for addr in (0, 1, 2):
            core.fill(addr, AccessKind.READ, PrivateState.SHARED)
        # Block 0 left the L1 (still in the L2); 1 and 2 stayed.
        assert core.classify(1, AccessKind.READ) == PrivateCore.L1_HIT
        assert core.classify(0, AccessKind.READ) == PrivateCore.L2_HIT
        assert core.classify(2, AccessKind.READ) == PrivateCore.L2_HIT

    def test_resident_blocks_in_set_first_use_then_lru_order(self):
        core = make_core(l2_sets=2, l2_assoc=2)
        for addr in (3, 2, 1):
            core.fill(addr, AccessKind.READ, PrivateState.SHARED)
        core.classify(3, AccessKind.READ)
        assert [addr for addr, _ in core.resident_blocks()] == [1, 3, 2]


KINDS = (AccessKind.READ, AccessKind.WRITE, AccessKind.IFETCH)
STATES = (
    PrivateState.MODIFIED,
    PrivateState.EXCLUSIVE,
    PrivateState.SHARED,
    PrivateState.INVALID,
)


class LRUModel:
    """An explicit reference model: one OrderedDict per set (LRU first),
    the L2 ones mapping block address to MESI state."""

    def __init__(self, l1_sets, l1_assoc, l2_sets, l2_assoc):
        self.l1_assoc = l1_assoc
        self.l2_assoc = l2_assoc
        self.l1 = {
            kind: [OrderedDict() for _ in range(l1_sets)]
            for kind in (AccessKind.IFETCH, AccessKind.READ)
        }
        self.l2 = [OrderedDict() for _ in range(l2_sets)]
        self.set_order = []

    def _l1_set(self, kind, addr):
        sets = self.l1[AccessKind.IFETCH if kind is AccessKind.IFETCH else AccessKind.READ]
        return sets[addr % len(sets)]

    def _l2_set(self, addr):
        return self.l2[addr % len(self.l2)]

    def _l1_fill(self, kind, addr):
        lines = self._l1_set(kind, addr)
        if len(lines) >= self.l1_assoc:
            lines.popitem(last=False)
        lines[addr] = None

    def _drop_from_l1s(self, addr):
        for kind in (AccessKind.IFETCH, AccessKind.READ):
            self._l1_set(kind, addr).pop(addr, None)

    def classify(self, addr, kind):
        l1 = self._l1_set(kind, addr)
        l2 = self._l2_set(addr)
        if addr not in l2:
            if addr in l1:
                raise ProtocolError("in L1 but not L2")
            return PrivateCore.MISS
        in_l1 = addr in l1
        if in_l1:
            l1.move_to_end(addr)
        l2.move_to_end(addr)
        if kind is AccessKind.WRITE:
            if l2[addr] is PrivateState.SHARED:
                return PrivateCore.UPGRADE_L1 if in_l1 else PrivateCore.UPGRADE_L2
            if l2[addr] is PrivateState.EXCLUSIVE:
                l2[addr] = PrivateState.MODIFIED
        if in_l1:
            return PrivateCore.L1_HIT
        self._l1_fill(kind, addr)
        return PrivateCore.L2_HIT

    def fill(self, addr, kind, state):
        if state is PrivateState.INVALID:
            raise ProtocolError("fill in I")
        l2 = self._l2_set(addr)
        index = addr % len(self.l2)
        if index not in self.set_order:
            self.set_order.append(index)
        notices = []
        if len(l2) >= self.l2_assoc:
            victim, victim_state = l2.popitem(last=False)
            self._drop_from_l1s(victim)
            notices.append(EvictionNotice(victim, victim_state))
        l2[addr] = state
        self._l1_fill(kind, addr)
        return notices

    def complete_upgrade(self, addr):
        l2 = self._l2_set(addr)
        if l2.get(addr) is not PrivateState.SHARED:
            raise ProtocolError("upgrade not in S")
        l2[addr] = PrivateState.MODIFIED

    def invalidate(self, addr):
        prior = self._l2_set(addr).pop(addr, PrivateState.INVALID)
        self._drop_from_l1s(addr)
        return prior

    def downgrade(self, addr):
        l2 = self._l2_set(addr)
        prior = l2.get(addr)
        if prior is None or not prior.is_exclusive:
            raise ProtocolError("downgrade not exclusive")
        l2[addr] = PrivateState.SHARED
        return prior

    def l1_blocks(self, kind):
        """Each non-empty L1 set's blocks, LRU first."""
        sets = self.l1[kind]
        return {index: list(lines) for index, lines in enumerate(sets) if lines}

    def resident_blocks(self):
        return [
            (addr, state)
            for index in self.set_order
            for addr, state in self.l2[index].items()
        ]


def outcome(call):
    """A call's result, or the marker of the ProtocolError it raised."""
    try:
        return call()
    except ProtocolError:
        return ProtocolError


operation = st.tuples(
    st.sampled_from(
        ["classify", "classify", "classify", "fill", "fill",
         "invalidate", "downgrade", "complete_upgrade"]
    ),
    st.integers(min_value=0, max_value=63).map(lambda a: a % 12 if a < 56 else a),
    st.sampled_from(KINDS),
    st.sampled_from(STATES),
)


class TestAgainstModel:
    @settings(max_examples=300, deadline=None)
    @given(
        geometry=st.tuples(
            st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), st.just(2)
        ),
        ops=st.lists(operation, max_size=60),
    )
    def test_matches_ordered_dict_lru_model(self, geometry, ops):
        core = PrivateCore(0, *geometry)
        model = LRUModel(*geometry)
        for name, addr, kind, state in ops:
            if name == "fill":
                if core.holds(addr):
                    # A fill is only issued on a miss.
                    name = "invalidate"
                args = (addr, kind, state) if name == "fill" else (addr,)
            elif name == "classify":
                args = (addr, kind)
            else:
                args = (addr,)
            got = outcome(lambda: getattr(core, name)(*args))
            want = outcome(lambda: getattr(model, name)(*args))
            assert got == want, (name, args)
            for l1, kind in ((core.il1, AccessKind.IFETCH), (core.dl1, AccessKind.READ)):
                assert {i: lines for i, lines in l1.items() if lines} == model.l1_blocks(kind)
            resident = model.resident_blocks()
            assert list(core.resident_blocks()) == resident
            states = dict(resident)
            for block in range(64):
                assert core.state_of(block) is states.get(block, PrivateState.INVALID)
