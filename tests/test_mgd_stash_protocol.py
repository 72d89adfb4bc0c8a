"""Protocol tests for the MgD and Stash home controllers (Fig. 22)."""

import pytest

from conftest import Driver, make_system
from repro.directory.mgd import BLOCKS_PER_REGION
from repro.sim.config import MgdSpec, StashSpec
from repro.types import PrivateState


class TestMgd:
    @pytest.fixture
    def d(self) -> Driver:
        return Driver(make_system(MgdSpec(ratio=1 / 4)))

    def test_private_blocks_tracked_at_region_grain(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(4):
            d.read(0, region_base + offset)
        directory = d.system.home.directory
        entry = directory.lookup_region(region_base, touch=False)
        assert entry is not None and entry.owner == 0
        assert bin(entry.presence).count("1") == 4
        # One region entry, no block entries: the MgD saving.
        assert directory.lookup_block(region_base, touch=False) is None

    def test_second_core_demotes_region(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(3):
            d.read(0, region_base + offset)
        d.read(1, region_base)  # demotion
        directory = d.system.home.directory
        assert directory.lookup_region(region_base, touch=False) is None
        coh = directory.lookup_block(region_base, touch=False)
        assert coh is not None
        assert coh.holds(0) and coh.holds(1)

    def test_demotion_preserves_untouched_blocks(self, d):
        region_base = BLOCKS_PER_REGION * 4
        for offset in range(3):
            d.read(0, region_base + offset)
        d.read(1, region_base)
        # The owner's other blocks got block-grain entries.
        directory = d.system.home.directory
        for offset in (1, 2):
            coh = directory.lookup_block(region_base + offset, touch=False)
            assert coh is not None and coh.holds(0)
        assert d.state(0, region_base + 1) is not PrivateState.INVALID

    def test_ifetch_uses_block_grain(self, d):
        d.ifetch(0, 0x80)
        directory = d.system.home.directory
        assert directory.lookup_block(0x80, touch=False) is not None
        assert directory.lookup_region(0x80, touch=False) is None

    def test_eviction_notice_clears_presence(self, d):
        region_base = BLOCKS_PER_REGION * 4
        d.read(0, region_base)
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, region_base + i * step * BLOCKS_PER_REGION)
        directory = d.system.home.directory
        entry = directory.lookup_region(region_base, touch=False)
        assert entry is None or not entry.presence & 1

    def test_invariants_after_fuzz(self):
        Driver(make_system(MgdSpec(ratio=1 / 4))).fuzz(2500)

    def test_small_mgd_invariants_after_fuzz(self):
        Driver(make_system(MgdSpec(ratio=1 / 16))).fuzz(2500)


class TestStash:
    def small_stash(self) -> Driver:
        return Driver(make_system(StashSpec(ratio=1 / 16)))

    def test_private_victim_is_stashed_not_invalidated(self):
        d = self.small_stash()
        # Touch many private blocks from one core to overflow the
        # directory; victims should remain cached (stashed).
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        assert stash.count() > 0
        for addr in list(stash._stashed):
            assert d.system.cores[0].holds(addr)

    def test_broadcast_on_sharing_a_stashed_block(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        target = next(iter(stash._stashed))
        before = d.system.stats.broadcasts
        d.read(1, target)
        assert d.system.stats.broadcasts == before + 1
        assert d.state(1, target) is PrivateState.SHARED

    def test_broadcast_rebuilds_directory_entry(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        target = next(iter(d.system.home.stash._stashed))
        d.read(1, target)
        coh = d.system.home.directory.lookup(target, touch=False)
        assert coh is not None and coh.holds(0) and coh.holds(1)

    def test_eviction_notice_unstashes(self):
        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        stash = d.system.home.stash
        target = next(iter(stash._stashed))
        step = d.system.config.l2_sets
        for i in range(1, 9):
            d.read(0, target + i * step)
        assert not stash.is_stashed(target)

    def test_broadcast_traffic_is_heavy(self):
        """The paper's point: broadcast recovery saturates the NoC."""
        from repro.interconnect.traffic import MessageClass

        d = self.small_stash()
        for addr in range(0, 120 * 64, 64):
            d.read(0, addr)
        before = d.system.stats.traffic.messages_for(MessageClass.COHERENCE)
        target = next(iter(d.system.home.stash._stashed))
        d.read(1, target)
        after = d.system.stats.traffic.messages_for(MessageClass.COHERENCE)
        assert after - before >= 2 * d.system.config.num_cores

    def test_invariants_after_fuzz(self):
        self.small_stash().fuzz(2500)


class TestExtraLatencyReachesOutcome:
    """Stash broadcast recovery and MgD region demotion each add a
    penalty to the access that triggers them. Each serve path then
    overwrites ``out.latency``, so today neither penalty reaches the
    access latency. The fix moves golden numbers, so it waits for the
    paper-claims suite (ROADMAP item 5); this test pins the bug."""

    @staticmethod
    def stash_extra_latency():
        """(measured, expected) extra latency of a broadcast recovery."""
        plain = Driver(make_system(StashSpec(ratio=1 / 16)))
        stashed = Driver(make_system(StashSpec(ratio=1 / 16)))
        for addr in range(0, 120 * 64, 64):
            stashed.read(0, addr)
        target = next(iter(stashed.system.home.stash._stashed))
        plain.read(0, target)  # core 0 owns it, tracked in the directory
        mesh = stashed.system.mesh
        penalty = 2 * (mesh.width - 1 + mesh.height - 1) * mesh.hop_cycles
        return stashed.read(1, target) - plain.read(1, target), penalty

    @staticmethod
    def mgd_extra_latency():
        """(measured, expected) extra latency of a region demotion."""
        region_base = BLOCKS_PER_REGION * 4
        plain = Driver(make_system(MgdSpec(ratio=1 / 4)))
        plain.read(0, region_base)
        # Core 2 demotes core 0's region before the measured access, so
        # core 0's block already has a block-grain entry.
        plain.read(2, region_base + 1)
        assert plain.system.home.directory.lookup_block(region_base, touch=False)
        demoted = Driver(make_system(MgdSpec(ratio=1 / 4)))
        demoted.read(0, region_base)
        penalty = demoted.system.config.llc_tag_latency
        return demoted.read(1, region_base) - plain.read(1, region_base), penalty

    @pytest.mark.xfail(strict=True, reason="serve paths overwrite out.latency")
    def test_stash_and_mgd_penalties_reach_access_latency(self):
        stash_extra, stash_penalty = self.stash_extra_latency()
        mgd_extra, mgd_penalty = self.mgd_extra_latency()
        assert (stash_extra, mgd_extra) == (stash_penalty, mgd_penalty)
