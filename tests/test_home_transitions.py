"""The MESI home transitions shared by every scheme (``BaseHome``).

Every home controller serves writes to shared blocks, upgrades and
back-invalidations through one implementation, so the observable
contract is the same under every scheme: each invalidated copy emits an
``inval:*`` event, and a tracking record naming a core without a copy
raises :class:`~repro.errors.InvariantViolation` naming that core.
"""

import pytest

from conftest import Driver, make_system
from repro.errors import InvariantViolation
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, TinySpec
from repro.types import PrivateState

SCHEMES = [
    SparseSpec(ratio=2.0),
    InLLCSpec(),
    TinySpec(ratio=1 / 16, policy="dstra"),
    MgdSpec(ratio=1 / 4),
    StashSpec(ratio=1 / 4),
]


class Recorder:
    """Observer keeping ``(kind, core, addr)`` of every emission."""

    def __init__(self) -> None:
        self.events = []

    def emit(self, kind, cycle=None, core=None, addr=None, **data) -> None:
        self.events.append((kind, core, addr))

    def invalidations(self):
        return [event for event in self.events if event[0].startswith("inval:")]


def shared_by_two(spec) -> Driver:
    """A driver whose block 0x40 is shared by cores 0 and 1."""
    d = Driver(make_system(spec))
    d.read(0, 0x40)
    d.read(1, 0x40)
    assert d.state(0, 0x40) is PrivateState.SHARED
    assert d.state(1, 0x40) is PrivateState.SHARED
    return d


def conflicting_blocks(d: Driver, addr: int, count: int = 20) -> "list[int]":
    """Blocks mapping to ``addr``'s LLC bank and set."""
    config = d.system.config
    stride = config.num_banks * config.llc_sets_per_bank
    return [addr + i * stride for i in range(1, count + 1)]


@pytest.mark.parametrize("spec", SCHEMES, ids=lambda s: s.name)
class TestInvalidationEvents:
    def test_write_to_shared_block_reports_each_sharer(self, spec):
        d = shared_by_two(spec)
        if spec.name == "tiny":
            # The second read moved the tracking into the tiny directory.
            assert d.system.home.tiny.find_quiet(0x40) is not None
        recorder = Recorder()
        d.system.home.observer = recorder
        d.write(2, 0x40)
        assert recorder.invalidations() == [
            ("inval:S->I", 0, 0x40),
            ("inval:S->I", 1, 0x40),
        ]

    def test_upgrade_reports_the_other_sharer(self, spec):
        d = shared_by_two(spec)
        recorder = Recorder()
        d.system.home.observer = recorder
        d.write(1, 0x40)
        assert d.state(1, 0x40) is PrivateState.MODIFIED
        assert recorder.invalidations() == [("inval:S->I", 0, 0x40)]

    def test_stale_sharer_on_write_raises(self, spec):
        d = shared_by_two(spec)
        d.system.cores[1].invalidate(0x40)  # behind the protocol's back
        with pytest.raises(InvariantViolation) as caught:
            d.write(2, 0x40)
        assert caught.value.addr == 0x40
        assert caught.value.cores == (1,)


class TestStaleHolderOnBackInvalidation:
    def test_inllc_evicted_line_with_stale_sharer_raises(self):
        d = shared_by_two(InLLCSpec())
        d.system.cores[1].invalidate(0x40)  # behind the protocol's back
        with pytest.raises(InvariantViolation) as caught:
            for addr in conflicting_blocks(d, 0x40):
                d.read(2, addr)
        assert caught.value.addr == 0x40
        assert caught.value.cores == (1,)

    def test_tiny_victim_without_data_line_with_stale_holder_raises(self):
        # One tiny-directory entry per bank: a higher-STRA block
        # displaces 0x40's entry, whose data line is already gone, so the
        # tracked copies are back-invalidated.
        d = Driver(make_system(TinySpec(ratio=1 / 64, policy="dstra")))
        home = d.system.home
        d.ifetch(0, 0x40)
        assert home.tiny.find_quiet(0x40) is not None
        d.system.cores[0].invalidate(0x40)  # behind the protocol's back
        for addr in conflicting_blocks(d, 0x40):
            d.read(2, addr)
        assert home.banks[home.bank_of(0x40)].peek(0x40) == (None, None)
        rival = 0x40 + home.num_banks  # same bank, same tiny set
        d.ifetch(1, rival)
        with pytest.raises(InvariantViolation) as caught:
            d.ifetch(3, rival)  # a shared read raises its STRA category
        assert caught.value.addr == 0x40
        assert caught.value.cores == (0,)

    def test_tiny_back_invalidation_reports_holders(self):
        d = Driver(make_system(TinySpec(ratio=1 / 64, policy="dstra")))
        home = d.system.home
        d.ifetch(0, 0x40)
        for addr in conflicting_blocks(d, 0x40):
            d.read(2, addr)
        recorder = Recorder()
        home.observer = recorder
        before = d.system.stats.back_invalidations
        rival = 0x40 + home.num_banks
        d.ifetch(1, rival)
        d.ifetch(3, rival)
        assert ("llc:back_invalidate", None, 0x40) in recorder.events
        assert ("inval:S->I", 0, 0x40) in recorder.events
        assert d.system.stats.back_invalidations == before + 1
        assert d.state(0, 0x40) is PrivateState.INVALID
        d.system.check_invariants()
