"""Unit tests for the common value types."""

import pickle

import pytest

from repro.types import (
    Access,
    AccessKind,
    BLOCK_SIZE,
    LLCState,
    PrivateState,
    block_address,
    byte_address,
)


class TestAccessKind:
    def test_read_is_read(self):
        assert AccessKind.READ.is_read

    def test_ifetch_is_read(self):
        assert AccessKind.IFETCH.is_read

    def test_write_is_not_read(self):
        assert not AccessKind.WRITE.is_read


class TestPrivateState:
    def test_modified_is_exclusive(self):
        assert PrivateState.MODIFIED.is_exclusive

    def test_exclusive_is_exclusive(self):
        assert PrivateState.EXCLUSIVE.is_exclusive

    def test_shared_not_exclusive(self):
        assert not PrivateState.SHARED.is_exclusive

    def test_invalid_not_exclusive(self):
        assert not PrivateState.INVALID.is_exclusive


class TestMemberPredicates:
    """``is_read`` / ``is_exclusive`` are plain member attributes; result
    pickles (sweep workers) must bring back members that still carry them."""

    IS_READ = {
        AccessKind.READ: True,
        AccessKind.WRITE: False,
        AccessKind.IFETCH: True,
    }
    IS_EXCLUSIVE = {
        PrivateState.MODIFIED: True,
        PrivateState.EXCLUSIVE: True,
        PrivateState.SHARED: False,
        PrivateState.INVALID: False,
    }

    def test_tables_cover_every_member(self):
        assert set(self.IS_READ) == set(AccessKind)
        assert set(self.IS_EXCLUSIVE) == set(PrivateState)

    @pytest.mark.parametrize("kind", list(AccessKind))
    def test_is_read_truth_table(self, kind):
        assert kind.is_read is self.IS_READ[kind]
        clone = pickle.loads(pickle.dumps(kind))
        assert clone is kind and clone.is_read is self.IS_READ[kind]

    @pytest.mark.parametrize("state", list(PrivateState))
    def test_is_exclusive_truth_table(self, state):
        assert state.is_exclusive is self.IS_EXCLUSIVE[state]
        clone = pickle.loads(pickle.dumps(state))
        assert clone is state and clone.is_exclusive is self.IS_EXCLUSIVE[state]


class TestAddressConversion:
    def test_block_address_strips_offset(self):
        assert block_address(BLOCK_SIZE - 1) == 0
        assert block_address(BLOCK_SIZE) == 1

    def test_byte_address_roundtrip(self):
        for block in (0, 1, 12345):
            assert block_address(byte_address(block)) == block

    def test_block_size_is_64(self):
        assert BLOCK_SIZE == 64


class TestAccess:
    def test_fields(self):
        acc = Access(3, 0x10, AccessKind.WRITE, gap=7)
        assert (acc.core, acc.addr, acc.kind, acc.gap) == (3, 0x10, AccessKind.WRITE, 7)

    def test_default_gap_zero(self):
        assert Access(0, 0, AccessKind.READ).gap == 0

    def test_equality(self):
        assert Access(1, 2, AccessKind.READ) == Access(1, 2, AccessKind.READ)
        assert Access(1, 2, AccessKind.READ) != Access(1, 2, AccessKind.WRITE)

    def test_llc_states_distinct(self):
        assert len({state.value for state in LLCState}) == len(list(LLCState))
