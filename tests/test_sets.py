"""Unit tests for the generic set-associative (NRU) array.

LRU order is covered with the private caches that use it, in
``tests/test_private_cache.py``.
"""

import pytest

from repro.cache.sets import SetAssocArray
from repro.errors import ConfigError


class TestBasics:
    def test_lookup_missing_returns_none(self):
        array = SetAssocArray(4, 2)
        assert array.lookup(0, 0x10) is None

    def test_insert_then_lookup(self):
        array = SetAssocArray(4, 2)
        array.insert(1, 0x10, "payload")
        line = array.lookup(1, 0x10)
        assert line is not None and line.payload == "payload"

    def test_set_index_wraps(self):
        array = SetAssocArray(4, 2)
        assert array.set_index(5) == 1

    def test_remove_returns_line(self):
        array = SetAssocArray(2, 2)
        array.insert(0, 7, "x")
        assert array.remove(0, 7).payload == "x"
        assert array.lookup(0, 7) is None

    def test_remove_missing_returns_none(self):
        assert SetAssocArray(2, 2).remove(0, 7) is None

    def test_occupancy(self):
        array = SetAssocArray(2, 4)
        for tag in range(3):
            array.insert(0, tag, None)
        assert array.occupancy() == 3

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            SetAssocArray(0, 2)
        with pytest.raises(ConfigError):
            SetAssocArray(2, 0)

    def test_iter_lines(self):
        array = SetAssocArray(2, 2)
        array.insert(0, 1, None)
        array.insert(1, 2, None)
        tags = {line.tag for _, line in array.iter_lines()}
        assert tags == {1, 2}


class TestNRU:
    def test_victimizes_unreferenced_line(self):
        array = SetAssocArray(1, 3)
        for tag in range(3):
            array.insert(0, tag, None)
        # Clear all reference bits, then touch tags 0 and 2.
        for line in array.set_lines(0):
            line.nru_ref = False
        array.lookup(0, 0)
        array.lookup(0, 2)
        evicted = array.insert(0, 9, None)
        assert evicted.tag == 1

    def test_all_referenced_falls_back_to_first_way(self):
        array = SetAssocArray(1, 2)
        array.insert(0, 1, None)
        array.insert(0, 2, None)
        evicted = array.insert(0, 3, None)
        assert evicted.tag == 1

    def test_gang_clear_on_saturation(self):
        array = SetAssocArray(1, 2)
        array.insert(0, 1, None)
        array.insert(0, 2, None)
        array.choose_victim(0)  # all referenced: clears bits
        remaining = [line for line in array.set_lines(0)]
        # The victim line was not evicted by choose_victim; all bits are
        # now cleared.
        assert all(not line.nru_ref for line in remaining)

    def test_choose_victim_matches_insert(self):
        array = SetAssocArray(1, 2)
        array.insert(0, 1, None)
        array.insert(0, 2, None)
        assert array.choose_victim(0).tag == 1
        assert array.insert(0, 3, None).tag == 1
