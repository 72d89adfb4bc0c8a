"""Unit tests for interconnect traffic accounting."""

import pickle

from repro.interconnect.traffic import (
    CONTROL_BYTES,
    DATA_BYTES,
    PARTIAL_BYTES,
    MessageClass,
    TrafficMeter,
)


class TestTrafficMeter:
    def test_starts_empty(self):
        meter = TrafficMeter()
        assert meter.total_bytes == 0

    def test_control_message_size(self):
        meter = TrafficMeter()
        meter.control(MessageClass.PROCESSOR)
        assert meter.bytes_for(MessageClass.PROCESSOR) == CONTROL_BYTES

    def test_data_message_size(self):
        meter = TrafficMeter()
        meter.data(MessageClass.WRITEBACK)
        assert meter.bytes_for(MessageClass.WRITEBACK) == DATA_BYTES

    def test_partial_message_size(self):
        meter = TrafficMeter()
        meter.partial(MessageClass.COHERENCE)
        assert meter.bytes_for(MessageClass.COHERENCE) == PARTIAL_BYTES

    def test_count_multiplier(self):
        meter = TrafficMeter()
        meter.control(MessageClass.COHERENCE, count=5)
        assert meter.bytes_for(MessageClass.COHERENCE) == 5 * CONTROL_BYTES
        assert meter.messages_for(MessageClass.COHERENCE) == 5

    def test_classes_are_independent(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        assert meter.bytes_for(MessageClass.WRITEBACK) == 0
        assert meter.bytes_for(MessageClass.COHERENCE) == 0

    def test_total_is_sum(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        meter.control(MessageClass.WRITEBACK)
        meter.partial(MessageClass.COHERENCE)
        assert meter.total_bytes == DATA_BYTES + CONTROL_BYTES + PARTIAL_BYTES

    def test_clear_zeroes_in_place(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR)
        meter.clear()
        assert meter.total_bytes == 0
        assert meter.messages_for(MessageClass.PROCESSOR) == 0

    def test_as_dict_keys(self):
        meter = TrafficMeter()
        assert set(meter.as_dict()) == {"processor", "writeback", "coherence"}

    def test_dump_load_roundtrip(self):
        meter = TrafficMeter()
        meter.data(MessageClass.PROCESSOR, count=3)
        meter.control(MessageClass.COHERENCE, count=2)
        clone = TrafficMeter.load(meter.dump())
        assert clone.as_dict() == meter.as_dict()
        assert clone.messages_for(MessageClass.COHERENCE) == 2

    def test_data_message_carries_block_plus_header(self):
        assert DATA_BYTES == 64 + CONTROL_BYTES


class TestCounterSlots:
    """The meter's list counters are indexed by ``MessageClass.slot``."""

    def test_every_class_has_a_distinct_slot(self):
        slots = [cls.slot for cls in MessageClass]
        assert sorted(slots) == list(range(len(MessageClass)))

    def test_dump_key_order_is_unchanged(self):
        order = ["processor", "writeback", "coherence"]
        meter = TrafficMeter()
        assert list(meter.as_dict()) == order
        dump = meter.dump()
        assert list(dump) == ["bytes", "messages"]
        assert list(dump["bytes"]) == order
        assert list(dump["messages"]) == order

    def test_load_dump_roundtrips_every_counter(self):
        meter = TrafficMeter()
        for count, cls in enumerate(MessageClass, start=1):
            meter.control(cls, count=count)
            meter.data(cls)
            meter.partial(cls, count=2 * count)
        assert TrafficMeter.load(meter.dump()).dump() == meter.dump()

    def test_counts_land_in_their_own_class(self):
        for cls in MessageClass:
            meter = TrafficMeter()
            meter.data(cls, count=2)
            assert meter.dump()["bytes"] == {
                other.value: 2 * DATA_BYTES if other is cls else 0
                for other in MessageClass
            }
            assert meter.messages_for(cls) == 2

    def test_pickle_keeps_counters_and_slots(self):
        meter = TrafficMeter()
        meter.control(MessageClass.WRITEBACK, count=3)
        clone = pickle.loads(pickle.dumps(meter))
        assert clone.dump() == meter.dump()
        assert pickle.loads(pickle.dumps(MessageClass.COHERENCE)).slot == (
            MessageClass.COHERENCE.slot
        )
