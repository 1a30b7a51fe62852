"""Unit and property tests for logical timestamps (Section V-A)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.consensus.timestamps import LogicalTimestamp, TimestampGenerator


class TestOrdering:
    def test_counter_dominates(self):
        assert LogicalTimestamp(1, 4) < LogicalTimestamp(2, 0)

    def test_node_id_breaks_ties(self):
        assert LogicalTimestamp(3, 1) < LogicalTimestamp(3, 2)

    def test_equality(self):
        assert LogicalTimestamp(5, 2) == LogicalTimestamp(5, 2)

    def test_total_ordering_helpers(self):
        low = LogicalTimestamp(1, 1)
        high = LogicalTimestamp(2, 0)
        assert low <= high
        assert high > low
        assert high >= low

    def test_str_shows_counter_and_node(self):
        assert str(LogicalTimestamp(7, 3)) == "<7,3>"


class TestGenerator:
    def test_initial_value_is_zero(self):
        """A fresh clock reads ``<0, node>``: above ``<0, lower>``, below ``<0, higher>``."""
        below = TimestampGenerator(2)
        below.observe(LogicalTimestamp(0, 1))
        assert below.next_timestamp() == LogicalTimestamp(1, 2)
        above = TimestampGenerator(2)
        above.observe(LogicalTimestamp(0, 3))
        assert above.next_timestamp() == LogicalTimestamp(2, 2)

    def test_first_timestamp_has_counter_one(self):
        assert TimestampGenerator(2).next_timestamp() == LogicalTimestamp(1, 2)

    def test_next_timestamp_strictly_increases(self):
        gen = TimestampGenerator(1)
        first = gen.next_timestamp()
        second = gen.next_timestamp()
        assert second > first
        assert second.node_id == 1

    def test_observe_advances_past_foreign_timestamp(self):
        gen = TimestampGenerator(0)
        gen.observe(LogicalTimestamp(10, 3))
        assert gen.next_timestamp() > LogicalTimestamp(10, 3)

    def test_observe_smaller_timestamp_is_noop(self):
        gen = TimestampGenerator(4)
        gen.next_timestamp()
        gen.next_timestamp()
        gen.observe(LogicalTimestamp(0, 0))
        assert gen.next_timestamp() == LogicalTimestamp(3, 4)

    def test_suggestion_greater_than(self):
        gen = TimestampGenerator(2)
        suggestion = gen.suggestion_greater_than(LogicalTimestamp(42, 4))
        assert suggestion > LogicalTimestamp(42, 4)
        assert suggestion.node_id == 2


class TestProperties:
    @given(st.integers(0, 1000), st.integers(0, 9), st.integers(0, 1000), st.integers(0, 9))
    def test_order_is_total_and_antisymmetric(self, k1, i1, k2, i2):
        a = LogicalTimestamp(k1, i1)
        b = LogicalTimestamp(k2, i2)
        assert (a < b) or (b < a) or (a == b)
        if a < b:
            assert not b < a

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), min_size=1, max_size=30))
    def test_generators_never_collide_across_nodes(self, observations):
        """Two generators on different nodes never emit equal timestamps."""
        gen_a = TimestampGenerator(0)
        gen_b = TimestampGenerator(1)
        emitted = set()
        for counter, node in observations:
            foreign = LogicalTimestamp(counter, node)
            gen_a.observe(foreign)
            gen_b.observe(foreign)
            emitted.add(gen_a.next_timestamp())
            emitted.add(gen_b.next_timestamp())
        assert len(emitted) == 2 * len(observations)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_generator_monotonic_under_observations(self, counters):
        gen = TimestampGenerator(3)
        previous = LogicalTimestamp(0, 3)
        for counter in counters:
            gen.observe(LogicalTimestamp(counter, 1))
            fresh = gen.next_timestamp()
            assert fresh > previous
            previous = fresh
