"""Unit tests for the key-value store state machine."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.consensus.command import Command
from repro.kvstore.store import KeyValueStore
from tests.conftest import make_command


class TestOperations:
    def test_put_returns_previous_value(self):
        store = KeyValueStore()
        assert store.apply(make_command(0, 0, key="k")) is None
        second = Command(command_id=(0, 1), key="k", operation="put", value="new")
        assert store.apply(second) == "v0.0"
        assert store.get("k") == "new"

    def test_get_returns_current_value(self):
        store = KeyValueStore()
        store.apply(make_command(0, 0, key="k"))
        read = Command(command_id=(1, 0), key="k", operation="get")
        assert store.apply(read) == "v0.0"

    def test_get_missing_key_returns_none(self):
        store = KeyValueStore()
        assert store.apply(Command(command_id=(0, 0), key="nope", operation="get")) is None

    def test_delete_removes_and_returns(self):
        store = KeyValueStore()
        store.apply(make_command(0, 0, key="k"))
        removed = store.apply(Command(command_id=(0, 1), key="k", operation="delete"))
        assert removed == "v0.0"
        assert store.get("k") is None

    def test_put_none_value_stores_empty_string(self):
        store = KeyValueStore()
        store.apply(Command(command_id=(0, 0), key="k", operation="put", value=None))
        assert store.get("k") == ""

    def test_unknown_operation_raises(self):
        store = KeyValueStore()
        with pytest.raises(ValueError):
            store.apply(Command(command_id=(0, 0), key="k", operation="increment"))

    def test_len_counts_keys(self):
        store = KeyValueStore()
        store.apply(make_command(0, 0, key="a"))
        store.apply(make_command(0, 1, key="b"))
        assert len(store.snapshot()) == 2

    def test_snapshot_and_reset(self):
        store = KeyValueStore()
        store.apply(make_command(0, 0, key="a"))
        snapshot = store.snapshot()
        assert snapshot == {"a": "v0.0"}
        store.reset()
        assert store.snapshot() == {}
        assert store.applied_count == 0
        # Snapshot is a copy, unaffected by the reset.
        assert snapshot == {"a": "v0.0"}

    def test_applied_count_increments(self):
        store = KeyValueStore()
        for i in range(5):
            store.apply(make_command(0, i, key=f"k{i}"))
        assert store.applied_count == 5


class TestDeterminism:
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["put", "get", "delete"]),
                              st.text(alphabet="ab", min_size=1, max_size=2)),
                    min_size=1, max_size=40))
    def test_same_sequence_same_state_and_results(self, operations):
        """Applying the same command sequence to two stores is deterministic."""
        store_a, store_b = KeyValueStore(), KeyValueStore()
        results_a, results_b = [], []
        for index, (client, op, key) in enumerate(operations):
            command = Command(command_id=(client, index), key=key, operation=op,
                              value=f"val{index}")
            results_a.append(store_a.apply(command))
            results_b.append(store_b.apply(command))
        assert results_a == results_b
        assert store_a.snapshot() == store_b.snapshot()
