"""Differential test: the product's decision-path structures vs the spec.

Hypothesis generates random command streams (proposals, retries/status
changes, garbage collection) and drives the product's stack
(:class:`~repro.core.history.CommandHistory` + bitset
``compute_predecessor_mask`` + incremental
:class:`~repro.core.predecessors.WaitManager`) and the spec's
(``tests/spec_caesar.py``: plain rows, COMPUTEPREDECESSORS and WAIT as
Figure 3 states them, every parked proposal re-scanned after every write)
through the *same* sequence, the way a CAESAR acceptor would: compute
predecessors, UPDATE, tell the wait condition, evaluate proposals.  At every
step both stacks must agree on

* the computed predecessor set of every proposal,
* every WAIT outcome (park vs immediate, OK vs NACK, resolution order),
* the parked bookkeeping (count, per-key flags), and
* GC behaviour (removal, and predecessor sets afterwards).

This equivalence is what makes the interned-bitset representation
trustworthy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, KeyBindingError
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager
from tests import spec_caesar as spec
from tests.conftest import evaluate_wait, write_entry
from tests.test_core_predecessors import compute_predecessors

BALLOT = Ballot.initial(0)

KEYS = ("alpha", "beta")

#: Statuses a later step may move an existing command to (a retry raises the
#: timestamp and re-computes predecessors, mirroring the protocol).
BUMP_STATUSES = (CommandStatus.SLOW_PENDING, CommandStatus.ACCEPTED,
                 CommandStatus.REJECTED, CommandStatus.STABLE)

#: One step: (kind, command slot 0-11, timestamp counter 1-30, selector).
#: kind 0 = propose (UPDATE + WAIT), 1 = status bump / retry, 2 = remove.
steps_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 11), st.integers(1, 30),
              st.integers(0, 3)),
    min_size=1, max_size=40)


class DualStack:
    """The product's and the spec's stacks driven in lock step."""

    def __init__(self) -> None:
        self.optimized = CommandHistory()
        self.spec = spec.SpecHistory()
        self.opt_outcomes = []
        self.spec_outcomes = []
        self.clock = 0.0
        self.opt_wait = WaitManager(self.optimized, lambda: self.clock, True)
        self.spec_wait = spec.SpecWait(self.spec, lambda: self.clock)
        self.commands = {}

    def command_for(self, slot: int) -> Command:
        command = self.commands.get(slot)
        if command is None:
            # Slot determines identity, key and read/write flavour, so
            # repeated steps on one slot model retries of one command.
            command = Command(command_id=(slot, 0), key=KEYS[slot % len(KEYS)],
                              operation="get" if slot % 4 == 3 else "put",
                              value=f"v{slot}", origin=0)
            self.commands[slot] = command
        return command

    def compute_both(self, command: Command, timestamp: LogicalTimestamp):
        opt = compute_predecessors(self.optimized, command, timestamp, None)
        expected = spec.compute_predecessors(self.spec, command, timestamp)
        assert opt == expected, (command, timestamp, opt, expected)
        return opt

    def update_both(self, command, timestamp, predecessors, status):
        entry = write_entry(self.optimized, command, timestamp, predecessors, status, BALLOT)
        self.spec.update(command, timestamp, predecessors, status, BALLOT)
        self.opt_wait.notify_entry(entry)
        self.spec_wait.rescan()

    def check_agreement(self) -> None:
        assert self.opt_outcomes == self.spec_outcomes
        assert self.opt_wait.total_waits == self.spec_wait.total_waits
        assert self.opt_wait.total_wait_ms == self.spec_wait.total_wait_ms
        assert self.opt_wait.parked == self.spec_wait.parked
        for key in KEYS:
            assert self.opt_wait.has_parked(key) == self.spec_wait.has_parked(key)
        assert len(self.optimized) == len(self.spec)
        for slot, command in self.commands.items():
            opt_entry = self.optimized.get(command.command_id)
            spec_entry = self.spec.get(command.command_id)
            assert (opt_entry is None) == (spec_entry is None)
            if opt_entry is not None:
                assert opt_entry.predecessors == spec_entry.predecessors
                assert opt_entry.timestamp == spec_entry.timestamp
                assert opt_entry.status is spec_entry.status


def drive(steps) -> DualStack:
    stack = DualStack()
    for kind, slot, counter, selector in steps:
        command = stack.command_for(slot)
        # Unique total order: the slot doubles as the timestamp's node id.
        timestamp = LogicalTimestamp(counter, slot)
        if kind == 0:
            # Propose: UPDATE with computed predecessors, then WAIT — the
            # acceptor's fast-propose path.
            predecessors = stack.compute_both(command, timestamp)
            stack.update_both(command, timestamp, predecessors,
                              CommandStatus.FAST_PENDING)
            # Both answer in the call when they can and call back after a park.
            def recorder(outcomes, c=command):
                return lambda ok: outcomes.append((c.command_id, ok))

            verdicts = (evaluate_wait(stack.opt_wait, stack.optimized, command, timestamp,
                                      recorder(stack.opt_outcomes)),
                        stack.spec_wait.evaluate(command, timestamp,
                                                 recorder(stack.spec_outcomes)))
            for outcomes, verdict in zip((stack.opt_outcomes, stack.spec_outcomes), verdicts):
                if verdict is not None:
                    outcomes.append((command.command_id, verdict))
        elif kind == 1:
            # Status bump / retry of a command both histories already hold.
            if stack.optimized.get(command.command_id) is None:
                continue
            status = BUMP_STATUSES[selector % len(BUMP_STATUSES)]
            predecessors = stack.compute_both(command, timestamp)
            stack.opt_wait.drop_command(command.command_id, command.key)
            stack.spec_wait.drop(command.command_id)
            stack.update_both(command, timestamp, predecessors, status)
        else:
            # GC: remove only when present and the key has nothing parked,
            # the same deferral rule history collection applies.
            if stack.optimized.get(command.command_id) is None:
                continue
            if stack.opt_wait.has_parked(command.key):
                continue
            stack.optimized.remove(command.command_id)
            stack.spec.remove(command.command_id)
        stack.clock += 1.0
        stack.check_agreement()
    return stack


class TestBitsetDifferential:
    @settings(max_examples=200, deadline=None)
    @given(steps=steps_strategy)
    def test_random_streams_agree(self, steps):
        drive(steps)

    def test_park_then_resolve_sequence_agrees(self):
        # A deterministic stream that forces parking: a proposal behind two
        # pending conflicting writes, which then finalize one by one.  Each
        # finalize recomputes predecessors, so the stabilized blockers
        # list the parked proposal and it resolves OK.
        steps = [
            (0, 0, 10, 0),   # write alpha @10
            (0, 2, 20, 0),   # write alpha @20
            (0, 4, 5, 0),    # write alpha @5 — parked behind both
            (1, 0, 10, 3),   # slot 0 -> STABLE, whitelists slot 4
            (1, 2, 20, 3),   # slot 2 -> STABLE, blocker mask empties -> OK
        ]
        stack = drive(steps)
        ok = next(ok for cid, ok in stack.opt_outcomes if cid == (4, 0))
        # parked, then released OK
        assert ok is True and stack.opt_wait.total_waits == 1
        assert stack.opt_wait.total_wait_ms > 0

    def test_late_proposal_behind_stable_suffix_nacks(self):
        # A conflicting command stabilized *before* the proposal existed does
        # not whitelist it, so the late small-timestamp proposal NACKs
        # immediately — on both stacks.
        steps = [
            (0, 0, 10, 0),   # write alpha @10
            (1, 0, 10, 3),   # slot 0 -> STABLE; predecessors exclude slot 4
            (0, 4, 5, 0),    # write alpha @5 arrives late
        ]
        stack = drive(steps)
        ok = next(ok for cid, ok in stack.opt_outcomes if cid == (4, 0))
        assert ok is False and stack.opt_wait.total_waits == 0  # immediate NACK

    def test_gc_after_delivery_agrees(self):
        steps = [
            (0, 0, 3, 0),
            (0, 2, 7, 0),
            (1, 0, 3, 3),    # slot 0 stable
            (2, 0, 0, 0),    # remove slot 0
            (0, 6, 9, 0),    # new proposal no longer sees the removed command
        ]
        stack = drive(steps)
        assert stack.optimized.get((0, 0)) is None
        entry = stack.optimized.get((6, 0))
        assert entry is not None
        assert (0, 0) not in entry.predecessors


# ------------------------------------------------ bucket-relative translation

#: Commands live on the first three; ``"nowhere"`` never gets a bucket.
TRANSLATION_KEYS = ("alpha", "beta", "gamma", "nowhere")

TRANSLATION_SLOTS = 16

#: One step: (kind, command slot, timestamp counter, slots dropped from the
#: key's bucket, slots added to it, frozenset or set).  kind 0-1 = UPDATE the
#: slot's command with that predecessor set (a repeat at another counter
#: re-files the entry), 2 = remove it, 3 = translate only.  Dropping few slots
#: takes the bucket-relative path, dropping many the per-id loop; added slots
#: are those of the command's key (the only ones a predecessor set can name),
#: seen by the history or not.
translation_steps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, TRANSLATION_SLOTS - 1), st.integers(1, 6),
              st.one_of(st.just(0), st.integers(0, (1 << TRANSLATION_SLOTS) - 1)),
              st.one_of(st.just(0), st.integers(0, (1 << TRANSLATION_SLOTS) - 1)),
              st.booleans()),
    min_size=1, max_size=40)


def translation_command(slot: int) -> Command:
    return Command(command_id=(slot, 0), key=TRANSLATION_KEYS[slot % 3],
                   operation="get" if slot % 4 == 3 else "put", value=f"v{slot}", origin=0)


def slots_of(mask: int, key: str) -> set:
    return {(slot, 0) for slot in range(TRANSLATION_SLOTS)
            if (mask >> slot) & 1 and translation_command(slot).key == key}


class CountingTranslationHistory(CommandHistory):
    """Counts the ids a translation hands to the per-id loop."""

    def __init__(self) -> None:
        super().__init__()
        self.per_id = 0

    def _mask_on(self, key, ids):
        self.per_id += len(ids)
        return super()._mask_on(key, ids)


class TestBucketRelativeTranslation:
    @settings(max_examples=300, deadline=None)
    @given(steps=translation_steps)
    def test_keyed_translation_matches_plain_and_interns_in_the_same_order(self, steps):
        # ``keyed`` translates bucket-relative where it can; ``first_seen`` is
        # the order a translation one id at a time would intern in: each id
        # the first time a set names it, in the set's iteration order, then
        # the command's own id at its first UPDATE.
        keyed, first_seen = CommandHistory(), {}
        for kind, slot, counter, dropped, added, frozen in steps:
            command = translation_command(slot)
            if kind == 2:
                keyed.remove(command.command_id)
                continue
            bucket = keyed.bucket(command.key)
            ids = ({entry.command_id for entry in bucket.entries} if bucket is not None
                   else set()) - slots_of(dropped, command.key)
            ids |= slots_of(added, command.key)
            ids = frozenset(ids) if frozen else ids
            mask = keyed.mask_from_ids(ids, command.key)
            for command_id in ids:
                first_seen.setdefault(command_id, None)
            assert keyed.ids_from_mask(mask, command.key) == ids
            assert set(keyed.iter_mask(mask, command.key)) == ids
            for key in TRANSLATION_KEYS:
                # Naming the key's ids on any other key is refused, and changes nothing.
                if key != command.key and ids:
                    before = {name: list(keyed.bucket(name).id_of) for name in TRANSLATION_KEYS
                              if keyed.bucket(name) is not None}
                    with pytest.raises(KeyBindingError):
                        keyed.mask_from_ids(ids, key)
                    assert before == {name: list(keyed.bucket(name).id_of)
                                      for name in TRANSLATION_KEYS
                                      if keyed.bucket(name) is not None}
            if kind < 2:
                timestamp = LogicalTimestamp(counter, slot)
                entry = keyed.update(command, timestamp, mask, CommandStatus.FAST_PENDING, BALLOT,
                                     keyed.get(command.command_id))
                first_seen.setdefault(command.command_id, None)
                assert entry.predecessors == ids
        # The interning-order contract: a key's indices are the node-wide
        # first-seen order restricted to the key.
        for key in TRANSLATION_KEYS:
            bucket = keyed.bucket(key)
            assert (bucket.id_of if bucket is not None else []) == [
                command_id for command_id in first_seen
                if translation_command(command_id[0]).key == key]
            for command_id in (bucket.id_of if bucket is not None else ()):
                assert bucket.id_of[keyed.index_of(command_id)] == command_id

    def test_a_set_that_is_its_bucket_less_two_interns_a_handful(self):
        history = CountingTranslationHistory()
        for seq in range(258):
            command = Command(command_id=(0, seq), key="k", operation="put", value="v", origin=0)
            history.update(command, LogicalTimestamp(seq + 1, 0), 0,
                           CommandStatus.FAST_PENDING, BALLOT, None)
        ids = frozenset((0, seq) for seq in range(256))
        history.per_id = 0
        mask = history.mask_from_ids(ids, "k")
        assert history.per_id <= 4
        # The per-id loop, which is what a set under half its bucket gets: one each.
        assert history._mask_on("k", ids) == mask
        assert history.per_id == 256
        assert history.ids_from_mask(mask, "k") == ids
