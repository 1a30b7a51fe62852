"""Differential test: optimized decision path vs the naive reference.

Hypothesis generates random command streams (proposals, retries/status
changes, garbage collection) and drives the optimized stack
(:class:`~repro.core.history.CommandHistory` + bitset
``compute_predecessor_mask`` + incremental
:class:`~repro.core.predecessors.WaitManager`) and the naive reference stack
(``tests/reference_decision_path.py``) through the *same* sequence, the way a CAESAR
acceptor would: compute predecessors, UPDATE, notify the wait condition,
evaluate proposals.  At every step both stacks must agree on

* the computed predecessor set of every proposal,
* every WAIT outcome (park vs immediate, OK vs NACK, resolution order),
* the parked bookkeeping (count, per-key flags), and
* GC behaviour (removal, and predecessor sets afterwards).

This equivalence is what makes the interned-bitset representation
trustworthy: the reference is the executable specification.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.ballots import Ballot
from repro.consensus.command import Command, KeyBindingError
from repro.consensus.timestamps import LogicalTimestamp
from repro.core.history import CommandHistory, CommandStatus
from repro.core.predecessors import WaitManager, compute_predecessors
from tests.reference_decision_path import (ReferenceCommandHistory, ReferenceWaitManager,
                                           reference_compute_predecessors)
from tests.reference_history import CommandHistory as ReferenceHistory

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
    """The optimized and reference stacks driven in lock step."""

    def __init__(self) -> None:
        self.optimized = CommandHistory()
        self.reference = ReferenceCommandHistory()
        self.opt_outcomes = []
        self.ref_outcomes = []
        self.clock = 0.0
        self.opt_wait = WaitManager(self.optimized, lambda: self.clock)
        self.ref_wait = ReferenceWaitManager(self.reference, lambda: self.clock)
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
        ref = reference_compute_predecessors(self.reference, command, timestamp, None)
        assert opt == ref, (command, timestamp, opt, ref)
        return opt

    def update_both(self, command, timestamp, predecessors, status):
        entry = self.optimized.update(command, timestamp, predecessors, status, BALLOT)
        self.reference.update(command, timestamp, predecessors, status, BALLOT)
        self.opt_wait.notify_entry(entry)
        self.ref_wait.notify_change(command.key)

    def check_agreement(self) -> None:
        assert self.opt_outcomes == self.ref_outcomes
        assert self.opt_wait.parked_count() == self.ref_wait.parked_count()
        for key in KEYS:
            assert self.opt_wait.has_parked(key) == self.ref_wait.has_parked(key)
        assert len(self.optimized) == len(self.reference)
        for slot, command in self.commands.items():
            opt_entry = self.optimized.get(command.command_id)
            ref_entry = self.reference.get(command.command_id)
            assert (opt_entry is None) == (ref_entry is None)
            if opt_entry is not None:
                assert set(opt_entry.predecessors) == set(ref_entry.predecessors)
                assert opt_entry.timestamp == ref_entry.timestamp
                assert opt_entry.status is ref_entry.status
            assert (self.optimized.predecessors_of(command.command_id)
                    == frozenset(self.reference.predecessors_of(command.command_id)))


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
            # The optimized WAIT answers in the call when it can and calls
            # back only after a park; the reference always calls back.
            verdict = stack.opt_wait.evaluate(
                command, timestamp,
                lambda ok, waited, c=command: stack.opt_outcomes.append(
                    (c.command_id, ok, waited)))
            if verdict is not None:
                stack.opt_outcomes.append((command.command_id, verdict, 0.0))
            stack.ref_wait.evaluate(
                command, timestamp,
                lambda ok, waited, c=command: stack.ref_outcomes.append(
                    (c.command_id, ok, waited)))
        elif kind == 1:
            # Status bump / retry of a command both histories already hold.
            if stack.optimized.get(command.command_id) is None:
                continue
            status = BUMP_STATUSES[selector % len(BUMP_STATUSES)]
            predecessors = stack.compute_both(command, timestamp)
            stack.opt_wait.drop_command(command.command_id, command.key)
            stack.ref_wait.drop_command(command.command_id, command.key)
            stack.update_both(command, timestamp, predecessors, status)
        else:
            # GC: remove only when present and the key has nothing parked,
            # the same deferral rule HistoryCompactor applies.
            if stack.optimized.get(command.command_id) is None:
                continue
            if stack.opt_wait.has_parked(command.key):
                continue
            stack.optimized.remove(command.command_id)
            stack.reference.remove(command.command_id)
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
        # whitelist the parked proposal and it resolves OK.
        steps = [
            (0, 0, 10, 0),   # write alpha @10
            (0, 2, 20, 0),   # write alpha @20
            (0, 4, 5, 0),    # write alpha @5 — parked behind both
            (1, 0, 10, 3),   # slot 0 -> STABLE, whitelists slot 4
            (1, 2, 20, 3),   # slot 2 -> STABLE, blocker mask empties -> OK
        ]
        stack = drive(steps)
        ok, waited = next((ok, waited) for cid, ok, waited in stack.opt_outcomes
                          if cid == (4, 0))
        assert ok is True and waited > 0  # parked, then released OK

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
        ok, waited = next((ok, waited) for cid, ok, waited in stack.opt_outcomes
                          if cid == (4, 0))
        assert ok is False and waited == 0  # immediate NACK

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
        # Fed identically: ``keyed`` interns per key and translates
        # bucket-relative, ``plain`` is the node-wide interner of
        # tests/reference_history.py translating one id at a time.
        keyed, plain = CommandHistory(), ReferenceHistory()
        for kind, slot, counter, dropped, added, frozen in steps:
            command = translation_command(slot)
            if kind == 2:
                keyed.remove(command.command_id)
                plain.remove(command.command_id)
                continue
            bucket = keyed.bucket(command.key)
            ids = ({entry.command_id for entry in bucket.entries} if bucket is not None
                   else set()) - slots_of(dropped, command.key)
            ids |= slots_of(added, command.key)
            ids = frozenset(ids) if frozen else ids
            mask = keyed.mask_from_ids(ids, command.key)
            plain_mask = plain.mask_from_ids(ids)
            assert keyed.ids_from_mask(mask, command.key) == plain.ids_from_mask(plain_mask) == ids
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
                entry = keyed.update(command, timestamp, mask, CommandStatus.FAST_PENDING, BALLOT)
                plain.update(command, timestamp, plain_mask, CommandStatus.FAST_PENDING, BALLOT)
                assert entry.predecessors == plain.get(command.command_id).predecessors == ids
        # The interning-order contract: a key's indices are the node-wide
        # first-seen order restricted to the key.
        for key in TRANSLATION_KEYS:
            bucket = keyed.bucket(key)
            assert (bucket.id_of if bucket is not None else []) == [
                command_id for command_id in plain._id_of
                if translation_command(command_id[0]).key == key]
            for command_id in (bucket.id_of if bucket is not None else ()):
                assert bucket.id_of[keyed.index_of(command_id)] == command_id

    def test_a_set_that_is_its_bucket_less_two_interns_a_handful(self):
        history = CountingTranslationHistory()
        for seq in range(258):
            command = Command(command_id=(0, seq), key="k", operation="put", value="v", origin=0)
            history.update(command, LogicalTimestamp(seq + 1, 0), 0,
                           CommandStatus.FAST_PENDING, BALLOT)
        ids = frozenset((0, seq) for seq in range(256))
        history.per_id = 0
        mask = history.mask_from_ids(ids, "k")
        assert history.per_id <= 4
        # The per-id loop, which is what a set under half its bucket gets: one each.
        assert history._mask_on("k", ids) == mask
        assert history.per_id == 256
        assert history.ids_from_mask(mask, "k") == ids
