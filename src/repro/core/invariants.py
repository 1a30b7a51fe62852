"""Runtime checkers for CAESAR's correctness invariants.

The paper proves Consistency via two theorems (Section V-F), which its TLA+
specification states as ``GraphInvariant`` and ``Agreement``.  This module
re-states those invariants over a *running cluster* so tests and long
simulations can check them continuously:

* :func:`check_graph_invariant` — for any two conflicting commands that are
  stable on some node, the one with the smaller final timestamp appears in
  the predecessor set of the other (before loop-breaking adjusts edges of
  already-delivered commands, the delivered order is used as the witness).
* :func:`check_agreement` — no two nodes hold stable entries for the same
  command with different timestamps.
* :func:`check_execution_consistency` — conflicting commands are executed in
  the same relative order on every replica (the end-to-end observable
  property of Generalized Consensus).
* :func:`check_timestamp_order` — on every replica, conflicting commands are
  executed in increasing final-timestamp order.
* :func:`check_delivery_quiescent` — no replica sits on a stable command whose
  predecessors have all been executed (a lost wake-up in the delivery index).
* :func:`check_delivered_closed` — the delivered set is closed under
  predecessors: no delivered command lists an undelivered one (what lets
  BREAKLOOP skip the delivered part of a new command's predecessor set).
* :func:`check_mask_width` — every bitmask is drawn from its key's interner,
  so no mask is wider than the number of ids seen on that key.
* :func:`check_bucket_index` — the order, interner, entries and masks of
  every key bucket agree, and ``_bucket_of`` binds only ids without an entry.
* :func:`check_promises` — a replica's table of promises holds an id only
  above its entry's ballot, or for a command it has no entry for and did not
  collect.

Each checker returns a list of human-readable violation descriptions; an
empty list means the invariant holds.  Every checker but
:func:`check_execution_consistency` reads CAESAR's history and skips the
replicas of protocols without a delivery manager, so :func:`check_all`, the
chaos verdict's oracle, runs on any cluster.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.consensus.interface import order_violations
from repro.core.caesar import CaesarReplica
from repro.core.history import CommandStatus


def check_agreement(replicas: Sequence[CaesarReplica]) -> List[str]:
    """No two replicas decided the same command at different timestamps."""
    violations: List[str] = []
    decided_timestamps = {}
    for replica in replicas:
        if replica.crashed or getattr(replica, "delivery", None) is None:
            continue
        for entry in replica.history.stable_entries():
            known = decided_timestamps.get(entry.command_id)
            if known is None:
                decided_timestamps[entry.command_id] = (replica.node_id, entry.timestamp)
            elif known[1] != entry.timestamp:
                violations.append(
                    f"command {entry.command_id} stable at {entry.timestamp} on node "
                    f"{replica.node_id} but at {known[1]} on node {known[0]}")
    return violations


def check_graph_invariant(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Conflicting stable commands are ordered by timestamp on every replica.

    The delivered order is the observable witness: if both commands were
    executed by a replica, the smaller-timestamp one must have been executed
    first (BREAKLOOP may have pruned the explicit predecessor edge once both
    sides are stable, so the predecessor set alone is not the right witness).
    """
    violations: List[str] = []
    for replica in replicas:
        if replica.crashed or getattr(replica, "delivery", None) is None:
            continue
        stable_entries = list(replica.history.stable_entries())
        positions = replica.execution_log.positions()
        for i, first in enumerate(stable_entries):
            for second in stable_entries[i + 1:]:
                if not first.command.conflicts_with(second.command):
                    continue
                earlier, later = ((first, second) if first.timestamp < second.timestamp
                                  else (second, first))
                pos_earlier = positions.get(earlier.command_id)
                pos_later = positions.get(later.command_id)
                if pos_earlier is None or pos_later is None:
                    # Not executed yet on this replica; the predecessor edge
                    # must still be present so delivery happens in order.
                    if (pos_later is None and pos_earlier is None
                            and earlier.command_id not in later.predecessors):
                        violations.append(
                            f"node {replica.node_id}: {earlier.command_id} "
                            f"(ts {earlier.timestamp}) missing from predecessors of "
                            f"{later.command_id} (ts {later.timestamp})")
                    continue
                if pos_earlier > pos_later:
                    violations.append(
                        f"node {replica.node_id}: executed {later.command_id} "
                        f"(ts {later.timestamp}) before {earlier.command_id} "
                        f"(ts {earlier.timestamp})")
    return violations


def check_execution_consistency(replicas: Sequence) -> List[str]:
    """Conflicting commands appear in the same relative order on every replica.

    Works for any protocol (it only relies on the execution logs), so the
    baselines are checked with the same function as CAESAR.
    """
    return [f"nodes {a}/{b} disagree on the order of {first} and {second}"
            for a, b, first, second in order_violations(replicas)]


def check_timestamp_order(replicas: Sequence[CaesarReplica]) -> List[str]:
    """Execution order of conflicting commands follows their final timestamps."""
    violations: List[str] = []
    for replica in replicas:
        if replica.crashed or getattr(replica, "delivery", None) is None:
            continue
        executed = [command for command in replica.execution_log]
        for i, first in enumerate(executed):
            first_entry = replica.history.get(first.command_id)
            if first_entry is None or first_entry.status is not CommandStatus.STABLE:
                continue
            for second in executed[i + 1:]:
                if not first.conflicts_with(second):
                    continue
                second_entry = replica.history.get(second.command_id)
                if second_entry is None or second_entry.status is not CommandStatus.STABLE:
                    continue
                if first_entry.timestamp > second_entry.timestamp:
                    violations.append(
                        f"node {replica.node_id}: executed {first.command_id} "
                        f"(ts {first_entry.timestamp}) before {second.command_id} "
                        f"(ts {second_entry.timestamp}) despite larger timestamp")
    return violations


def check_delivery_quiescent(replicas: Sequence) -> List[str]:
    """Every stable, undelivered command still waits on an undelivered predecessor.

    Handlers run to completion, so between events a deliverable command must
    already have been delivered; one left behind means the delivery manager
    lost its wake-up (filed it under the wrong bit, dropped a list too early)
    and it would otherwise only show as a run that never drains.  Replicas of
    protocols without a delivery manager are skipped, so the chaos driver can
    run this on any cluster.
    """
    violations: List[str] = []
    for replica in replicas:
        delivery = getattr(replica, "delivery", None)
        if replica.crashed or delivery is None:
            continue
        is_delivered = delivery.is_delivered
        for entry in replica.history.stable_entries():
            if (not is_delivered(entry.command_id)
                    and all(is_delivered(pred) for pred in entry.predecessors)):
                violations.append(
                    f"node {replica.node_id}: stable {entry.command_id} "
                    f"(ts {entry.timestamp}) is deliverable but was never delivered")
    return violations


def check_delivered_closed(replicas: Sequence) -> List[str]:
    """Every predecessor a delivered command still lists has been delivered.

    A command is delivered only once its predecessor mask is inside the
    delivered set, and afterwards the mask only loses bits, so the delivered
    set stays closed under predecessors.  BREAKLOOP relies on it: clearing a
    newly stable (undelivered) command's bit from a delivered predecessor's
    mask would be a no-op, so it does not visit those predecessors at all.
    Replicas without a delivery manager are skipped, as in
    :func:`check_delivery_quiescent`.
    """
    violations: List[str] = []
    for replica in replicas:
        delivery = getattr(replica, "delivery", None)
        if replica.crashed or delivery is None:
            continue
        history = replica.history
        for entry in history.entries():
            delivered = entry.bucket.delivered
            stray = entry.pred_mask & ~delivered
            if stray and (delivered >> entry.index) & 1:
                violations.append(
                    f"node {replica.node_id}: delivered {entry.command_id} "
                    f"(ts {entry.timestamp}) lists undelivered predecessors "
                    f"{sorted(history.iter_mask(stray, entry.command.key))}")
    return violations


def check_mask_width(replicas: Sequence) -> List[str]:
    """No entry, bucket or parked-proposal mask is wider than its key's interner.

    A mask drawn from a node-wide index fails as soon as two keys are seen.
    Replicas without a delivery manager are skipped.
    """
    violations: List[str] = []
    for replica in replicas:
        if getattr(replica, "delivery", None) is None:
            continue
        history = replica.history
        masks = [(entry.command.key, f"pred_mask of {entry.command_id}", entry.pred_mask)
                 for entry in history.entries()]
        masks += [(key, name, getattr(bucket, name)) for key, bucket in history._by_key.items()
                  for name in ("all_mask", "write_mask", "delivered")]
        masks += [(key, f"{name} of {parked.command_id}", getattr(parked, name))
                  for key, parked_list in replica.wait_manager._parked_by_key.items()
                  for parked in parked_list for name in ("blocker_mask", "witness_mask")]
        for key, what, mask in masks:
            width = len(history.bucket(key).index_of)
            if mask.bit_length() > width:
                violations.append(f"node {replica.node_id}: {what} on key {key!r} is "
                                  f"{mask.bit_length()} bits wide, {width} ids interned")
    return violations


def check_bucket_index(replicas: Sequence) -> List[str]:
    """Every key bucket agrees with its entries, and ``_bucket_of`` holds exactly
    the bound ids that have no entry.  Replicas without a delivery manager are
    skipped.
    """
    violations: List[str] = []
    for replica in replicas:
        if getattr(replica, "delivery", None) is None:
            continue
        history, without_entry = replica.history, {}
        for key, bucket in history._by_key.items():
            entries, id_of = bucket.entries, bucket.id_of
            bits = {1 << e.index: e.command.is_write for e in entries}
            failed = [what for what, holds in (
                ("entries are not in timestamp order",
                 all(a.timestamp <= b.timestamp for a, b in zip(entries, entries[1:]))),
                ("id_of and index_of are not inverse", len(id_of) == len(bucket.index_of)
                 and bucket.index_of == {command_id: i for i, command_id in enumerate(id_of)}),
                ("an entry is not the one its index names", all(
                    e.bucket is bucket and e.index < len(id_of) and history.get(id_of[e.index]) is e
                    for e in entries)),
                ("all_mask / write_mask are not its entries' bits",
                 (bucket.all_mask, bucket.write_mask)
                 == (sum(bits), sum(bit for bit, write in bits.items() if write)))) if not holds]
            violations += [f"node {replica.node_id}: key {key!r}: {what}" for what in failed]
            without_entry.update((i, bucket) for i in id_of if i not in history)
        if history._bucket_of != without_entry:   # buckets compare by identity
            stray = sorted(history._bucket_of.keys() ^ without_entry.keys())
            violations.append(f"node {replica.node_id}: _bucket_of is not the bound ids "
                              f"without an entry: {stray}")
    return violations


def check_promises(replicas: Sequence) -> List[str]:
    """Each promise in a replica's table is above its command's entry's ballot,
    and none outlives a collected command.  Replicas without the table are skipped.
    """
    violations: List[str] = []
    for replica in replicas:
        for command_id, ballot in getattr(replica, "promises", {}).items():
            entry = replica.history.get(command_id)
            if entry is not None and not ballot > entry.ballot:
                violations.append(f"node {replica.node_id}: promise {ballot} of {command_id} "
                                  f"is not above its entry's ballot {entry.ballot}")
            elif entry is None and replica.delivery.is_delivered(command_id):
                violations.append(f"node {replica.node_id}: {command_id} was collected "
                                  f"but its promise {ballot} was kept")
    return violations


def check_all(replicas: Sequence) -> List[str]:
    """Run every invariant checker and concatenate the violations."""
    violations: List[str] = []
    violations.extend(check_agreement(replicas))
    violations.extend(check_graph_invariant(replicas))
    violations.extend(check_execution_consistency(replicas))
    violations.extend(check_timestamp_order(replicas))
    violations.extend(check_delivery_quiescent(replicas))
    violations.extend(check_delivered_closed(replicas))
    violations.extend(check_mask_width(replicas))
    violations.extend(check_bucket_index(replicas))
    violations.extend(check_promises(replicas))
    return violations
