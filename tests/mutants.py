"""The mutation table: known mistakes the suite must catch, and its runner.

Each row plants one mistake in a file under ``src/repro`` (an exact snippet,
once in the file, and its replacement) and names the tests that must then fail
with an ``AssertionError`` (carrying ``match``, if given), as pytest node ids;
the runner hands them to pytest, so a row runs exactly what ``pytest <ids>``
runs.  A row is applied by when its code runs: ``CALL`` recompiles the
top-level function or method holding the snippet and patches it onto its
class or module (a killer that imported a module-level function by name would
not see it); ``STATIC`` hands the AST checks the mutated text through
``tests/source_index.py``; ``IMPORT`` (generated codecs, ``value_type``
constructors) rewrites the file in a temporary copy of the package and runs
the killer in a fresh interpreter that imports it from there.  Tier-1 runs every row
(``tests/test_mutants.py``).  As a script it prints each row as ``killed``,
``SURVIVED`` or ``stale`` (snippet not in its file exactly once, or killer
naming no test) and exits 1 unless every row is killed::

    PYTHONPATH=src python tests/mutants.py [row ...]
"""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple

import hypothesis
import pytest
from hypothesis import HealthCheck, Phase

if __name__ == "__main__":  # run as a script: put the repository root on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import source_index  # noqa: E402

ROOT = source_index.ROOT
PACKAGE = ROOT / "src" / "repro"
CALL, STATIC, IMPORT = "call", "static", "import"
KILLED, SURVIVED, STALE = "killed", "SURVIVED", "stale"


class Mutant(NamedTuple):
    path: str       # under src/repro
    old: str        # the exact text, once in the file
    new: str
    killer: str     # pytest node ids, space-separated: ``tests/<file>.py[::Class][::name[id]]``
    how: str = CALL
    match: str = ""  # text the killer's AssertionError must carry


SPEC = "spec disagrees"
CAESAR_SPEC = "tests/test_caesar_differential.py::"
#: Every acceptor scenario, then every seeded schedule (wait condition on and off).
ACCEPTOR = " ".join(CAESAR_SPEC + name for name in (
    "TestScenarios", "TestRandomSchedules::test_seeded_schedule_agrees",
    "TestRandomSchedules::test_seeded_schedule_agrees_with_the_wait_condition_off"))
#: Every leader scenario, then every seeded leader schedule.
LEADER = " ".join(CAESAR_SPEC + name for name in (
    "TestLeaderScenarios", "TestLeaderRandomSchedules::test_seeded_leader_schedule_agrees"))
EPAXOS_SPEC = "tests/test_epaxos_differential.py::"
COMPACTION = "tests/test_core_compaction.py::"
HOT_PATH = ("tests/test_hot_path_construction.py::"
            "test_no_record_is_built_with_keywords_on_the_per_message_path")
KEYWORDS = "tests/test_product_keywords.py::"
SINGLE_VALUED = KEYWORDS + "test_no_setting_takes_one_value_on_every_product_path"
ENGINE = ("tests/test_sim_engine_differential.py::TestEngineDifferential::"
          "test_same_firing_order_clock_and_steps")
WIRE = "tests/test_codec_differential.py::test_every_registered_type_matches_the_wire_spec"
RESTART = "tests/test_retransmission.py::TestRestartRearms::"

#: The end of a CAESAR handler's check for a collected command (three rows
#: take it out: the text after it tells the handlers apart).
_COLLECTED = "self.delivery.is_delivered(command_id)):\n            return\n"
#: The run loops' choice between the transient slot and the heap head.
_SLOT_OR_HEAD = ("if entry is not None and (not heap or entry < heap[0]):\n"
                 "                    if entry[0] > until:")

#: ``OptionalCodec``'s presence byte, written and then read.
_OPTIONAL = ('gen.line(f"if {value} is None: ap(0)")\n'
             '        with gen.block("else:"):\n'
             '            gen.line("ap(1)")\n'
             '            self.inner.emit_encode(gen, value)\n'
             '\n'
             '    def emit_decode(self, gen: SourceWriter) -> str:\n'
             '        present = gen.var()\n'
             '        gen.line(f"{present} = data[o]; o += 1")\n'
             '        with gen.block(f"if {present}:"):')

MUTANTS: Dict[str, Mutant] = {
    # --- CAESAR's acceptor, WAIT, BREAKLOOP and recovery, against the spec.
    "wait-immediate-ok-always": Mutant(
        "core/predecessors.py", "if not entries or entries[-1].stamp <= stamp:",
        "if True:", ACCEPTOR, match=SPEC),
    "wait-immediate-ok-always-end-to-end": Mutant(
        "core/predecessors.py", "if not entries or entries[-1].stamp <= stamp:",
        "if True:",
        CAESAR_SPEC + "TestSpecEndToEnd::test_the_spec_as_a_protocol_runs_the_cell_as_the_"
        "product_does", match=SPEC),
    "immediate-answer-ok-on-nack": Mutant(
        "core/caesar.py", "if verdict and not parked:", "if verdict is not None and not parked:",
        ACCEPTOR, match=SPEC),
    "6g-shortcut-with-a-parked-proposal": Mutant(
        "core/caesar.py", "if verdict and not parked:", "if verdict:", ACCEPTOR, match=SPEC),
    "nack-write-not-told-to-wait": Mutant(
        "core/caesar.py",
        "CommandStatus.REJECTED, ballot, entry)\n"
        "            if self.wait_manager.parked:\n"
        "                self.wait_manager.notify_entry(entry)",
        "CommandStatus.REJECTED, ballot, entry)", ACCEPTOR, match=SPEC),
    "breakloop-skips-every-delivered": Mutant(
        "core/delivery.py",
        "mask & ~(bucket.delivered & bucket.prefix_mask(my_stamp, writes_only=False))",
        "mask & ~bucket.delivered",
        "tests/test_delivery_differential.py::TestIndexedDeliveryMatchesSpec", match=SPEC),
    # PR 7's bug: the recovering node's own tuple never counted.
    "recovery-without-the-local-vote": Mutant(
        "core/recovery.py",
        "self.on_recovery_reply(self.replica.node_id, self._local_reply(command_id, ballot))",
        "pass", LEADER, match=SPEC),
    "recovery-whitelist-at-the-majority": Mutant(
        "core/recovery.py", "< majority", "<= majority", LEADER, match=SPEC),
    "reply-merge-keeps-the-first-timestamp": Mutant(
        "core/caesar.py",
        "if highest is None or (timestamp is not highest and timestamp > highest):",
        "if highest is None:", LEADER, match=SPEC),
    "reply-merge-keeps-the-own-id": Mutant(
        "core/caesar.py", "predecessors.discard(state.command.command_id)", "pass", LEADER,
        match=SPEC),
    "recovery-accepted-before-stable": Mutant(
        "core/recovery.py", "if stable:", "if stable and not accepted:", LEADER, match=SPEC),

    # --- Loud answers: an order violation fails its sweep and `repro run`, a reused
    # id is rejected and fails its loadgen session, a kill stops serve's cluster.
    "sweep-ignores-order-violations": Mutant(
        "harness/sweep.py", "if result.consistency_violations:", "if False:",
        "tests/test_sweep.py::TestSweepFailures::test_an_order_violation_fails_the_sweep_with_"
        "the_cell_name"),
    "an-executed-id-is-proposed-again": Mutant(
        "consensus/interface.py",
        "        if self.has_executed(command.command_id):\n"
        "            callback(CommandResult(command.command_id, None, self.sim.now,"
        " ALREADY_EXECUTED))\n"
        "            return\n", "",
        "tests/test_replica_interface.py::TestConsensusReplicaBase::test_an_executed_id_"
        "submitted_again_is_rejected_at_once"),
    "an-id-in-flight-is-proposed-again": Mutant(
        "consensus/interface.py",
        "        if command.command_id in self._client_callbacks:\n"
        "            callback(CommandResult(command.command_id, None, self.sim.now, IN_FLIGHT))\n"
        "            return\n", "",
        "tests/test_replica_interface.py::TestConsensusReplicaBase::test_an_id_still_in_flight_"
        "submitted_again_is_rejected_at_once"),
    "run-exits-0-on-a-violation": Mutant(
        "cli.py", 'return "\\n".join(lines), 1 if result.consistency_violations else 0',
        'return "\\n".join(lines), 0',
        "tests/test_cli.py::TestCommands::test_run_exits_1_on_a_consistency_violation"),
    "loadgen-passes-a-reused-id-session": Mutant(
        "net/client.py", "if message.rejected in (ALREADY_EXECUTED, IN_FLIGHT):", "if False:",
        "tests/test_net_loopback.py::TestReusedIds::test_a_second_session_with_the_same_seed_"
        "fails"),
    "serve-ignores-sigterm": Mutant(
        "cli.py", "previous = signal.signal(signal.SIGTERM, _interrupt)",
        "previous = signal.getsignal(signal.SIGTERM)",
        "tests/test_cli.py::TestServeSignals::test_sigterm_stops_every_process_the_cluster_"
        "started", IMPORT),

    # --- Each per-command fact kept once: what stands in for the copies that went.
    "order-check-builds-positions-per-pair": Mutant(
        "consensus/interface.py", "if j not in positions:", "if True:",
        "tests/test_core_invariants.py::TestCheckersDetectViolations::test_execution_"
        "consistency_builds_each_logs_positions_once", IMPORT),
    "a-lower-stable-forgets-the-promise": Mutant(
        "core/caesar.py", "self.promises[command_id] = promised", "pass",
        CAESAR_SPEC + "TestPromises::test_random_messages_leave_the_promise_the_spec_register_"
        "holds", match=SPEC),
    "a-delivered-command-executes-again": Mutant(
        "core/delivery.py", "if bucket.delivered & bit:", "if False:",
        "tests/test_replica_interface.py::TestConsensusReplicaBase::test_a_second_execution_"
        "raises[caesar]"),
    "a-moved-timestamp-is-not-re-filed": Mutant(
        "core/history.py", "                bucket.discard(entry)\n"
        "                entry.stamp = stamp\n"
        "                bucket.insert(entry)\n", "                entry.stamp = stamp\n",
        ACCEPTOR, match=SPEC),
    "an-equal-stamp-hides-the-entry-to-remove": Mutant(
        "core/history.py", "            position += 1\n", "            return\n",
        "tests/test_core_history.py::TestSortKeys::test_equal_stamps_are_told_apart_by_"
        "identity"),

    # --- History collection's rules.
    "no-floor-on-an-emptied-key": Mutant(
        "core/predecessors.py", "return bucket.floor <= stamp or (", "return True or (",
        COMPACTION + "TestRules::test_a_proposal_below_the_floor_gets_the_uncollected_verdict"
        "[put-False]"),
    "no-floor-differential": Mutant(
        "core/predecessors.py", "return bucket.floor <= stamp or (", "return True or (",
        COMPACTION + "TestAgainstTheSpec::test_seeded_streams_collect_and_agree"),
    "no-floor-in-the-scan": Mutant(
        "core/predecessors.py", "witness_mask = self_bit if", "witness_mask = 0 if",
        COMPACTION + "TestRules::test_a_parked_proposal_below_the_floor_is_nacked_once_it_"
        "resolves"),
    "a-late-stable-re-creates-its-entry": Mutant(
        "core/caesar.py", _COLLECTED + "        ballot = message.ballot",
        "False):\n            return\n        ballot = message.ballot",
        COMPACTION + "TestRules::test_a_late_message_naming_a_collected_command_changes_"
        "nothing[stable]"),
    "a-late-proposal-is-answered": Mutant(
        "core/caesar.py", _COLLECTED[:-1] + "  # collected: decided and delivered everywhere",
        "False):\n            return  # collected: decided and delivered everywhere",
        COMPACTION + "TestAgainstTheSpec::test_seeded_streams_collect_and_agree"),
    "a-late-retry-is-answered": Mutant(
        "core/caesar.py", _COLLECTED + "        self.timestamps.observe(message.timestamp)",
        "False):\n            return\n        self.timestamps.observe(message.timestamp)",
        COMPACTION + "TestRules::test_a_late_message_naming_a_collected_command_changes_"
        "nothing[retry]"),
    "one-silent-peer-is-ignored": Mutant(
        "core/collection.py", "if mask == everyone:",
        "if mask.bit_count() + 1 >= everyone.bit_count():",
        COMPACTION + "TestRules::test_a_command_every_replica_reported_is_collected_and_a_"
        "silent_peer_pins_it"),
    "collection-keeps-a-promise": Mutant(
        "core/collection.py", "replica.promises.pop(command_id, None)", "pass",
        COMPACTION + "TestRules::test_a_collected_command_takes_its_promise_with_it"),
    "removal-ignores-parked-proposals": Mutant(
        "core/collection.py", "if wait_manager.parked and", "if False and",
        COMPACTION + "TestRules::test_removal_waits_while_a_proposal_is_parked_on_the_key"),
    "a-report-past-a-gap-is-counted": Mutant(
        "core/collection.py", "if start <= cursor.received < start + len(ids):",
        "if cursor.received < start + len(ids):",
        COMPACTION + "TestReports::test_collection_resumes_after_a_dropped_report"),
    "an-unacknowledged-report-is-never-resent": Mutant(
        "core/collection.py", "cursor.sent, cursor.unacked_reports = cursor.acked, 0",
        "cursor.unacked_reports = 0",
        COMPACTION + "TestReports::test_a_report_that_is_never_acknowledged_is_sent_again"),

    # --- A restart re-arms what the crash silently killed (PRs 29 and 39).
    "restart-leaves-the-reports-unarmed": Mutant(
        "core/caesar.py", "if self._report_timer is not None:", "if False:",
        COMPACTION + "TestReports::test_collection_resumes_after_a_crash_and_restart"),
    "restart-waits-out-the-rounds-deadlines": Mutant(
        "runtime/kernel.py", "            entry.deadline = now\n"
        "            entry.last_count = self._count(entry)\n", "            pass\n",
        RESTART + "test_a_round_broadcast_before_a_crash_is_resent_at_the_first_scan_after_"
        "the_restart"),
    "restart-leaves-fast-timeouts-unarmed": Mutant(
        "core/caesar.py", "if state.phase == PHASE_FAST:", "if False:",
        RESTART + "test_a_fast_round_short_of_its_fast_quorum_times_out_into_the_slow_path"),

    # --- EPaxos against its spec.
    "epaxos-commit-during-explicit-prepare-re-accepted": Mutant(
        "baselines/epaxos.py",
        "elif local is not None and local.status in (InstanceStatus.COMMITTED,",
        "elif False and local.status in (InstanceStatus.COMMITTED,",
        EPAXOS_SPEC + "TestScenarios::test_a_commit_during_explicit_prepare_is_final",
        match=SPEC),
    "epaxos-received-no-op-keeps-the-command": Mutant(
        "baselines/epaxos.py", "if instance.command is not message.command:",
        "if instance.command is None:",
        EPAXOS_SPEC + "TestRepresentations::test_a_command_committed_as_a_no_op_is_not_"
        "executed[received]"),
    "epaxos-adopted-no-op-keeps-the-command": Mutant(
        "baselines/epaxos.py", "if instance.command is not command:",
        "if instance.command is None:",
        EPAXOS_SPEC + "TestRepresentations::test_a_command_committed_as_a_no_op_is_not_"
        "executed[adopted]"),

    # --- The simulator's run loops and its jitter draw (PRs 30 and 42).
    "run-loop-ties-go-to-the-slot": Mutant(
        "sim/simulator.py", _SLOT_OR_HEAD,
        _SLOT_OR_HEAD.replace("entry < heap[0]", "entry[0] <= heap[0][0]"), ENGINE),
    "run-loop-ties-go-to-the-heap": Mutant(
        "sim/simulator.py", _SLOT_OR_HEAD,
        _SLOT_OR_HEAD.replace("entry < heap[0]", "entry[0] < heap[0][0]"), ENGINE),
    "run-until-slot-exempt-from-the-deadline": Mutant(
        "sim/simulator.py", "if entry[0] > deadline:\n                        break\n"
        "                    queue._slot = None", "queue._slot = None", ENGINE),
    "run-until-counts-a-cancelled-entry": Mutant(
        "sim/simulator.py", "return predicate()\n"
        "                time, _, callback, args, event = entry\n"
        "                if event is not None and event.cancelled:\n",
        "return predicate()\n"
        "                time, _, callback, args, event = entry\n"
        "                if event is not None and event.cancelled:\n"
        "                    executed += 1\n", ENGINE),
    "jitter-drops-the-second-gaussian": Mutant(
        "sim/network.py", "generator.gauss_next = sin(x2pi) * g2rad",
        "generator.gauss_next = None",
        "tests/test_sim_network.py::TestImpairments::test_inline_jitter_is_random_gauss_on_"
        "the_forked_seed[5-3.0]"),

    # --- Generated code: the codecs and the value-type constructors (PRs 36 and 42).
    "frozenset-encoded-unsorted": Mutant(
        "runtime/codec.py", 'wire_order = "sorted({})"', 'wire_order = "{}"',
        WIRE + "[FastPropose]", IMPORT),
    "inline-varint-two-bytes-take-16384": Mutant(
        "runtime/codec.py", "elif {name} < 16384:", "elif {name} <= 16384:",
        "tests/test_codec_differential.py::test_boundary_messages_match_the_wire_spec", IMPORT),
    "optional-presence-inverted-both-ways": Mutant(
        "runtime/codec.py", _OPTIONAL,
        _OPTIONAL.replace("None: ap(0)", "None: ap(1)").replace('"ap(1)"', '"ap(0)"')
        .replace("if {present}:", "if not {present}:"), WIRE + "[FastPropose]", IMPORT),
    "nested-message-offset-relative": Mutant(
        "runtime/registry.py", "decode(data, o)", "decode(data[o:])",
        WIRE + "[MessageBatch]", IMPORT),
    "value-type-last-two-setters-swapped": Mutant(
        "runtime/codec.py",
        "        for spec in specs:\n"
        '            gen.line(f"{gen.bind(getattr(cls, spec.name).__set__)}(self, {spec.name})")',
        "        setters = [getattr(cls, spec.name).__set__ for spec in specs]\n"
        "        setters[-2:] = setters[:-3:-1]\n"
        "        for spec, setter in zip(specs, setters):\n"
        '            gen.line(f"{gen.bind(setter)}(self, {spec.name})")',
        "tests/test_value_types.py::test_construction_agrees_with_the_dataclass_twin[Heartbeat]",
        IMPORT),

    # --- Records built with keywords on the per-message path (PR 43).
    "keyword-reply-in-a-handler": Mutant(
        "baselines/epaxos.py", "self.send(src, AcceptReply(message.instance_id, message.ballot))",
        "self.send(src, AcceptReply(instance_id=message.instance_id, ballot=message.ballot))",
        HOT_PATH + "[baselines/epaxos.py]", STATIC),
    "keyword-tacked-on-in-a-per-command-function": Mutant(
        "baselines/epaxos.py",
        "self.broadcast(Commit(state.instance_id, state.command, seq, deps),",
        "self.broadcast(Commit(state.instance_id, state.command, seq=seq, deps=deps),",
        HOT_PATH + "[baselines/epaxos.py]", STATIC),
    "keyword-tcp-reply-on-the-client": Mutant(
        "net/client.py", "CommandResult(message.command_id, message.value, 0.0,\n"
        "                                               message.rejected)",
        "CommandResult(command_id=message.command_id, value=message.value,\n"
        "                                               rejected=message.rejected)",
        HOT_PATH + "[net/client.py]", STATIC),
    "keyword-tcp-reply-on-the-replica": Mutant(
        "net/replica.py", "ClientReply(command.command_id, result.value, int(result.rejected))",
        "ClientReply(command_id=command.command_id, value=result.value,\n"
        "                                rejected=int(result.rejected))",
        HOT_PATH + "[net/replica.py]", STATIC),
    "keyword-through-an-aliased-record-class": Mutant(
        "core/caesar.py", "reply_cls(command_id, ballot, reply_ts, reply_ids, ok)",
        "reply_cls(command_id, ballot, reply_ts, reply_ids, ok=ok)",
        HOT_PATH + "[core/caesar.py]", STATIC),
    "keyword-tape-record": Mutant(
        "chaos/history.py",
        "Operation(len(self.operations), client_id, key, operation, value, self.sim.now)",
        "Operation(len(self.operations), client_id, key, operation, value, "
        "invoked_at=self.sim.now)", HOT_PATH + "[chaos/history.py]", STATIC),

    # --- Settings no product path sets, put back (PRs 44 and 45).
    "wire-accounting-field-restored": Mutant(
        "sim/network.py", "    jitter_ms: float = 0.0\n",
        "    jitter_ms: float = 0.0\n    wire_accounting: bool = False\n",
        KEYWORDS + "test_every_pinned_config_field_is_set_by_a_product_path", STATIC),
    "simulator-seed-default-restored": Mutant(
        "sim/simulator.py", "def __init__(self, seed: int) -> None:",
        "def __init__(self, seed: int = 0) -> None:",
        KEYWORDS + "test_no_default_is_overridden_by_every_product_call", STATIC),
    "inflight-limit-default-restored": Mutant(
        "runtime/admission.py", "def __init__(self, max_inflight: int) -> None:",
        "def __init__(self, max_inflight: int = 64) -> None:",
        KEYWORDS + "test_no_default_is_overridden_by_every_product_call", STATIC),
    # --- Settings every product path gives one value, put back.
    "partition-mode-field-restored": Mutant(
        "chaos/nemesis.py", "    groups: Tuple[NodeGroup, ...]\n",
        '    groups: Tuple[NodeGroup, ...]\n    mode: str = "queue"\n', SINGLE_VALUED, STATIC),
    "detector-period-parameter-restored": Mutant(
        "sim/failures.py", "on_suspect: Callable[[int], None]) -> None:",
        "on_suspect: Callable[[int], None],\n"
        "                 period_ms: float = HEARTBEAT_EVERY_MS) -> None:", SINGLE_VALUED, STATIC),
    "checker-budget-passed-as-a-constant": Mutant(
        "chaos/checker.py", "_check_key(key, ops)\n    return report\n\n\n"
        "def _check_key(key: str, ops: Sequence[Operation]) -> KeyReport:",
        "_check_key(key, ops, MAX_STATES_PER_KEY)\n    return report\n\n\n"
        "def _check_key(key: str, ops: Sequence[Operation], max_states: int) -> KeyReport:",
        SINGLE_VALUED, STATIC),
}


# ------------------------------------------------------------------ killers

#: How the runner calls pytest on a row's killer: stop at the first failure
#: without formatting it, and leave out the plugins that hold process-wide
#: state the calling session owns (output capture, cache, fault handler, the
#: unraisable- and thread-exception hooks, which also run five full garbage
#: collections per session) or that cost time per session (pytest-benchmark
#: asks git for the commit).
PYTEST_ARGS = ("-x", "-q", "-s", "--tb=no", *(f"-pno:{plugin}" for plugin in (
    "cacheprovider", "faulthandler", "unraisableexception", "threadexception", "benchmark")))
#: Seconds a killer may run before its row fails (a mutant may make it loop).
KILLER_TIMEOUT_S = 300.0


class _Verdict:
    """A pytest plugin that notes how many tests the killer collected and the
    first exception a test's call raised.  A Hypothesis killer runs
    derandomized and stops at its first failure: a kill needs no minimal
    example, and shrinking one takes seconds."""

    def __init__(self) -> None:
        self.collected = 0
        self.failure: BaseException | None = None

    def pytest_collection_finish(self, session) -> None:
        self.collected = len(session.items)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        function = getattr(item.obj, "__func__", item.obj)
        current = getattr(function, "_hypothesis_internal_use_settings", None)
        if current is None:
            return (yield)
        # The calling session may have run this method on another instance.
        function._hypothesis_internal_use_settings = hypothesis.settings(
            current, phases=[Phase.explicit, Phase.generate], derandomize=True, database=None,
            report_multiple_bugs=False,
            suppress_health_check=[*current.suppress_health_check, HealthCheck.differing_executors])
        try:
            return (yield)
        finally:
            function._hypothesis_internal_use_settings = current

    @pytest.hookimpl(tryfirst=True)  # before the runner's, which ends the hook
    def pytest_runtest_makereport(self, item, call) -> None:
        if call.when == "call" and call.excinfo is not None and self.failure is None:
            self.failure = call.excinfo.value


def run_killer(row: Mutant) -> str:
    """Run the row's killer through pytest on the code as it is now: killed,
    survived, or stale when it names no test.  pytest runs on a thread of its
    own: Hypothesis fails a ``@given`` method one thread calls on two
    instances, and the calling session runs each killer on its own instance."""
    verdict = _Verdict()
    thread = threading.Thread(
        target=pytest.main, args=([*PYTEST_ARGS, "--rootdir", str(ROOT),
                                   *(str(ROOT / node_id) for node_id in row.killer.split())],),
        kwargs={"plugins": [verdict]}, name="mutant-killer", daemon=True)
    with contextlib.redirect_stdout(io.StringIO()):
        thread.start()
        thread.join(KILLER_TIMEOUT_S)
    if thread.is_alive():
        raise TimeoutError(f"{row.killer} ran past {KILLER_TIMEOUT_S:.0f} s")
    if not verdict.collected:
        return STALE
    failure = verdict.failure
    return KILLED if isinstance(failure, AssertionError) and row.match in str(failure) else SURVIVED


# ------------------------------------------------------------------ applying

@contextlib.contextmanager
def _patched(row: Mutant, text: str) -> Iterator[None]:
    """The top-level function or method holding the snippet, recompiled with
    the replacement and set on its class or module until the block ends."""
    line = text[:text.index(row.old)].count("\n") + 1
    tree = ast.parse(text)
    top = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)] + [
        (cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)]
    class_name, node = next((class_name, node) for class_name, node in top
                            if node.lineno <= line <= node.end_lineno)
    first = min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])
    lines = text.splitlines(keepends=True)
    source = "".join(lines[first - 1:node.end_lineno]).replace(row.old, row.new)
    if class_name is not None:  # compiled in a class body, so super() and mangling hold
        source = f"class {class_name}:\n" + source
        first -= 1
    module = importlib.import_module("repro." + row.path[:-len(".py")].replace("/", "."))
    namespace = dict(vars(module))
    # compile() inherits this module's ``from __future__ import annotations``.
    exec(compile("\n" * (first - 1) + source, str(PACKAGE / row.path), "exec"), namespace)
    owner = module if class_name is None else getattr(module, class_name)
    replacement = (namespace if class_name is None
                   else vars(namespace[class_name]))[node.name]
    code = getattr(replacement, "__code__", None)
    if code is not None and "__class__" in code.co_freevars:
        replacement.__closure__[code.co_freevars.index("__class__")].cell_contents = owner
    original = vars(owner)[node.name]
    setattr(owner, node.name, replacement)
    try:
        yield
    finally:
        setattr(owner, node.name, original)


def _in_a_copy(name: str, mutated: str) -> str:
    """Run the row's killer in a fresh interpreter that imports ``repro`` from
    a temporary copy of the package carrying it."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        shutil.copytree(PACKAGE, Path(tmp) / "repro", ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / "repro" / MUTANTS[name].path).write_text(mutated, encoding="utf-8")
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--as-is", name],
                              cwd=ROOT, env=dict(os.environ, PYTHONPATH=tmp),
                              capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"{name}: the copy's run exited {done.returncode}:\n{done.stderr}")
    return done.stdout.split()[-1]


def outcome(row: Mutant, name: str = "") -> str:
    """Apply ``row`` (``name``: its key in :data:`MUTANTS`, for an ``IMPORT``
    row), run its killer, undo it: :data:`KILLED`, :data:`SURVIVED` or :data:`STALE`."""
    text = (PACKAGE / row.path).read_text(encoding="utf-8")
    if text.count(row.old) != 1:
        return STALE
    if row.how == IMPORT:
        return _in_a_copy(name, text.replace(row.old, row.new))
    if row.how == STATIC:
        with source_index.substituted(source_index.PACKAGE_PREFIX + row.path,
                                      text.replace(row.old, row.new)):
            return run_killer(row)
    with _patched(row, text):
        return run_killer(row)


def main(argv: List[str]) -> int:
    if argv[:1] == ["--as-is"]:  # inside an IMPORT row's copy, which already carries it
        print(run_killer(MUTANTS[argv[1]]))
        return 0
    failed = 0
    for name in argv or list(MUTANTS):
        try:
            status = outcome(MUTANTS[name], name)
        except Exception as error:  # a killer that errors kills nothing
            status = f"{SURVIVED} ({type(error).__name__}: {error})"
        failed += status != KILLED
        print(f"{status:9s} {name:50s} {MUTANTS[name].killer}", flush=True)
    print(f"{len(argv or MUTANTS) - failed} of {len(argv or MUTANTS)} rows killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
