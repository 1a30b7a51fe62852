"""The per-message path builds its records positionally.

A keyword call of a class makes ``type.__call__`` pack the keywords into a
dict before ``__init__`` runs, so ``Command(command_id=..., key=...)`` costs
about twice ``Command(..., ...)`` (``timeit``, Python 3.11).  Every record
built once or more per simulated message or command is therefore built
with positional arguments; cold paths (recovery, catch-up supply, configs)
keep their keywords.  This AST scan holds the line: every ``@handles``
method of CAESAR and the baselines, and the per-command functions named
below (the TCP replica's and client's reply paths among them), may build
none of the records in :data:`RECORDS` with a keyword.  The cases that put a
keyword construction back are rows of ``tests/mutants.py``.
"""

from __future__ import annotations

import ast

import pytest

from repro.runtime.registry import TYPE_IDS
from tests import source_index

#: Every registered message, and the per-message / per-command records.
RECORDS = frozenset({qualname.rpartition(".")[2] for qualname in TYPE_IDS} | {
    "Command", "CommandResult", "CommandSample", "Decision", "HistoryEntry",
    "Instance", "LeaderState", "_LeaderState", "Operation", "QuorumTracker", "_PendingAccept",
    "_PendingAcquire", "_SlotState",
})

#: Files whose ``@handles`` methods are scanned.
HANDLER_FILES = ("core/caesar.py", "baselines/epaxos.py", "baselines/m2paxos.py",
                 "baselines/mencius.py", "baselines/multipaxos.py")

#: Functions run once or more per command that are not message handlers.
PER_COMMAND = {
    "core/caesar.py": ("CaesarReplica.propose", "CaesarReplica._start_fast_proposal",
                       "CaesarReplica._start_slow_proposal", "CaesarReplica._start_retry",
                       "CaesarReplica._start_stable", "CaesarReplica._answer_proposal"),
    "core/history.py": ("CommandHistory.update",),
    "baselines/epaxos.py": ("EPaxosReplica.propose", "EPaxosReplica._commit_instance"),
    "baselines/m2paxos.py": ("M2PaxosReplica.propose", "M2PaxosReplica._lead_at",
                             "M2PaxosReplica._acquire_then_lead"),
    "baselines/mencius.py": ("MenciusReplica.propose",),
    "baselines/multipaxos.py": ("MultiPaxosReplica.propose", "MultiPaxosReplica._lead"),
    "chaos/history.py": ("HistoryTape.invoke",),
    "consensus/interface.py": ("ConsensusReplica.submit", "ConsensusReplica.execute_command"),
    "workload/generator.py": ("ConflictWorkload.next_command",),
    "workload/clients.py": ("ClosedLoopClient._submit_next", "OpenLoopClient._inject"),
    "metrics/collector.py": ("MetricsCollector.record_command",),
    "net/client.py": ("RemoteReplica.data_received",),
    "net/replica.py": ("ReplicaServer._submit",),
}

#: Handlers that run only on a recovery or an election, not per command.
COLD_HANDLERS = {
    "baselines/epaxos.py": ("EPaxosReplica._on_prepare", "EPaxosReplica._on_prepare_reply"),
    "baselines/multipaxos.py": ("MultiPaxosReplica._on_leader_prepare",
                                "MultiPaxosReplica._on_leader_prepare_reply"),
}


def is_handler(function: ast.FunctionDef) -> bool:
    return any(isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name)
               and decorator.func.id == "handles" for decorator in function.decorator_list)


def record_aliases(function: ast.FunctionDef) -> set:
    """Local names bound to a record class (``reply_cls = A if fast else B``)."""
    aliases = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = node.value
            choices = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
            if all(isinstance(choice, ast.Name) and choice.id in RECORDS for choice in choices):
                aliases.add(node.targets[0].id)
    return aliases


def keyword_constructions(function: ast.FunctionDef) -> list:
    """``(line, record)`` of every record built with a keyword inside ``function``."""
    constructors = RECORDS | record_aliases(function)
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and node.keywords:
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else None)
            if name in constructors:
                found.append((node.lineno, name))
    return found


def scanned(path: str) -> dict:
    """The functions of one file the guard scans, by ``Class.method``."""
    table = source_index.methods(path)
    cold = COLD_HANDLERS.get(path, ())
    chosen = {name: function for name, function in table.items()
              if path in HANDLER_FILES and is_handler(function) and name not in cold}
    chosen.update((name, table[name]) for name in PER_COMMAND.get(path, ()))
    return chosen


ALL_FILES = sorted(set(HANDLER_FILES) | set(PER_COMMAND))


@pytest.mark.parametrize("path", ALL_FILES)
def test_no_record_is_built_with_keywords_on_the_per_message_path(path):
    assert [f"{path}:{line} {name}: {record}(...) with keywords"
            for name, function in sorted(scanned(path).items())
            for line, record in keyword_constructions(function)] == []


def test_every_named_function_exists_and_every_cold_handler_is_a_handler():
    for path in ALL_FILES:
        table = source_index.methods(path)
        missing = [name for name in PER_COMMAND.get(path, ()) if name not in table]
        assert missing == [], path
        for name in COLD_HANDLERS.get(path, ()):
            assert name in table and is_handler(table[name]), (path, name)


def test_the_scan_covers_every_handler_it_should():
    """Each protocol file contributes its handlers, so a decorator the scan
    stopped recognising would show up here rather than pass silently."""
    counts = {path: sum(map(is_handler, source_index.methods(path).values()))
              for path in HANDLER_FILES}
    assert counts == {"core/caesar.py": 10, "baselines/epaxos.py": 7,
                      "baselines/m2paxos.py": 7, "baselines/mencius.py": 4,
                      "baselines/multipaxos.py": 6}
