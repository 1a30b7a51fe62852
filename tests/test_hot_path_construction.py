"""The per-message path builds its records positionally.

A keyword call of a class makes ``type.__call__`` pack the keywords into a
dict before ``__init__`` runs, so ``Command(command_id=..., key=...)`` costs
about twice ``Command(..., ...)`` (``timeit``, Python 3.11).  Every record
built once or more per simulated message or command is therefore built
with positional arguments; cold paths (recovery, catch-up supply, configs)
keep their keywords.  This AST scan holds the line: every ``@handles``
method of CAESAR and the baselines, and the per-command functions named
below (the TCP replica's and client's reply paths among them), may build
none of the records in :data:`RECORDS` with a keyword.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.runtime.registry import TYPE_IDS

PACKAGE = pathlib.Path(repro.__file__).parent

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


def methods(tree: ast.Module):
    """``Class.method -> FunctionDef`` for every method of every top-level class."""
    return {f"{cls.name}.{node.name}": node
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)}


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


def scanned(source: str, path: str) -> dict:
    """The functions of one file the guard scans, by ``Class.method``."""
    table = methods(ast.parse(source))
    cold = COLD_HANDLERS.get(path, ())
    chosen = {name: function for name, function in table.items()
              if path in HANDLER_FILES and is_handler(function) and name not in cold}
    chosen.update((name, table[name]) for name in PER_COMMAND.get(path, ()))
    return chosen


def violations(source: str, path: str) -> list:
    return [f"{path}:{line} {name}: {record}(...) with keywords"
            for name, function in sorted(scanned(source, path).items())
            for line, record in keyword_constructions(function)]


def read(path: str) -> str:
    return (PACKAGE / path).read_text(encoding="utf-8")


ALL_FILES = sorted(set(HANDLER_FILES) | set(PER_COMMAND))


@pytest.mark.parametrize("path", ALL_FILES)
def test_no_record_is_built_with_keywords_on_the_per_message_path(path):
    assert violations(read(path), path) == []


def test_every_named_function_exists_and_every_cold_handler_is_a_handler():
    for path in ALL_FILES:
        table = methods(ast.parse(read(path)))
        missing = [name for name in PER_COMMAND.get(path, ()) if name not in table]
        assert missing == [], path
        for name in COLD_HANDLERS.get(path, ()):
            assert name in table and is_handler(table[name]), (path, name)


def test_the_scan_covers_every_handler_it_should():
    """Each protocol file contributes its handlers, so a decorator the scan
    stopped recognising would show up here rather than pass silently."""
    counts = {path: sum(is_handler(function)
                        for function in methods(ast.parse(read(path))).values())
              for path in HANDLER_FILES}
    assert counts == {"core/caesar.py": 10, "baselines/epaxos.py": 7,
                      "baselines/m2paxos.py": 7, "baselines/mencius.py": 4,
                      "baselines/multipaxos.py": 6}


@pytest.mark.parametrize("original, keyword", [
    # A reply built in a handler.
    ("self.send(src, AcceptReply(message.instance_id, message.ballot))",
     "self.send(src, AcceptReply(instance_id=message.instance_id, ballot=message.ballot))"),
    # A row built in a per-command function, and a keyword tacked on at the end.
    ("self.broadcast(Commit(state.instance_id, state.command, seq, deps),",
     "self.broadcast(Commit(state.instance_id, state.command, seq=seq, deps=deps),"),
])
def test_a_keyword_construction_put_back_is_caught(original, keyword):
    source = read("baselines/epaxos.py")
    assert original in source
    found = violations(source.replace(original, keyword), "baselines/epaxos.py")
    assert len(found) == 1 and "with keywords" in found[0]


@pytest.mark.parametrize("path, original, keyword", [
    ("net/client.py",
     "CommandResult(message.command_id, message.value, 0.0,\n"
     "                                               bool(message.rejected))",
     "CommandResult(command_id=message.command_id, value=message.value,\n"
     "                                               rejected=bool(message.rejected))"),
    ("net/replica.py",
     "ClientReply(command.command_id, result.value, int(result.rejected))",
     "ClientReply(command_id=command.command_id, value=result.value,\n"
     "                                rejected=int(result.rejected))"),
])
def test_a_keyword_tcp_reply_is_caught(path, original, keyword):
    """The reply each TCP command ends with, once on the replica and once on the client."""
    source = read(path)
    assert original in source
    found = violations(source.replace(original, keyword), path)
    assert len(found) == 1 and "with keywords" in found[0]


def test_an_aliased_record_class_is_caught():
    source = read("core/caesar.py")
    original = "reply_cls(command_id, ballot, reply_ts, reply_ids, ok)"
    assert original in source
    found = violations(source.replace(original, "reply_cls(command_id, ballot, reply_ts, "
                                                "reply_ids, ok=ok)"), "core/caesar.py")
    assert [entry.split(": ", 1)[1] for entry in found] == ["reply_cls(...) with keywords"]


def test_a_keyword_tape_record_is_caught():
    """The chaos tape builds one ``Operation`` per command it records."""
    source = read("chaos/history.py")
    original = "Operation(len(self.operations), client_id, key, operation, value, self.sim.now)"
    assert original in source
    found = violations(source.replace(original, original.replace("self.sim.now",
                                                                 "invoked_at=self.sim.now")),
                       "chaos/history.py")
    assert [entry.split(": ", 1)[1] for entry in found] == ["Operation(...) with keywords"]
