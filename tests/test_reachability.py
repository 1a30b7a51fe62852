"""The reachability probe's own parts, checked without its product runs.

``tests/reachability.py`` runs every product entry point under a profiling
hook (minutes; nightly).  These checks cover what that verdict rests on, in
seconds: the allow-list names live functions, the AST table keys a function
the way the hook records its code object, the hook writes its record on both
ways a child leaves, and the probe runs every ``repro`` subcommand.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser
from tests import reachability


def test_every_allowed_entry_names_a_function_and_a_reason():
    names = {f"{path}::{qualname}"
             for (path, _), (qualname, _) in reachability.functions().items()}
    assert sorted(set(reachability.ALLOWED) - names) == []
    assert all(reason.strip() for reason in reachability.ALLOWED.values())


def _code_objects(module):
    """``(qualname, code)`` of every function, method, property and
    class/static method a module defines at its top level or in its classes."""
    for value in vars(module).values():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield value.__qualname__, value.__code__
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    for accessor in (member.fget, member.fset):
                        if accessor is not None:
                            yield accessor.__qualname__, accessor.__code__
                elif inspect.isfunction(member):
                    yield member.__qualname__, member.__code__


@pytest.mark.parametrize("name", ["repro.runtime.kernel", "repro.core.history",
                                  "repro.consensus.timestamps", "repro.sim.failures"])
def test_functions_are_keyed_as_the_hook_records_them(name):
    """Decorated or not, a function's table key is its code object's
    ``(file, co_firstlineno)``, and the table names it by its qualname."""
    table = reachability.functions()
    module = importlib.import_module(name)
    path = os.path.relpath(module.__file__, reachability.PACKAGE).replace(os.sep, "/")
    # Methods a dataclass generates are compiled from a string, in no file.
    seen = [(qualname, code) for qualname, code in _code_objects(module)
            if code.co_filename == module.__file__]
    assert seen
    for qualname, code in seen:
        assert table[(path, code.co_firstlineno)][0] == qualname


def test_reached_keeps_only_files_of_the_package(tmp_path):
    inside = reachability.PACKAGE / "consensus" / "timestamps.py"
    (tmp_path / "1-0.txt").write_text(f"{inside}\t12\n{tmp_path / 'repro' / 'x.py'}\t3",
                                      encoding="utf-8")
    assert reachability.reached(tmp_path) == {("consensus/timestamps.py", 12)}


@pytest.mark.parametrize("leave", ["return", "os._exit"])
def test_the_hook_records_what_a_child_calls(tmp_path, leave):
    """A child's record is dumped at exit, and also when it leaves through
    ``os._exit`` as forked sweep workers do."""
    hook_dir, record_dir = tmp_path / "hook", tmp_path / "records"
    hook_dir.mkdir()
    record_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(reachability.SITECUSTOMIZE, encoding="utf-8")
    script = ("import os\n"
              "from repro.consensus.timestamps import TimestampGenerator\n"
              "TimestampGenerator(1).next_timestamp()\n")
    if leave == "os._exit":
        script += "os._exit(0)\n"
    env = dict(os.environ, REPRO_REACH_OUT=str(record_dir),
               PYTHONPATH=os.pathsep.join([str(hook_dir), str(reachability.SRC)]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)

    from repro.consensus.timestamps import TimestampGenerator
    called = TimestampGenerator.next_timestamp.__code__.co_firstlineno
    never = TimestampGenerator.suggestion_greater_than.__code__.co_firstlineno
    seen = reachability.reached(record_dir)
    assert ("consensus/timestamps.py", called) in seen
    assert ("consensus/timestamps.py", never) not in seen


def test_the_probe_runs_every_subcommand(tmp_path):
    """A subcommand the probe never runs would leave all its code unreached."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    cli_prefix = reachability._cli()
    probed = {argv[len(cli_prefix)] for _, argv in reachability.invocations(tmp_path)
              if argv[:len(cli_prefix)] == cli_prefix}
    # ``serve`` runs in reachability.serve_runs, outside the invocation list.
    assert probed | {"serve"} == set(subparsers.choices)
