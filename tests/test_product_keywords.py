"""Every defaulted parameter in ``src/repro`` is one a product path passes.

A keyword exists only if a product path — the CLI, a figure row, ``bench/``
or an example — sets it; a test reaches other behaviour by patching inside
the test (ROADMAP, the north star's *Settings* rule).  This check holds the
keyword half of that rule from the sources alone, with :mod:`ast` and no
imports:

* every ``def`` under ``src/repro`` is read, and each of its parameters with
  a default (positional or keyword-only);
* every call in ``src/``, ``bench/`` and ``examples/`` is read, and matched to
  the definitions by the called name — ``f(...)`` and ``obj.f(...)`` for a
  function or method ``f``; ``C(...)``, ``mod.C(...)`` and a subclass's
  ``super().__init__(...)`` for ``C.__init__``;
* a parameter counts as passed when one matching call names it as a keyword,
  fills its position (``self`` and ``cls`` discounted on a method call), or
  unpacks ``*args`` / ``**kwargs`` there, which may carry it.

Matching by name over-approximates the callers, so a miss is real: no call of
that name anywhere on a product path passes the parameter.  A function that
product code calls under another name — a figure grid through its row, a
replica constructor through the protocol table, a callback — is on
:data:`ALLOWED` with the reason, as is the rare keyword kept for a caller
outside the repository.  Run it as a script to list what it finds::

    python tests/test_product_keywords.py
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "bench", "examples")

_GRID = "figure grid: its keyword defaults are the figure, set by the row's --quick overrides"
_REPLICA = "replica constructor: build_replica passes cost_model and a figure row's options"
_BOUND = "binds the enclosing loop's value at definition; the callback's caller passes one argument"

#: Functions whose unpassed defaulted parameters stay, each with the reason.
#: Keys are ``<path under src/repro>::<qualified name>``.
ALLOWED: Dict[str, str] = {
    "harness/figures.py::_fig6_cells": _GRID,
    "harness/figures.py::_fig7_cells": _GRID,
    "harness/figures.py::_fig8_cells": _GRID,
    "harness/figures.py::_fig9_cells": _GRID,
    "harness/figures.py::_fig9b_cells": _GRID,
    "harness/figures.py::_fig10_cells": _GRID,
    "harness/figures.py::_fig11_cells": _GRID,
    "harness/figures.py::_fig12_cells": _GRID,
    "harness/figures.py::_ablation_cells": _GRID,
    "core/caesar.py::CaesarReplica.__init__": _REPLICA,
    "baselines/epaxos.py::EPaxosReplica.__init__": _REPLICA,
    "baselines/m2paxos.py::M2PaxosReplica.__init__": _REPLICA,
    "baselines/mencius.py::MenciusReplica.__init__": _REPLICA,
    "baselines/multipaxos.py::MultiPaxosReplica.__init__": _REPLICA,
    "runtime/registry.py::MessageRegistry.decode":
        "a batch's generated decoder passes the offset, in source MessageCodec emits",
    "harness/chaos.py::run_chaos.on_probe": _BOUND,
    "workload/clients.py::ClosedLoopClient._submit_next.on_result": _BOUND,
    "workload/clients.py::OpenLoopClient._inject.on_result": _BOUND,
    "cli.py::main": "entry point: argv=None reads the process's command line",
    "sim/topology.py::custom_topology": "public api: a topology from an RTT matrix",
}


Definition = Tuple[str, str, ast.FunctionDef, bool]


def definitions(trees: Dict[str, ast.Module]) -> List[Definition]:
    """Every function of the ``src/repro`` modules in ``trees``: ``(path under
    src/repro, qualname, node, is_method)``."""
    found: List[Definition] = []

    def visit(node: ast.AST, path: str, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((path, prefix + child.name, child, in_class))
                visit(child, path, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", True)
            else:
                visit(child, path, prefix, in_class)

    prefix = PACKAGE.relative_to(ROOT).as_posix() + "/"
    for path, tree in trees.items():
        if path.startswith(prefix):
            visit(tree, path[len(prefix):], "", False)
    return found


def _base_names(cls: ast.ClassDef) -> Iterator[str]:
    for base in cls.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def calls(trees: Dict[str, ast.Module]) -> Dict[str, List[ast.Call]]:
    """Every call in ``trees`` (``path -> module``), by the name it calls.

    ``super().__init__(...)`` is filed under each base class of the class it
    sits in, as ``Base(...)`` is.
    """
    found: Dict[str, List[ast.Call]] = {}

    def visit(node: ast.AST, bases: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, tuple(_base_names(child)))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and isinstance(func.value.func, ast.Name)
                        and func.value.func.id == "super"):
                    for base in bases:
                        found.setdefault(base, []).append(child)
                elif isinstance(func, ast.Name):
                    found.setdefault(func.id, []).append(child)
                elif isinstance(func, ast.Attribute):
                    found.setdefault(func.attr, []).append(child)
            visit(child, bases)

    for tree in trees.values():
        visit(tree, ())
    return found


@functools.lru_cache(maxsize=None)
def product_missing() -> Dict[str, List[str]]:
    """:func:`unpassed` over the repository: every Python file a product path
    runs (``src/``, ``bench/``, ``examples/``), each parsed once."""
    trees = {file.relative_to(ROOT).as_posix(): ast.parse(file.read_text(encoding="utf-8"))
             for folder in CALLER_DIRS for file in sorted((ROOT / folder).rglob("*.py"))}
    return unpassed(definitions(trees), calls(trees))


def _passes(call: ast.Call, name: str, position: int) -> bool:
    """Whether ``call`` passes parameter ``name`` (at ``position``, or -1 if keyword-only)."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if position < 0:
        return False
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > position)


def unpassed(definitions_: List[Definition],
             calls_: Dict[str, List[ast.Call]]) -> Dict[str, List[str]]:
    """``path::qualname -> [parameter, ...]`` for every defaulted parameter no call passes."""
    missing: Dict[str, List[str]] = {}
    for path, qualname, node, is_method in definitions_:
        args = node.args
        positional = args.posonlyargs + args.args
        is_static = any(isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                        for decorator in node.decorator_list)
        # The first parameter of a method is bound by the attribute access
        # (or by construction, for ``__init__``), not passed by the call.
        skip = 1 if is_method and not is_static else 0
        called_as = qualname.split(".")[-2] if node.name == "__init__" else node.name
        candidates = calls_.get(called_as, ())
        defaulted = [(param.arg, index - skip)
                     for index, param in enumerate(positional)
                     if index >= len(positional) - len(args.defaults)]
        defaulted += [(param.arg, -1) for param, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        for name, position in defaulted:
            if not any(_passes(call, name, position) for call in candidates):
                missing.setdefault(f"{path}::{qualname}", []).append(name)
    return missing


def test_every_defaulted_parameter_is_passed_by_a_product_path():
    offenders = {name: params for name, params in product_missing().items()
                 if name not in ALLOWED}
    assert not offenders, (
        "defaulted parameters no call in src/, bench/ or examples/ passes (remove the "
        "keyword and let the test patch what it needs, or give ALLOWED a reason):\n"
        + "\n".join(f"  {name}: {', '.join(params)}" for name, params in sorted(offenders.items())))


def test_every_allowed_row_still_excuses_a_parameter():
    stale = sorted(set(ALLOWED) - set(product_missing()))
    assert not stale, f"ALLOWED rows that excuse nothing any more: {stale}"


def _scan(definition_source: str, caller_source: str) -> Dict[str, List[str]]:
    """:func:`unpassed` over one module's functions, called from it and from ``caller_source``."""
    tree = ast.parse(definition_source)
    found: List[Definition] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append(("m.py", node.name, node, False))
        elif isinstance(node, ast.ClassDef):
            found += [("m.py", f"{node.name}.{item.name}", item, True)
                      for item in node.body if isinstance(item, ast.FunctionDef)]
    return unpassed(found, calls({"m.py": tree, "caller.py": ast.parse(caller_source)}))


DEFINITIONS = '''
def timeline(times, bucket_ms=1000.0, drop_partial=False): ...
def report(stats, *, title="counters"): ...
class Cluster:
    def __init__(self, config, wait_s=30.0): ...
    def stop(self, timeout_s=10.0): ...
    @staticmethod
    def ports(count=3): ...
class Local(Cluster):
    def __init__(self, config, extra=None):
        super().__init__(config, 5.0)
'''


def test_a_keyword_no_caller_passes_is_found():
    missing = _scan(DEFINITIONS, "timeline(t, 500.0)\nreport(s)\nCluster(c).stop()\n"
                                 "Cluster.ports()\nLocal(c)\n")
    assert missing == {"m.py::timeline": ["drop_partial"], "m.py::report": ["title"],
                       "m.py::Cluster.stop": ["timeout_s"], "m.py::Cluster.ports": ["count"],
                       "m.py::Local.__init__": ["extra"]}


def test_position_keyword_and_unpacking_each_count_as_passing():
    missing = _scan(DEFINITIONS, "timeline(t, 500.0, True)\nreport(s, title='x')\n"
                                 "c = Cluster(c, 1.0)\nc.stop(**options)\nCluster.ports(*sizes)\n"
                                 "Local(c, 1)\n")
    assert missing == {}


def test_the_bound_first_parameter_is_not_a_position():
    # ``c.stop(5.0)`` fills ``timeout_s``, the parameter after ``self``; with
    # no ``super().__init__`` passing it, ``Cluster(c)`` leaves ``wait_s`` out.
    missing = _scan(DEFINITIONS.replace("super().__init__(config, 5.0)", "pass"),
                    "Cluster(c).stop(5.0)\ntimeline(t, 1, 1)\nreport(s, title=1)\n"
                    "Cluster.ports(4)\nLocal(c, 1)\n")
    assert missing == {"m.py::Cluster.__init__": ["wait_s"]}


def test_a_keyword_only_parameter_is_not_filled_by_position():
    missing = _scan(DEFINITIONS, "timeline(t, 1, 1)\nreport(s, 'x')\nCluster(c, 1).stop(1)\n"
                                 "Cluster.ports(4)\nLocal(c, 1)\n")
    assert missing == {"m.py::report": ["title"]}


if __name__ == "__main__":
    for function, params in sorted(product_missing().items()):
        mark = "ok  " if function in ALLOWED else "FAIL"
        print(f"{mark} {function}: {', '.join(params)}")
    sys.exit(0)
