"""Every setting in ``src/repro`` is one a product path sets.

A setting exists only if a product path — the CLI, a figure row, ``bench/``
or an example — sets it; a test reaches other behaviour by patching inside
the test (ROADMAP, the north star's *Settings* rule).  This check holds the
rule from the sources alone, with :mod:`ast` and no imports, in four
directions, and holds a fifth, state no product path reads:

* **unpassed** — a defaulted parameter (positional or keyword-only) of a
  ``def`` under ``src/repro`` that no product call passes: only tests can
  reach another value;
* **overridden** — a defaulted parameter that every product call passes:
  the default, and any fallback it guards, only tests can reach;
* **single-valued** — a setting no product path varies: a parameter of a
  ``def`` under ``src/repro`` that every product call fills with one and the
  same literal or module constant (an upper-case name), an omitted default
  counting as its value; or a field of any ``@dataclass`` under
  ``src/repro`` that no code assigns after construction (an attribute store
  of that name anywhere, or a ``replace``, ``build_config`` or ``FLAGS``
  row) and that every product construction leaves at its default or sets to
  that same value.  With one value in use, the value is a constant;
* **unset** — a field of a config class pinned in
  ``tests/data/cli_parser_surface.json`` that no product path sets: no
  construction of the class (or a subclass) names it, no
  ``dataclasses.replace`` or ``cli.build_config`` call does, and no
  ``cli.FLAGS`` row maps a flag onto it;
* **write-only** — an instance attribute a ``src/repro`` method initialises
  to ``{}``, ``set()`` or ``[]`` that ``src/`` only mutates (a subscript
  store or delete, or a call of one of :data:`MUTATORS` on it) and no code
  in ``src/``, ``bench/`` or ``examples/`` reads: it grows with the run and
  serves no reader.

Product calls are every call in ``src/``, ``bench/`` and ``examples/``,
matched to the definitions by the called name — ``f(...)`` and
``obj.f(...)`` for a function or method ``f``; ``C(...)``, ``mod.C(...)``
and a subclass's ``super().__init__(...)`` for ``C.__init__``.  A call
passes a parameter when it names it as a keyword, fills its position
(``self`` and ``cls`` discounted on a method call), or unpacks ``*args`` /
``**kwargs`` there, which may carry it; a config field is also set by a
string key a ``**`` unpack carries (a dict literal in the unpacked
expression, or a key stored into the unpacked name in that module).

Matching by name over-approximates the callers: an *unpassed* finding is
real, since no call of that name anywhere on a product path passes the
parameter, a *write-only* one is real, since no attribute of that name is
read anywhere on a product path, and an *overridden* or *single-valued* one is real unless
product code also reaches the function another way — a figure grid through its row
(``inspect.signature.bind``), a replica constructor through the protocol
table, a callback handed to another function.  Those functions, and the
rare keyword, field or container kept for a reader outside the repository,
are on :data:`ALLOWED` with the reason.  Run it as a script to list what it finds::

    python tests/test_product_keywords.py
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

if __name__ == "__main__":  # run as a script: put the repository root on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import source_index  # noqa: E402

SURFACE = source_index.ROOT / "tests" / "data" / "cli_parser_surface.json"

_GRID = "figure grid: its keyword defaults are the figure, set by the row's --quick overrides"
_REPLICA = "replica constructor: build_replica passes cost_model and a figure row's options"
_BOUND = "binds the enclosing loop's value at definition; the callback's caller passes one argument"

#: Functions whose unpassed, overridden or single-valued parameters stay,
#: config fields no product path sets or varies and write-only containers
#: that stay, each with the reason.  Keys are ``<path under src/repro>::<qualified name>`` (a
#: container's is ``Class.attribute``) and ``<Config>.<field>``.
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
    "net/client.py::fetch_stats":
        "callback: the loadgen's drain hands it to asyncio.to_thread with host and port only",
    "runtime/registry.py::MessageRegistry.__init__":
        "the wire's one registry is built from TYPE_IDS; tests build registries with "
        "their own id tables",
    "chaos/nemesis.py::random_plan":
        "schedule builders take the cluster size, as build_schedule does",
    "ExperimentConfig.shared_pool_size":
        "the shared pool's size; ROADMAP item 16(d) gives it a product path",
    "ClusterConfig.topology": "public api: a custom_topology cluster",
}


Definition = Tuple[str, str, ast.FunctionDef, bool]
Calls = Dict[str, List[Tuple[str, ast.Call]]]


@source_index.cached
def product_missing() -> Dict[str, List[str]]:
    """:func:`unpassed` over the repository."""
    return unpassed(source_index.functions(), source_index.calls())


@source_index.cached
def product_overridden() -> Dict[str, List[str]]:
    """:func:`overridden` over the repository."""
    return overridden(source_index.functions(), source_index.calls())


def pinned_configs() -> List[str]:
    """The config classes ``tests/data/cli_parser_surface.json`` pins (its
    capitalised keys; the others are subcommands and protocol tables)."""
    return sorted(name for name in json.loads(SURFACE.read_text()) if name[:1].isupper())


@source_index.cached
def product_unset() -> List[str]:
    """:func:`unset_fields` over the repository's pinned configs."""
    return unset_fields(source_index.trees(), pinned_configs())


def _passes(call: ast.Call, name: str, position: int) -> bool:
    """Whether ``call`` passes parameter ``name`` (at ``position``, or -1 if keyword-only)."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if position < 0:
        return False
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > position)


def _parameters(definitions_: List[Definition], calls_: Calls):
    """Each parameter with its default and the calls that may reach its function:
    ``(path::qualname, parameter, default or None, [call, ...], position or -1
    if keyword-only)``."""
    for path, qualname, node, is_method in definitions_:
        args = node.args
        positional = args.posonlyargs + args.args
        is_static = any(isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                        for decorator in node.decorator_list)
        # The first parameter of a method is bound by the attribute access
        # (or by construction, for ``__init__``), not passed by the call.
        skip = 1 if is_method and not is_static else 0
        called_as = qualname.split(".")[-2] if node.name == "__init__" else node.name
        candidates = [call for _, call in calls_.get(called_as, [])]
        defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
        for index, (param, default) in enumerate(zip(positional, defaults)):
            if index >= skip:
                yield f"{path}::{qualname}", param.arg, default, candidates, index - skip
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            yield f"{path}::{qualname}", param.arg, default, candidates, -1


def _defaulted(definitions_: List[Definition], calls_: Calls):
    """Each defaulted parameter with the calls that may reach its function:
    ``(path::qualname, parameter, [call, ...], position or -1 if keyword-only)``."""
    for function, name, default, candidates, position in _parameters(definitions_, calls_):
        if default is not None:
            yield function, name, candidates, position


def unpassed(definitions_: List[Definition], calls_: Calls) -> Dict[str, List[str]]:
    """``path::qualname -> [parameter, ...]`` for every defaulted parameter no call passes."""
    missing: Dict[str, List[str]] = {}
    for function, name, candidates, position in _defaulted(definitions_, calls_):
        if not any(_passes(call, name, position) for call in candidates):
            missing.setdefault(function, []).append(name)
    return missing


def overridden(definitions_: List[Definition], calls_: Calls) -> Dict[str, List[str]]:
    """``path::qualname -> [parameter, ...]`` for every defaulted parameter
    that every call passes (a function nothing calls by name has none)."""
    found: Dict[str, List[str]] = {}
    for function, name, candidates, position in _defaulted(definitions_, calls_):
        if candidates and all(_passes(call, name, position) for call in candidates):
            found.setdefault(function, []).append(name)
    return found


def _fields(cls: ast.ClassDef) -> List[str]:
    """The dataclass fields ``cls`` declares itself (annotated, not ``ClassVar``)."""
    return [statement.target.id for statement in cls.body
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)]


def _unpacked_keys(expression: ast.AST, module: ast.Module) -> Set[str]:
    """The string keys a ``**expression`` unpack may carry: those of the dict
    literals inside it and, for a bare name, every key stored into that name
    (``name["key"] = ...`` or ``name = {"key": ...}``) anywhere in ``module``."""
    sources, keys = [expression], set()
    if isinstance(expression, ast.Name):
        for node in ast.walk(module):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Name) and node.value.id == expression.id \
                    and isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == expression.id
                    for target in node.targets):
                sources.append(node.value)
    for source in sources:
        for node in ast.walk(source):
            if isinstance(node, ast.Dict):
                keys |= {key.value for key in node.keys
                         if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    return keys


Classes = Dict[str, Tuple[ast.ClassDef, List[str]]]


def _classes(trees: Dict[str, ast.Module]) -> Classes:
    """``name -> (class node, base names)`` for every class in ``trees`` (the first of a name)."""
    classes: Classes = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, (node, list(source_index.base_names(node))))
    return classes


def _all_fields(classes: Classes, name: str) -> List[str]:
    """The fields of class ``name`` in constructor order, inherited ones first."""
    node, bases = classes[name]
    inherited = [field for base in bases if base in classes
                 for field in _all_fields(classes, base)]
    return inherited + [field for field in _fields(node) if field not in inherited]


def _family(classes: Classes, name: str) -> List[str]:
    """Class ``name`` and every subclass of it, transitively."""
    return [name] + [sub for sub, (_, bases) in classes.items() if name in bases
                     for sub in _family(classes, sub)]


def _named(call: ast.Call, module: ast.Module) -> Set[str]:
    """The keywords ``call`` names, and the keys its ``**`` unpacks may carry."""
    keys = {keyword.arg for keyword in call.keywords if keyword.arg}
    for keyword in call.keywords:
        if keyword.arg is None:
            keys |= _unpacked_keys(keyword.value, module)
    return keys


def _set_by_any_config(trees: Dict[str, ast.Module], found: Calls) -> Set[str]:
    """The field names a ``replace`` or ``build_config`` call, or a ``FLAGS``
    row (its key, dashes read as underscores, or its ``field``), sets on any config."""
    anywhere: Set[str] = set()
    for path, call in found.get("replace", []) + found.get("build_config", []):
        anywhere |= _named(call, trees[path])
    for _, call in found.get("Flag", []):
        if len(call.args) > 1 and isinstance(call.args[1], ast.Constant):
            anywhere.add(call.args[1].value)
        anywhere |= {keyword.value.value for keyword in call.keywords
                     if keyword.arg == "field" and isinstance(keyword.value, ast.Constant)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "FLAGS"
                    for target in node.targets) and isinstance(node.value, ast.Dict):
                anywhere |= {key.value.replace("-", "_") for key in node.value.keys
                             if isinstance(key, ast.Constant)}
    return anywhere


def unset_fields(trees: Dict[str, ast.Module], configs: List[str]) -> List[str]:
    """``Config.field`` for every field of ``configs`` no call in ``trees`` sets.

    A field is set by a keyword (or a key a ``**`` unpack carries) of a
    construction of its class or a subclass, of a ``replace`` or a
    ``build_config`` call, by the position of a construction, or by a
    ``FLAGS`` row (its key, dashes read as underscores, or its ``field``).
    """
    classes = _classes(trees)
    found = source_index.calls_in(trees)
    anywhere = _set_by_any_config(trees, found)
    missing = []
    for config in configs:
        set_here = set(anywhere)
        for cls in _family(classes, config):
            for path, call in found.get(cls, []):
                set_here |= _named(call, trees[path])
                set_here |= set(_all_fields(classes, cls)[:len(call.args)])
        missing += [f"{config}.{field}" for field in _fields(classes[config][0])
                    if field not in set_here]
    return missing


#: A value no product path varies: ``("literal", repr)`` or ``("constant", NAME)``.
Value = Tuple[str, str]
#: Stands for a value the check cannot name (a variable, a call, an unpack).
VARIES: Value = ("varies", "")


def _value(node: ast.AST) -> Value:
    """What ``node`` passes: a literal, a module constant (an upper-case name,
    bare or as ``module.NAME``), or :data:`VARIES`."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else "")
        return ("constant", name) if name.isupper() else VARIES
    return ("literal", f"{type(value).__name__}:{value!r}")


def _one_value(values: List[Value]) -> bool:
    """Whether ``values`` (one per product path) are one and the same literal or constant."""
    return bool(values) and VARIES not in values and len(set(values)) == 1


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether ``cls`` is decorated ``@dataclass`` (a ``value_type`` record is
    data built per message or command, its wire fields filled by the sender)."""
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else "") == "dataclass":
            return True
    return False


def _default(statement: ast.AnnAssign) -> Value | None:
    """A field's default: ``None`` if it has none, :data:`VARIES` for a
    ``default_factory`` (a fresh object per construction)."""
    value = statement.value
    if value is None:
        return None
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id == "field":
        for keyword in value.keywords:
            if keyword.arg == "default":
                return _value(keyword.value)
        return None if not value.keywords else VARIES
    return _value(value)


def _assigned_attributes(trees: Dict[str, ast.Module]) -> Set[str]:
    """Every attribute name code stores into (``x.name = ...``, ``x.name += ...``,
    ``setattr(x, "name", ...)``), on any object."""
    stored: Set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            elif (isinstance(node, ast.Call) and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and ((isinstance(node.func, ast.Name) and node.func.id == "setattr")
                       or (isinstance(node.func, ast.Attribute)
                           and node.func.attr == "__setattr__"))):
                stored.add(node.args[1].value)
    return stored


def _constructed(call: ast.Call, module: ast.Module, order: List[str]) -> Dict[str, Value]:
    """The value a construction passes each field it sets (``order``: the
    class's fields in constructor order); the fields a ``*`` argument or a
    ``**`` unpack may carry vary."""
    values = {}
    for keyword in call.keywords:
        if keyword.arg is None:
            values.update((key, VARIES) for key in _unpacked_keys(keyword.value, module))
        else:
            values[keyword.arg] = _value(keyword.value)
    for field, arg in zip(order, call.args):
        if isinstance(arg, ast.Starred):
            values.update((later, VARIES) for later in order[order.index(field):])
            break
        values[field] = _value(arg)
    return values


def single_valued_fields(trees: Dict[str, ast.Module]) -> List[str]:
    """``Class.field`` for every field of a dataclass under ``src/repro`` that
    no code assigns after construction, that no ``replace``, ``build_config``
    or ``FLAGS`` row sets, and that every construction of the class (or a
    subclass) in ``trees`` leaves at its default or sets to that same literal
    or module constant (a ``default_factory`` varies)."""
    classes = _classes(trees)
    found = source_index.calls_in(trees)
    varied = _set_by_any_config(trees, found) | _assigned_attributes(trees)
    results = []
    for path, tree in trees.items():
        if not path.startswith(source_index.PACKAGE_PREFIX):
            continue
        for cls in ast.walk(tree):
            # Constructions are matched by name: a class whose name an
            # earlier class took has none.
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                    and classes[cls.name][0] is cls):
                continue
            constructions = [_constructed(call, trees[call_path], _all_fields(classes, name))
                             for name in _family(classes, cls.name)
                             for call_path, call in found.get(name, [])]
            for statement in cls.body:
                if not (isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and "ClassVar" not in ast.unparse(statement.annotation)):
                    continue
                field, default = statement.target.id, _default(statement)
                values = [passed.get(field, default) for passed in constructions]
                if field not in varied and None not in values and _one_value(values):
                    results.append(f"{cls.name}.{field}")
    return results


def _filled(call: ast.Call, name: str, position: int, default: ast.AST | None) -> Value:
    """The value ``call`` gives parameter ``name`` (at ``position``, -1 if
    keyword-only; an omitted one takes ``default``)."""
    keywords = {keyword.arg: keyword.value for keyword in call.keywords}
    if name in keywords:
        return _value(keywords[name])
    if None in keywords or any(isinstance(arg, ast.Starred)
                               for arg in call.args[:position + 1]):
        return VARIES
    if 0 <= position < len(call.args):
        return _value(call.args[position])
    return VARIES if default is None else _value(default)


def single_valued_parameters(definitions_: List[Definition], calls_: Calls) -> Dict[str, List[str]]:
    """``path::qualname -> [parameter, ...]`` for every parameter that every
    call by name fills with one and the same literal or module constant, an
    omitted default counting as its value (``*`` and ``**`` unpacks may carry
    anything; a function nothing calls by name has none)."""
    found: Dict[str, List[str]] = {}
    for function, name, default, candidates, position in _parameters(definitions_, calls_):
        if _one_value([_filled(call, name, position, default) for call in candidates]):
            found.setdefault(function, []).append(name)
    return found


#: The method calls that only change a container.
MUTATORS = frozenset({"add", "append", "setdefault", "update", "discard"})


def _is_empty_container(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Dict) and not node.keys)
            or (isinstance(node, ast.List) and not node.elts)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "set" and not node.args and not node.keywords))


def write_only(trees: Dict[str, ast.Module]) -> List[str]:
    """``path::Class.attribute`` for every instance attribute a ``src/repro``
    method initialises to an empty ``{}``, ``set()`` or ``[]`` that no code in
    ``trees`` reads: every load of an attribute of that name, on any object,
    is a subscript store or delete, or a :data:`MUTATORS` call."""
    prefix = source_index.PACKAGE_PREFIX
    initialised: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        if not path.startswith(prefix):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(method):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target] if isinstance(node, ast.AnnAssign) else [])
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and _is_empty_container(node.value)):
                            initialised.setdefault(target.attr, []).append(
                                f"{path[len(prefix):]}::{cls.name}.{target.attr}")
    read: Set[str] = set()
    for tree in trees.values():
        mutated: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                mutated.add(id(node.value))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                mutated.add(id(node.func.value))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and node.attr in initialised and id(node) not in mutated}
    return sorted(found for attr, names in initialised.items() if attr not in read
                  for found in names)


@source_index.cached
def product_single_valued() -> Dict[str, List[str]]:
    """:func:`single_valued_parameters` and :func:`single_valued_fields` over
    the repository (a field's entry is ``Class.field`` with no parameters)."""
    fields = single_valued_fields(source_index.trees())
    return {**single_valued_parameters(source_index.functions(), source_index.calls()),
            **{field: [] for field in fields}}


@source_index.cached
def product_write_only() -> List[str]:
    """:func:`write_only` over the repository."""
    return write_only(source_index.trees())


def test_every_defaulted_parameter_is_passed_by_a_product_path():
    offenders = {name: params for name, params in product_missing().items()
                 if name not in ALLOWED}
    assert not offenders, (
        "defaulted parameters no call in src/, bench/ or examples/ passes (remove the "
        "keyword and let the test patch what it needs, or give ALLOWED a reason):\n"
        + "\n".join(f"  {name}: {', '.join(params)}" for name, params in sorted(offenders.items())))


def test_no_default_is_overridden_by_every_product_call():
    offenders = {name: params for name, params in product_overridden().items()
                 if name not in ALLOWED}
    assert not offenders, (
        "defaulted parameters every call in src/, bench/ and examples/ passes (remove the "
        "default and any fallback it guards, or give ALLOWED the way product code reaches "
        "the function that name matching misses):\n"
        + "\n".join(f"  {name}: {', '.join(params)}" for name, params in sorted(offenders.items())))


def test_every_pinned_config_field_is_set_by_a_product_path():
    offenders = [field for field in product_unset() if field not in ALLOWED]
    assert not offenders, (
        "config fields no product path sets (make each a module constant a test patches, "
        f"or give ALLOWED a reason): {offenders}")


def test_no_instance_container_is_only_written():
    offenders = [name for name in product_write_only() if name not in ALLOWED]
    assert not offenders, (
        "containers src/ only writes and nothing in src/, bench/ or examples/ reads "
        f"(delete them, or give ALLOWED the reader): {offenders}")


def test_no_setting_takes_one_value_on_every_product_path():
    offenders = {name: params for name, params in product_single_valued().items()
                 if name not in ALLOWED}
    assert not offenders, (
        "settings every product path gives one and the same value (make each a module "
        "constant a test patches, or give ALLOWED a reason):\n"
        + "\n".join(f"  {name}{': ' if params else ''}{', '.join(params)}"
                    for name, params in sorted(offenders.items())))


def test_every_allowed_row_still_excuses_something():
    found = (set(product_missing()) | set(product_overridden()) | set(product_unset())
             | set(product_write_only()) | set(product_single_valued()))
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"ALLOWED rows that excuse nothing any more: {stale}"


def test_the_pinned_configs_are_the_ten_a_user_sets():
    assert pinned_configs() == [
        "ChaosConfig", "ClusterConfig", "CostModel", "ExperimentConfig", "LoadgenConfig",
        "NetworkConfig", "OverloadConfig", "ReplicaConfig", "ServeConfig", "WorkloadConfig"]


def _scan(definition_source: str, caller_source: str) -> Dict[str, List[str]]:
    """:func:`unpassed` over one module's functions, called from it and from ``caller_source``."""
    return unpassed(*_parsed(definition_source, caller_source))


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


def test_a_default_every_caller_overrides_is_found():
    found = overridden(*_parsed(DEFINITIONS, "timeline(t, 500.0)\nreport(s, title='x')\n"
                                             "Cluster(c, 1.0).stop()\nCluster(c, 2.0)\n"
                                             "Local(c, None)\n"))
    assert found == {"m.py::timeline": ["bucket_ms"], "m.py::report": ["title"],
                     "m.py::Cluster.__init__": ["wait_s"], "m.py::Local.__init__": ["extra"]}


def test_one_call_that_leaves_a_default_keeps_it():
    found = overridden(*_parsed(DEFINITIONS, "report(s, title='x')\nreport(s)\n"
                                             "Cluster(c, 1.0)\nCluster(*args)\n"))
    assert found == {"m.py::Cluster.__init__": ["wait_s"]}


def test_a_parameter_every_call_fills_with_one_value_is_found():
    found = single_valued_parameters(*_parsed(
        DEFINITIONS, "timeline(t, 1000.0)\ntimeline(u)\nreport(s, title=TITLE)\n"
                     "report(s, title=text.TITLE)\nCluster(c).stop(timeout_s=2.0)\n"
                     "Cluster(c).stop(3.0)\nCluster.ports(4)\nLocal(c)\n"))
    assert found == {"m.py::timeline": ["bucket_ms", "drop_partial"],
                     "m.py::report": ["title"], "m.py::Cluster.ports": ["count"],
                     "m.py::Local.__init__": ["extra"]}


def test_a_variable_an_unpack_or_a_second_value_varies_a_parameter():
    assert single_valued_parameters(*_parsed(
        DEFINITIONS, "timeline(t, 1000, True)\ntimeline(t, *rest)\nreport(s, **options)\n"
                     "Cluster(c).stop(timeout_s=LIMIT)\nCluster(c).stop()\n"
                     "Cluster.ports(n)\nLocal(c, 1)\nLocal(d, 2)\n")) == {}


FIELDS = '''
@dataclass
class Policy:
    window_ms: float = 2.0
    size: int = 32
    factor: float = field(default=0.25)
    history: list = field(default_factory=list)
    name: str = "p"
@dataclass(frozen=True)
class Fault:
    at_ms: float
    mode: str = "queue"
class Plain:
    level: int = 1
'''


def _single_valued_fields(callers: str) -> List[str]:
    return single_valued_fields({"src/repro/c.py": ast.parse(FIELDS),
                                 "bench/b.py": ast.parse(callers)})


def test_a_field_every_construction_leaves_at_one_value_is_found():
    assert _single_valued_fields("Policy()\nPolicy(window_ms=2.0, size=32)\n"
                                 "Policy(2.0, 32, name=label)\nFault(1.0)\n"
                                 "Fault(at_ms=2.0)\nPlain(level=1)\n") == [
        "Policy.window_ms", "Policy.size", "Policy.factor", "Fault.mode"]


def test_a_store_a_replace_or_an_unpacked_key_varies_a_field():
    assert _single_valued_fields("Policy(name=label)\npolicy.size = 64\n"
                                 "replace(policy, factor=0.5)\n"
                                 "object.__setattr__(fault, 'mode', 'drop')\n"
                                 "Policy(**{'window_ms': w})\nFault(1.0)\nFault(2.0)\n") == []


CONFIGS = '''
class NetConfig:
    jitter_ms: float = 0.0
    wire_accounting: bool = False
class ClusterConfig:
    seed: int = 1
    network: NetConfig = None
    batching: bool = False
class ExperimentConfig(ClusterConfig):
    warmup_ms: float = 0.0
    settle_ms: float = 0.0
    _CACHE: ClassVar[dict] = {}
'''


def _unset(callers: str) -> List[str]:
    trees = {"src/repro/c.py": ast.parse(CONFIGS), "bench/b.py": ast.parse(callers)}
    return unset_fields(trees, ["NetConfig", "ClusterConfig", "ExperimentConfig"])


def test_a_field_no_product_path_sets_is_found():
    assert _unset("ExperimentConfig(seed=2, network=NetConfig(3.0))\n") == [
        "NetConfig.wire_accounting", "ClusterConfig.batching",
        "ExperimentConfig.warmup_ms", "ExperimentConfig.settle_ms"]


def test_position_replace_unpacked_keys_and_flags_each_set_a_field():
    assert _unset("NetConfig(1.0, True)\nClusterConfig(2)\n"
                  "replace(config, network=None)\n"
                  "windows = {}\nwindows['settle_ms'] = 8.0\n"
                  "build_config(ExperimentConfig, args, **windows)\n"
                  "FLAGS = {'warmup-ms': Flag({}), 'batch': Flag({}, 'batching')}\n") == []


def test_an_unpacked_name_carries_only_the_keys_stored_into_it():
    assert _unset("options = {'seed': 'batching'}\nClusterConfig(**options)\n"
                  "NetConfig(**{'jitter_ms': 1.0} if fast else {})\n"
                  "ExperimentConfig(**other)\n") == [
        "NetConfig.wire_accounting", "ClusterConfig.network", "ClusterConfig.batching",
        "ExperimentConfig.warmup_ms", "ExperimentConfig.settle_ms"]


CONTAINERS = '''
class Replica:
    def __init__(self):
        self.log = []
        self.index: dict = {}
        self.seen = set()
        self.peers = {}
        self.pending = []
        self.size = 0
        self.names = ["a"]
    def on(self, key, value):
        self.log.append(value)
        self.index[key] = value
        self.index.setdefault(key, []).append(value)
        del self.index[key]
        self.seen.add(key)
        self.seen.discard(key)
        self.peers.update({key: value})
        self.pending.append(value)
        for item in self.pending:
            self.size += 1
        self.names.append(value)
'''


def _write_only(callers: str) -> List[str]:
    return write_only({"src/repro/m.py": ast.parse(CONTAINERS), "bench/b.py": ast.parse(callers)})


def test_a_container_src_only_mutates_is_found():
    assert _write_only("") == ["m.py::Replica.index", "m.py::Replica.log",
                               "m.py::Replica.peers", "m.py::Replica.seen"]


def test_a_read_anywhere_on_a_product_path_keeps_a_container():
    assert _write_only("print(replica.log)\nreplica.seen.pop()\n"
                       "n = len(other.index)\nviews = r.peers.items()\n") == []


def _parsed(definition_source: str, caller_source: str):
    """The definitions and calls :func:`_scan` hands :func:`unpassed`."""
    tree = ast.parse(definition_source)
    return (source_index.functions_in("m.py", tree),
            source_index.calls_in({"m.py": tree, "caller.py": ast.parse(caller_source)}))


if __name__ == "__main__":
    for kind, findings in (("unpassed", product_missing()), ("overridden", product_overridden()),
                           ("unset", {field: [] for field in product_unset()}),
                           ("write-only", {name: [] for name in product_write_only()}),
                           ("single-valued", product_single_valued())):
        for name, params in sorted(findings.items()):
            mark = "ok  " if name in ALLOWED else "FAIL"
            print(f"{mark} {kind:10s} {name}{': ' if params else ''}{', '.join(params)}")
    sys.exit(0)
