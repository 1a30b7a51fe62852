"""Every product source file (``src/``, ``bench/``, ``examples/``), read and
parsed once, and the walks the AST checks share, keyed by the path under the
repository root.  :func:`substituted` hands every cached walk one file's
mutated text: how ``tests/mutants.py`` applies a row an AST check must catch.
"""
from __future__ import annotations

import ast
import contextlib
import functools
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_PREFIX = "src/repro/"
PRODUCT_DIRS = ("src", "bench", "examples")

_substitutes: Dict[str, str] = {}
_caches: List = []


def cached(function):
    """:func:`functools.lru_cache`, cleared whenever :func:`substituted` changes a file."""
    wrapped = functools.lru_cache(maxsize=None)(function)
    _caches.append(wrapped)
    return wrapped


@contextlib.contextmanager
def substituted(path: str, text: str) -> Iterator[None]:
    """Every walk sees ``text`` as the file ``path`` (under the root) until the block ends."""
    assert path in texts(), path
    _substitutes[path] = text
    try:
        for cache in _caches:
            cache.cache_clear()
        yield
    finally:
        del _substitutes[path]
        for cache in _caches:
            cache.cache_clear()


@functools.lru_cache(maxsize=None)
def _on_disk() -> Dict[str, str]:
    return {file.relative_to(ROOT).as_posix(): file.read_text(encoding="utf-8")
            for folder in PRODUCT_DIRS for file in sorted((ROOT / folder).rglob("*.py"))}


#: One parse per distinct text: a substitution re-parses only its own file.
_parse = functools.lru_cache(maxsize=None)(ast.parse)


@cached
def texts() -> Dict[str, str]:
    """``path -> source`` of every Python file on a product path."""
    return {**_on_disk(), **_substitutes}


@cached
def trees() -> Dict[str, ast.Module]:
    """``path -> module`` of every Python file on a product path, each parsed once."""
    return {path: _parse(text) for path, text in texts().items()}


class Function(NamedTuple):
    """A ``def`` under ``src/repro``: its path there, qualified name and node, and
    whether it sits directly in a class body."""
    path: str
    qualname: str
    node: ast.FunctionDef
    is_method: bool


def functions_in(path: str, tree: ast.Module) -> List[Function]:
    """Every function of one module, nested ones included, in source order."""
    found: List[Function] = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Function(path, prefix + child.name, child, in_class))
                visit(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


@cached
def functions() -> List[Function]:
    """Every function under ``src/repro``."""
    return [function for path, tree in trees().items() if path.startswith(PACKAGE_PREFIX)
            for function in functions_in(path[len(PACKAGE_PREFIX):], tree)]


def methods(path: str) -> Dict[str, ast.FunctionDef]:
    """``Class.method -> node`` for every method of every top-level class of
    the module at ``path`` under ``src/repro``."""
    return {function.qualname: function.node for function in functions()
            if function.path == path and function.is_method
            and function.qualname.count(".") == 1}


def base_names(cls: ast.ClassDef) -> Iterator[str]:
    for base in cls.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def calls_in(modules: Dict[str, ast.Module]) -> Dict[str, List[Tuple[str, ast.Call]]]:
    """Every call in ``modules`` (``path -> module``), by the name it calls, with
    the path it is in.

    ``super().__init__(...)`` is filed under each base class of the class it
    sits in, as ``Base(...)`` is.
    """
    found: Dict[str, List[Tuple[str, ast.Call]]] = {}

    def visit(node: ast.AST, path: str, bases: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, tuple(base_names(child)))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                        and isinstance(func.value, ast.Call)
                        and isinstance(func.value.func, ast.Name)
                        and func.value.func.id == "super"):
                    for base in bases:
                        found.setdefault(base, []).append((path, child))
                elif isinstance(func, ast.Name):
                    found.setdefault(func.id, []).append((path, child))
                elif isinstance(func, ast.Attribute):
                    found.setdefault(func.attr, []).append((path, child))
            visit(child, path, bases)

    for path, tree in modules.items():
        visit(tree, path, ())
    return found


@cached
def calls() -> Dict[str, List[Tuple[str, ast.Call]]]:
    """:func:`calls_in` over every product file."""
    return calls_in(trees())


def imports(path: str) -> List[Tuple[str, str]]:
    """Every module the file at ``path`` under ``src/repro`` imports, at any
    nesting, with the function the import sits in (``None`` at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                inner = child.name if isinstance(child, (ast.FunctionDef,
                                                         ast.AsyncFunctionDef)) else function
                visit(child, inner)
                continue
            found.extend((module, function) for module in modules)

    visit(trees()[PACKAGE_PREFIX + path], None)
    return found


def package_paths(folder: str = "") -> List[str]:
    """Paths under ``src/repro`` of the modules in ``folder`` (every module for ``""``)."""
    prefix = PACKAGE_PREFIX + (folder + "/" if folder else "")
    return [path[len(PACKAGE_PREFIX):] for path in texts()
            if path.startswith(prefix) and (folder == "" or "/" not in path[len(prefix):])]
