"""Module boundaries: no module of the package reads another's private names."""

import ast
import pathlib

import unimodular

SRC = pathlib.Path(unimodular.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _defined(tree) -> set:
    """Private names a module defines: its functions, classes and methods,
    names it assigns, and attributes it assigns on any object."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return {n for n in out if _private(n)}


def _violations(modules: dict) -> list:
    defined = {name: _defined(tree) for name, tree in modules.items()}
    found = []
    for name, tree in modules.items():
        elsewhere = set().union(*(d for m, d in defined.items() if m != name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                inside = node.level > 0 or (node.module or "").split(".")[0] == "unimodular"
                for alias in node.names if inside else ():
                    if _private(alias.name):
                        found.append(f"{name}.py:{node.lineno} imports {alias.name}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in elsewhere and node.attr not in defined[name]:
                    found.append(f"{name}.py:{node.lineno} reads .{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert _violations(_modules()) == []


def test_the_guard_sees_both_kinds_of_read():
    modules = {
        "a": ast.parse("def _walk():\n    pass\nclass L:\n    def __init__(self):\n"
                       "        self._cache = 1\n"),
        "b": ast.parse("from .a import _walk\nfrom math import _private_ok\n"
                       "def f(L):\n    return L._cache\n"),
    }
    assert _violations(modules) == ["b.py:1 imports _walk", "b.py:4 reads ._cache"]
