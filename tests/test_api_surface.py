"""The library ships no public function or class that only tests use.

Each public module-level function and class of `knowfuse` must be referred
to by library code outside its own definition, by the benchmark harness
(`benchmarks/*.py`) or by the README's library snippet. A helper that only
tests call belongs in `tests/`, as `kge_reference.py` and
`fusion_reference.py` do. A re-export in the package's `__init__` is not a
use.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

from conftest import README, readme_library_snippet

SRC = README.parent / "src" / "knowfuse"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def _module_of(node: ast.ImportFrom) -> str | None:
    """The knowfuse module an import names: "" for the package itself,
    "kge" for `knowfuse.kge` or `.kge`, None for other packages."""
    name = node.module or ""
    if node.level == 0:
        if name != "knowfuse" and not name.startswith("knowfuse."):
            return None
        name = name[len("knowfuse"):].lstrip(".")
    return name


def _references(tree: ast.AST, home: str | None) -> set[tuple[str, str]]:
    """(module, name) of every knowfuse function or class that `tree` may
    use. Inside module `home`, a bare name counts, except inside the
    definition of that very name; elsewhere, an import of the name or an
    attribute of an imported module does."""
    aliases: dict[str, str] = {}  # local name -> knowfuse module
    refs: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _module_of(node)) is not None:
            for alias in node.names:
                if module:
                    refs.add((module, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("knowfuse.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                refs.add((aliases[base.id], node.attr))
            elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                  and base.value.id == "knowfuse"):
                refs.add((base.attr, node.attr))
    if home is not None:
        for top in tree.body:
            skip = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != skip:
                    refs.add((home, node.id))
    return refs


def _public_definitions(module: str) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _used() -> set[tuple[str, str]]:
    used: set[tuple[str, str]] = set()
    for module in MODULES:
        used |= _references(ast.parse((SRC / f"{module}.py").read_text()), module)
    for path in sorted((README.parent / "benchmarks").glob("*.py")):
        used |= _references(ast.parse(path.read_text()), None)
    return used | _references(ast.parse(readme_library_snippet()), None)


def test_every_public_definition_is_used_outside_tests():
    used = _used()
    unused = [f"{module}.{name}" for module in MODULES for name in _public_definitions(module)
              if (module, name) not in used]
    assert not unused, f"public but used only by tests, if at all: {unused}"


@pytest.mark.parametrize("source, home, name, found", [
    ("def f():\n    return f()\n", "m", "f", False),  # its own definition does not count
    ("def f():\n    pass\n\ndef g():\n    f()\n", "m", "f", True),
    ("from knowfuse import kge as k\nk.grad(1)\n", None, "grad", True),
    ("import knowfuse.kge\nknowfuse.kge.grad(1)\n", None, "grad", True),
    ("from knowfuse.kge import grad\n", None, "grad", True),
    ("from .kge import grad\n", None, "grad", True),
    ("grad = 1\nother.grad(grad)\n", None, "grad", False),
])
def test_references_resolve_modules(source, home, name, found):
    module = home or "kge"
    assert ((module, name) in _references(ast.parse(source), home)) is found
