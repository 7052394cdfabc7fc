"""The library ships no public function or class that only tests use.

Each public module-level function and class of `knowfuse` must be referred
to by library code outside its own definition, by the benchmark harness
(`benchmarks/*.py`) or by the README's library snippet. A helper that only
tests call belongs in `tests/`, as `kge_reference.py` and
`fusion_reference.py` do. A re-export in the package's `__init__` is not a
use.

Likewise each defaulted parameter of a public function, or of a public
class's `__init__`, must be passed by some call in those places: by keyword,
by a later positional argument or through `*`/`**`. A function used as a
value, such as `cli.main` handed to the benchmark's timer, may be called with
any argument, so that use passes every parameter. A default that no such
call overrides is a knob only tests turn; it belongs in a module constant.
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


def _resolver(tree: ast.AST, home: str | None):
    """A function from a Name or Attribute node of `tree` to the (module,
    name) it may denote, or None, and the (module, name) of each import.
    Inside module `home` a bare name is that module's own unless an import
    binds it; elsewhere only imported names and attributes of imported
    modules resolve."""
    aliases: dict[str, str] = {}  # local name -> knowfuse module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (module := _module_of(node)) is not None:
            for alias in node.names:
                if module:
                    imported[alias.asname or alias.name] = (module, alias.name)
                else:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("knowfuse.") and alias.asname:
                    aliases[alias.asname] = alias.name.split(".", 1)[1]

    def resolve(node: ast.AST) -> tuple[str, str] | None:
        if isinstance(node, ast.Name):
            return imported.get(node.id, None if home is None else (home, node.id))
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                return aliases[base.id], node.attr
            if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                    and base.value.id == "knowfuse"):
                return base.attr, node.attr
        return None

    return resolve, set(imported.values())


def _references(tree: ast.AST, home: str | None) -> set[tuple[str, str]]:
    """(module, name) of every knowfuse function or class that `tree` may
    use. Inside module `home`, a bare name counts, except inside the
    definition of that very name; elsewhere, an import of the name or an
    attribute of an imported module does."""
    resolve, refs = _resolver(tree, home)
    for top in tree.body:
        skip = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not (isinstance(node, ast.Name) and node.id == skip) and (ref := resolve(node)):
                refs.add(ref)
    return refs


def _passes(tree: ast.AST, home: str | None) -> dict[tuple[str, str], list]:
    """(module, name) -> what each use in `tree` passes: (positional count,
    keyword names) per call, or None for a call through `*`/`**` and for a
    use as a value, which may pass every parameter."""
    resolve, _ = _resolver(tree, home)
    passes: dict[tuple[str, str], list] = {}
    called = set()
    for node in ast.walk(tree):  # breadth first: a call comes before its callee
        if isinstance(node, ast.Call) and (target := resolve(node.func)):
            called.add(id(node.func))
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            passes.setdefault(target, []).append(
                None if spread else (len(node.args), {k.arg for k in node.keywords}))
        elif (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
              and id(node) not in called and (target := resolve(node))):
            passes.setdefault(target, []).append(None)
    return passes


def _defaulted_parameters(module: str) -> list[tuple[str, str, int | None]]:
    """(definition, parameter, positional index or None) of each defaulted
    parameter of a public function or of a public class's `__init__`."""
    found = []
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        fn, skip = node, 0
        if isinstance(node, ast.ClassDef):
            fn, skip = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                             and f.name == "__init__"), None), 1  # skip self
            if fn is None:
                continue
        positional = (fn.args.posonlyargs + fn.args.args)[skip:]
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(fn.args.defaults):
                found.append((node.name, arg.arg, i))
        found += [(node.name, arg.arg, None)
                  for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]
    return found


def _public_definitions(module: str) -> list[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _sources() -> list[tuple[ast.AST, str | None]]:
    """Each library module with its name, each benchmark file and the
    README's library snippet, parsed."""
    trees = [(ast.parse((SRC / f"{module}.py").read_text()), module) for module in MODULES]
    trees += [(ast.parse(path.read_text()), None)
              for path in sorted((README.parent / "benchmarks").glob("*.py"))]
    return trees + [(ast.parse(readme_library_snippet()), None)]


def _used() -> set[tuple[str, str]]:
    return set().union(*(_references(tree, home) for tree, home in _sources()))


def test_every_public_definition_is_used_outside_tests():
    used = _used()
    unused = [f"{module}.{name}" for module in MODULES for name in _public_definitions(module)
              if (module, name) not in used]
    assert not unused, f"public but used only by tests, if at all: {unused}"


def test_every_defaulted_parameter_is_passed_outside_tests():
    passes: dict[tuple[str, str], list] = {}
    for tree, home in _sources():
        for target, uses in _passes(tree, home).items():
            passes.setdefault(target, []).extend(uses)
    unpassed = [f"{module}.{name}({param})" for module in MODULES
                for name, param, index in _defaulted_parameters(module)
                if not any(use is None or param in use[1] or (index is not None and index < use[0])
                           for use in passes.get((module, name), []))]
    assert not unpassed, f"defaulted, and passed by no library, benchmark or README call: {unpassed}"


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


@pytest.mark.parametrize("source, passed", [
    ("from knowfuse.kg import corrupt\ncorrupt(1, 2, 3, 4)\n", [(4, set())]),
    ("from knowfuse import kg\nkg.corrupt(1, max_attempts=2)\n", [(1, {"max_attempts"})]),
    ("from knowfuse import kg\nkg.corrupt(*args)\n", [None]),
    ("from knowfuse import kg\nkg.corrupt(**kwargs)\n", [None]),
    ("from knowfuse import kg\ntime_it(kg.corrupt)\n", [None]),  # a value may be called with any
    ("corrupt(1)\n", []),  # not imported, outside its module
])
def test_passes_count_each_use(source, passed):
    assert _passes(ast.parse(source), None).get(("kg", "corrupt"), []) == passed
