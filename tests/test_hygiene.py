"""Source hygiene: no module imports a name it never uses, and no library
code is left without a caller."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "mixlab").glob("*.py"))
MODULES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))

# Library API that nothing in src/mixlab calls, each with why it stays.
CALLERLESS_API = {
    "cli.bundled_roof_path":
        "the README's way to locate the bundled roof files",
    "cohomology.ComponentSpectrum.compose_map":
        "Phi o f on one block, the README's Fourier algebra; tests build "
        "coboundaries with it",
    "heisenberg.group_exp":
        "exp(tW), the one-parameter subgroup whose translations are the nilflows",
    "skewshift.birkhoff_sum":
        "the paper's Birkhoff sum Phi_n at one point",
    "skewshift.save_roof":
        "writes a roof file, the inverse of load_roof; the CLI writes the "
        "same document through roof_to_dict",
    "specialflow.discrete_iteration_bounds":
        "the hit-count spread bound that acceptance criterion 11 checks",
    "specialflow.flow_at":
        "the suspension flow of one point, the one-lane case of the kernel",
    "specialflow.hit_count":
        "the hit count of one point, the one-lane case of the kernel",
}


def _exported(tree: ast.Module) -> set:
    """The names listed in a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {e.value for e in node.value.elts}
    return names


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that the module never reads;
    names in ``__all__`` and ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(imported) - used - _exported(tree)
    return sorted((imported[name], name) for name in unused)


def _definitions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and classes and
    of the methods of those classes; dunder methods, which Python calls
    itself, are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
    )


def caller_less(sources: dict) -> list:
    """'module.name' of every definition in ``sources`` (module name ->
    source) whose name nothing reads outside the definition itself, in any
    of the modules.  Names are matched, not objects: a method counts as
    called when any attribute of its name is read."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = sum((_references(t) for t in trees.values()), Counter())
    return sorted(
        f"{mod}.{qual}"
        for mod, tree in trees.items()
        for qual, node in _definitions(tree)
        if refs[node.name] == _references(node)[node.name]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import List, Tuple\n"
        "__all__ = ['List']\n"
        "def f(x: Tuple[int, int]) -> None:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == [(2, "os")]


def test_library_code_has_callers():
    sources = {p.stem: p.read_text() for p in LIBRARY}
    assert caller_less(sources) == sorted(CALLERLESS_API)


def test_caller_less_code_is_found():
    source = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return len(self)\n"
        "    def unused(self):\n"
        "        return self.size()\n"
        "Box().size()\n"
    )
    assert caller_less({"m": source}) == ["m.Box.unused", "m.recursive"]
    sources = {p.stem: p.read_text() for p in LIBRARY}
    sources["specialflow"] += "\n\ndef _planted(x):\n    return x\n"
    assert "specialflow._planted" in caller_less(sources)
