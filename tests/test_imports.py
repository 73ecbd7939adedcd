"""Every name a package module imports is used in that module, and every
public name the package and the bench define has a reader outside tests.

``__init__.py`` imports to re-export, and ``from __future__`` imports are
compiler switches, so both are skipped. A name counts as used when it is
read anywhere in the module, annotations included.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dknn"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, json as j\nfrom a import b, c\nj.x(c)\n"
    assert unused_imports(source) == ["os (line 2)", "b (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a name, an attribute, an
    imported name or a string constant (the bench names what it wraps by
    string)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each public top-level function and class,
    and of each public method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, kinds[:2]) and not item.name.startswith("_")]
    return found


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every public definition in ``sources`` (module name
    -> source) that no code in ``sources`` reads outside the definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = Counter()
    for tree in trees.values():
        total.update(reads(tree))
    unread = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if total[name] == reads(node)[name]:
                unread.append(f"{module}.{qualname}")
    return unread


def test_the_reader_check_sees_an_unread_name():
    sources = {
        "a": "def used(): return used()\ndef f(): pass\nclass K:\n"
             "    def m(self): pass\n    def _p(self): pass\n",
        "b": "from a import f\nTARGETS = ['m']\n",
    }
    assert unread_public_names(sources) == ["a.used", "a.K"]


def test_every_public_name_has_a_reader():
    """Aim 2: code with no caller is deleted, and test oracles live in tests/.
    The package and the bench are the readers; tests are not."""
    paths = [PACKAGE / module for module in MODULES] + sorted((ROOT / "bench").glob("*.py"))
    sources = {f"{path.parent.name}/{path.stem}": path.read_text() for path in paths}
    assert unread_public_names(sources) == []
