"""No module imports a name it never uses: the check CI's ``ruff check .``
makes with rule F401, run here because ruff is a CI-only tool.

A name counts as used when the module's code loads it, when a string
annotation names it, or when ``__all__`` lists it; an import line with
a ``noqa`` comment is skipped, as ruff skips it. The exemptions are
``pyproject.toml``'s: package ``__init__`` files, which import to
re-export, and ``src/repro/lint/runner.py``, which imports the rule
modules to register them.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
EXEMPT = {pathlib.Path("src/repro/lint/runner.py")}


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names an annotation uses, those inside string annotations too."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """(name, line) of every imported name *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((name, line) for name, line in imported.items()
                  if name not in used and "noqa" not in lines[line - 1])


def test_no_module_imports_an_unused_name():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            relative = path.relative_to(ROOT)
            if path.name == "__init__.py" or relative in EXEMPT:
                continue
            for name, line in unused_imports(path.read_text()):
                found.append(f"{relative}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_sees_what_f401_flags():
    source = (
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os.path\n"
        "import re  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['List']\n"
        "def f(x: 'Optional[Path]') -> int:\n"
        "    return 1\n")
    assert unused_imports(source) == [("Dict", 1), ("os", 2)]
