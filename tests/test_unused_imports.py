"""No imported name goes unused (the rule ``ruff check`` applies as F401).

The CI ``lint`` job runs ruff; this scan is the same rule without it, so
an unused import fails locally too.  It parses every Python file under
``src/``, ``tests/``, ``scripts/``, ``examples/`` and ``benchmarks/`` and
reports each name an import binds that the module never reads.  Counted
as read: a name anywhere in the module's code or in its string
annotations, a name listed in ``__all__``, every import of an
``__init__.py`` (a package re-exports them), and an import on a line
marked ``# noqa``.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts", "examples", "benchmarks")


def _imported(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node


def _annotation_names(node: ast.AST) -> Iterator[str]:
    """Names inside a (possibly string) annotation."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                inner = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(inner) if isinstance(n, ast.Name))


def _read_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            names.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return names


def unused_imports(path: Path, root: Path = ROOT) -> List[str]:
    """``"file:line name"`` (relative to ``root``) for every unused import
    of one file."""
    if path.name == "__init__.py":
        return []
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    read = _read_names(tree)
    out = []
    for name, statement in _imported(tree):
        span = lines[statement.lineno - 1:statement.end_lineno]
        if name in read or any("# noqa" in line for line in span):
            continue
        out.append(f"{path.relative_to(root)}:{statement.lineno} {name}")
    return out


def test_no_unused_imports():
    found = [
        hit
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for hit in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_an_unused_import(tmp_path):
    """The scan's own check: what it must flag, and what it must not."""
    module = tmp_path / "probe.py"
    module.write_text(
        "import os\n"
        "import json  # noqa: F401\n"
        "from typing import List, Optional, Tuple\n"
        "from collections import OrderedDict as OD\n"
        "__all__ = ['OD']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [x]\n"
    )
    assert unused_imports(module, tmp_path) == ["probe.py:1 os", "probe.py:3 Tuple"]
