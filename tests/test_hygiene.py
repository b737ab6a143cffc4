"""Source hygiene: every module-level import in the package is used."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dappaudit"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never references.

    A reference is a bare name or the root of a dotted access.  A quoted
    annotation counts too, so a forward reference keeps its import.
    """
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Any, Protocol\n"
        "from .model import Opcode, Operand\n"
        "def f(x: 'Any') -> int:\n"
        "    return os.getpid('Opcode')\n"
        "y: 'list[Operand]' = []\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "Protocol"), (4, "Opcode")]


def test_package_has_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    orphans = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert orphans == [], "unused imports:\n" + "\n".join(orphans)
