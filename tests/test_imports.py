"""Every name a reflekt module imports is used in that module, and only
`exact` reaches into `exact`.

`__init__.py` is skipped by the unused-import check: its imports are the
package's re-exports.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reflekt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names used only inside string annotations
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n") == [
        "gcd (line 2)",
        "os (line 1)",
    ]


# CycNum's stored fields: the integer numerators, the common denominator and
# the cached hash
CYCNUM_FIELDS = {"_num", "_den", "_hash"}


def private_exact_uses(source: str) -> list[str]:
    """The `_`-prefixed names of `exact` a module imports or reads as
    `exact._name`, its `CycNum._make` calls, and its reads of a CycNum's
    stored fields on any expression; in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exact":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in CYCNUM_FIELDS:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = node.value.id, node.attr
            if (owner == "exact" and name.startswith("_")) or (owner == "CycNum" and name == "_make"):
                found.append((node.lineno, f"{owner}.{name}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "exact.py"), ids=lambda p: p.name
)
def test_only_exact_uses_its_private_names(path):
    assert private_exact_uses(path.read_text()) == []


def test_detects_private_exact_uses():
    source = (
        "from .exact import CycNum, _reduce\n"
        "from . import exact\n"
        "exact._F0\n"
        "CycNum._make(1, {})\n"
        "CycNum.zero()\n"
        "x._den * rows[0][1]._num\n"
        "(x + y)._hash\n"
        "x.N, x.den, x.num\n"
    )
    assert private_exact_uses(source) == [
        "_reduce (line 1)",
        "exact._F0 (line 3)",
        "CycNum._make (line 4)",
        "._den (line 6)",
        "._num (line 6)",
        "._hash (line 7)",
    ]
