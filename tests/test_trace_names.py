"""Every reflekt name that the benchmark's traced run wraps still exists.

`perfbench/tracing.py` wraps the functions named in `SELF_TIME` (except the
`REGIONS`, which are spans around code) by module attribute lookup, so
deleting or renaming one of them breaks `perfbench/run.py --trace 1`.  The
file is only read, never imported.
"""
import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def literal(name: str):
    """The literal value bound to a module-level name in tracing.py."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def test_traced_functions_resolve():
    regions = literal("REGIONS")
    names = [n for n in literal("SELF_TIME") if n not in regions]
    assert names
    missing = []
    for name in names:
        mod, attr = name.split(".", 1)
        if not hasattr(importlib.import_module(f"reflekt.{mod}"), attr):
            missing.append(name)
    assert missing == []

