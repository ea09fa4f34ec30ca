"""Every function that `perfbench/spans.py` wraps by name exists.

The traced benchmark (`perfbench/run.py --trace 1`) rebinds the names in
its SPANS and COUNTERS tables and fails on a missing one, but its own smoke
test is not part of this suite.  The tables are read with `ast`, so
nothing under `perfbench/` is imported or run."""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def bound_names():
    tables = {}
    for node in ast.parse(SPANS_PY.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTERS"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "COUNTERS"}
    return [(module, attr) for table in tables.values()
            for module, attrs in table.items() for attr in attrs]


def test_every_traced_name_exists():
    names = bound_names()
    assert names
    missing = [f"rectcft.{module}.{attr}" for module, attr in names
               if not callable(getattr(importlib.import_module(f"rectcft.{module}"), attr, None))]
    assert missing == []
