"""The benchmark's trace hooks name library functions that must keep existing.

`perfbench/tracing.py` wraps the functions listed in its LAYERS table by
name; a refactor that deletes or renames one breaks traced benchmark runs.
The table is read from the source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py has no LAYERS table")


def test_every_traced_name_resolves():
    missing = []
    for layer, names in traced_names().items():
        module = importlib.import_module(f"toralrank.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_hirschbrown_calls_syzygies_through_its_own_binding():
    # Tracing rebinds imported names too; the benchmark's own test relies on
    # hirschbrown holding groebner's syzygies_of_columns.
    from toralrank import groebner, hirschbrown

    assert hirschbrown.syzygies_of_columns is groebner.syzygies_of_columns
