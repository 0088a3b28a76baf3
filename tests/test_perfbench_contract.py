"""The names the benchmark harness patches resolve on the package.

``perfbench/run.py`` wraps package functions by (module, attribute) and
swaps a few controller globals; a rename in ``src/`` would otherwise
only surface as an AttributeError in a traced benchmark run.  The script
is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_spans_and_patched_names_resolve():
    tree = ast.parse(RUN_PY.read_text())
    spans = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    names = [tuple(ast.literal_eval(entry))[:2] for entry in spans.elts]
    # controller attributes the script reads or swaps directly
    names += sorted(
        {
            ("controller", node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "controller"
        }
    )
    assert len(names) > 10
    for module, attr in names:
        assert hasattr(importlib.import_module(f"jumpmc.{module}"), attr), (module, attr)
