"""The benchmark reaches the library only through the public names that
``LAYERS`` in bench/workloads.py lists; each must resolve on its module.

The file is parsed, not imported, so this check runs no benchmark code.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_layers() -> dict:
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {WORKLOADS.name}")


def test_every_bench_layer_name_resolves():
    layers = bench_layers()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"bayesblind.{module}"), name)
    ]
    assert missing == []
