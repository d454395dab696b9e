"""Structure checks on the library source, which is parsed, not imported.

``over_lcm`` is the one common-denominator step of the exact layer: every
exact sum, share and l1 gap goes through it, so it alone calls ``math.lcm``.
``records.Record`` is the one record idiom: no module imports ``dataclasses``,
whose import and generated methods cost every CLI command start-up time.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bayesblind"


def lcm_call_sites() -> list:
    """``module.function`` around every call of an ``lcm`` attribute or name,
    and every ``from ... import lcm``."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            else:
                inner = where
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "lcm") or (
                isinstance(func, ast.Name) and func.id == "lcm"
            ):
                sites.append(f"{module}.{where}")
            if isinstance(child, ast.ImportFrom) and any(a.name == "lcm" for a in child.names):
                sites.append(f"{module}: from {child.module} import lcm")
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_math_lcm_is_called_only_in_over_lcm():
    assert lcm_call_sites() == ["distributions.over_lcm"]


def dataclasses_imports() -> list:
    """``module: line`` of every import of ``dataclasses`` or a name from it."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            if any(name.split(".")[0] == "dataclasses" for name in names):
                sites.append(f"{path.stem}: {node.lineno}")
    return sites


def test_no_module_imports_dataclasses():
    assert dataclasses_imports() == []
