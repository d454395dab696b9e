"""Structure checks on the library source, which is parsed, not imported.

``over_lcm`` is the one common-denominator step of the exact layer: every
exact sum, share and l1 gap goes through it, so it alone calls ``math.lcm``.
``records.Record`` is the one record idiom: no module imports ``dataclasses``,
whose import and generated methods cost every CLI command start-up time, and a
record writes out ``__init__`` only to check its input or for a measured hot caller.
``distributions.Distribution`` is the one view of a distribution: no module
tells the kinds apart with ``isinstance``, and each accessor is written once.
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


KINDS = {"Distribution", "FiniteDistribution", "TruncatedDistribution", "Geometric"}
ACCESSORS = ("value", "prefix_values", "prefix_pairs", "tail_after")


def kind_isinstance_calls() -> list:
    """``module: line`` of every ``isinstance`` whose class argument names a
    distribution kind, alone or in a tuple."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(c, "id", getattr(c, "attr", None)) in KINDS for c in classes):
                sites.append(f"{path.stem}: {node.lineno}")
    return sites


def accessor_definitions() -> list:
    """``Class.method`` of every definition of a distribution accessor."""
    tree = ast.parse((SRC / "distributions.py").read_text())
    return [f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in ACCESSORS]


def test_distribution_kinds_are_told_apart_by_fields():
    assert kind_isinstance_calls() == []
    assert accessor_definitions() == [f"Distribution.{name}" for name in ACCESSORS]


#: ``Record`` subclasses whose ``__init__`` is written out; every other record takes
#: each field through ``Record``'s one constructor.  Input checks and coercion: the
#: three distribution kinds, ``BlockWeights``, ``Norm`` and ``StickBase``.  Hot
#: callers, timed on a 2-core host under CPython 3.11: the generic constructor takes
#: 1.46 us against 0.58 us per ``Partition``, about 3.6 ms of the 4140 partitions
#: a ``jc brute`` enumerates at n = 8, and 2.64 us against 0.88 us per ``TrialRecord``,
#: about 16 ms of a 9000-trial ``bs montecarlo --format csv``.
WRITTEN_OUT_INITS = ["BlockWeights", "FiniteDistribution", "Geometric", "Norm", "Partition",
                     "StickBase", "TrialRecord", "TruncatedDistribution"]


def record_inits() -> list:
    """Every ``Record`` subclass, direct or not, that defines ``__init__``."""
    classes = {node.name: node for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}

    def is_record(name: str) -> bool:
        bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
        return any(b == "Record" or (b in classes and is_record(b)) for b in bases)

    return sorted(name for name, node in classes.items() if is_record(name) and any(
        isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body))


def test_records_write_out_init_only_to_check_input_or_for_hot_callers():
    assert record_inits() == WRITTEN_OUT_INITS
