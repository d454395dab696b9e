"""Structure checks on the library source, which is parsed, not imported.

``over_lcm`` is the one common-denominator step of the exact layer: every
exact sum, share and l1 gap goes through it, so it alone calls ``math.lcm``.
``records.Record`` is the one record idiom: no module imports ``dataclasses``,
whose import and generated methods cost every CLI command start-up time, and a
record writes out ``__init__`` only to check its input.
``distributions.Distribution`` is the one view of a distribution: no module
tells the kinds apart with ``isinstance``, and each accessor is written once.
No linter is assumed, so an import that a module never reads is caught here.
No code exists for the tests alone: every top-level function or class of a
module other than ``__init__`` is named by some such module outside its own
definition, or listed in ``LAYERS`` of bench/workloads.py, or is one of the
``ENTRY_POINTS`` that README documents.  No module has an ``assert``
statement, so every certified bound is checked under ``python -O`` too.  Each
guard message is raised at one site, bar the few ``REPEATED_GUARDS``.
"""

import ast
from pathlib import Path

from test_bench_contract import bench_layers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bayesblind"


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


#: ``Record`` subclasses whose ``__init__`` is written out, each to check or coerce
#: its input: the three distribution kinds, ``BlockWeights``, ``Norm`` and
#: ``StickBase``.  Every other record takes each field, by position, through
#: ``Record``'s one constructor.
WRITTEN_OUT_INITS = ["BlockWeights", "FiniteDistribution", "Geometric", "Norm", "StickBase",
                     "TruncatedDistribution"]


def record_inits() -> list:
    """Every ``Record`` subclass, direct or not, that defines ``__init__``."""
    classes = {node.name: node for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}

    def is_record(name: str) -> bool:
        bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
        return any(b == "Record" or (b in classes and is_record(b)) for b in bases)

    return sorted(name for name, node in classes.items() if is_record(name) and any(
        isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body))


def test_records_write_out_init_only_to_check_input():
    assert record_inits() == WRITTEN_OUT_INITS


def unused_imports() -> list:
    """``module: name`` of every name a library module other than ``__init__``
    imports and never reads, annotations included; ``__future__`` is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}: {name}" for name in imported if name not in read]
    return unused


def test_every_imported_name_is_read():
    assert unused_imports() == []


#: library results that README documents and that nothing in ``src/`` or ``LAYERS`` calls
ENTRY_POINTS = ["geometric_witness"]


def unreached_definitions() -> list:
    """``module.name`` of every top-level function or class of a module other than
    ``__init__`` that no such module names (as a name or an attribute) outside its
    own definition, and that neither ``LAYERS`` nor ``ENTRY_POINTS`` lists."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    named = [(stmt, {getattr(node, "id", None) or getattr(node, "attr", None)
                     for node in ast.walk(stmt)}) for tree in trees.values() for stmt in tree.body]
    listed = {name for names in bench_layers().values() for name in names} | set(ENTRY_POINTS)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in listed
            and not any(node.name in names for stmt, names in named if stmt is not node)]


def test_every_definition_is_reached():
    assert unreached_definitions() == []
    readme = (ROOT / "README.md").read_text()
    assert [name for name in ENTRY_POINTS if f"`{name}`" not in readme] == []


def assert_statements() -> list:
    """``module: line`` of every ``assert`` statement, which ``python -O`` strips."""
    return [f"{path.stem}: {node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    assert assert_statements() == []


#: guard messages raised at more than one site, with their site counts: the seed
#: check alone.  Each of its sites is two lines, and a shared helper plus its
#: import would cost as many.
REPEATED_GUARDS = {"f'seed must be non-negative, got {seed}'": 3}


def guard_messages() -> dict:
    """``ast.unparse`` of the message of every ``raise InputError(...)`` and
    ``raise HorizonInsufficient(...)``, with the number of sites raising it."""
    counts = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            call = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in (
                    "InputError", "HorizonInsufficient") and call.args:
                message = ast.unparse(call.args[0])
                counts[message] = counts.get(message, 0) + 1
    return counts


def test_each_guard_message_is_raised_once():
    """Each input rule is checked by one guard (``require_horizon``,
    ``require_stored``, ``require_exact``, ``require_priors`` in distributions),
    not by copies."""
    repeated = {message: k for message, k in guard_messages().items() if k > 1}
    assert {message: k for message, k in repeated.items() if message not in REPEATED_GUARDS} == {}
    assert repeated == REPEATED_GUARDS
