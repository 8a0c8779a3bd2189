"""Rules about the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orderdim"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, and every check on a verdict or
    # an input must still run there; raise a typed error instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
    assert len(list(SRC.rglob("*.py"))) >= 10


def test_no_dataclasses_import_in_the_library():
    # dataclasses loads inspect, and each decorated class execs generated
    # methods: together 10-20 ms of every CLI process; the result classes
    # subclass poset._Frozen instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_field_stores_only_in_poset():
    # result classes take their fields through poset._Frozen's one
    # constructor; a hand-written object.__setattr__ store elsewhere would
    # bring back the per-class constructors it replaced
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "poset.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert found == []


def test_lex_less_is_called_only_by_homogeneity():
    # Orders on points come from poset's one product builder.  The qn-lex
    # certificate derivation in homogeneity keeps its own comparisons, because
    # its points tie on coordinates.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "homogeneity.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name)
                and node.func.id == "lex_less"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr == "lex_less"
            )
        ]
    assert found == []


def test_budgets_are_resolved_only_by_the_meter():
    # BudgetMeter resolves its own budget, so a search passes its budget=
    # argument, or None, straight to the meter; a second resolver would let
    # two searches read ORDERDIM_BUDGET differently
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "budget.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and "effective_budget" in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
            )
        ]
    assert found == []


def test_only_the_value_base_defines_equality():
    # every library value sits on poset._Frozen, whose one __eq__ and
    # __hash__ compare the fields; a class of its own comparison could
    # leave a field out, or equal values with unequal hashes
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name == "_Frozen":
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno} {cls.name}.{name}"
                    for name in names
                    if name in ("__eq__", "__hash__")
                ]
    assert found == []


def test_cells_are_refused_only_in_geometry():
    # geometry._cells makes the one "cell enumeration" refusal for every
    # enumeration of minimal cells; a second refusal elsewhere could count
    # the same cells differently
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if "CELLS" in (
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
            )
            or isinstance(node, ast.Constant) and node.value == "cell enumeration"
        ]
    assert found == []


def test_error_constructors_store_fields():
    # OrderError subclasses take their message from Exception's own
    # constructor; an __init__ is there only to keep a field on the error
    def classes(path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]

    errors = {cls.name for cls in classes(SRC / "errors.py")}
    assert "OrderError" in errors and len(errors) > 10
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for cls in classes(path):
            bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
            if cls.name not in errors and not bases & errors:
                continue
            for init in cls.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                if not any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for node in ast.walk(init)
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                ):
                    found.append(f"{path.name}:{init.lineno} {cls.name}.__init__")
    assert found == []


def test_public_names_are_defined_where_they_are_exported():
    # one import path per public name: a module lists in __all__ only what
    # it defines itself, so that no name has a second home; the package
    # namespace in __init__.py is the one place that gathers them
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = set()
        exported = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    exported = [ast.literal_eval(e) for e in node.value.elts]
        found += [f"{path.name}: {name}" for name in exported if name not in defined]
    assert found == []


def test_only_the_process_entry_skips_the_collector():
    # cli.run freezes the collector just before the process exits; the
    # same call, or a disabled collector or os._exit, anywhere else would
    # reach in-process callers of main() and the library
    shortcuts = {("gc", "freeze"), ("gc", "disable"), ("gc", "set_threshold"), ("os", "_exit")}
    found = []
    in_run = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        entry = set()
        if path.name == "cli.py":
            run = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
            entry = set(ast.walk(run))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            hits = sum(name in shortcuts for name in names)
            if node in entry:
                in_run += hits
            elif hits:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert in_run == 1
