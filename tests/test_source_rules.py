"""Source rules of ``src/ortho2d``, read from the modules' syntax trees.

Each rule is stated once, as one test, and only here: the CI workflow
runs this suite and states none of them.  The import graph is pinned as
data: a new dependency between modules is a decision, made here.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ortho2d"
SOURCES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for name, path in SOURCES.items()}

# Module -> (package modules it imports at module level, those it imports
# only inside a function).  The Gram oracle and the closed forms import
# numerics alone, so no structural coefficient can reach them; tables,
# moments and eval never load oracle, ttr or verify.
IMPORTS = {
    "__init__": (set(), set()),
    "numerics": (set(), set()),
    "univariate": ({"numerics"}, set()),
    "oracle": ({"numerics"}, set()),
    "closed_forms": ({"numerics"}, set()),
    "construction": ({"numerics", "univariate"}, {"oracle"}),
    "ttr": ({"numerics"}, set()),
    "catalog": ({"closed_forms", "construction", "numerics", "univariate"},
                {"ttr"}),
    "verify": ({"catalog", "numerics", "ttr"}, set()),
    "cli": ({"catalog", "closed_forms", "numerics"}, {"verify"}),
}


def _imports(tree):
    """(module level, inside a function only): the package modules a tree
    imports, relatively or by their absolute name; the package itself
    counts as ``__init__``."""
    found = (set(), set())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def module_of(name):
        parts = name.split(".")
        if parts[0] == "ortho2d":
            return parts[1] if len(parts) > 1 else "__init__"
        return None

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.ImportFrom):
                if child.level and child.module:
                    names = [child.module]
                elif child.level:  # from . import name
                    names = [alias.name for alias in child.names]
                else:
                    names = [module_of(child.module)]
            elif isinstance(child, ast.Import):
                names = [module_of(alias.name) for alias in child.names]
            found[nested].update(name for name in names if name)
            visit(child, nested or isinstance(child, functions))

    visit(tree, False)
    found[1].difference_update(found[0])
    return found


def _identifiers(tree):
    """(node, identifier) for every name the code binds or reads: names,
    attributes, definitions, arguments, keywords, import aliases, and the
    string name given to getattr, setattr, hasattr or delattr."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node, node.name
        elif isinstance(node, ast.arg):
            yield node, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node, node.arg
        elif isinstance(node, ast.alias):
            yield node, node.asname or node.name
            yield node, node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in {"getattr", "setattr", "hasattr",
                                   "delattr"}
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node, node.args[1].value


def _where(name, node):
    return f"{SOURCES[name].name}:{node.lineno}"


def test_the_import_graph_is_pinned():
    assert set(TREES) == set(IMPORTS)
    for name, tree in TREES.items():
        top, nested = _imports(tree)
        assert (top, nested) == IMPORTS[name], name


@pytest.mark.parametrize("route", ["oracle", "closed_forms"])
def test_the_route_imports_only_numerics(route):
    assert set().union(*_imports(TREES[route])) == {"numerics"}


def test_no_source_line_exceeds_79_characters():
    long = [f"{path.name}:{number}"
            for path in SOURCES.values()
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 79]
    assert not long


def test_value_types_are_made_by_their_constructors_and_read_in_numerics():
    # No module reaches object.__new__, and only numerics reads the stored
    # entries of a BandMatrix or the terms of a SparsePoly2.
    bad = []
    for name, tree in TREES.items():
        for node, ident in _identifiers(tree):
            if (ident == "__new__" and isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                bad.append(_where(name, node))
            elif (name != "numerics" and ident in {"_entries", "_terms"}
                    and isinstance(node, (ast.Attribute, ast.Call))):
                bad.append(_where(name, node))
    assert not bad


def test_no_module_states_a_rho_case():
    # Both rho cases are one construction: no module names, stores or
    # branches on a case.
    bad = [_where(name, node) for name, tree in TREES.items()
           for node, ident in _identifiers(tree)
           if "CASE_I" in ident or "_symmetric" in ident
           or (ident == "case"
               and isinstance(node, (ast.Attribute, ast.Call)))]
    assert not bad


def test_no_module_imports_a_private_name_from_univariate():
    # A family's private integer forms are read as its methods (the
    # connection kernel, moments, basis coefficients), so the formulas stay
    # in univariate: no module imports a private univariate helper.
    bad = [f"{_where(name, node)} {alias.name}"
           for name, tree in TREES.items() for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and (node.module or "").split(".")[-1] == "univariate"
           for alias in node.names if alias.name.startswith("_")]
    assert not bad
