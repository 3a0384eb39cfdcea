"""The package's public names, and the public methods and properties of its
exported classes: each is used inside ``lppkit`` itself or is a documented
entry point, so that helpers only the tests need stay in
``tests/oracles.py``."""

import ast
from pathlib import Path

import lppkit

SRC = Path(lppkit.__file__).resolve().parent

# Entry points for library users with no caller in the package.
ALLOWED = {
    "classical_bound",  # Macaulay's bound, the classical case of lpp_bound
    "ci_vector",  # the vector of the pure powers
    "decompose",  # one split of the inverse map, checked on its own
    "valid_hilbert_functions",  # the h a sweep runs over
    "mapping_cone_check",  # the linkage check; gets a caller in the sweeps
}

# Methods and properties of exported classes with no caller in the package.
ALLOWED_METHODS = {
    "MonomialIdeal.from_gens",  # the documented constructor from any generators
}


def modules() -> list[ast.Module]:
    return [ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"]


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_used_outside_their_definitions() -> set[str]:
    """Names read anywhere in the package's modules, except inside a function
    or class definition of the same name."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in modules():
        visit(tree, frozenset())
    return used


def public_methods() -> set[str]:
    """``Class.name`` for every public method and property of an exported
    class.  A method counts as called when its name is read, on any object,
    outside its definitions."""
    exported = exported_names()
    return {
        f"{cls.name}.{node.name}"
        for tree in modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    exported = exported_names()
    assert ALLOWED <= exported
    unused = exported - names_used_outside_their_definitions() - ALLOWED
    assert sorted(unused) == []


def test_the_allowlist_holds_only_names_without_a_caller():
    assert sorted(ALLOWED & names_used_outside_their_definitions()) == []


def test_every_public_method_has_a_caller_or_is_an_entry_point():
    methods = public_methods()
    assert ALLOWED_METHODS <= methods
    used = names_used_outside_their_definitions()
    unused = {m for m in methods - ALLOWED_METHODS if m.split(".")[1] not in used}
    assert sorted(unused) == []


def test_the_method_allowlist_holds_only_methods_without_a_caller():
    used = names_used_outside_their_definitions()
    assert sorted(m for m in ALLOWED_METHODS if m.split(".")[1] in used) == []
