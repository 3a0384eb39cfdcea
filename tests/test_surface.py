"""The package's public names: each is used inside ``lppkit`` itself or is a
documented entry point, so that helpers only the tests need stay in
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


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_used_outside_their_definitions() -> set[str]:
    """Names read anywhere in the package's modules, except inside the
    top-level definition that binds them."""
    used: set[str] = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    exported = exported_names()
    assert ALLOWED <= exported
    unused = exported - names_used_outside_their_definitions() - ALLOWED
    assert sorted(unused) == []


def test_the_allowlist_holds_only_names_without_a_caller():
    assert sorted(ALLOWED & names_used_outside_their_definitions()) == []
