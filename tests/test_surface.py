"""The package's public functions, classes and module-level names, in every
module, and the public methods and properties of its public classes: each is used inside ``lppkit``
itself or is a documented entry point, so that helpers only the tests need
stay in ``tests/oracles.py``.  Click commands are entry points.  A method read
inside a dunder method of its own class has no caller by that read.  And a
``Monomial`` is built only where text goes in or out."""

import ast
from pathlib import Path

import lppkit

SRC = Path(lppkit.__file__).resolve().parent

# Module-level functions and classes with no caller in the package.
ALLOWED = {
    "growth.classical_bound",  # Macaulay's bound, the classical case of lpp_bound
    "growth.standard_monomials_of_degree",  # traced by name in perfbench/spans.py
    "growth.ci_hilbert_function",  # traced by name in perfbench/spans.py
    "vectors.ci_vector",  # the vector of the pure powers
    "vectors.decompose",  # one split of the inverse map, checked on its own
    "vectors.enumerate_vectors",  # every valid vector; the checks read the table behind it
    "harness.valid_hilbert_functions",  # the h a sweep runs over
    "betti.mapping_cone_check",  # the linkage check; gets a caller in the sweeps
    "monomials.is_lpp",  # the LPP predicate; the residual check holds the profile already
    "monomials.parse_monomial",  # one monomial from text; parse_ideal reads exponent tuples
}

# Methods and properties of public classes with no caller in the package.
ALLOWED_METHODS: set[str] = set()

# Where the package builds a Monomial, once per line: everywhere else an
# ideal's generators are exponent tuples.
MONOMIAL_SITES = [
    "growth.standard_monomials_of_degree",  # traced by name in perfbench/spans.py
    "monomials.MonomialIdeal.gens",  # the generators, for the caller and repr
    "monomials.MonomialIdeal.socle_monomials",  # the socle, for the caller
    "monomials.parse_monomial",  # text input of one monomial
    "monomials.pure_power",  # for the caller and an error message
]


def modules() -> dict[str, ast.Module]:
    return {
        p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"
    }


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_click_command(node: ast.FunctionDef) -> bool:
    """Decorated with ``<group>.command(...)`` or ``<group>.group(...)``."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a function or class, or the
    plain targets of an assignment (``EMPTY = Empty()``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [] if isinstance(node, ast.FunctionDef) and is_click_command(node) else [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def public_definitions() -> set[str]:
    """``module.name`` for every public function, class and assigned name at
    module level, click commands left out."""
    return {
        f"{module}.{name}"
        for module, tree in modules().items()
        for node in tree.body
        for name in defined_names(node)
        if not name.startswith("_")
    }


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def public_methods() -> set[str]:
    """``Class.name`` for every public method and property of a public class.
    A method counts as called when its name is read, on any object, outside
    its definitions."""
    return {
        f"{cls.name}.{node.name}"
        for tree in modules().values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def names_used_outside_their_definitions() -> set[str]:
    """Names read anywhere in the package's modules, except inside a function
    or class definition of the same name, and except a class's own method
    names read inside one of its dunder methods.  Binding a name by an
    assignment does not read it."""
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str], own: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing | own:
            used.add(name)
        methods = frozenset(
            child.name for child in ast.iter_child_nodes(node)
            if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
        )
        for child in ast.iter_child_nodes(node):
            in_dunder = isinstance(child, ast.FunctionDef) and is_dunder(child.name)
            visit(child, enclosing, own | methods if in_dunder else own)

    for tree in modules().values():
        visit(tree, frozenset(), frozenset())
    return used


def short(qualified: str) -> str:
    return qualified.split(".")[1]


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    definitions = public_definitions()
    assert ALLOWED <= definitions
    used = names_used_outside_their_definitions()
    unused = {d for d in definitions - ALLOWED if short(d) not in used}
    assert sorted(unused) == []


def test_every_exported_name_is_checked():
    assert exported_names() - {short(d) for d in public_definitions()} == set()


def test_the_allowlist_holds_only_names_without_a_caller():
    used = names_used_outside_their_definitions()
    assert sorted(d for d in ALLOWED if short(d) in used) == []


def test_every_public_method_has_a_caller_or_is_an_entry_point():
    methods = public_methods()
    assert ALLOWED_METHODS <= methods
    used = names_used_outside_their_definitions()
    unused = {m for m in methods - ALLOWED_METHODS if short(m) not in used}
    assert sorted(unused) == []


def test_the_method_allowlist_holds_only_methods_without_a_caller():
    used = names_used_outside_their_definitions()
    assert sorted(m for m in ALLOWED_METHODS if short(m) in used) == []


def monomial_sites() -> list[str]:
    """``module.Class.function`` for every call that builds a Monomial:
    ``Monomial(...)``, or ``Monomial`` handed to another call
    (``map(Monomial, ...)``) other than ``isinstance``."""
    sites = []

    def is_monomial(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "Monomial"

    def visit(node: ast.AST, where: tuple[str, ...]):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = where + (node.name,)
        if isinstance(node, ast.Call):
            handed = [*node.args, *(k.value for k in node.keywords)]
            if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                handed = []
            if is_monomial(node.func) or any(map(is_monomial, handed)):
                sites.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, tree in modules().items():
        visit(tree, (module,))
    return sorted(sites)


def test_monomials_are_built_only_where_text_goes_in_or_out():
    assert monomial_sites() == MONOMIAL_SITES


def test_click_commands_are_entry_points():
    commands = {
        node.name
        for node in modules()["cli"].body
        if isinstance(node, ast.FunctionDef) and is_click_command(node)
    }
    assert {"main", "hf", "betti", "check", "check_growth", "vec_from_hf"} <= commands
    assert not {f"cli.{name}" for name in commands} & public_definitions()
