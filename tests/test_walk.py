"""The one-walk vector statistics and validation against their recursive
definitions, and the benchmark's entry points against the package."""

import importlib
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import (
    EMPTY,
    DegreeList,
    Empty,
    Leaf,
    Node,
    VectorStats,
    dual,
    enumerate_vectors,
    stats,
    validate,
)
from lppkit.vectors import _measure

from oracles import stats_by_recursion, validate_by_recursion


def trees(n: int):
    """Vectors for n variables, with empty children and children at the wrong
    depth mixed in."""
    leaf = st.integers(-1, 6).map(Leaf)
    if n == 1:
        right = leaf
        wrong = st.lists(leaf, min_size=1, max_size=3).map(lambda cs: Node(tuple(cs)))
    else:
        right = st.lists(trees(n - 1), min_size=1, max_size=5).map(
            lambda cs: Node(tuple(cs))
        )
        wrong = leaf
    return st.one_of(right, right, right, st.just(EMPTY), wrong)


@st.composite
def trees_with_degrees(draw):
    n = draw(st.integers(1, 4))
    degrees = sorted(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    return draw(trees(n)), DegreeList(tuple(degrees))


def well_formed(t, n: int) -> bool:
    if isinstance(t, Empty):
        return True
    if isinstance(t, Leaf):
        return n == 1
    return n > 1 and all(well_formed(c, n - 1) for c in t.children)


@settings(max_examples=600, deadline=None)
@given(trees_with_degrees())
def test_walk_matches_the_recursive_definitions(case):
    t, a = case
    assert validate(t, a) == validate_by_recursion(t, a)
    if well_formed(t, a.n):
        assert stats(t, a) == stats_by_recursion(t, a)
    else:
        with pytest.raises(ValueError):
            stats(t, a)


def test_stats_rejects_a_malformed_middle_child():
    # the recursive definition reads only the first and last child here
    t = Node((Leaf(1), Node((Leaf(1),)), Leaf(3)))
    a = DegreeList((3, 3))
    assert validate(t, a).reason == "child 2: node where a one-variable vector is needed"
    with pytest.raises(ValueError):
        stats(t, a)


@pytest.mark.parametrize(
    "degrees", [(2, 2, 2), (3, 4, 5), (2, 2, 3, 3), (4, 4, 6), (5, 7)]
)
def test_walk_matches_on_every_valid_vector(degrees):
    # and on their duals; the walk measures on plain tuples, and stats
    # builds the VectorStats
    a = DegreeList(degrees)
    vectors = enumerate_vectors(a)
    for t in vectors + [dual(t, a) for t in vectors]:
        assert validate(t, a)
        st = stats(t, a)
        assert type(st) is VectorStats and st == stats_by_recursion(t, a)
        assert _measure(t, degrees) == ((st.length, st.sigma, st.alpha, st.is_ci), None)


# one malformed vector per condition of the walk, with the reason it gives
REASONS = {
    "leaf-where-a-node-is-needed": (
        Leaf(2), (3, 4), "leaf where a 2-variable vector is needed"
    ),
    "leaf-not-positive": (Leaf(0), (4,), "leaf degree 0 is not positive"),
    "leaf-above-its-bound": (Leaf(5), (4,), "leaf degree 5 exceeds the bound 4"),
    "node-where-a-leaf-is-needed": (
        Node((Leaf(1),)), (4,), "node where a one-variable vector is needed"
    ),
    "longer-than-a1": (Node((Leaf(9),) * 4), (3, 5), "length 4 exceeds a_1 = 3"),
    "bad-child": (
        Node((Leaf(1), Leaf(1), Leaf(0))), (3, 5), "child 3: leaf degree 0 is not positive"
    ),
    "bad-grandchild": (
        Node((Node((Leaf(1),)), Node((Leaf(2), Leaf(7))))),
        (2, 3, 5),
        "child 2: child 2: leaf degree 7 exceeds the bound 5",
    ),
    "longer-than-the-last-child": (
        Node((Leaf(1), Leaf(2), Leaf(2))), (3, 5), "length 3 exceeds the last child's length 2"
    ),
    "sigma-not-below-alpha": (
        Node((Leaf(1), Leaf(4), Leaf(3))),
        (3, 5),
        "sigma of child 2 (4) not below alpha of child 3 (3)",
    ),
}


@pytest.mark.parametrize("case", REASONS.values(), ids=list(REASONS))
def test_reasons_are_pinned(case):
    t, degrees, reason = case
    a = DegreeList(degrees)
    assert validate(t, a).reason == reason
    with pytest.raises(ValueError, match=f"invalid vector for A={a}: "):
        dual(t, a)


def test_benchmark_entry_points_resolve():
    # the traced benchmark run rebinds these names; a move or rename would
    # otherwise drop its spans without an error
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    entry_points = runpy.run_path(str(spans))["ENTRY_POINTS"]
    for layer, path in entry_points:
        owner = importlib.import_module(f"lppkit.{layer}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name)
        # methods are looked up in the class's own namespace
        assert attr in vars(owner), (layer, path)
        assert callable(vars(owner)[attr]), (layer, path)
