"""The one-walk vector statistics and validation against their recursive
definitions, and the benchmark's entry points against the package."""

import importlib
import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import EMPTY, DegreeList, Empty, Leaf, Node, enumerate_vectors, stats, validate

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
    a = DegreeList(degrees)
    for t in enumerate_vectors(a):
        assert validate(t, a)
        assert stats(t, a) == stats_by_recursion(t, a)


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
