"""The inverse map from Hilbert functions to vectors: one validity check per
call, the same vectors as the recursion that checks every sequence it visits,
and the zero function."""

import random

import pytest

from lppkit import (
    EMPTY,
    DegreeList,
    HilbertFunction,
    ci_vector,
    decompose,
    dual,
    hf_of_vector,
    is_lpp_sequence,
    vector_of_hf,
    vectors,
)
from lppkit.harness import valid_hilbert_functions

from conftest import random_box_hf
from oracles import tail, vector_of_hf_by_checked_recursion
from test_bench_smoke import workloads as bench_workloads

CORPUS = [(3, 3, 4), (2, 2, 3, 3), (3, 4, 5), (2, 3, 3, 4)]


def seeded_large_boxes(seed: int):
    """(A, h) for seeded random ideals: n = 3 with sides 10-16, n = 4 with
    sides 5-7, then one on each box shape of the cli-large benchmark (n = 3
    with sides up to 22, n = 4 with sides up to 8)."""
    rng = random.Random(seed)
    for n, lo, hi in [(3, 10, 16)] * 6 + [(4, 5, 7)] * 6:
        sides = tuple(sorted(rng.randint(lo, hi) for _ in range(n)))
        yield DegreeList(sides), random_box_hf(rng, sides)
    for sides in bench_workloads.SIDES3 + bench_workloads.SIDES4:
        yield DegreeList(sides), random_box_hf(rng, sides)


@pytest.fixture
def checks(monkeypatch):
    """Count the validity checks that go through ``vectors``."""
    calls = []

    def counted(s, a):
        calls.append(s)
        return is_lpp_sequence(s, a)

    monkeypatch.setattr(vectors, "is_lpp_sequence", counted)
    return calls


class TestMatchesCheckedRecursion:
    @pytest.mark.parametrize("degrees", CORPUS)
    def test_every_valid_h(self, degrees):
        a = DegreeList(degrees)
        hs = valid_hilbert_functions(a, a.sigma_ci + 1)
        assert hs
        for h in hs:
            assert vector_of_hf(h, a) == vector_of_hf_by_checked_recursion(h, a), str(h)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_large_boxes(self, seed):
        for a, h in seeded_large_boxes(seed):
            t = vector_of_hf(h, a)
            assert t == vector_of_hf_by_checked_recursion(h, a), (a, str(h))
            assert hf_of_vector(t) == h



@pytest.mark.parametrize("degrees", CORPUS)
def test_valid_sequence_splits_into_valid_parts(degrees):
    # The recursion splits h with h(1) = n; that S1 is valid for A and S1' for
    # A's tail is what lets it skip their checks.
    a = DegreeList(degrees)
    for s in valid_hilbert_functions(a, a.sigma_ci + 1):
        if s.at(1) != a.n:
            continue
        s1, s1p, _ = decompose(s, a)
        assert is_lpp_sequence(s1, a), str(s)
        assert is_lpp_sequence(s1p, tail(a)), str(s)
        for i in range(s.sigma + 2):
            assert s.at(i) == s1p.at(i) + s1.at(i - 1)


class TestOneCheckPerCall:
    def test_running_example(self, checks):
        h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
        vector_of_hf(h, DegreeList((4, 4, 6)))
        assert checks == [h]

    def test_large_seeded_case(self, checks):
        sides = (14, 15, 16)
        h = random_box_hf(random.Random(7), sides)
        t = vector_of_hf(h, DegreeList(sides))
        assert checks == [h]
        assert hf_of_vector(t) == h

    def test_invalid_h_is_rejected_after_one_check(self, checks):
        h = HilbertFunction.from_string("1 4 1")
        with pytest.raises(ValueError, match="is not a valid sequence for A="):
            vector_of_hf(h, DegreeList((2, 2, 2)))
        assert checks == [h]

    def test_decompose_rejects_an_invalid_sequence(self, checks):
        with pytest.raises(ValueError, match="not a valid sequence"):
            decompose(HilbertFunction.from_string("1 4 1"), DegreeList((2, 2, 2)))
        assert len(checks) == 1

    def test_decompose_checks_s1_before_validity(self, checks):
        # "1 1 1 1" is invalid for (2,2) too; the S(1) check comes first
        with pytest.raises(ValueError, match=r"decomposition needs S\(1\) >= 2"):
            decompose(HilbertFunction.from_string("1 1 1 1"), DegreeList((2, 2)))
        assert checks == []


class TestZeroFunction:
    @pytest.mark.parametrize(
        "degrees", [(1,), (4,), (2, 3), (5, 7), (2, 2, 2), (4, 4, 6), (2, 2, 3, 3)]
    )
    def test_round_trip(self, degrees):
        a = DegreeList(degrees)
        t = dual(ci_vector(a), a)
        assert t == EMPTY
        h = hf_of_vector(t)
        assert h == HilbertFunction((0,))
        assert vector_of_hf(h, a) == t

    def test_zero_function_is_still_not_a_sequence(self):
        # is_lpp_sequence asks for H(0) = 1; only the inverse map admits 0
        assert not is_lpp_sequence(HilbertFunction((0,)), DegreeList((2, 3)))
