"""Ideals built from and read from their row starts: the row starts
themselves, colon, vector ideals, the Hilbert function and the enumeration,
each against an independent route; plus the bounds on lppkit's caches."""

import importlib
import itertools
import json
import math
import pkgutil
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lppkit
from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    betti_diagram,
    growth_check,
    harness,
    parse_vector,
)
from lppkit.betti import FieldSpec
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import (
    BOX_GUARD,
    GuardExceeded,
    NotArtinianError,
    _ideal_of_rows,
    colon,
    is_lex_segment,
    is_lpp,
    minimalize,
    parse_ideal,
    pure_power,
    unit_monomial,
)
from lppkit.vectors import EMPTY, dual, enumerate_vectors, ideal_of_vector

from conftest import brute_colon, hf_by_inclusion_exclusion
from oracles import (
    colon_by_intersection,
    enumerate_ideals_by_kept_points,
    ideal_of_vector_by_minimalize,
    is_lex_segment_by_contains,
    is_lpp_by_contains,
)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def exponents(n: int, top: int):
    return st.tuples(*(st.integers(0, top) for _ in range(n)))


@st.composite
def ideals(draw, max_n=4, top=4, artinian=None):
    """Up to five monomials of the box [0, top]^n, plus pure powers when
    ``artinian`` (drawn when None); the unit ideal can come up too."""
    n = draw(st.integers(1, max_n))
    gens = [Monomial(e) for e in draw(st.lists(exponents(n, top), min_size=1, max_size=5))]
    if artinian if artinian is not None else draw(st.booleans()):
        gens += [pure_power(n, k, draw(st.integers(1, top))) for k in range(n)]
    return minimalize(n, gens)


@st.composite
def colon_pairs(draw):
    """(J, I) with J Artinian or not and I's exponents reaching past J's box."""
    j = draw(ideals(max_n=4, top=3))
    i_gens = draw(st.lists(exponents(j.n, 5), min_size=1, max_size=4))
    return j, minimalize(j.n, [Monomial(e) for e in i_gens])


def unit(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (unit_monomial(n),))


class TestRowStarts:
    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_definition(self, i):
        sides, starts = i._row_starts()
        assert sides == tuple(max(g.exps[k] for g in i.gens) + 1 for k in range(i.n))
        rows = list(itertools.product(*(range(s) for s in sides[:-1])))
        assert len(starts) == len(rows)
        for prefix, t in zip(rows, starts):
            members = [c for c in range(sides[-1]) if i.contains(Monomial(prefix + (c,)))]
            assert members == list(range(t, sides[-1]))

    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_ideal_of_rows_gives_the_minimal_generators_back(self, i):
        assert _ideal_of_rows(i.n, *i._row_starts()) == i

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_unit_ideal(self, n):
        assert _ideal_of_rows(n, *unit(n)._row_starts()) == unit(n)

    def test_one_long_row_answers_fast(self):
        # a row is read through its start, whatever its length
        reads = [
            (lambda i: i.hilbert_function().values, (1,) * 1500000 + (0,)),
            (lambda i: i.socle_monomials(), {1499999: (Monomial((1499999,)),)}),
            (lambda i: betti_diagram(i).items(), [((0, 0), 1), ((1, 1500000), 1)]),
        ]
        for read, want in reads:
            i = parse_ideal("x1^1500000")
            start = time.perf_counter()
            got = read(i)
            assert time.perf_counter() - start < 0.5
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(ideals(max_n=3, artinian=True))
    def test_hilbert_function_by_inclusion_exclusion(self, i):
        assert i.hilbert_function() == hf_by_inclusion_exclusion(i)


def carried_and_twins(degrees):
    """Every enumerated ideal for A whose row-start box is larger than its
    generator box (some pure power below A), with its twin built from its
    generators."""
    a = DegreeList(degrees)
    for h in valid_hilbert_functions(a, a.sigma_ci):
        for ideal in enumerate_ideals(h, a):
            twin = MonomialIdeal(ideal.n, ideal.gens)
            if ideal._row_starts()[0] != twin._row_starts()[0]:
                yield ideal, twin


class TestCarriedRowStarts:
    """An ideal built from row starts keeps them, in the box it was built in;
    every reader must answer as for the same ideal built from generators."""

    @pytest.mark.parametrize("degrees", [(2, 3, 3), (2, 2, 2, 2)], ids=str)
    def test_agrees_with_its_generator_built_twin(self, degrees):
        a = DegreeList(degrees)
        powers = a.powers_ideal()
        other = next(enumerate_ideals(HilbertFunction.from_string("1 2 1"), a))
        pairs = list(carried_and_twins(degrees))
        assert len(pairs) > 10
        for ideal, twin in pairs:
            assert ideal._row_starts()[0] == tuple(d + 1 for d in degrees)
            assert ideal.gens == twin.gens and ideal == twin and hash(ideal) == hash(twin)
            assert repr(ideal) == repr(twin)
            assert ideal.is_unit is twin.is_unit is False
            assert ideal.hilbert_function() == twin.hilbert_function()
            assert ideal.socle_monomials() == twin.socle_monomials()
            for p in (0, 2):
                f = FieldSpec(p)
                assert betti_diagram(ideal, f) == betti_diagram(twin, f)
            for j in (powers, other):
                assert colon(ideal, j) == colon(twin, j)
                assert colon(j, ideal) == colon(j, twin)
            for d in range(a.omega):
                assert is_lex_segment(ideal, d) == is_lex_segment(twin, d)
            assert is_lpp(ideal, a) == is_lpp(twin, a)
            profile = DegreeList(tuple(sorted(twin.pure_power_profile())))
            assert is_lpp(ideal, profile) == is_lpp(twin, profile)

    @pytest.mark.parametrize(
        "j_text, i_text, gens",
        [
            ("x1^2*x2", "x1", [(1, 1)]),  # no power of x1 or x2
            ("x1*x2^2, x2^3", "x2", [(1, 1), (0, 2)]),  # no power of x1
            ("x1^4, x1^3*x2", "x1", [(3, 0), (2, 1)]),  # no power of x2
        ],
    )
    def test_unit_and_non_artinian_read_from_the_starts(self, j_text, i_text, gens):
        j, i = parse_ideal(j_text, 2), parse_ideal(i_text, 2)
        unit_rows, open_rows = colon(j, j), colon(j, i)
        assert unit_rows.is_unit and betti_diagram(unit_rows).items() == []
        assert not open_rows.is_unit
        with pytest.raises(NotArtinianError):
            betti_diagram(open_rows)
        with pytest.raises(NotArtinianError):
            open_rows.hilbert_function()
        assert open_rows.gens == tuple(map(Monomial, gens))

    def test_growth_check_sees_starts_that_are_not_a_down_set(self, monkeypatch):
        # 1, x1, x2 and x1*x3 have the Hilbert function 1 2 1 but are not a
        # down-set (x3 divides x1*x3); rows (p1, p2) are indexed 3 * p1 + p2
        a, h = DegreeList((2, 2, 2)), HilbertFunction.from_string("1 2 1")
        starts = [1, 1, 0, 2, 0, 0, 0, 0, 0]
        assert _ideal_of_rows(3, (3, 3, 3), starts).hilbert_function() == h
        monkeypatch.setattr(
            harness, "_ideal_of_rows", lambda n, sides, _: _ideal_of_rows(n, sides, starts)
        )
        r = growth_check(h, a)
        assert not r.ok
        assert {w["reason"] for w in r.witnesses} == {
            "enumeration emitted an ideal with the wrong Hilbert function"
        }


class TestColon:
    @settings(max_examples=120, deadline=None)
    @given(colon_pairs())
    def test_matches_intersection_and_brute_force(self, pair):
        j, i = pair
        got = colon(j, i)
        assert got == colon_by_intersection(j, i)
        # the generators of (J : I) lie in J's generator box
        bound = sum(max(g.exps[k] for g in j.gens) for k in range(j.n))
        assert got == brute_colon(j, i, bound)

    @pytest.mark.parametrize(
        "j_text, i_text",
        [
            ("1", "x1^2*x2"),
            ("x1^2, x1*x2, x2^3", "1"),
            ("1", "1"),
            ("x1*x2^2, x2*x3", "x1^7*x3^9"),
            ("x1^3", "x1^5"),
        ],
    )
    def test_unit_and_non_artinian(self, j_text, i_text):
        j = parse_ideal(j_text, 3)
        i = parse_ideal(i_text, 3)
        assert colon(j, i) == colon_by_intersection(j, i)

    def test_pure_powers_reflect(self):
        # (x1^5, x2^7) : W is the reflection b -> (4, 6) - b of W's box points
        w = parse_ideal("x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7")
        powers = parse_ideal("x1^5, x2^7")
        outside = [b for b in itertools.product(range(5), range(7)) if not w.contains(Monomial(b))]
        reflected = {(4 - b1, 6 - b2) for b1, b2 in outside}
        got = colon(powers, w)
        for b in itertools.product(range(5), range(7)):
            assert got.contains(Monomial(b)) == (b in reflected)

    def test_guard_on_the_box_of_j(self):
        side = round(BOX_GUARD ** (1 / 3)) + 2
        j = parse_ideal(f"x1^{side}, x2^{side}, x3^{side}")
        with pytest.raises(GuardExceeded):
            colon(j, parse_ideal("x1*x2", 3))


class TestVectorIdeals:
    @pytest.mark.parametrize(
        "degrees",
        [(2, 2, 2), (3, 4, 5), (2, 2, 3, 3), (2, 3, 3, 4), (4, 4, 6), (1, 1, 1)],
    )
    def test_every_vector_matches_minimalize(self, degrees):
        a = DegreeList(degrees)
        pool = [EMPTY, *enumerate_vectors(a)]
        # duality permutes the pool, so every dual is compared below too
        assert {dual(t, a) for t in pool} == set(pool)
        for t in pool:
            assert ideal_of_vector(t, a) == ideal_of_vector_by_minimalize(t, a)

    @pytest.mark.parametrize("text", ["[[],3]", "[[],2,3]"])
    def test_empty_first_child(self, text):
        a = DegreeList((3, 3))
        t = parse_vector(text, 2)
        assert ideal_of_vector(t, a) == ideal_of_vector_by_minimalize(t, a)


def assert_lex_predicates_match(i: MonomialIdeal, a: DegreeList):
    """is_lpp for A and for I's own profile, and is_lex_segment in every
    degree through A's sigma_ci, agree with their contains-based oracles."""
    lists = [a]
    prof = i.pure_power_profile()
    if None not in prof and 0 not in prof:
        lists.append(DegreeList(tuple(sorted(prof))))
    for degrees in lists:
        assert is_lpp(i, degrees) == is_lpp_by_contains(i, degrees), degrees
    for d in range(a.sigma_ci + 1):
        assert is_lex_segment(i, d) == is_lex_segment_by_contains(i, d), d


class TestLexPredicates:
    @pytest.mark.parametrize("degrees", [(2, 2, 2), (3, 3, 4), (2, 2, 3, 3), (3, 4, 5)])
    def test_vector_ideals_and_residuals(self, degrees):
        a = DegreeList(degrees)
        powers = a.powers_ideal()
        # the residuals are vector ideals again, so each ideal is checked once
        ideals = set()
        for t in enumerate_vectors(a):
            ideal = ideal_of_vector(t, a)
            ideals |= {ideal, colon(powers, ideal)}
        for i in ideals:
            assert_lex_predicates_match(i, a)

    @settings(max_examples=100, deadline=None)
    @given(ideals(), st.data())
    def test_any_ideal(self, i, data):
        degrees = data.draw(st.lists(st.integers(1, 5), min_size=i.n, max_size=i.n))
        assert_lex_predicates_match(i, DegreeList(tuple(sorted(degrees))))


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box: the down-sets of the box."""
    num = den = 1
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        num *= i + j + k - 1
        den *= i + j + k - 2
    return num // den


# Every ideal containing the A-powers is the complement of a nonempty down-set
# of the box prod [0, a_k); summed over all valid h, the counts are the number
# of such down-sets.
COUNTS = [((a, b, c), macmahon(a, b, c) - 1) for a, b, c in
          [(2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 3, 4), (2, 3, 4)]]
COUNTS += [((a1, a2), math.comb(a1 + a2, a1) - 1) for a1, a2 in [(1, 1), (2, 3), (3, 5), (4, 4)]]
COUNTS += [((2, 2, 2, 2), 167)]  # the Dedekind number M(4) - 1
COUNTS += [((2, 2, 3, 3), None)]  # its per-h counts are in the reference file


class TestEnumeration:
    @pytest.mark.parametrize("degrees, total", COUNTS)
    def test_counts_and_emitted_ideals(self, degrees, total):
        a = DegreeList(degrees)
        powers = a.powers_ideal().gens
        per_h: Counter[str] = Counter()
        for h in valid_hilbert_functions(a, a.sigma_ci):
            seen = set()
            for ideal in enumerate_ideals(h, a):
                assert minimalize(a.n, ideal.gens).gens == ideal.gens
                assert ideal.hilbert_function() == h
                assert all(ideal.contains(p) for p in powers)
                seen.add(ideal.gens)
                per_h[str(h)] += 1
            assert len(seen) == per_h[str(h)]
        recorded = json.loads(REFERENCE.read_text())["enumerated_ideals"].get(
            ",".join(map(str, degrees))
        )
        if recorded is not None:
            assert dict(per_h) == recorded
        if total is not None:
            assert sum(per_h.values()) == total


    @pytest.mark.parametrize(
        "degrees", [(2, 3, 3), (3, 3, 4), (2, 3, 4), (2, 2, 2, 2), (2, 2, 3, 3)]
    )
    def test_stream_matches_the_kept_points_walk(self, degrees):
        a = DegreeList(degrees)
        for h in valid_hilbert_functions(a, a.sigma_ci):
            assert list(enumerate_ideals(h, a)) == list(
                enumerate_ideals_by_kept_points(h, a)
            ), str(h)


def test_every_lru_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(lppkit.__path__):
        module = importlib.import_module(f"lppkit.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_parameters"):
                caches.append((f"{info.name}.{name}", value.cache_parameters()["maxsize"]))
    assert len(caches) >= 5
    assert [name for name, maxsize in caches if maxsize is None] == []
