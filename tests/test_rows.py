"""Ideals built from and read from their row starts: the row starts
themselves, colon, add_maximal_power, vector ideals, the Hilbert function
and the enumeration, each against an independent route; plus the bounds on
lppkit's caches."""

import importlib
import itertools
import json
import math
import pkgutil
import random
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lppkit
from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    betti,
    betti_diagram,
    growth_check,
    harness,
    lexseg_lemma_check,
    lpp_dominance_check,
    monomials,
    parse_vector,
    residual_lpp_check,
)
from lppkit.betti import FieldSpec
from lppkit.growth import ci_hilbert_function
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import (
    BOX_GUARD,
    GuardExceeded,
    NotArtinianError,
    _ideal_of_rows,
    add_maximal_power,
    colon,
    is_lex_segment,
    is_lpp,
    minimalize,
    parse_ideal,
    pure_power,
)
from lppkit.vectors import EMPTY, _enumerate, dual, enumerate_vectors, ideal_of_vector

from conftest import brute_colon, hf_by_inclusion_exclusion
from oracles import (
    add_maximal_power_by_minimalize,
    betti_diagram_by_contains,
    colon_by_intersection,
    contains,
    enumerate_ideals_by_kept_points,
    ideal_of_vector_by_minimalize,
    is_lex_segment_by_contains,
    is_lpp_by_contains,
    is_unit,
    lex_above_powers_by_degree,
    row_step_getters,
    socle_by_definition,
    starts_in_order,
    unit_monomial,
)
from test_bench_smoke import workloads as bench_workloads
from test_table import benchmark_caches

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


@st.composite
def powers_colon_pairs(draw):
    """(J, I) with J the pure powers of a random A, built from its generators
    or carried in a box larger than its generator box, and I reaching past
    the box of A: with generators only, carried in J's box, in a box smaller
    than, equal to or larger than the powers' generator box, or in another
    box, or the unit ideal."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    j = MonomialIdeal(n, tuple(pure_power(n, k, e) for k, e in enumerate(a)))
    if draw(st.booleans()):
        sides = tuple(e + 1 + draw(st.integers(0, 2)) for e in a)
        j = _ideal_of_rows(n, sides, starts_in_box(j, sides))
    build = draw(
        st.sampled_from(
            ["gens", "J's box", "A's box", "powers' box", "larger box", "other box", "unit"]
        )
    )
    if build == "unit":
        return j, unit(n)
    gens = draw(st.lists(exponents(n, 6), min_size=1, max_size=4))
    i = minimalize(n, [Monomial(e) for e in gens])
    if build == "gens":
        return j, i
    if build == "J's box":
        sides = j._row_starts()[0]
    elif build != "other box":
        # smaller than, equal to and larger than the powers' generator box
        grow = {"A's box": 0, "powers' box": 1, "larger box": 3}[build]
        sides = tuple(e + grow for e in a)
    else:  # sides below A's box and past it; I's points in the box generate
        sides = tuple(draw(st.integers(1, 7)) for _ in range(n))
    starts = starts_in_box(i, sides)
    assume(min(starts) < sides[-1])  # not the zero ideal
    return j, _ideal_of_rows(n, sides, starts)


class TestRowStarts:
    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_definition(self, i):
        sides, starts = i._row_starts()
        assert sides == tuple(max(g.exps[k] for g in i.gens) + 1 for k in range(i.n))
        rows = list(itertools.product(*(range(s) for s in sides[:-1])))
        assert len(starts) == len(rows)
        for prefix, t in zip(rows, starts):
            members = [c for c in range(sides[-1]) if contains(i, Monomial(prefix + (c,)))]
            assert members == list(range(t, sides[-1]))

    @settings(max_examples=80, deadline=None)
    @given(ideals())
    def test_ideal_of_rows_gives_the_minimal_generators_back(self, i):
        assert _ideal_of_rows(i.n, *i._row_starts()) == i

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_unit_ideal(self, n):
        assert _ideal_of_rows(n, *unit(n)._row_starts()) == unit(n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_starts_agree_with_equal_generators_and_hash(self, data):
        # exponents up to 2 make equal ideals common; every generator box
        # fits in the boxes of sides 3 and 4
        n = data.draw(st.integers(1, 3))
        gens = st.lists(exponents(n, 2), min_size=1, max_size=3)
        builds = st.sampled_from(["gens", "gens and starts", "own box", 3, 4])
        i = minimalize(n, data.draw(gens))
        j = i if data.draw(st.booleans()) else minimalize(n, data.draw(gens))
        x, y = rebuilt(i, data.draw(builds)), rebuilt(j, data.draw(builds))
        same = x == y
        assert (y == x) is same
        assert same == (x.gens == y.gens) == (i.gens == j.gens)
        if same:
            assert hash(x) == hash(y)

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

    @settings(max_examples=150, deadline=None)
    @given(ideals(), st.data())
    def test_starts_of_corners_in_any_box(self, i, data):
        # boxes smaller than the generator box (corners outside it) and larger
        sides = tuple(data.draw(st.integers(1, 6)) for _ in range(i.n))
        got = monomials._starts_of_corners(sides, i._corners())
        assert got == starts_in_box(i, sides)

    def test_one_long_prefix_axis(self, monkeypatch):
        # 999,999 rows of one point each: x1^e for e < 999999 is outside
        i = parse_ideal("x1^999999, x2")
        assert i._row_starts() == ((1000000, 2), (1,) * 999999 + (0,))
        assert i.hilbert_function().values == (1,) * 999999 + (0,)
        assert i.socle_monomials() == {999998: (Monomial((999998, 0)),)}
        # the one run is read in blocks, each key one slice (k = 0) of at
        # most RUN_BLOCK + 1 starts
        keys = []
        looked_up = betti._run_contribution

        def recording(p, n, cont, width, starts):
            keys.append((cont, width, len(starts)))
            return looked_up(p, n, cont, width, starts)

        monkeypatch.setattr(betti, "_run_contribution", recording)
        diagram = betti_diagram(i)
        assert diagram.items() == [((0, 0), 1), ((1, 1), 1), ((1, 999999), 1), ((2, 1000000), 1)]
        assert len(keys) == -(-999999 // betti.RUN_BLOCK)
        assert max(length for _, _, length in keys) == betti.RUN_BLOCK + 1
        for cont, width, length in keys:
            assert width <= betti.RUN_BLOCK and length == width + cont


    def test_pages_far_apart(self):
        # entries in degrees 0..3 and 600,000: two pages, none between built
        i = parse_ideal("x2^600000, x1*x2, x1^2")
        diagram = betti_diagram(i)
        assert diagram.items() == [
            ((0, 0), 1), ((1, 2), 2), ((1, 600000), 1), ((2, 3), 1), ((2, 600001), 1)
        ]
        assert set(diagram.pages) == {0, 600000 // betti.PAGE}

def rows_below(sides: tuple[int, ...]):
    """Per row of the box prod [0, sides_k), in order: (row, |p|, the rows one
    step below it along each subset j of its prefix support, bit m of j for
    its m-th coordinate), by the definition."""
    strides = [math.prod(sides[k + 1 : -1]) for k in range(len(sides) - 1)]
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        below = [r]
        for e, stride in zip(prefix, strides):
            if e:
                below += [q - stride for q in below]
        yield r, sum(prefix), tuple(below)


def held_in_wider_boxes():
    """Artinian ideals that keep row starts in a box larger than their
    generator box: walk ideals with a pure power below A, I + m^t where x_1^t
    replaces I's power of x_1, and (P : I) for the pure powers P."""
    wide = [ideal for ideal, _ in carried_and_twins((2, 3, 3))][::7]
    wide.append(add_maximal_power(parse_ideal("x1^5, x2^3, x1*x3^2"), 3))
    powers = DegreeList((2, 3, 4)).powers_ideal()
    wide += [colon(powers, parse_ideal(text, 3)) for text in ("x1*x2", "x2^2*x3", "x1*x2*x3")]
    for ideal in wide:
        assert ideal._row_starts()[0] != MonomialIdeal(ideal.n, ideal.gens)._row_starts()[0]
    return wide


class TestRowPlan:
    """The runs of rows that the Hilbert function and the Betti diagram read a
    box through: one entry per run, whatever the run's length.  The row plan
    (``monomials._row_plan``) holds what every reader shares, the rows'
    degrees; the Betti run plan (``betti._run_plan``) the first rows of the
    runs one step below, which only the Betti diagram reads."""

    @pytest.mark.parametrize(
        "sides, runs", [((1000000, 2), 1), ((4, 4, 5), 4), ((7,), 1), ((2, 3, 2, 3), 6)]
    )
    def test_one_entry_per_run(self, sides, runs):
        degrees, counts = monomials._row_plan(sides)
        assert len(betti._run_plan(sides)) == len(degrees) == runs
        assert sum(map(len, degrees)) == math.prod(sides[:-1]) == sum(counts)

    @pytest.mark.parametrize("sides", [(5,), (4, 3), (4, 4, 5), (2, 3, 2, 3), (3, 1, 2)], ids=str)
    def test_row_plan_counts_the_rows_of_each_degree(self, sides):
        degrees, counts = monomials._row_plan(sides)
        want = [degree for _, degree, _ in rows_below(sides)]
        assert list(itertools.chain.from_iterable(degrees)) == want
        assert counts == tuple(Counter(want)[d] for d in range(sum(sides) + 1))

    @pytest.mark.parametrize("sides", [(5,), (4, 3), (4, 4, 5), (2, 3, 2, 3), (3, 1, 2)], ids=str)
    def test_runs_key_every_row_as_defined(self, sides):
        plan = betti._run_plan(sides)
        run = sides[-2] if len(sides) > 1 else 1
        rows = []
        for degree, first in plan:
            rows.append((first[0], degree, first))
            # row e > 0 reads row e of each run below, then row e - 1
            for e in range(1, run):
                below = tuple(r + e for r in first) + tuple(r + e - 1 for r in first)
                rows.append((first[0] + e, degree + e, below))
        assert rows == list(rows_below(sides))
        # the count that _run_plan guards before building anything
        cells = math.prod(2 * side - 1 for side in sides[:-2])
        assert sum(len(first) for _, first in plan) == cells

    def test_only_betti_builds_the_run_plan(self, monkeypatch):
        # a box of 2^20 points, under BOX_GUARD, whose run plan would hold
        # 3^18 first rows
        i = parse_ideal(", ".join(f"x{k}" for k in range(1, 21)))

        def fail(sides):
            raise AssertionError(f"called for {sides}")

        with monkeypatch.context() as patch:
            patch.setattr(betti, "_run_plan", fail)
            assert i.hilbert_function().values == (1, 0)
            assert growth_check(HilbertFunction((1,)), DegreeList((1,) * 17)).ok
        # refused before the plan's first step
        monkeypatch.setattr(betti, "_row_strides", fail)
        with pytest.raises(GuardExceeded, match="^Betti run plan of 387420489 cells exceeds"):
            betti_diagram(i)

    @pytest.mark.parametrize("sides", [(5,), (2, 4), (4, 3), (3, 1, 2), (2, 3, 2, 3)], ids=str)
    def test_row_steps_pair_each_row_with_the_rows_one_step_below(self, sides):
        # the single steps of rows_below are its subsets j = 1 << m
        lower, upper = row_step_getters(sides)
        rows = list(range(math.prod(sides[:-1])))
        want = [
            (below[1 << m], r)
            for r, _, below in rows_below(sides)
            for m in range(len(below).bit_length() - 1)
        ]
        assert list(zip(lower(rows), upper(rows))) == want
        assert len(lower(rows)) == len(upper(rows)) == len(want)

    @pytest.mark.parametrize("sides", [(5,), (2, 4), (4, 3), (3, 1, 2), (2, 3, 2, 3)], ids=str)
    def test_packed_step_test_matches_the_pairs(self, sides):
        """harness._attains fails on the step test exactly where the pairs
        of rows one step apart are out of order: every starts from 0 to the
        last side, or 5,000 drawn and the starts of 1,000 ideals of drawn
        generators, on each box above.  Starts in order are a down-set, so
        with the h they count, _attains accepts them or finds them not
        Artinian."""
        rows, top = math.prod(sides[:-1]), sides[-1]
        if (top + 1) ** rows <= 5000:
            pool = itertools.product(range(top + 1), repeat=rows)
        else:
            rng = random.Random(1)
            drawn = ([rng.randint(0, top) for _ in range(rows)] for _ in range(5000))
            gens = ([exps(rng, sides) for _ in range(rng.randint(1, 4))] for _ in range(1000))
            spanned = (monomials._starts_of_corners(sides, g) for g in gens)
            pool = itertools.chain(drawn, spanned)
        in_order = 0
        for starts in map(list, pool):
            h = counted_hf(sides, starts) or HilbertFunction((1,))
            passed = outcome(lambda: harness._attains(h, sides)(starts)) is not False
            assert passed == starts_in_order(sides, starts), starts
            in_order += passed
        assert in_order > 0

    @pytest.mark.parametrize(
        "text",
        ["x1^5", "x1", "x1^2, x2^3", "x1^3, x1*x2, x2^4", "x1^6, x2", "x1, x2^6",
         "x1^2, x2^2, x3^2, x1*x2*x3", "x1^2, x2, x3^3, x4^2, x1*x3^2*x4",
         # runs of 35 to 41 rows: each read as three Betti blocks
         "x1^40, x1^17*x2, x1^5*x2^2, x2^3",
         "x1^3, x2^35, x3^3, x1*x2^20*x3, x2^17*x3^2, x1^2*x2^33",
         "x1^2, x2^2, x3^34, x4^3, x1*x3^16*x4, x2*x3^30, x3^18*x4^2"],
    )
    def test_readers_match_their_oracles(self, text):
        i = parse_ideal(text)
        assert i.hilbert_function() == hf_by_inclusion_exclusion(i)
        for f in (FieldSpec(0), FieldSpec(2)):
            assert betti_diagram(i, f) == betti_diagram_by_contains(i, f)

    def test_readers_of_ideals_in_wider_boxes(self):
        for i in held_in_wider_boxes():
            assert i.hilbert_function() == hf_by_inclusion_exclusion(i), i
            for f in (FieldSpec(0), FieldSpec(2)):
                assert betti_diagram(i, f) == betti_diagram_by_contains(i, f), i


def exps(rng: random.Random, sides: tuple[int, ...]) -> tuple[int, ...]:
    """An exponent tuple drawn from the box prod [0, sides_k]."""
    return tuple(rng.randint(0, side) for side in sides)


def starts_in_box(i: MonomialIdeal, sides: tuple[int, ...]) -> list[int]:
    """Row starts of I in the box prod [0, sides_k), by ``contains``."""
    return [
        next((c for c in range(sides[-1]) if contains(i, Monomial(prefix + (c,)))), sides[-1])
        for prefix in itertools.product(*(range(s) for s in sides[:-1]))
    ]


def rebuilt(i: MonomialIdeal, build) -> MonomialIdeal:
    """A fresh copy of I: from its generators (with its row starts read too,
    for "gens and starts"), or from its row starts in its generator box
    ("own box") or in the box with every side ``build``."""
    if build in ("gens", "gens and starts"):
        copy = MonomialIdeal(i.n, i.gens)
        if build == "gens and starts":
            copy._row_starts()
        return copy
    sides = i._row_starts()[0] if build == "own box" else (build,) * i.n
    return _ideal_of_rows(i.n, sides, starts_in_box(i, sides))


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
            # a twin that has not built its row starts reads its generators
            fresh = MonomialIdeal(ideal.n, ideal.gens)
            profile = fresh.pure_power_profile()
            assert ideal.pure_power_profile() == twin.pure_power_profile() == profile
            assert is_unit(fresh) is False and fresh._rows is None
            assert ideal._row_starts()[0] == tuple(d + 1 for d in degrees)
            assert ideal.gens == twin.gens and ideal == twin and hash(ideal) == hash(twin)
            assert repr(ideal) == repr(twin)
            assert is_unit(ideal) is is_unit(twin) is False
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
        assert is_unit(unit_rows) and betti_diagram(unit_rows).items() == []
        assert not is_unit(open_rows)
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
        patched_walk(monkeypatch, starts)
        r = growth_check(h, a)
        assert not r.ok
        assert {w["reason"] for w in r.witnesses} == {
            "enumeration emitted an ideal with the wrong Hilbert function"
        }


# per n, a degree list whose walk has ideals with a pure power below A
READER_DEGREES = [(3,), (2, 3), (2, 3, 3), (2, 2, 2, 2)]


def hf_by_contains(i: MonomialIdeal) -> HilbertFunction:
    """The points of the pure-power box outside I, counted by degree."""
    counts = Counter(
        sum(b) for b in itertools.product(*map(range, i.pure_power_profile()))
        if not contains(i, Monomial(b))
    )
    return HilbertFunction(tuple(counts[d] for d in range(max(counts, default=-1) + 2)))


def readers_corpus(degrees):
    """Ideals that hold row starts in a box other than their generator box:
    walk ideals with a power below A, with their h; I + m^t, t the first
    zero of h, for such an ideal I with its power of x_1 raised to
    x_1^(t + 1) (the box keeps that side, past the generator x_1^t); and
    (P : I) for the pure powers P and the k-th walk ideal I moved one step
    up along x_(k mod n), so that some of its corners leave the box of A."""
    a = DegreeList(degrees)
    n = a.n
    carried = []
    for h in valid_hilbert_functions(a, a.sigma_ci):
        carried += [(ideal, h) for ideal in enumerate_ideals(h, a)
                    if ideal._row_starts()[0] != MonomialIdeal(n, ideal.gens)._row_starts()[0]]
    widened, residuals = [], []
    for k, (ideal, h) in enumerate(carried):
        gens = [g.exps for g in ideal.gens]
        raised = [(h.sigma + 1,) + g[1:] if g[0] and g.count(0) == n - 1 else g for g in gens]
        widened.append(add_maximal_power(minimalize(n, raised), h.sigma))
        past = minimalize(n, [tuple(e + (j == k % n) for j, e in enumerate(g)) for g in gens])
        residuals.append(colon(a.powers_ideal(), past))
    return a, carried, widened, residuals


@pytest.fixture(scope="module", params=READER_DEGREES, ids=lambda d: f"n={len(d)}")
def readers(request):
    return readers_corpus(request.param)


class TestReadersInOtherBoxes:
    """Each reader of row starts against an oracle, for ideals whose starts
    are held in a box other than their generator box."""

    def test_profile_hf_and_socle(self, readers):
        a, carried, widened, residuals = readers
        corpus = [ideal for ideal, _ in carried] + widened + residuals
        wide = [i._row_starts()[0] != MonomialIdeal(i.n, i.gens)._row_starts()[0] for i in corpus]
        assert len(carried) >= 2 and all(wide[len(carried) : 2 * len(carried)])
        for i in corpus:
            sides, starts = i._row_starts()
            assert list(starts) == starts_in_box(i, sides), i
            profile = i.pure_power_profile()
            assert profile == profile_by_contains(i, max(sides)), i
            if None in profile:
                continue
            assert i.hilbert_function() == hf_by_contains(i), i
            assert i.socle_monomials() == socle_by_definition(i), i

    def test_row_starts_attain_h(self, readers):
        _, carried, _, _ = readers
        for ideal, h in carried:
            assert starts_attain(ideal, h)
            assert not starts_attain(ideal, HilbertFunction((*h.values[:-1], 1, 0)))

    def test_lex_predicates(self, readers):
        a, carried, widened, residuals = readers
        for i in [ideal for ideal, _ in carried] + widened + residuals:
            assert_lex_predicates_match(i, a)

    def test_identity_across_boxes(self, readers):
        _, carried, widened, residuals = readers
        corpus = [ideal for ideal, _ in carried] + widened + residuals
        for i in corpus:
            wider = rebuilt(i, max(i._row_starts()[0]) + 1)
            for copy in (rebuilt(i, "gens"), rebuilt(i, "gens and starts"), wider):
                assert i == copy and copy == i and hash(i) == hash(copy), i
        # ideals in one box compare by their starts, in two boxes by generators
        sample = corpus[:: max(1, len(corpus) // 40)]
        for x, y in itertools.product(sample, repeat=2):
            assert (x == y) == (x.gens == y.gens)


def count_monomial_builds(monkeypatch) -> Counter:
    """Count every Monomial built from here on, under ``"monomials"``."""
    calls = Counter()
    post_init = Monomial.__post_init__

    def counted(self):
        calls["monomials"] += 1
        post_init(self)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    return calls


class TestIdentity:
    """``==`` and ``hash`` go by ``(n, generators)`` as exponent tuples,
    whatever box an ideal carries: they build no Monomial and no box."""

    def test_same_ideal_in_three_forms(self, monkeypatch):
        # each enumerated ideal in the box prod [0, a_k], larger than its
        # generator box; the same ideal carried in its generator box (adding
        # the power (x_1, ..., x_n)^sigma, which it holds already); and the
        # same ideal from its generators, with no row starts
        copies = []
        for ideal, _twin in carried_and_twins((2, 3, 3)):
            sigma = ideal.hilbert_function().sigma
            other_box = add_maximal_power(MonomialIdeal(ideal.n, ideal.gens), sigma)
            fresh = MonomialIdeal(ideal.n, ideal.gens)
            assert ideal._row_starts()[0] != other_box._row_starts()[0]
            copies.append((ideal, other_box, fresh))
        assert len(copies) > 10
        calls = count_monomial_builds(monkeypatch)
        for k, forms in enumerate(copies):
            for x, y in itertools.product(forms, repeat=2):
                assert x == y and hash(x) == hash(y)
            for others in copies[k + 1 :]:
                assert all(x != y for x, y in itertools.product(forms, others))
        assert all(fresh._rows is None for _, _, fresh in copies)
        assert calls["monomials"] == 0
        # the count is live: repr builds the generators
        ideal = copies[0][0]
        repr(ideal)
        assert calls["monomials"] == len(ideal._corners())

    def test_a_generator_past_the_box_guard(self):
        i, j = parse_ideal("x1^3000*x2^3000"), parse_ideal("x2^3000*x1^3000")
        assert i == j and hash(i) == hash(j)
        assert i != parse_ideal("x1^3000*x2^2999")
        with pytest.raises(GuardExceeded):
            i._row_starts()


def enumerated_starts(a: DegreeList) -> list[tuple[int, ...]]:
    return [
        ideal._row_starts()[1]
        for h in valid_hilbert_functions(a, a.sigma_ci)
        for ideal in enumerate_ideals(h, a)
    ]


# one to four variables; (1, 3) has a single pair of rows one step apart
WALK_DEGREES = [(3,), (1, 3), (2, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)]
ENUMERATED_STARTS = {degrees: enumerated_starts(DegreeList(degrees)) for degrees in WALK_DEGREES}


@st.composite
def walk_starts(draw):
    """Row starts in the walk box prod [0, a_k] of an A of WALK_DEGREES: the
    starts of an enumerated ideal with up to three rows set to any value from
    0 to the box side (a row with no member in the box), so that many are
    not a down-set."""
    degrees = draw(st.sampled_from(WALK_DEGREES))
    sides = tuple(d + 1 for d in degrees)
    starts = list(draw(st.sampled_from(ENUMERATED_STARTS[degrees])))
    for _ in range(draw(st.integers(0, 3))):
        starts[draw(st.integers(0, len(starts) - 1))] = draw(st.integers(0, sides[-1]))
    return sides, starts


# the lane width harness._attains packs each walk box in: A's last side of
# 131 takes 16 bits for the step test, (3, 126, 126) and (66, 66, 126) for
# the degrees |p| + start (up to 256), and (1, 40000) takes 32.  The boxes
# of WIDE_DEGREES are small enough to count their starts' Hilbert functions
WIDE_DEGREES = {(2, 130): 16, (3, 126, 126): 16, (1, 40000): 32}
LANE_WIDTHS = {**dict.fromkeys(WALK_DEGREES, 8), **WIDE_DEGREES, (66, 66, 126): 16}


@st.composite
def wide_starts(draw):
    """Row starts in the walk box prod [0, a_k] of an A with lanes wider
    than 8 bits: those of the ideal of A's powers and up to three drawn
    monomials, with up to three rows set to any value from 0 to the box
    side."""
    degrees = draw(st.sampled_from(sorted(WIDE_DEGREES)))
    sides = tuple(d + 1 for d in degrees)
    gens = list(DegreeList(degrees).powers_ideal()._corners())
    gens += draw(st.lists(st.tuples(*(st.integers(0, d) for d in degrees)), max_size=3))
    starts = monomials._starts_of_corners(sides, gens)
    for _ in range(draw(st.integers(0, 3))):
        starts[draw(st.integers(0, len(starts) - 1))] = draw(st.integers(0, sides[-1]))
    return sides, starts


def counted_hf(sides: tuple[int, ...], starts: list[int]) -> HilbertFunction | None:
    """The kept points (p, c) with c below the row's start, counted by degree
    as the walk counts them; None when the counts are no Hilbert function."""
    counts = Counter()
    for prefix, t in zip(itertools.product(*(range(s) for s in sides[:-1])), starts):
        for c in range(t):
            counts[sum(prefix) + c] += 1
    try:
        return HilbertFunction(tuple(counts[d] for d in range(max(counts, default=-1) + 2)))
    except ValueError:
        return None


def outcome(read):
    """``read()``, or the class of the ValueError it raises."""
    try:
        return read()
    except ValueError as exc:
        return type(exc)


def starts_attain(ideal: MonomialIdeal, h: HilbertFunction) -> bool:
    """harness._attains on the ideal's own row starts: are they those of the
    ideal its generators span, and is the Hilbert function read from them h?"""
    sides, starts = ideal._row_starts()
    return harness._attains(h, sides)(starts)


def round_trip_hf(ideal: MonomialIdeal):
    """The Hilbert function of the ideal that the generators span."""
    return outcome(lambda: MonomialIdeal(ideal.n, ideal.gens).hilbert_function())


def patched_walk(monkeypatch, starts):
    """Make the walk yield ``starts`` for every ideal."""
    walk = harness._walk

    def patched(*args):
        sides, stream = walk(*args)
        return sides, ((tuple(starts), size) for _, size in stream)

    monkeypatch.setattr(harness, "_walk", patched)


def wrong_hf(gens, hf: str) -> dict:
    return {
        "reason": "enumeration emitted an ideal with the wrong Hilbert function",
        "ideal": {"n": 3, "gens": gens},
        "hf": hf,
    }


class TestGrowthCheckFromStarts:
    """growth_check reads each ideal from its row starts and re-derives it
    from its generators only to build a witness; its reports must be those
    of re-deriving every ideal."""

    @staticmethod
    def assert_accepts_as_the_round_trip(sides, starts):
        # h is what the walk counts for these starts; starts that are not a
        # down-set count more points than the ideal their generators span
        h = counted_hf(sides, starts)
        assume(h is not None)
        ideal = _ideal_of_rows(len(sides), sides, starts)
        accepted = outcome(lambda: starts_attain(ideal, h))
        spanned = round_trip_hf(ideal)
        if accepted is NotArtinianError:
            assert spanned is NotArtinianError
        else:
            assert accepted == (spanned == h)

    @settings(max_examples=300, deadline=None)
    @given(walk_starts())
    def test_accepts_exactly_when_the_round_trip_gives_h(self, box):
        self.assert_accepts_as_the_round_trip(*box)

    @settings(max_examples=100, deadline=None)
    @given(wide_starts())
    def test_wide_lanes_accept_exactly_when_the_round_trip_gives_h(self, box):
        self.assert_accepts_as_the_round_trip(*box)

    @pytest.mark.parametrize("degrees", sorted(LANE_WIDTHS), ids=str)
    def test_lane_width_of_each_walk_box(self, degrees):
        # the top bit of every lane: the last is bit rows * width - 1
        sides = tuple(d + 1 for d in degrees)
        high = harness._lanes(sides)[2]
        assert high.bit_length() == math.prod(sides[:-1]) * LANE_WIDTHS[degrees]
        # the powers alone attain CI; in (66, 66, 126), row (65, 65) starts
        # at 126, so its degree |p| + start is 256
        a = DegreeList(degrees)
        starts = monomials._starts_of_corners(sides, a.powers_ideal()._corners())
        assert harness._attains(ci_hilbert_function(a), sides)(starts)

    # rows (p1, p2) of the box [0, 2]^3 are indexed 3 * p1 + p2; each
    # witness's ideal and Hilbert function are those its generators span
    @pytest.mark.parametrize(
        "starts, witness",
        [
            (  # row (1, 0) starts at the box side: beyond the box
                [2, 1, 0, 3, 0, 0, 0, 0, 0],
                wrong_hf([[2, 0, 0], [1, 1, 0], [0, 2, 0], [0, 1, 1], [0, 0, 2]], "1 3 1 0"),
            ),
            (  # a down-set with the Hilbert function 1 3 0
                [2, 1, 0, 1, 0, 0, 0, 0, 0],
                wrong_hf(
                    [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]], "1 3 0"
                ),
            ),
            (  # row (1, 1) starts after row (1, 0)
                [2, 1, 0, 1, 1, 0, 0, 0, 0],
                wrong_hf([[2, 0, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]], "1 3 1 0"),
            ),
            # not a down-set, but its generators span an ideal attaining h
            ([1, 1, 0, 1, 2, 0, 0, 0, 0], None),
        ],
        ids=["start-beyond-the-box", "down-set-wrong-hf", "not-a-down-set", "spans-h"],
    )
    def test_same_witnesses_from_a_patched_walk(self, monkeypatch, starts, witness):
        a, h = DegreeList((2, 2, 2)), HilbertFunction.from_string("1 2 1")
        assert not starts_attain(_ideal_of_rows(3, (3, 3, 3), starts), h)
        patched_walk(monkeypatch, starts)
        r = growth_check(h, a)
        assert r.details == {"ideals": 3}
        assert r.witnesses == ([witness] * 3 if witness else [])

    @pytest.mark.parametrize(
        "starts, error, message",
        [
            ([3, 0, 0, 0, 0, 0, 0, 0, 0], NotArtinianError, "not Artinian"),
            ([3] * 9, ValueError, "zero ideal"),  # every row empty: no generator
        ],
    )
    def test_same_error_from_a_patched_walk(self, monkeypatch, starts, error, message):
        patched_walk(monkeypatch, starts)
        with pytest.raises(error, match=message):
            growth_check(HilbertFunction.from_string("1 2 1"), DegreeList((2, 2, 2)))

    def test_checks_of_the_residual_sweep_build_no_generators(self, monkeypatch):
        calls = count_monomial_builds(monkeypatch)
        a = DegreeList((2, 2, 3, 3))
        reports = [growth_check(h, a) for h in valid_hilbert_functions(a, a.sigma_ci)]
        assert len(reports) == 194 and all(r.ok for r in reports)
        assert calls["monomials"] == 0
        b = DegreeList((3, 4, 5))
        assert residual_lpp_check(b).ok and lexseg_lemma_check(b).ok
        assert calls["monomials"] == 0


def row_steps(sides: tuple[int, ...]) -> list[list[tuple[int, int]]]:
    """Per row of the box prod [0, sides_k), the pairs (lower, upper) of
    rows one step apart along a prefix axis that it is in."""
    rows = list(itertools.product(*(range(s) for s in sides[:-1])))
    index = {p: r for r, p in enumerate(rows)}
    steps = [[] for _ in rows]
    for r, p in enumerate(rows):
        for k in range(len(p)):
            if p[k]:
                pair = (index[p[:k] + (p[k] - 1,) + p[k + 1 :]], r)
                steps[pair[0]].append(pair)
                steps[r].append(pair)
    return steps


class TestStartDegrees:
    """The key of ``monomials._start_degrees`` against ``hilbert_function``:
    for row starts that are a down-set, their rows' degrees |p| + start,
    sorted, are the key of h exactly when the Hilbert function is h."""

    # walk ideals; their distinct single-row +-1 neighbours that are
    # down-sets, and how many of those are not Artinian
    COUNTS = {(3, 3, 4): (4115, 11368, 7252), (2, 2, 3, 3): (8789, 33923, 25133)}

    @pytest.mark.parametrize("degrees", sorted(COUNTS), ids=str)
    def test_walk_ideals_and_their_neighbours(self, degrees):
        a = DegreeList(degrees)
        sides = tuple(d + 1 for d in degrees)
        degs = [sum(p) for p in itertools.product(*(range(s) for s in sides[:-1]))]
        steps = row_steps(sides)
        keys = {}

        def matches(starts, h):
            if h not in keys:
                keys[h] = monomials._start_degrees(h, sides)
            return sorted(map(int.__add__, degs, starts)) == keys[h]

        walked, seen, not_artinian = 0, set(), 0
        for h in valid_hilbert_functions(a, a.sigma_ci):
            for ideal in enumerate_ideals(h, a):
                starts = ideal._row_starts()[1]
                walked += 1
                assert ideal.hilbert_function() == h and matches(starts, h)
                # the starts are a down-set, so a neighbour is one when the
                # pairs of rows through the changed row are in order
                for r, step in itertools.product(range(len(starts)), (-1, 1)):
                    moved = list(starts)
                    moved[r] += step
                    if (
                        not 0 <= moved[r] <= sides[-1]
                        or moved[0] >= sides[-1]
                        or any(moved[lo] < moved[up] for lo, up in steps[r])
                        or tuple(moved) in seen
                    ):
                        continue
                    seen.add(tuple(moved))
                    neighbour = _ideal_of_rows(a.n, sides, moved)
                    accepted = outcome(lambda: starts_attain(neighbour, h))
                    hf = outcome(neighbour.hilbert_function)
                    if hf is NotArtinianError:
                        not_artinian += 1
                        assert accepted is NotArtinianError
                        continue
                    assert matches(moved, hf), moved
                    assert matches(moved, h) == (hf == h) == accepted, moved
        assert (walked, len(seen), not_artinian) == self.COUNTS[degrees]

    def test_an_h_no_ideal_in_the_box_attains(self):
        # the quotient by (x1, x2, x3)^5 has 15 monomials of degree 4, but
        # the walk box prod [0, a_k] of A = (3, 3, 4) holds 13 of them
        h = HilbertFunction.from_string("1 3 6 10 15")
        assert monomials._start_degrees(h, (4, 4, 5)) is None
        with pytest.raises(ValueError, match="not a valid sequence"):
            next(enumerate_ideals(h, DegreeList((3, 3, 4))))
        assert monomials._start_degrees(h, (6, 6, 6)) is not None


def profile_by_contains(i: MonomialIdeal, top: int) -> tuple:
    """Per variable, the least e <= top with x_k^e in I, by ``contains``."""
    return tuple(
        next((e for e in range(top + 1) if contains(i, pure_power(i.n, k, e))), None)
        for k in range(i.n)
    )


class TestPurePowerProfile:
    """``pure_power_profile`` is the one reader of an ideal's pure powers and
    of the unit test; it reads the row starts when the ideal has them and the
    generators otherwise.  The Artinian test reads the last row along each
    prefix axis instead, or the profile of an ideal with generators only."""

    @settings(max_examples=120, deadline=None)
    @given(ideals())
    def test_same_from_generators_and_from_row_starts(self, i):
        before = (i.pure_power_profile(), is_unit(i))
        assert before[0] == profile_by_contains(i, 4)
        assert before[1] == (i.gens[0].degree == 0)
        carried = _ideal_of_rows(i.n, *i._row_starts())
        assert (i.pure_power_profile(), is_unit(i)) == before
        assert (carried.pure_power_profile(), is_unit(carried)) == before

    @settings(max_examples=120, deadline=None)
    @given(ideals(), st.integers(0, 2))
    def test_artinian_test_agrees_with_the_profile(self, i, wider):
        artinian = None not in profile_by_contains(i, 4)
        assert i._is_artinian() is artinian
        assert i._rows is None  # no box built for generators only
        sides, starts = i._row_starts()
        assert i._is_artinian() is artinian
        box = tuple(side + wider for side in sides)
        carried = _ideal_of_rows(i.n, box, starts_in_box(i, box))
        assert carried._is_artinian() is artinian

    @pytest.mark.parametrize("build", ["gens", "rows"])
    @pytest.mark.parametrize(
        "text", ["x1^2, x2^3, x1*x3^2", "x2^3, x3^2, x1*x2*x3"], ids=["no-x3", "no-x1"]
    )
    def test_readers_refuse_a_non_artinian_ideal(self, text, build):
        # in the box [0, 2] x [0, 3] x [0, 3], with no power of x3 row 0 is
        # empty, and with none of x1 the last row along x1 starts above 0
        i = parse_ideal(text, 3)
        if build == "rows":
            i = _ideal_of_rows(3, (3, 4, 4), starts_in_box(i, (3, 4, 4)))
            assert i._rows[1][0] == 4 or i._rows[1][2 * 4] > 0
        for read in (
            i.hilbert_function,
            i.socle_monomials,
            lambda: betti_diagram(i),
            lambda: betti_diagram(i, FieldSpec(2)),
        ):
            with pytest.raises(NotArtinianError):
                read()

    def test_non_artinian_past_the_box_guard_is_refused_first(self):
        # the generator box has 2001^2 > BOX_GUARD points and is never built
        i = parse_ideal("x1^2000, x2^2000", 3)
        assert 2001**2 > BOX_GUARD
        for read in (i.hilbert_function, i.socle_monomials, lambda: betti_diagram(i)):
            with pytest.raises(NotArtinianError):
                read()
        assert i._rows is None
        with pytest.raises(GuardExceeded):
            i._row_starts()

    @settings(max_examples=60, deadline=None)
    @given(colon_pairs())
    def test_colon_ideals_read_from_their_starts(self, pair):
        j, i = pair
        got = colon(j, i)
        profile = got.pure_power_profile()
        # the generators of (J : I) lie in J's box, whose sides are at most 4
        assert profile == profile_by_contains(got, 4)
        assert profile == MonomialIdeal(got.n, got.gens).pure_power_profile()

    @pytest.mark.parametrize(
        "build",
        [
            lambda a: parse_ideal("1", a.n),
            lambda a: ideal_of_vector(EMPTY, a),
            lambda a: colon(a.powers_ideal(), a.powers_ideal()),
        ],
        ids=["generators", "empty-vector", "self-colon"],
    )
    def test_unit_ideal(self, build):
        unit_ideal = build(DegreeList((2, 3, 4)))
        assert is_unit(unit_ideal) and unit_ideal.pure_power_profile() == (0, 0, 0)
        assert unit_ideal.hilbert_function() == HilbertFunction((0,))
        assert betti_diagram(unit_ideal).items() == []
        assert unit_ideal.socle_monomials() == {}

    def test_dominance_sweep_builds_no_generators(self, monkeypatch):
        calls = count_monomial_builds(monkeypatch)
        a = DegreeList((3, 3, 4))
        reports = [lpp_dominance_check(h, a) for h in valid_hilbert_functions(a, a.sigma_ci)]
        assert len(reports) == 189 and all(r.verdict in ("pass", "not-valid") for r in reports)
        assert calls["monomials"] == 0


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

    @settings(max_examples=300, deadline=None)
    @given(powers_colon_pairs())
    def test_in_the_pure_powers_by_reflection(self, pair):
        j, i = pair
        with mock.patch.object(monomials, "_colon_of_corners", side_effect=AssertionError):
            got = colon(j, i)
        assert got._row_starts()[0] == j._row_starts()[0]
        assert got == monomials._colon_of_corners(j, i._corners())
        assert got == colon_by_intersection(j, i)
        assert got == brute_colon(j, i, sum(j.pure_power_profile()))

    def test_large_reflections_are_not_cached(self):
        reflection = monomials._reflection
        # 65 * 65 = 4225 rows, past REFLECT_CACHED
        assert 65 * 65 > monomials.REFLECT_CACHED
        large, i = parse_ideal("x1^64, x2^64, x3^2"), parse_ideal("x1^60*x2^3*x3, x1*x2*x3", 3)
        reflection.cache_clear()
        assert colon(large, i) == colon_by_intersection(large, i)
        assert reflection.cache_info().currsize == 0
        colon(parse_ideal("x1^2, x2^3, x3^3"), parse_ideal("x1*x2", 3))
        assert reflection.cache_info().currsize == 1

    def test_reflection_cache_is_cleared_by_the_benchmark(self):
        caches = benchmark_caches()
        assert monomials._reflection in caches and monomials._axis_ends in caches
        colon(parse_ideal("x1^2, x2^3, x3^3"), parse_ideal("x1*x2", 3))
        assert monomials._reflection.cache_info().currsize > 0
        for cache in caches:
            cache.cache_clear()
        assert monomials._reflection.cache_info().currsize == 0

    def test_no_pass_per_generator_in_the_residual_sweep(self, monkeypatch):
        """One pass of the sweep-residual benchmark (seed 1) takes every colon
        inside the pure powers by reflection, with no pass over J's box per
        generator of I (20,180 such passes before the reflection)."""
        calls = Counter()

        def per_corner(j, corners):
            calls["passes"] += len(corners)
            return colon_of_corners(j, corners)

        def of_powers(sides, a, i):
            calls["reflections"] += 1
            return colon_of_powers(sides, a, i)

        colon_of_corners = monomials._colon_of_corners
        colon_of_powers = monomials._colon_of_powers
        monkeypatch.setattr(monomials, "_colon_of_corners", per_corner)
        # the residual checks reflect in the powers' box with no colon call
        for module in (monomials, harness):
            monkeypatch.setattr(module, "_colon_of_powers", of_powers)
        workload = bench_workloads.build(
            "sweep-residual", 1, bench_workloads.load_lppkit("sweep-residual")
        )
        assert all(op.check(op.run()).error is None for op in workload.ops)
        assert calls["passes"] == 0
        assert calls["reflections"] > 2000

    def test_pure_powers_reflect(self):
        # (x1^5, x2^7) : W is the reflection b -> (4, 6) - b of W's box points
        w = parse_ideal("x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7")
        powers = parse_ideal("x1^5, x2^7")
        outside = [b for b in itertools.product(range(5), range(7)) if not contains(w, Monomial(b))]
        reflected = {(4 - b1, 6 - b2) for b1, b2 in outside}
        got = colon(powers, w)
        for b in itertools.product(range(5), range(7)):
            assert contains(got, Monomial(b)) == (b in reflected)

    def test_guard_on_the_box_of_j(self):
        side = round(BOX_GUARD ** (1 / 3)) + 2
        j = parse_ideal(f"x1^{side}, x2^{side}, x3^{side}")
        with pytest.raises(GuardExceeded):
            colon(j, parse_ideal("x1*x2", 3))


class TestAddMaximalPower:
    @settings(max_examples=200, deadline=None)
    @given(ideals(), st.integers(1, 9), st.sampled_from(["gens", "own box", 6]))
    def test_matches_minimalize(self, i, t, build):
        """Artinian or not, t inside or past I's box, and I built from its
        generators or carried in its generator box or a larger one."""
        got = add_maximal_power(rebuilt(i, build), t)
        want = add_maximal_power_by_minimalize(i, t)
        assert got.gens == want.gens and got == want and hash(got) == hash(want)
        assert got.pure_power_profile() == want.pure_power_profile()
        if None not in want.pure_power_profile():
            assert got.hilbert_function() == want.hilbert_function()
            assert betti_diagram(got) == betti_diagram(want)

    def test_keeps_the_box_of_an_artinian_ideal(self):
        a = DegreeList((3, 3, 4))
        ideal = next(enumerate_ideals(HilbertFunction.from_string("1 3 5 3 1"), a))
        assert add_maximal_power(ideal, 4)._row_starts()[0] == (4, 4, 5)

    def test_power_below_one(self):
        with pytest.raises(ValueError, match="power must be >= 1"):
            add_maximal_power(parse_ideal("x1, x2"), 0)


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


def lex_cases(i: MonomialIdeal):
    """I and its profile, when that is a non-decreasing list of positive
    degrees: the caps that _lex_above_powers is called with."""
    caps = i.pure_power_profile()
    if None not in caps and 0 not in caps and list(caps) == sorted(caps):
        yield i, caps


@pytest.fixture
def lex_reads(monkeypatch):
    """The degrees of each table that monomials._members_first reads, and
    whether it went through _lex_table's cache."""
    reads, cached = [], monomials._lex_table

    def kept(*key):
        reads.append((key[2], True))
        return cached(*key)

    kept.__wrapped__ = lambda *key: reads.append((key[2], False)) or cached.__wrapped__(*key)
    monkeypatch.setattr(monomials, "_lex_table", kept)
    return reads


class TestLexAbovePowers:
    """``monomials._lex_above_powers`` reads every degree below the caps in
    one pass; the per-degree route of ``oracles.lex_above_powers_by_degree``
    reads only the degrees of the generators in two or more variables.
    They agree when the caps are the ideal's non-decreasing profile."""

    # walk ideals with a non-decreasing profile, and how many of them are
    # lex-plus-powers for it
    WALK_COUNTS = {(3, 3, 4): (3592, 280), (2, 2, 3, 3): (7889, 267)}

    @pytest.mark.parametrize("degrees", sorted(WALK_COUNTS), ids=str)
    def test_walk_ideals(self, degrees):
        a = DegreeList(degrees)
        verdicts = []
        for h in valid_hilbert_functions(a, a.sigma_ci):
            for ideal in enumerate_ideals(h, a):
                for i, caps in lex_cases(ideal):
                    verdicts.append(monomials._lex_above_powers(i, caps))
                    assert verdicts[-1] == lex_above_powers_by_degree(i, caps), i
        assert (len(verdicts), sum(verdicts)) == self.WALK_COUNTS[degrees]

    @pytest.mark.parametrize("degrees", [(3, 4, 5), (2, 3, 3, 3), (3, 4, 4)], ids=str)
    def test_table_ideals_and_residuals(self, degrees):
        a = DegreeList(degrees)
        sides = tuple(d + 1 for d in degrees)
        powers = a.powers_ideal()
        cases = 0
        for starts in _enumerate(degrees, math.inf).starts:
            ideal = _ideal_of_rows(a.n, sides, starts)
            for i, caps in itertools.chain(lex_cases(ideal), lex_cases(colon(powers, ideal))):
                assert monomials._lex_above_powers(i, caps) == lex_above_powers_by_degree(i, caps)
                cases += 1
        assert cases > len(_enumerate(degrees, math.inf).starts)

    @pytest.mark.parametrize(
        "text, lpp", [("x1^15*x2", True), ("x1^15*x3", False), ("x1^14*x2^3, x1^15*x2*x3", False)]
    )
    def test_caps_past_the_one_pass_table(self, lex_reads, text, lpp):
        # 16 * 16 * 17 monomials below the caps, past LEX_CACHED: only the
        # degrees of the mixed generators are read, from a kept table
        i = parse_ideal(f"x1^16, x2^16, x3^17, {text}")
        caps = (16, 16, 17)
        assert math.prod(caps) > monomials.LEX_CACHED
        assert monomials._lex_above_powers(i, caps) == lpp == lex_above_powers_by_degree(i, caps)
        assert is_lpp(i, DegreeList(caps)) == lpp == is_lpp_by_contains(i, DegreeList(caps))
        assert lex_reads and all(degrees is not None and kept for degrees, kept in lex_reads)

    @pytest.mark.parametrize(
        "text, lpp", [("x1^15*x2", True), ("x1^15*x3", False), ("x1^14*x2^3, x1^15*x2*x3", False)]
    )
    def test_caps_at_the_cache_bound_take_the_one_pass_table(self, text, lpp):
        # 16 ** 3 = LEX_CACHED monomials below the caps: every degree is
        # read from one table, and the table is kept
        i = parse_ideal(f"x1^16, x2^16, x3^16, {text}")
        caps = a = (16, 16, 16)
        assert math.prod(caps) == monomials.LEX_CACHED
        monomials._lex_table.cache_clear()
        assert monomials._lex_above_powers(i, caps) == lpp == is_lpp_by_contains(i, DegreeList(a))
        assert monomials._lex_table.cache_info().currsize == 1
        monomials._lex_table(i._row_starts()[0], caps, None)
        assert monomials._lex_table.cache_info().hits == 1

    @pytest.mark.parametrize(
        "text, lpp, degrees",
        [
            ("x1^16*x2", True, [(17,)]),
            ("x1^15*x2^3", False, [(18,)]),
            ("x1^16*x2, x1^3*x2^20", False, [(17, 23)]),
        ],
    )
    def test_caps_past_the_cache_bound_read_the_mixed_degrees(self, lex_reads, text, lpp, degrees):
        # 17 * 241 = LEX_CACHED + 1 monomials below the caps: only the
        # degrees of the mixed generators are read, and their table, of at
        # most 18 + 24 tuples, is kept
        i = parse_ideal(f"x1^17, x2^241, {text}")
        caps = a = (17, 241)
        assert math.prod(caps) == monomials.LEX_CACHED + 1
        assert monomials._lex_above_powers(i, caps) == lpp == is_lpp_by_contains(i, DegreeList(a))
        assert lex_reads == [(d, True) for d in degrees]

    @pytest.mark.parametrize("text, lpp", [("x1*x2^49*x3^41", True), ("x1*x2^45*x3^45", False)])
    def test_mixed_degrees_past_the_cache_bound_are_not_kept(self, lex_reads, text, lpp):
        # 2 * 50 * 50 monomials below the caps, and C(93, 2) = 4,278 of
        # degree 91 in three variables, both past LEX_CACHED
        i = parse_ideal(f"x1^2, x2^50, x3^50, {text}")
        caps = a = (2, 50, 50)
        assert math.comb(93, 2) > monomials.LEX_CACHED
        assert monomials._lex_above_powers(i, caps) == lpp == is_lpp_by_contains(i, DegreeList(a))
        assert lex_reads == [((91,), False)]


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
                assert all(contains(ideal, p) for p in powers)
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
        "degrees",
        [(2, 3, 3), (3, 3, 4), (2, 3, 4), (2, 2, 2, 2), (2, 2, 3, 3), (1, 2, 2), (3, 4, 4)],
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
