"""What reads an ideal's row starts point by point: Betti diagrams, socle
and standard monomials, and the box-volume guard."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import DegreeList, FieldSpec, Monomial, betti_diagram, is_lpp, minimalize
from lppkit.betti import _homology_of_mask
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import BOX_GUARD, GuardExceeded, parse_ideal, pure_power

from oracles import betti_diagram_by_contains, contains, socle_by_definition, standard_monomials

GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)


@st.composite
def artinian_ideals(draw, max_n=3, max_power=5):
    """Pure powers x_k^(a_k) plus a few monomials strictly inside the box."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    powers = draw(st.lists(st.integers(1, max_power), min_size=n, max_size=n))
    inner = st.tuples(*(st.integers(0, a - 1) for a in powers))
    extra = draw(st.lists(inner, max_size=6))
    gens = [pure_power(n, k, a) for k, a in enumerate(powers)]
    return minimalize(n, gens + [Monomial(e) for e in extra])


def seeded_ideal(rng: random.Random, n: int, max_side: int):
    powers = [rng.randint(max_side // 2, max_side) for _ in range(n)]
    gens = [pure_power(n, k, a) for k, a in enumerate(powers)]
    while len(gens) < n + 15:
        exps = tuple(rng.randrange(a) for a in powers)
        if 3 * sum(exps) >= sum(powers):  # no small generator swallowing the box
            gens.append(Monomial(exps))
    return minimalize(n, gens)


def seeded_corpus():
    rng = random.Random(20050508)
    return [seeded_ideal(rng, 3, 12) for _ in range(8)] + [
        seeded_ideal(rng, 4, 6) for _ in range(6)
    ]


class TestMembershipTable:
    """Membership read from the row starts, point by point."""

    @settings(max_examples=60, deadline=None)
    @given(artinian_ideals())
    def test_standard_monomials_by_definition(self, i):
        want: dict[int, list[Monomial]] = {}
        for exps in itertools.product(*(range(e) for e in i.pure_power_profile())):
            m = Monomial(exps)
            if not contains(i, m):
                want.setdefault(m.degree, []).append(m)
        assert standard_monomials(i) == {
            d: tuple(sorted(ms, reverse=True)) for d, ms in sorted(want.items())
        }


@settings(max_examples=80, deadline=None)
@given(artinian_ideals())
def test_socle_monomials_by_definition(i):
    assert i.socle_monomials() == socle_by_definition(i)


class TestBettiMatchesReference:
    """The row-start loop gives the same diagrams as the contains-based loop."""

    @pytest.mark.parametrize("f", [FieldSpec(0), GF2], ids=["QQ", "GF2"])
    def test_every_ideal_of_233(self, f):
        a = DegreeList((2, 3, 3))
        ideals = [
            i for h in valid_hilbert_functions(a, a.sigma_ci) for i in enumerate_ideals(h, a)
        ]
        assert len(ideals) == 174  # MacMahon's box formula for 2x3x3, minus one
        for i in ideals:
            assert betti_diagram(i, f) == betti_diagram_by_contains(i, f)

    @pytest.mark.parametrize("f", [FieldSpec(0), GF32003], ids=["QQ", "GF32003"])
    def test_seeded_large_boxes(self, f):
        for i in seeded_corpus():
            assert betti_diagram(i, f) == betti_diagram_by_contains(i, f)

    @settings(max_examples=60, deadline=None)
    @given(artinian_ideals(max_n=4, max_power=4))
    def test_small_random_ideals(self, i):
        assert betti_diagram(i) == betti_diagram_by_contains(i)

    @settings(max_examples=60, deadline=None)
    @given(artinian_ideals(max_n=4, max_power=4))
    def test_unchanged_by_permuting_the_variables(self, i):
        # the dominance sweeps compute one diagram per orbit of permutations
        b = betti_diagram(i)
        for perm in itertools.permutations(range(i.n)):
            gens = [Monomial(tuple(g.exps[k] for k in perm)) for g in i.gens]
            assert betti_diagram(minimalize(i.n, gens)) == b, perm

    def test_homology_cache_is_bounded(self):
        assert _homology_of_mask.cache_info().maxsize is not None


class TestBoxGuard:
    HUGE = "x1^400, x2^400, x3^400"  # 401^3 points

    def test_guard_is_far_above_the_large_queries(self):
        assert BOX_GUARD >= 100 * 23**3

    @pytest.mark.parametrize(
        "compute",
        [betti_diagram, lambda i: i.socle_monomials(), standard_monomials],
        ids=["betti", "socle", "standard"],
    )
    def test_raises_before_scanning(self, compute):
        with pytest.raises(GuardExceeded):
            compute(parse_ideal(self.HUGE))

    def test_lpp_predicate_raises_fast(self):
        start = time.perf_counter()
        with pytest.raises(GuardExceeded):
            is_lpp(parse_ideal(self.HUGE + ", x1^200*x2^200"), DegreeList((400,) * 3))
        assert time.perf_counter() - start < 0.5

    def test_harness_exports_the_same_error(self):
        from lppkit import harness

        assert harness.GuardExceeded is GuardExceeded
