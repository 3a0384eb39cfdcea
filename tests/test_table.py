"""What reads an ideal's row starts point by point: Betti diagrams, socle
and standard monomials, and the box-volume guard."""

import importlib.util
import itertools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import DegreeList, FieldSpec, Monomial, betti_diagram, is_lpp, minimalize
from lppkit.betti import (
    _homology_of_mask,
    _reduced_homology_dims,
    _row_contribution,
    _run_contribution,
)
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import (
    BOX_GUARD,
    GuardExceeded,
    _ideal_of_rows,
    _row_strides,
    _starts_of_corners,
    parse_ideal,
    pure_power,
)

from oracles import betti_diagram_by_contains, contains, socle_by_definition, standard_monomials

GF2 = FieldSpec(2)
GF32003 = FieldSpec(32003)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_caches() -> list:
    """The caches ``perfbench/run.py`` clears before every pass, found by its
    own ``lru_caches`` over the modules a sweep-betti run loads."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its siblings by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # its dataclasses look their module up
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run.lru_caches(run.workloads.load_lppkit("sweep-betti"))


# the facets of the 6-vertex real projective plane
RP2_FACETS = {"123", "134", "145", "156", "126", "235", "245", "246", "346", "356"}


def rp2_ideal():
    """The Stanley-Reisner ideal of the 6-vertex real projective plane (the
    triples that are not facets) plus the squares: its homology has
    2-torsion, so its diagrams over QQ and GF(2) differ."""
    gens = [pure_power(6, k, 2) for k in range(6)]
    for t in itertools.combinations(range(1, 7), 3):
        if "".join(map(str, t)) not in RP2_FACETS:
            gens.append(Monomial(tuple(int(k in t) for k in range(1, 7))))
    return minimalize(6, gens)


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

    def test_row_memo_is_bounded_and_cleared_by_the_benchmark(self):
        caches = benchmark_caches()
        memos = (_row_contribution, _run_contribution)
        for memo in memos:
            assert memo in caches
            assert memo.cache_info().maxsize is not None
        betti_diagram(parse_ideal("x1^3, x1*x2^2, x2^4, x3^2"))
        assert all(memo.cache_info().currsize > 0 for memo in memos)
        for cache in caches:
            cache.cache_clear()
        assert all(memo.cache_info().currsize == 0 for memo in memos)

    def test_the_characteristic_is_part_of_the_row_key(self):
        i = rp2_ideal()
        assert len(i.gens) == 16
        want = {0: betti_diagram_by_contains(i), 2: betti_diagram_by_contains(i, GF2)}
        assert (want[0].beta(3, 6), want[2].beta(3, 6)) == (25, 26)
        assert (want[0].beta(4, 6), want[2].beta(4, 6)) == (15, 16)
        _row_contribution.cache_clear()
        _run_contribution.cache_clear()
        for p in (0, 2, 0):  # each field with the other's rows and runs in the memos
            assert betti_diagram(i, FieldSpec(p)) == want[p], p
        # the last diagram was read from the runs the first one left
        assert _run_contribution.cache_info().hits > 0

    def test_the_projective_plane_has_homology_only_over_gf2(self):
        faces = {
            tuple(sorted(face))
            for facet in RP2_FACETS
            for k in (1, 2, 3)
            for face in itertools.combinations(map(int, facet), k)
        }
        # (H_-1, H_0, H_1, H_2): H_1 is Z/2, so both H_1 and H_2 vanish over QQ
        assert _reduced_homology_dims(sorted(faces), 0) == (0, 0, 0, 0)
        assert _reduced_homology_dims(sorted(faces), 2) == (0, 0, 1, 1)
        assert _reduced_homology_dims(sorted(faces), 3) == (0, 0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        artinian_ideals(max_n=4, max_power=4),
        artinian_ideals(max_n=4, max_power=4),
        st.lists(st.integers(0, 2), min_size=4, max_size=4),
    )
    def test_rows_shared_across_boxes_give_the_cold_diagram(self, i, j, grow):
        # i again in a larger box, and another ideal j: their rows meet i's
        sides = tuple(s + g for s, g in zip(i._row_starts()[0], grow))
        wide = _ideal_of_rows(i.n, sides, _starts_of_corners(sides, i._corners()))
        cold = []
        for ideal in (i, wide, j):
            _row_contribution.cache_clear()
            _run_contribution.cache_clear()
            cold.append(betti_diagram(ideal))
        _row_contribution.cache_clear()
        _run_contribution.cache_clear()
        assert [betti_diagram(ideal) for ideal in (i, wide, j)] == cold
        assert cold[0] == cold[1]

    @settings(max_examples=60, deadline=None)
    @given(artinian_ideals(max_n=4, max_power=5))
    def test_row_starts_never_grow_along_a_prefix_axis(self, i):
        # so the scan of a row, up to the start of its full step down, stays
        # below row 0's start and inside the box
        sides, starts = i._row_starts()
        assert starts[0] < sides[-1]
        prefixes = itertools.product(*(range(s) for s in sides[:-1]))
        for r, prefix in enumerate(prefixes):
            for e, stride in zip(prefix, _row_strides(sides)):
                if e:
                    assert starts[r] <= starts[r - stride]


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
