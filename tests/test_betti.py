import copy
import itertools
import json
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lppkit import (
    BettiDiagram,
    DegreeList,
    DimensionError,
    FieldSpec,
    HilbertFunction,
    MonomialIdeal,
    betti_diagram,
    betti,
    mapping_cone_check,
    parse_ideal,
)
from lppkit.betti import (
    EMPTY_RUN,
    LANE,
    PAGE,
    PRIME_LIMIT,
    VALUE,
    _homology_of_mask,
    _is_prime,
    _rank,
)
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import BOX_GUARD

import oracles
from oracles import (
    betti_diagram_by_contains,
    betti_euler_by_multidegree,
    first_violation_by_entries,
    last_betti_consequences,
    rank_by_fractions,
    reduced_homology_dims,
    socle_dims,
    stanley_check,
    stanley_first_mismatch,
    taylor_euler_by_multidegree,
    unit_monomial,
)

GF2 = FieldSpec(2)
# entries of small Betti diagrams: (i, j) -> a positive count
DIAGRAMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 6)), st.integers(1, 3))


def ideal(text, n=None):
    return parse_ideal(text, n)


class TestBettiDiagram:
    def test_koszul_two_variables(self):
        b = betti_diagram(ideal("x1, x2"))
        assert b.entries == {(0, 0): 1, (1, 1): 2, (2, 2): 1}

    def test_square_of_maximal_ideal(self):
        b = betti_diagram(ideal("x1^2, x1*x2, x2^2"))
        assert b.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    def test_complete_intersection_two_variables(self):
        for a, bdeg in [((2, 5), (2, 5)), ((3, 3), (3, 3))]:
            b = betti_diagram(DegreeList(a).powers_ideal())
            assert b.beta(1, bdeg[0]) + b.beta(1, bdeg[1]) >= 2
            assert b.beta(2, sum(a)) == 1

    def test_complete_intersection_koszul_pattern(self):
        a = DegreeList((2, 3, 4))
        b = betti_diagram(a.powers_ideal())
        expected = {(0, 0): 1}
        for r in (1, 2, 3):
            for combo in itertools.combinations(a.degrees, r):
                key = (r, sum(combo))
                expected[key] = expected.get(key, 0) + 1
        assert b.entries == expected

    def test_unit_ideal_zero_diagram(self):
        u = MonomialIdeal(2, (unit_monomial(2),))
        assert betti_diagram(u).entries == {}

    def test_first_violation_is_the_least_key_below(self):
        lpp = BettiDiagram(3, {(0, 0): 1, (1, 2): 1, (2, 3): 5, (3, 5): 1})
        other = BettiDiagram(3, {(0, 0): 1, (1, 2): 1, (1, 3): 2, (2, 3): 6, (3, 4): 1})
        assert lpp.first_violation(other) == (1, 3)
        assert other.first_violation(lpp) == (3, 5)
        assert lpp.first_violation(lpp) is None

    @given(DIAGRAMS, DIAGRAMS)
    def test_first_violation_by_definition(self, mine, theirs):
        a, b = BettiDiagram(3, mine), BettiDiagram(3, theirs)
        below = [k for k in sorted(set(mine) | set(theirs)) if a.beta(*k) < b.beta(*k)]
        assert a.first_violation(b) == (below[0] if below else None)

    def test_characteristic_two_agrees_on_small_corpus(self):
        a = DegreeList((2, 2, 3))
        for h in valid_hilbert_functions(a, 5):
            for i in enumerate_ideals(h, a):
                assert betti_diagram(i) == betti_diagram(i, GF2)

    def test_render_layout(self):
        text = betti_diagram(ideal("x1^2, x1*x2, x2^2")).render()
        assert text.splitlines() == [
            "       0 1 2",
            "total: 1 3 2",
            "    0: 1 . .",
            "    1: . 3 2",
        ]

    def test_json_schema(self):
        blob = betti_diagram(ideal("x1, x2")).to_json_dict()
        assert json.loads(json.dumps(blob)) == {
            "n": 2,
            "betti": [[0, 0, 1], [1, 1, 2], [2, 2, 1]],
        }

    def test_render_elides_long_runs_of_empty_rows(self):
        # x1^(e + 1) has empty rows 1..e - 1: printed up to EMPTY_RUN of them
        shown = betti_diagram(ideal(f"x1^{EMPTY_RUN + 2}")).render().splitlines()
        assert len(shown) == EMPTY_RUN + 4
        assert all(line.endswith(": . .") for line in shown[3:-1])
        text = betti_diagram(ideal(f"x1^{EMPTY_RUN + 4}, x2^2")).render()
        assert text.splitlines() == [
            "       0 1 2",
            "total: 1 2 1",
            "    0: 1 . .",
            "    1: . 1 .",
            f"2..{EMPTY_RUN + 2}: (empty)",
            f"{EMPTY_RUN + 3}:".rjust(6) + " . 1 .",
            f"{EMPTY_RUN + 4}:".rjust(6) + " . . 1",
        ]


@st.composite
def packed_entries(draw, n=None):
    """``(n, entries)``: the entries (i, j) -> beta of a diagram in 1 <= n <= 6
    variables, over degrees 0..40 (three pages), zeros included, with values
    up to the largest that a lane holds."""
    n = draw(st.integers(1, 6)) if n is None else n
    values = st.one_of(st.integers(0, 3), st.integers(VALUE - 3, VALUE), st.integers(0, VALUE))
    keys = st.tuples(st.integers(0, n), st.integers(0, 40))
    return n, draw(st.dictionaries(keys, values, max_size=16))


def nonzero(entries):
    return {key: v for key, v in entries.items() if v}


class TestPages:
    """A diagram is kept as pages of packed lanes; what it answers must be
    what its entries say."""

    @given(packed_entries())
    def test_round_trip(self, drawn):
        n, entries = drawn
        b = BettiDiagram(n, entries)
        assert b.entries == nonzero(entries)
        assert b.items() == sorted(nonzero(entries).items())
        for i in range(-1, n + 2):
            for j in range(-1, 42):
                assert b.beta(i, j) == entries.get((i, j), 0), (i, j)
        assert set(b.pages) == {j // PAGE for (_, j) in nonzero(entries)}
        assert all(b.pages.values())

    @given(packed_entries(), st.data())
    def test_equal_and_hashed_by_their_entries(self, drawn, data):
        n, entries = drawn
        zeros = data.draw(st.dictionaries(st.tuples(st.integers(0, n), st.integers(0, 40)), st.just(0)))
        same = {**zeros, **dict(reversed(entries.items()))}
        a, b = BettiDiagram(n, entries), BettiDiagram(n, same)
        assert a == b and hash(a) == hash(b)
        other = BettiDiagram(n, data.draw(packed_entries(n))[1])
        assert (a == other) == (a.entries == other.entries)
        if a == other:
            assert hash(a) == hash(other)
        assert a != BettiDiagram(n + 1, entries)

    @given(packed_entries(), st.data())
    def test_first_violation_against_the_entries(self, drawn, data):
        n, mine = drawn
        step = st.integers(-1, 1)
        theirs = {key: min(max(v + data.draw(step), 0), VALUE) for key, v in mine.items()}
        theirs.update(data.draw(packed_entries(n))[1] if data.draw(st.booleans()) else {})
        a, b = BettiDiagram(n, mine), BettiDiagram(n, theirs)
        for x, y in ((a, b), (b, a)):
            assert x.first_violation(y) == first_violation_by_entries(x, y)
            below = sorted(key for key, v in y.entries.items() if x.beta(*key) < v)
            assert x.below(y) == below
            for i in range(n + 1):
                assert x.below(y, i) == [key for key in below if key[0] == i]

    def test_zero_entries_drop_and_equal_diagrams_hash_alike(self):
        a, b = BettiDiagram(3, {(0, 0): 1}), BettiDiagram(3, {(0, 0): 1, (1, 2): 0})
        assert a == b and hash(a) == hash(b) and b.entries == {(0, 0): 1}
        assert len({a, b, betti_diagram(ideal("x1, x2, x3")), betti_diagram(ideal("x1^2, x2"))}) == 3
        with pytest.raises(AttributeError, match="immutable"):
            a.n = 2  # a hashed value does not change

    def test_pickled_and_copied_alike(self):
        b = betti_diagram(ideal("x1^2, x1*x2, x2^3"))
        for twin in (pickle.loads(pickle.dumps(b)), copy.copy(b), copy.deepcopy(b)):
            assert twin == b and hash(twin) == hash(b) and twin.items() == b.items()

    @pytest.mark.parametrize(
        "entries",
        [{(1, 2): -1}, {(1, 2): 2 ** (LANE - 1)}, {(4, 2): 1}, {(-1, 2): 1}, {(1, -1): 1}],
        ids=["negative", "past the value bits", "past column n", "column -1", "degree -1"],
    )
    def test_refuses_what_no_lane_holds(self, entries):
        with pytest.raises(ValueError, match="is not a Betti number in 3 variables"):
            BettiDiagram(3, entries)

    def test_a_lane_holds_the_largest_betti_number(self):
        # beta_{i,j} <= box points * 2^n, and 2^n <= points <= BOX_GUARD
        n = BOX_GUARD.bit_length() - 1
        top = BOX_GUARD << n
        assert 2**n <= BOX_GUARD < 2 ** (n + 1)
        b = BettiDiagram(n, {(i, j): top for i in range(n + 1) for j in (0, 15, 16)})
        c = BettiDiagram(n, {**b.entries, (n, 15): top - 1})
        assert b.beta(n, 15) == top and b.entries == {**c.entries, (n, 15): top}
        assert c.first_violation(b) == (n, 15) and b.first_violation(c) is None

    def test_first_violation_refuses_different_variable_counts(self):
        # lanes are laid out by n, so diagrams in different rings do not compare
        with pytest.raises(DimensionError, match="2 vs 3 variables"):
            BettiDiagram(2, {(0, 0): 1}).first_violation(BettiDiagram(3, {(0, 0): 1}))

    def test_a_block_across_a_page_boundary(self):
        # the run at x1 = 1 starts in degree 1, and its one block's points
        # reach degrees 15 (x1*x3^14) and 16, so its chunk is split
        i = ideal("x1^2, x2^2, x3^16, x1*x3^14")
        b = betti_diagram(i)
        assert b == betti_diagram_by_contains(i)
        assert b.beta(1, 15) == 1 and b.beta(2, 16) == 1 and set(b.pages) == {0, 1}


class TestFieldSpec:
    def test_primality_agrees_with_trial_division(self):
        for p in range(-3, 20000):
            prime = p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))
            assert _is_prime(p) == prime, p

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_accepts_large_primes(self, p):
        assert FieldSpec(p).characteristic == p

    @pytest.mark.parametrize(
        "p",
        [
            3215031751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # a strong pseudoprime to bases 2 to 23
            318665857834031151167461,  # a strong pseudoprime to bases 2 to 37
        ],
    )
    def test_rejects_strong_pseudoprimes(self, p):
        with pytest.raises(ValueError, match="must be 0 or prime"):
            FieldSpec(p)

    # 2^89 - 1 is prime, but past the limit primality is not decided
    @pytest.mark.parametrize("p", [PRIME_LIMIT, (2**31 - 1) * (2**61 - 1), 2**89 - 1])
    def test_rejects_every_characteristic_from_the_limit_on(self, p):
        with pytest.raises(ValueError, match="too large"):
            FieldSpec(p)


def random_matrix(rng: random.Random, shape: str) -> list[list[int]]:
    """A random integer matrix: ``tall`` or ``wide`` with entries up to 9 in
    absolute value, ``deficient`` a product through a thinner middle, and
    ``zero-columns`` a matrix with some columns cleared."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)
    if shape == "tall":
        rows, cols = max(rows, cols) + 1, min(rows, cols)
    elif shape == "wide":
        rows, cols = min(rows, cols), max(rows, cols) + 1
    if shape == "deficient":
        middle = rng.randint(1, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(middle)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(middle)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    mat = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(cols)] for _ in range(rows)]
    if shape == "zero-columns":
        for c in rng.sample(range(cols), rng.randint(1, cols)):
            for row in mat:
                row[c] = 0
    return mat


def complexes_on_five_vertices() -> list[int]:
    """Every simplicial complex on at most 5 vertices (the void complex left
    out), as its face mask, bit v set when the face with vertex bitmask v is
    in it: faces are added in increasing v, each to the complexes that hold
    its boundary."""
    masks = [0]
    for v in range(1, 32):
        boundary = [v ^ 1 << b for b in range(5) if v >> b & 1 and v != 1 << b]
        masks += [m | 1 << v for m in masks if all(m >> u & 1 for u in boundary)]
    return masks


def faces_of_mask(mask: int) -> list[tuple[int, ...]]:
    """The nonempty faces of a complex on at most 5 vertices, from its face
    mask, as sorted vertex tuples."""
    return [tuple(b for b in range(5) if v >> b & 1) for v in range(1, 32) if mask >> v & 1]


class TestRank:
    @pytest.mark.parametrize("shape", ["tall", "wide", "deficient", "zero-columns"])
    def test_equals_the_fraction_oracle(self, shape):
        rng = random.Random(shape)
        for _ in range(500):
            mat = random_matrix(rng, shape)
            before = [row[:] for row in mat]
            assert _rank(mat, 0) == rank_by_fractions(mat), mat
            assert mat == before

    def test_empty_matrices(self):
        assert _rank([], 0) == _rank([[]], 0) == 0

    def test_entries_grow_past_the_input_without_losing_exactness(self):
        # a Vandermonde matrix of full rank: its minors grow fast
        mat = [[(i + 1) ** j for j in range(8)] for i in range(8)]
        assert _rank(mat, 0) == rank_by_fractions(mat) == 8
        mat.append([sum(col) for col in zip(*mat)])
        assert _rank(mat, 0) == 8

    def test_homology_of_every_complex_on_five_vertices(self, monkeypatch):
        masks = complexes_on_five_vertices()
        assert len(masks) == 7580  # the Dedekind number M(5) = 7581, less the void complex
        faces = [faces_of_mask(m) for m in masks]
        # the uncached body, so that the memo is left as it was
        got = {p: [_homology_of_mask.__wrapped__(m, p) for m in masks] for p in (0, 2, 3, 5)}
        for p in (0, 2, 3, 5):
            assert got[p] == [reduced_homology_dims(c, p) for c in faces], p
        monkeypatch.setattr(oracles, "_rank", lambda rows, p: rank_by_fractions(rows))
        assert got[0] == [reduced_homology_dims(c, 0) for c in faces]
        # no complex on five vertices has torsion: every field agrees
        assert got[2] == got[3] == got[5] == got[0]


class TestTaylorOracle:
    def test_alternating_sums_match_per_multidegree(self, remark_ideal_234):
        for i in (
            ideal("x1^2, x1*x2, x2^2"),
            ideal("x1^3, x2^4"),
            remark_ideal_234,
            ideal("x1^2, x2^2, x3^2, x1*x2*x3"),
        ):
            assert betti_euler_by_multidegree(i) == taylor_euler_by_multidegree(i)


class TestSocleDims:
    def test_square_of_maximal_ideal(self):
        assert socle_dims(ideal("x1^2, x1*x2, x2^2")) == {1: 2}

    def test_complete_intersection(self):
        assert socle_dims(ideal("x1^3, x2^5")) == {6: 1}

    def test_three_variable_example(self, remark_ideal_234):
        expected = {
            d: len(ms) for d, ms in remark_ideal_234.socle_monomials().items()
        }
        assert socle_dims(remark_ideal_234) == expected
        assert socle_dims(remark_ideal_234, GF2) == expected


class TestStanley:
    def test_worked_case(self):
        h = HilbertFunction((1, 2, 0))
        b = betti_diagram(ideal("x1^2, x1*x2, x2^2"))
        assert stanley_check(h, b)

    def test_theorem_on_samples(self, remark_ideal_234, remark_ideal_233):
        for i in (remark_ideal_234, remark_ideal_233, ideal("x1^3, x2^2")):
            assert stanley_check(i.hilbert_function(), betti_diagram(i))

    def test_perturbation_detected(self):
        i = ideal("x1^2, x1*x2, x2^2")
        b = betti_diagram(i)
        tweaked = BettiDiagram(b.n, {**b.entries, (1, 2): b.beta(1, 2) + 1})
        h = i.hilbert_function()
        assert not stanley_check(h, tweaked)
        assert stanley_first_mismatch(h, tweaked) == 2


class TestLastBettiConsequences:
    def test_same_h_pair(self):
        # both attain 1 3 5 1 0 over three variables
        i = ideal("x1^2, x2^3, x3^4, x1*x2^2, x1*x2*x3, x1*x3^2, x2^2*x3, x2*x3^2")
        j = ideal("x1^2, x2^3, x3^3, x1*x2^2, x1*x2*x3, x1*x3^2, x2^2*x3")
        h = i.hilbert_function()
        assert h == j.hilbert_function()
        assert last_betti_consequences(h, betti_diagram(i), betti_diagram(j))

    def test_equal_diagrams(self, remark_ideal_234):
        b = betti_diagram(remark_ideal_234)
        assert last_betti_consequences(remark_ideal_234.hilbert_function(), b, b)

    def test_across_enumerated_class(self):
        a = DegreeList((2, 2, 3))
        h = HilbertFunction.from_string("1 3 3 1")
        diagrams = [betti_diagram(i) for i in enumerate_ideals(h, a)]
        assert len(diagrams) >= 2
        for b2 in diagrams[1:]:
            assert last_betti_consequences(h, diagrams[0], b2)


class TestMappingCone:
    def test_worked_case(self):
        rep = mapping_cone_check(ideal("x1^2, x1*x2, x2^2"), DegreeList((2, 2)))
        assert rep.ok and rep.minimal and rep.omega == 4
        assert rep.t_by_degree == {2: 2}

    def test_pure_powers_only(self):
        a = DegreeList((2, 3, 4))
        rep = mapping_cone_check(a.powers_ideal(), a)
        assert rep.ok and rep.minimal
        assert all(rep.t_by_degree[j] == a.multiplicity(j) for j in rep.t_by_degree)

    def test_lpp_5_7_example(self):
        i = ideal("x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7")
        rep = mapping_cone_check(i, DegreeList((5, 7)))
        assert rep.ok and rep.minimal

    def test_a_wrong_residual_breaks_both_rules(self, monkeypatch):
        # the powers in place of (powers : I): beta_(2,4) = 1 and no beta_(2,2)
        monkeypatch.setattr(betti, "colon", lambda j, i: j)
        rep = mapping_cone_check(ideal("x1^2, x1*x2, x2^2"), DegreeList((2, 2)))
        assert not rep.ok and rep.minimal and rep.t_by_degree == {0: -1, 2: 3}
        assert rep.failures == (
            "t_0 = -1 outside 0..0",
            "minimal containment but t_0 = -1 != 0",
            "t_2 = 3 outside 0..2",
            "minimal containment but t_2 = 3 != 2",
        )

    def test_non_minimal_containment(self):
        rep = mapping_cone_check(ideal("x1, x2^2"), DegreeList((2, 2)))
        assert rep.ok and not rep.minimal
        assert all(0 <= t <= 2 for t in rep.t_by_degree.values())
        assert rep.t_by_degree[2] < 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            mapping_cone_check(ideal("x1^3, x2^2"), DegreeList((2, 2)))

    def test_variable_counts_must_agree(self):
        with pytest.raises(DimensionError, match="3 vs 2 variables"):
            mapping_cone_check(ideal("x1^2, x2^2, x3^2"), DegreeList((2, 2)))
