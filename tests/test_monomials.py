import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import (
    DegreeList,
    DimensionError,
    GuardExceeded,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    add_maximal_power,
    colon,
    format_ideal,
    is_lex_segment,
    is_lpp,
    minimalize,
    parse_ideal,
)
from lppkit.growth import gk_coefficients
from lppkit.monomials import (
    _ideal_of_rows,
    _lex_table,
    format_monomial,
    ideal_from_json_dict,
    ideal_to_json_dict,
    parse_monomial,
    pure_power,
)

from conftest import brute_colon, hf_by_inclusion_exclusion
from oracles import (
    contains,
    divides,
    is_unit,
    lex_compare,
    minimalize_by_all_pairs,
    monomials_of_degree,
    profile_degrees,
    times,
    unit_monomial,
)


def ideal(text, n=None):
    return parse_ideal(text, n)


class TestLexCompare:
    def test_first_differing_index(self):
        assert lex_compare(Monomial((1, 1, 0)), Monomial((1, 0, 1))) == 1

    def test_degree_12_table_neighbours(self):
        # x2^2 x3^10 < x1 x2 x3^10 within degree 12
        assert lex_compare(Monomial((0, 2, 10)), Monomial((1, 1, 10))) == -1

    def test_reflexive(self):
        m = Monomial((2, 3, 1))
        assert lex_compare(m, m) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lex_compare(Monomial((1,)), Monomial((1, 0)))


class TestMonomialOrder:
    OPERATORS = [
        ("<", lambda m, p: m < p),
        ("<=", lambda m, p: m <= p),
        (">", lambda m, p: m > p),
        (">=", lambda m, p: m >= p),
    ]

    @pytest.mark.parametrize(
        "m, p, expected",
        [
            ((2, 3, 1), (2, 3, 1), (False, True, False, True)),
            # lex: the first differing exponent decides, whatever the degree
            ((1, 0, 5), (1, 1, 0), (True, True, False, False)),
            ((2, 0, 0), (1, 4, 4), (False, False, True, True)),
        ],
        ids=["equal", "lex-smaller", "lex-larger"],
    )
    def test_all_four_operators(self, m, p, expected):
        m, p = Monomial(m), Monomial(p)
        assert tuple(op(m, p) for _, op in self.OPERATORS) == expected

    @pytest.mark.parametrize("op", [op for _, op in OPERATORS], ids=[s for s, _ in OPERATORS])
    def test_each_operator_refuses_another_variable_count(self, op):
        with pytest.raises(DimensionError, match="^2 vs 3 variables$"):
            op(Monomial((1, 0)), Monomial((1, 0, 0)))


class TestContains:
    def test_divisible(self):
        i = ideal("x1^2, x1*x2")
        assert contains(i, Monomial((2, 1)))

    def test_not_divisible(self):
        i = ideal("x1^2, x1*x2")
        assert not contains(i, Monomial((0, 3)))

    def test_lpp_57_example(self):
        w = ideal("x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7")
        assert contains(w, Monomial((2, 4)))


class TestMinimalize:
    def test_drops_multiples(self):
        i = minimalize(2, [Monomial((2, 0)), Monomial((3, 0)), Monomial((0, 1))])
        assert set(i.gens) == {Monomial((2, 0)), Monomial((0, 1))}

    def test_already_minimal(self):
        gens = [Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))]
        assert set(minimalize(2, gens).gens) == set(gens)

    def test_colon_candidates_reduce_to_maximal_ideal(self):
        j = ideal("x1^2, x2^2")
        i = ideal("x1^2, x1*x2, x2^2")
        result = colon(j, i)
        assert result == brute_colon(j, i, 4)
        assert set(result.gens) == {Monomial((1, 0)), Monomial((0, 1))}

    def test_idempotent(self):
        i = ideal("x1^2, x1*x2^3, x2^4")
        again = minimalize(i.n, i.gens)
        assert again == i

    def test_constructor_equals_minimalize_before_any_read(self):
        assert MonomialIdeal(2, [(0, 1), (1, 0)]) == minimalize(2, [(1, 0), (0, 1)])

    def test_constructor_and_minimalize_hash_alike_after_reads(self):
        a = MonomialIdeal(2, [(0, 1), (1, 0)])
        b = minimalize(2, [(1, 0), (0, 1)])
        assert a.hilbert_function() == b.hilbert_function()
        assert len({a, b}) == 1

    def test_constructor_drops_non_minimal_generators(self):
        i = MonomialIdeal(2, [(1, 0), (2, 0), (0, 3)])
        assert str(i) == "x1, x2^3"
        assert ideal_to_json_dict(i) == {"n": 2, "gens": [[1, 0], [0, 3]]}

    @pytest.mark.parametrize(
        "gens",
        [[(1, 0), (1, 0, 5)], [(1, 0), (2, 1, 0)], [(2,), (0, 1)], [(1, 2, 0), (0, 1, 1)]],
    )
    def test_wrong_variable_count_raises(self, gens):
        # a longer generator that a kept one divides on the first two
        # coordinates must not be dropped silently
        with pytest.raises(DimensionError):
            minimalize(2, gens)


class TestHilbertFunction:
    def test_lpp_234_lpp_233_pair_share_h(self, remark_ideal_234, remark_ideal_233):
        assert str(remark_ideal_234.hilbert_function()) == "1 3 5 3 1 0"
        assert str(remark_ideal_233.hilbert_function()) == "1 3 5 3 1 0"

    def test_variant_pair_attains_1_3_5_1(self):
        i = ideal("x1^2, x2^3, x3^4, x1*x2^2, x1*x2*x3, x1*x3^2, x2^2*x3, x2*x3^2")
        j = ideal("x1^2, x2^3, x3^3, x1*x2^2, x1*x2*x3, x1*x3^2, x2^2*x3")
        assert str(i.hilbert_function()) == "1 3 5 1 0"
        assert str(j.hilbert_function()) == "1 3 5 1 0"

    def test_maximal_ideal(self):
        assert str(ideal("x1, x2, x3").hilbert_function()) == "1 0"

    def test_complete_intersection_matches_coefficient_row(self):
        i = ideal("x1^3, x2^4, x3^11")
        row = gk_coefficients([10, 3, 2], 16)
        assert list(i.hilbert_function().values) == row[: row.index(0) + 1]

    def test_inclusion_exclusion_oracle(self, remark_ideal_234):
        for i in (
            remark_ideal_234,
            ideal("x1^2, x1*x2, x2^2"),
            ideal("x1^3, x2^4, x3^2, x1*x2*x3"),
        ):
            assert i.hilbert_function() == hf_by_inclusion_exclusion(i)

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            ideal("x1^2, x1*x2").hilbert_function()

    def test_unit_ideal(self):
        u = MonomialIdeal(2, (unit_monomial(2),))
        assert u.hilbert_function().values == (0,)

    def test_counts_are_checked_as_any_hilbert_function(self):
        # row starts that are no ideal's: 1 is a member, x1 is not
        with pytest.raises(ValueError, match=r"^H\(0\)=0 but later values nonzero: \(0, 1, 1,"):
            _ideal_of_rows(2, (3, 3), (0, 2, 0)).hilbert_function()

    def test_normalization_rules(self):
        assert HilbertFunction((1, 2)).values == (1, 2, 0)
        assert HilbertFunction((1, 2, 0, 0)).values == (1, 2, 0)
        with pytest.raises(ValueError):
            HilbertFunction((1, 0, 5))
        with pytest.raises(ValueError):
            HilbertFunction((2, 1))
        h = HilbertFunction.from_string("1 3 5 1")
        assert h.sigma == 4 and h.rho == 3 and h.at(10) == 0


class TestColon:
    def test_two_variable_residual_formula(self):
        j = ideal("x1^5, x2^7")
        w = ideal("x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7")
        assert format_ideal(colon(j, w)) == "x1^3, x1^2*x2^3, x1*x2^4, x2^6"

    def test_self_colon_is_unit(self):
        j = ideal("x1, x2")
        assert is_unit(colon(j, j))

    def test_brute_force_oracle_on_samples(self):
        samples = [
            ("x1^2, x2^2", "x1^2, x1*x2, x2^2"),
            ("x1^3, x2^4", "x1^2, x2^2"),
            ("x1^2, x1*x2^2, x2^3", "x1, x2^2"),
            ("x1^4, x1^2*x2^2, x2^5, x1*x2^4", "x1^2, x2^3"),
        ]
        for jt, it in samples:
            j, i = ideal(jt), ideal(it)
            bound = sum(max(g.exps[k] for g in j.gens) for k in range(j.n)) + 1
            assert colon(j, i) == brute_colon(j, i, bound)


class TestIsLpp:
    def test_lpp_5_6(self):
        i = ideal("x1^5, x1^4*x2^3, x1^3*x2^5, x2^6")
        assert is_lpp(i, DegreeList((5, 6)))

    def test_wrong_power_order(self):
        i = ideal("x1^6, x1^5*x2^2, x1^4*x2^4, x2^5")
        assert not is_lpp(i, DegreeList((5, 6)))
        # and no non-decreasing list fits: powers are 6 then 5
        assert not is_lpp(i, DegreeList((6, 6)))

    def test_pure_powers_alone(self):
        assert is_lpp(ideal("x1^2, x2^3, x3^4"), DegreeList((2, 3, 4)))

    def test_missing_segment(self):
        # x1*x3^2 present but the larger x1*x2*x3 is not
        i = ideal("x1^2, x2^2, x3^3, x1*x3^2")
        assert not is_lpp(i, DegreeList((2, 2, 3)))


class TestIsLexSegment:
    def test_vacuous_empty_slice(self):
        assert is_lex_segment(ideal("x1^3, x2^3"), 1)

    def test_full_slice(self):
        assert is_lex_segment(ideal("x1, x2"), 3)

    def test_residual_slice(self):
        i = ideal("x1^3, x1^2*x2^3, x1*x2^4, x2^6")
        assert is_lex_segment(i, 6)

    def test_non_segment(self):
        assert not is_lex_segment(ideal("x1^2, x2^2"), 2)  # x1*x2 missing

    def test_past_the_box_of_a_non_artinian_ideal(self):
        # x3 lies past the box of (x1) in k[x1, x2, x3] and is not in the ideal
        assert is_lex_segment(ideal("x1", 3), 1)

    def test_past_the_socle_degree_reads_no_table(self):
        # every monomial of degree above 2 + 2 + 2 is in the ideal
        i = ideal("x1^3, x2^3, x3^3, x1*x2*x3")
        built = _lex_table.cache_info().misses
        assert is_lex_segment(i, 3000)
        assert _lex_table.cache_info().misses == built

    def test_large_tables_are_not_cached(self):
        # C(202, 2) = 20,301 monomials of degree 200 in three variables
        i = ideal("x1", 3)
        _lex_table.cache_clear()
        assert is_lex_segment(i, 200)
        assert _lex_table.cache_info().currsize == 0
        assert is_lex_segment(i, 20)  # 231 monomials: kept
        assert _lex_table.cache_info().currsize == 1

    def test_too_many_monomials_of_the_degree(self):
        # C(3002, 2) = 4,504,501 monomials of degree 3000 in three variables
        with pytest.raises(GuardExceeded, match="4504501 monomials of degree 3000"):
            is_lex_segment(ideal("x1", 3), 3000)


class TestSocle:
    def test_square_maximal_ideal(self):
        soc = ideal("x1^2, x1*x2, x2^2").socle_monomials()
        assert soc == {1: (Monomial((1, 0)), Monomial((0, 1)))}

    def test_maximal_ideal(self):
        soc = ideal("x1, x2, x3").socle_monomials()
        assert soc == {0: (Monomial((0, 0, 0)),)}

    def test_complete_intersection_corner(self):
        soc = ideal("x1^3, x2^5").socle_monomials()
        assert soc == {6: (Monomial((2, 4)),)}


class TestAddMaximalPower:
    def test_power_one(self):
        assert add_maximal_power(ideal("x1^2, x1*x2, x2^2"), 1) == ideal("x1, x2")

    def test_absorbed(self):
        i = ideal("x1, x2")
        assert add_maximal_power(i, 3) == i

    def test_truncates_hilbert_function(self, remark_ideal_234):
        h = remark_ideal_234.hilbert_function()
        rho = h.rho
        truncated = add_maximal_power(remark_ideal_234, rho)
        ht = truncated.hilbert_function()
        assert ht.values == h.values[:rho] + (0,)


class TestPurePowerProfile:
    def test_residual_profile(self):
        i = ideal("x1^3, x1^2*x2^3, x1*x2^4, x2^6")
        assert i.pure_power_profile() == (3, 6)
        assert profile_degrees(i) == DegreeList((3, 6))

    def test_three_variables(self, remark_ideal_234):
        assert remark_ideal_234.pure_power_profile() == (2, 3, 4)

    def test_unit_ideal(self):
        u = MonomialIdeal(3, (unit_monomial(3),))
        assert u.pure_power_profile() == (0, 0, 0)

    def test_missing_power(self):
        assert ideal("x1^2, x1*x2").pure_power_profile() == (2, None)


class TestTextFormats:
    def test_human_round_trip(self, remark_ideal_234):
        assert parse_ideal(format_ideal(remark_ideal_234)) == remark_ideal_234

    def test_json_round_trip(self, remark_ideal_234):
        blob = json.dumps(ideal_to_json_dict(remark_ideal_234))
        assert parse_ideal(blob) == remark_ideal_234

    def test_exponent_one_elided(self):
        assert format_monomial(Monomial((1, 0, 2))) == "x1*x3^2"
        assert parse_monomial("x1*x3^2", 3) == Monomial((1, 0, 2))

    def test_unit_monomial(self):
        u = MonomialIdeal(2, (unit_monomial(2),))
        assert format_ideal(u) == "1"
        assert parse_ideal("1", n=2) == u
        assert ideal_from_json_dict(ideal_to_json_dict(u)) == u

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_monomial("y2", 2)
        with pytest.raises(ValueError):
            parse_ideal('{"n": 2, "gens": "nope"}')


# (text, n, error type, message): each parse error, as the parser words it
PARSE_ERRORS = [
    ("x1^2, y3", None, ValueError, "bad monomial factor 'y3'"),
    ("x1**x2", None, ValueError, "bad monomial factor ''"),
    ("x1^2, x0", None, ValueError, "variable x0: variables are numbered from x1"),
    ("x1*x3", 2, ValueError, "variable x3 out of range for n=2"),
    ("x5*y", 2, ValueError, "variable x5 out of range for n=2"),  # the first factor decides
    ("y, z", None, ValueError, "cannot infer variable count from 'y, z'"),
    ("1", None, ValueError, "cannot infer variable count from '1'"),
    ("y, x2", None, ValueError, "bad monomial factor 'y'"),  # n is inferred before any token
    ("1, x0", None, ValueError, "monomial needs at least one variable"),  # n = 0 from x0
    (" , ", 2, ValueError, "no generators in ','"),
    ('{"n": 2, "gens": [[1, 0.5]]}', None, ValueError,
     "bad ideal JSON object: 0.5 is not an integer"),
    ('{"n": 2, "gens": [[1, -1]]}', None, ValueError, "negative exponent in (1, -1)"),
    ('{"n": 2, "gens": [[1, -1, 0]]}', None, ValueError, "negative exponent in (1, -1, 0)"),
    # a negative exponent is refused before any length, in input order
    ('{"n": 2, "gens": [[1, 0, 0], [1, -1]]}', None, ValueError, "negative exponent in (1, -1)"),
    ('{"n": 2, "gens": [[1, 0, 0]]}', None, DimensionError,
     "generator with wrong variable count for 2 variables"),
    ('{"n": 2, "gens": [[]]}', None, ValueError, "monomial needs at least one variable"),
    ('{"n": 0, "gens": [[1]]}', None, ValueError, "need at least one variable"),
    ('{"n": 2, "gens": []}', None, ValueError, "zero ideal is not representable here"),
    # a string of generators reads as one-letter generators
    ('{"n": 2, "gens": "nope"}', None, ValueError, 'bad ideal JSON object: "n" is not an integer'),
    ('{"n": 2}', None, ValueError, "bad ideal JSON object: 'gens'"),
]


class TestParser:
    @pytest.mark.parametrize("text, n, error, message", PARSE_ERRORS)
    def test_error_messages(self, text, n, error, message):
        with pytest.raises(error) as exc:
            parse_ideal(text, n)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, n, gens",
        [
            ("1", 2, ((0, 0),)),
            ("1, x2", None, ((0, 0),)),
            ("x1*x1^2, x2", None, ((3, 0), (0, 1))),
            ("x2^2 * x1, x1^0*x2^3, x1^02", None, ((2, 0), (1, 2), (0, 3))),
            ("x1, x1^2, x1, , x2", None, ((1, 0), (0, 1))),
            ("x1", 3, ((1, 0, 0),)),
        ],
    )
    def test_generators(self, text, n, gens):
        assert parse_ideal(text, n)._corners() == gens

    @pytest.mark.parametrize("text, n", [("x1*x1^2", 2), ("1", 3), ("x2 * x1^4", 2)])
    def test_one_monomial(self, text, n):
        assert parse_monomial(text, n).exps == parse_ideal(text, n)._corners()[0]

    def test_json_dict_takes_lists(self):
        i = ideal_from_json_dict({"n": 2, "gens": [[2, 0], [1, 1], [3, 0], [0, 2]]})
        assert i._corners() == ((2, 0), (1, 1), (0, 2))


def test_minimalize_equals_the_all_pairs_oracle():
    rng = random.Random(20050508)
    for _ in range(400):
        n = rng.randint(1, 4)
        top = rng.randint(0, 4)
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 14))]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        if rng.random() < 0.1:
            gens.append((0,) * n)  # the unit monomial
        want = minimalize_by_all_pairs(gens)
        assert minimalize(n, gens)._corners() == want, gens
        assert minimalize(n, map(Monomial, gens))._corners() == want, gens
        built = MonomialIdeal(n, gens)
        assert built._corners() == want, gens
        # before any read, so no row starts decide ==
        assert built == minimalize(n, gens) and hash(built) == hash(minimalize(n, gens)), gens


small_exps = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_exps, min_size=1, max_size=6))
def test_minimalize_preserves_membership(exp_lists):
    gens = [Monomial(e) for e in exp_lists]
    i = minimalize(3, gens)
    probes = list(monomials_of_degree(3, 3)) + list(monomials_of_degree(3, 5))
    for m in probes:
        raw = any(divides(g, m) for g in gens)
        assert raw == contains(i, m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(small_exps, min_size=1, max_size=4),
    st.lists(small_exps, min_size=1, max_size=3),
)
def test_colon_membership_characterization(j_exps, i_exps):
    j = minimalize(3, [Monomial(e) for e in j_exps] + [pure_power(3, k, 5) for k in range(3)])
    i = minimalize(3, [Monomial(e) for e in i_exps])
    q = colon(j, i)
    for d in range(0, 6):
        for m in monomials_of_degree(3, d):
            expected = all(contains(j, times(m, g)) for g in i.gens)
            assert contains(q, m) == expected
