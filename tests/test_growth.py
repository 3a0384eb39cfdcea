import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    ci_hilbert_function,
    classical_bound,
    classical_expansion,
    gk_coefficients,
    gk_expansion,
    is_lpp_sequence,
    lpp_bound,
)
from lppkit import growth
from lppkit.growth import _rows, rectangle_rows, standard_monomials_of_degree
from lppkit.monomials import minimalize

from conftest import all_degree_lists, short_sequences
from oracles import (
    codim_from_monomial,
    contains,
    gk_coefficients_by_convolution,
    is_lpp_sequence_with_ceiling,
    lpp_bound_oracle,
    monomial_from_codim,
    monomials_of_degree,
)


class TestClassicalExpansion:
    def test_32_at_3(self):
        e = classical_expansion(32, 3)
        assert e.terms == ((6, 3), (5, 2), (2, 1))
        assert e.bound() == 58

    def test_1_at_5(self):
        assert classical_expansion(1, 5).terms == ((5, 5),)

    def test_58_at_4_greedy_and_sum(self):
        e = classical_expansion(58, 4)
        assert sum(math.comb(k, t) for k, t in e.terms) == 58
        ks = [k for k, _ in e.terms]
        assert ks == sorted(ks, reverse=True) and len(set(ks)) == len(ks)

    def test_sum_recovers_h_generally(self):
        for h in range(1, 120):
            for d in (1, 2, 3, 4):
                e = classical_expansion(h, d)
                assert sum(math.comb(k, t) for k, t in e.terms) == h

    def test_bound_zero(self):
        assert classical_bound(0, 3) == 0


def lex_segment_growth(h: int, d: int, n: int) -> int:
    """Count degree-(d+1) monomials outside the lex ideal whose degree-d
    complement has exactly h monomials (no power truncation)."""
    slice_d = list(monomials_of_degree(n, d))
    assert h <= len(slice_d)
    added = slice_d[: len(slice_d) - h]
    if not added:
        return math.comb(n + d, n - 1)
    i = minimalize(n, added)
    return sum(1 for m in monomials_of_degree(n, d + 1) if not contains(i, m))


class TestClassicalBound:
    def test_known_bound_value(self):
        assert classical_bound(32, 3) == 58

    def test_lex_segment_oracle(self):
        for n in (2, 3, 4):
            for d in (1, 2, 3):
                full = math.comb(n - 1 + d, n - 1)
                for h in range(0, full + 1):
                    assert classical_bound(h, d) == lex_segment_growth(h, d, n)

    def test_agrees_with_generalized_bound_when_powers_inactive(self):
        for n in (2, 3):
            for d in (1, 2, 3):
                a = DegreeList((d + 2,) * n)
                full = ci_hilbert_function(a).at(d)
                assert full == math.comb(n - 1 + d, n - 1)
                for h in range(0, full + 1):
                    assert classical_bound(h, d) == lpp_bound(h, d, a)


class TestGKCoefficients:
    def test_row_1_1_11(self):
        assert gk_coefficients([10], 11) == [1] * 11 + [0]

    def test_row_1_4_11(self):
        assert gk_coefficients([10, 3], 14) == [1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 2, 1, 0]

    def test_row_3_4_11(self):
        expected = [1, 3, 6, 9, 11, 12, 12, 12, 12, 12, 12, 11, 9, 6, 3, 1, 0]
        assert gk_coefficients([10, 3, 2], 16) == expected

    def test_zero_entries_are_neutral(self):
        assert gk_coefficients([10, 0, 0], 11) == gk_coefficients([10], 11)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 8), max_size=5), st.integers(0, 30))
    def test_matches_the_term_by_term_convolution(self, e, upto):
        assert gk_coefficients(e, upto) == gk_coefficients_by_convolution(e, upto)

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative entry -1"):
            gk_coefficients([2, -1], 5)


class TestRectangleRows:
    """The rows are memoized per degree list at power-of-two widths, capped
    at sigma_ci + 2 columns; every caller must read the same columns as from
    a rectangle built for its own width."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=4).map(sorted),
        st.integers(0, 40),
        st.integers(0, 40),
    )
    def test_exactly_the_columns_asked_for(self, degrees, upto, before):
        a = DegreeList(tuple(degrees))
        _rows(a.degrees, before)  # a rectangle of another width is memoized first
        rows = rectangle_rows(a, upto)
        n = a.n
        assert [len(row) for row in rows] == [upto + 1] * n
        for r, row in enumerate(rows, start=1):
            e = [deg - 1 for deg in degrees[n - r :]]
            assert row == gk_coefficients_by_convolution(e, upto)

    def test_small_degree_on_a_huge_list_builds_a_narrow_rectangle(self):
        a = DegreeList((100000, 100000, 100000))
        assert [len(row) for row in _rows(a.degrees, 6)] == [8, 8, 8]
        assert gk_expansion(3, 5, a).bound() == 3

    def test_width_is_capped_past_the_last_nonzero_column(self):
        a = DegreeList((2, 3))  # sigma_ci = 4
        rows = _rows(a.degrees, 100)
        assert rows == ((1, 1, 1, 0, 0, 0), (1, 2, 2, 1, 0, 0))
        assert rectangle_rows(a, 7) == [[1, 1, 1, 0, 0, 0, 0, 0], [1, 2, 2, 1, 0, 0, 0, 0]]


A_3_4_11 = DegreeList((3, 4, 11))


class TestGKExpansion:
    def test_one_rectangle_per_expansion_and_none_kept_past_the_gate(self, rectangle_widths):
        # term_values and bound_values read the rows gk_expansion built: 3
        # rows of 1024 columns, past the 1,024 cells the cache keeps
        a = DegreeList((1000, 1000, 1000))
        e = gk_expansion(5, 600, a)
        assert sum(e.term_values()) == 5 and e.bound() == sum(e.bound_values()) == 5
        assert rectangle_widths == [1024] * 3
        assert growth._rectangle.cache_info().currsize == 0
        # 3 rows of 128 columns are kept
        assert gk_expansion(5, 100, a).bound() == 5
        assert growth._rectangle.cache_info().currsize == 1

    def test_10_at_4(self):
        e = gk_expansion(10, 4, A_3_4_11)
        assert e.terms == ((2, 4), (2, 3), (1, 2), (1, 1))
        assert e.term_values() == [4, 4, 1, 1]

    def test_7_at_12(self):
        e = gk_expansion(7, 12, A_3_4_11)
        assert e.terms == ((2, 12), (2, 11), (1, 10), (1, 9))
        assert e.term_values() == [2, 3, 1, 1]
        assert e.bound_values() == [1, 2, 0, 1]

    def test_full_codimension_single_deep_term(self):
        for d in (1, 2, 4, 7):
            full = ci_hilbert_function(A_3_4_11).at(d)
            e = gk_expansion(full, d, A_3_4_11)
            assert e.terms == ((3, d),)
            assert e.bound() == ci_hilbert_function(A_3_4_11).at(d + 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gk_expansion(0, 4, A_3_4_11)
        with pytest.raises(ValueError):
            gk_expansion(ci_hilbert_function(A_3_4_11).at(4) + 1, 4, A_3_4_11)

    def test_sum_always_recovers_h(self):
        a = DegreeList((2, 3, 4))
        for d in range(1, 7):
            for h in range(1, ci_hilbert_function(a).at(d) + 1):
                e = gk_expansion(h, d, a)
                assert sum(e.term_values()) == h


class TestLppBound:
    def test_worked_bounds(self):
        assert lpp_bound(10, 4, A_3_4_11) == 10
        assert lpp_bound(7, 12, A_3_4_11) == 4

    def test_zero(self):
        assert lpp_bound(0, 5, A_3_4_11) == 0

    def test_oracle_matches_worked_values(self):
        assert lpp_bound_oracle(10, 4, A_3_4_11) == 10
        assert lpp_bound_oracle(7, 12, A_3_4_11) == 4

    def test_oracle_full_codimension(self):
        ci = ci_hilbert_function(A_3_4_11)
        for d in (1, 3, 6):
            assert lpp_bound_oracle(ci.at(d), d, A_3_4_11) == ci.at(d + 1)

    def test_exhaustive_small(self):
        # the full n<=3, entries<=6, d<=10 sweep runs in the acceptance suite
        for a in all_degree_lists(3, 4):
            ci = ci_hilbert_function(a)
            for d in range(1, 8):
                for h in range(0, ci.at(d) + 1):
                    assert lpp_bound(h, d, a) == lpp_bound_oracle(h, d, a), (a, d, h)

    def test_memo_is_keyed_by_the_degree_list(self):
        # the same (h, d) bounds differently on two degree lists; each
        # answer, read again from a warm memo, is still its own list's
        lists = (DegreeList((2, 3, 4)), DegreeList((3, 3, 3)))
        h, d = 3, 2
        wanted = [lpp_bound_oracle(h, d, a) for a in lists]
        assert wanted == [3, 2]
        growth._lpp_bound.cache_clear()
        for _ in range(2):
            assert [lpp_bound(h, d, a) for a in lists] == wanted
        assert growth._lpp_bound.cache_info().hits == 2
        cis = [ci_hilbert_function(a) for a in lists]
        assert [str(ci) for ci in cis] == ["1 3 5 6 5 3 1 0", "1 3 6 7 6 3 1 0"]


class TestIsLppSequence:
    def test_known_valid_sequences(self):
        assert is_lpp_sequence(HilbertFunction.from_string("1 3 5 1"), DegreeList((2, 3, 4)))
        assert is_lpp_sequence(HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4)))
        assert is_lpp_sequence(
            HilbertFunction.from_string("1 3 6 10 13 10 5 3"), DegreeList((4, 4, 6))
        )

    def test_embedding_dimension_exceeded(self):
        assert not is_lpp_sequence(HilbertFunction.from_string("1 4 1"), DegreeList((2, 2, 2)))
        # a variable with a_i = 1 is not in degree 1; the growth bound is
        # never asked about a value past its range
        assert not is_lpp_sequence(HilbertFunction.from_string("1 3 1"), DegreeList((1, 2, 2)))
        assert is_lpp_sequence(HilbertFunction((1,)), DegreeList((1,) * 17))

    def test_ceiling_violation(self):
        # 1 3 6 7 is the ceiling for (3,3,3); an 8 in degree 3 is too big
        assert not is_lpp_sequence(HilbertFunction.from_string("1 3 6 8"), DegreeList((3, 3, 3)))

    def test_growth_violation(self):
        # degree-3 ceiling for (2,3,4) is 6 and 6 can grow to at most 5
        assert not is_lpp_sequence(
            HilbertFunction.from_string("1 3 5 6 6"), DegreeList((2, 3, 4))
        )
        assert is_lpp_sequence(
            HilbertFunction.from_string("1 3 5 6 5"), DegreeList((2, 3, 4))
        )

    def test_ci_itself(self):
        a = DegreeList((2, 3, 4))
        assert is_lpp_sequence(ci_hilbert_function(a), a)

    def test_the_growth_bound_stays_under_the_ceiling(self):
        # why the ceiling need not be read: from h <= CI(d) the bound is at
        # most CI(d + 1), so by induction every value is under the ceiling
        count = 0
        for a in all_degree_lists(4, 5):
            ci = ci_hilbert_function(a)
            for d in range(1, a.sigma_ci + 1):
                for h in range(1, ci.at(d) + 1):
                    assert lpp_bound(h, d, a) <= ci.at(d + 1), (a, d, h)
                    count += 1
        assert count == 8031

    def test_agrees_with_the_ceiling_rule_on_every_short_sequence(self):
        count = valid = 0
        for a in all_degree_lists(3, 3):
            for s in short_sequences(a):
                got = is_lpp_sequence(s, a)
                assert got == is_lpp_sequence_with_ceiling(s, a), (a, s)
                count += 1
                valid += got
        assert (count, valid) == (51444, 204)

    def test_reads_only_the_columns_the_bound_needs(self, rectangle_widths):
        a = DegreeList((3000000,) * 3)
        assert is_lpp_sequence(HilbertFunction.from_string("1 3 1"), a)
        assert rectangle_widths == [4] * 3


DEGREE_12_TABLE = [
    ((2, 3, 7), 8),
    ((2, 2, 8), 7),
    ((2, 1, 9), 6),
    ((2, 0, 10), 5),
    ((1, 3, 8), 4),
    ((1, 2, 9), 3),
    ((1, 1, 10), 2),
    ((0, 3, 9), 1),
    ((0, 2, 10), 0),
]


class TestCodimCorrespondence:
    def test_degree_12_table(self):
        for exps, h in DEGREE_12_TABLE:
            assert codim_from_monomial(Monomial(exps), A_3_4_11) == h

    def test_inverse_direction(self):
        for exps, h in DEGREE_12_TABLE:
            assert monomial_from_codim(h, 12, A_3_4_11) == Monomial(exps)

    def test_round_trip_everywhere(self):
        for a in (A_3_4_11, DegreeList((2, 3, 4))):
            for d in range(0, 8):
                std = standard_monomials_of_degree(a, d)
                for m in std:
                    assert monomial_from_codim(codim_from_monomial(m, a), d, a) == m

    def test_strictly_decreasing_along_lex_descent(self):
        std = standard_monomials_of_degree(A_3_4_11, 12)  # lex descending
        codims = [codim_from_monomial(m, A_3_4_11) for m in std]
        assert codims == sorted(codims, reverse=True)
        assert codims == list(range(len(std) - 1, -1, -1))

    def test_non_standard_rejected(self):
        with pytest.raises(ValueError):
            codim_from_monomial(Monomial((3, 0, 9)), A_3_4_11)
        with pytest.raises(ValueError):
            monomial_from_codim(9, 12, A_3_4_11)

    def test_expansion_depths_encode_exponents(self):
        # greedy expansion term depths group to the monomial's top exponents
        for exps, h in DEGREE_12_TABLE:
            if h == 0:
                continue
            e = gk_expansion(h, 12, A_3_4_11)
            depth_counts = {r: 0 for r in (1, 2, 3)}
            for r, _t in e.terms:
                depth_counts[r] += 1
            # row 2 terms count the x1 exponent, row 1 terms the x2 exponent,
            # except that trailing zero-valued terms are dropped by the
            # canonical form; so counts can only fall short at the last block.
            assert depth_counts[2] <= exps[0]
            assert depth_counts[1] <= exps[1]
            assert depth_counts[3] == 0
            assert sum(e.term_values()) == h
