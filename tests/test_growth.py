import math

import pytest

from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    ci_hilbert_function,
    classical_bound,
    classical_expansion,
    codim_from_monomial,
    gk_coefficients,
    gk_expansion,
    is_lpp_sequence,
    lpp_bound,
    monomial_from_codim,
)
from lppkit.growth import standard_monomials_of_degree
from lppkit.monomials import minimalize, monomials_of_degree

from conftest import all_degree_lists
from oracles import lpp_bound_oracle


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
    return sum(1 for m in monomials_of_degree(n, d + 1) if not i.contains(m))


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


A_3_4_11 = DegreeList((3, 4, 11))


class TestGKExpansion:
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


class TestIsLppSequence:
    def test_known_valid_sequences(self):
        assert is_lpp_sequence(HilbertFunction.from_string("1 3 5 1"), DegreeList((2, 3, 4)))
        assert is_lpp_sequence(HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4)))
        assert is_lpp_sequence(
            HilbertFunction.from_string("1 3 6 10 13 10 5 3"), DegreeList((4, 4, 6))
        )

    def test_embedding_dimension_exceeded(self):
        assert not is_lpp_sequence(HilbertFunction.from_string("1 4 1"), DegreeList((2, 2, 2)))

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
