import hashlib
import itertools

import pytest

from lppkit import (
    DegreeList,
    EMPTY,
    HilbertFunction,
    Leaf,
    Node,
    ci_hilbert_function,
    ci_vector,
    colon,
    decompose,
    dual,
    enumerate_vectors,
    format_ideal,
    format_vector,
    hf_of_vector,
    ideal_of_vector,
    is_lpp,
    is_lpp_sequence,
    minimalize,
    parse_vector,
    stats,
    validate,
    vector_of_hf,
)
from lppkit.growth import gk_coefficients, lpp_bound
from lppkit.harness import valid_hilbert_functions
from lppkit import GuardExceeded
from lppkit.vectors import INF, _dual, _enumerate, _measure, _starts

from conftest import all_degree_lists
from oracles import (
    containment_chain_check,
    contains,
    is_unit,
    monomials_of_degree,
    sequence_alpha,
    sequence_sigma,
    tail,
)

A446 = DegreeList((4, 4, 6))
A46 = DegreeList((4, 6))
A57 = DegreeList((5, 7))

RUNNING = parse_vector("[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]", 3)


class TestValidate:
    def test_running_example_valid(self):
        assert validate(RUNNING, A446)

    def test_shifted_window_also_valid(self):
        t = parse_vector("[[1,3,4],[2,3,6,6],[5,6,6,6],[6,6,6,6]]", 3)
        assert validate(t, A446)

    def test_five_children_invalid_for_every_degree_list(self):
        t = parse_vector("[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6],[6,6,6,6]]", 3)
        for degs in itertools.combinations_with_replacement(range(1, 9), 3):
            assert not validate(t, DegreeList(degs)), degs

    def test_leaf_bounds(self):
        assert validate(Leaf(3), DegreeList((3,)))
        assert not validate(Leaf(4), DegreeList((3,)))
        assert not validate(Leaf(0), DegreeList((3,)))

    def test_window_dependence_on_tail_degrees(self):
        # valid for tail (5,6) but not for tail (4,7)
        t3 = parse_vector("[2,3,6,6]", 2)
        assert validate(t3, DegreeList((5, 6)))
        assert not validate(t3, DegreeList((4, 7)))

    def test_diagnostics_name_first_failure(self):
        # sigma of (1,3) is 3, alpha of (1,2,4) is its length 3: not strictly below
        v = validate(parse_vector("[[1,3],[1,2,4]]", 3), A446)
        assert not v and "sigma" in v.reason
        v = validate(parse_vector("[1,2,3,4,5]", 2), DegreeList((4, 6)))
        assert not v and "length" in v.reason

    def test_arity_mismatch(self):
        assert not validate(Leaf(2), A46)
        assert not validate(Node((Leaf(2),)), DegreeList((3,)))


    @pytest.mark.parametrize("degrees", [(3, 4, 5), (2, 2, 3, 3)], ids=str)
    def test_every_enumerated_vector_is_valid(self, degrees):
        # the residual and lex-segment checks rely on it and do not re-check
        a = DegreeList(degrees)
        vectors = enumerate_vectors(a)
        assert vectors and all(validate(t, a) for t in vectors)


class TestStats:
    def test_child_sigma_alpha_values(self):
        t1, t2, t3, t4 = RUNNING.children
        assert stats(t1, A46).sigma == 2
        assert stats(t2, A46).alpha == 3
        assert stats(t2, A46).sigma == 4
        assert stats(t3, A46).alpha == 5
        assert stats(t3, A46).sigma == 7
        assert stats(t4, A46).alpha == 8
        assert stats(t4, A46).sigma == 8

    def test_whole_vector(self):
        st = stats(RUNNING, A446)
        assert (st.length, st.sigma, st.alpha, st.is_ci) == (4, 8, 5, False)

    def test_complete_intersection_stats(self):
        for a in (DegreeList((3,)), DegreeList((2, 2)), DegreeList((2, 3, 4))):
            st = stats(ci_vector(a), a)
            assert st.is_ci and st.alpha == INF
            assert st.sigma == a.sigma_ci

    def test_alpha_at_most_sigma_unless_ci(self):
        for a in all_degree_lists(3, 3):
            for t in enumerate_vectors(a):
                st = stats(t, a)
                if not st.is_ci:
                    assert st.alpha <= st.sigma

    def test_empty_convention(self):
        st = stats(EMPTY, A446)
        assert (st.length, st.sigma, st.alpha) == (0, 0, 0)


class TestCiVector:
    def test_leaf(self):
        assert ci_vector(DegreeList((3,))) == Leaf(3)

    def test_two_variables(self):
        assert ci_vector(DegreeList((2, 2))) == Node((Leaf(2), Leaf(2)))

    def test_ideal_is_pure_powers(self):
        a = DegreeList((2, 3, 4))
        assert ideal_of_vector(ci_vector(a), a) == a.powers_ideal()


class TestIdealOfVector:
    def test_lpp_5_7(self):
        w = ideal_of_vector(parse_vector("[1,3,4,7,7]", 2), A57)
        assert format_ideal(w) == "x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7"

    def test_lpp_5_6(self):
        w = ideal_of_vector(parse_vector("[3,5,6,6,6]", 2), DegreeList((5, 6)))
        assert format_ideal(w) == "x1^5, x1^4*x2^3, x1^3*x2^5, x2^6"

    def test_empty_gives_unit(self):
        assert is_unit(ideal_of_vector(EMPTY, A57))

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            ideal_of_vector(parse_vector("[1,2,3]", 2), DegreeList((2, 6)))

    def test_result_is_lpp_with_profile_below_a(self):
        for a in (DegreeList((2, 3)), DegreeList((2, 2, 3))):
            for t in enumerate_vectors(a):
                w = ideal_of_vector(t, a)
                prof = w.pure_power_profile()
                assert all(p <= ai for p, ai in zip(prof, a.degrees))
                assert list(prof) == sorted(prof)
                assert is_lpp(w, DegreeList(tuple(prof)))


class TestHfOfVector:
    def test_running_example(self):
        assert str(hf_of_vector(RUNNING)) == "1 3 6 10 13 10 5 3 0"

    def test_leaf_run_of_ones(self):
        assert hf_of_vector(Leaf(4)).values == (1, 1, 1, 1, 0)

    def test_two_variable_example(self):
        assert str(hf_of_vector(parse_vector("[1,3,4]", 2))) == "1 2 3 2 0"

    def test_matches_ideal_hilbert_function_exhaustively(self):
        for a in (DegreeList((3, 4)), DegreeList((2, 2, 3))):
            for t in enumerate_vectors(a):
                assert hf_of_vector(t) == ideal_of_vector(t, a).hilbert_function()


class TestDecompose:
    def test_worked_example(self):
        h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
        s1, s1p, cut = decompose(h, A446)
        assert str(s1) == "1 3 6 9 6 2 1 0"
        assert str(s1p) == "1 2 3 4 4 4 3 2 0"
        assert cut == 7

    def test_e_row_is_the_coefficient_row(self):
        # the subtracted row for S(1)=3 over (4,4,6) is built from degrees 6,4
        assert gk_coefficients([5, 3], 9) == [1, 2, 3, 4, 4, 4, 3, 2, 1, 0]

    def test_recomposition_identity(self):
        for a, text in [
            (A446, "1 3 6 10 13 10 5 3"),
            (DegreeList((2, 3, 4)), "1 3 5 3 1"),
            (DegreeList((3, 3)), "1 2 2 1"),
        ]:
            s = HilbertFunction.from_string(text)
            s1, s1p, _ = decompose(s, a)
            assert is_lpp_sequence(s1, a)
            assert is_lpp_sequence(s1p, a)
            for i in range(s.sigma + 2):
                assert s.at(i) == s1p.at(i) + s1.at(i - 1)

    def test_ci_decomposition_has_finite_alpha_head(self):
        a = DegreeList((2, 2, 2))
        s1, _s1p, _ = decompose(ci_hilbert_function(a), a)
        assert sequence_alpha(s1, a) < INF

    def test_requires_two_independent_forms(self):
        with pytest.raises(ValueError):
            decompose(HilbertFunction.from_string("1 1 1"), DegreeList((3, 3)))


class TestVectorOfHf:
    def test_worked_example(self):
        h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
        assert vector_of_hf(h, A446) == RUNNING

    def test_two_variable_piece(self):
        h = HilbertFunction.from_string("1 2 3 4 4 4 3 2")
        assert format_vector(vector_of_hf(h, A46)) == "[5,6,6,6]"

    def test_ci_maps_to_ci_vector(self):
        # (1100, 1100) splits 1100 times at its first level, one loop deep
        for degrees in ((2, 2), (2, 3, 4), (4,), (1100, 1100)):
            a = DegreeList(degrees)
            assert vector_of_hf(ci_hilbert_function(a), a) == ci_vector(a), degrees

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            vector_of_hf(HilbertFunction.from_string("1 4 1"), DegreeList((2, 2, 2)))

    def test_bijection_spot_check(self):
        for a in (DegreeList((3, 3)), DegreeList((2, 2, 2))):
            for t in enumerate_vectors(a):
                assert vector_of_hf(hf_of_vector(t), a) == t

    # the number of valid h of each degree list (ROADMAP item 1's corpus)
    VALID_COUNTS = {
        (3, 3, 4): 189,
        (2, 2, 3, 3): 194,
        (3, 4, 4): 449,
        (2, 3, 3, 3): 570,
        (2, 2, 2, 3, 3): 1528,
        (2, 2, 2, 2, 2, 2): 552,
        (3, 4, 5): 1193,
    }

    @pytest.mark.parametrize("degrees", list(VALID_COUNTS), ids=str)
    def test_bijection_is_a_set_equality(self, degrees):
        a = DegreeList(degrees)
        of_vectors = [hf_of_vector(t) for t in enumerate_vectors(a)]
        hs = valid_hilbert_functions(a, a.sigma_ci + 1)
        count = self.VALID_COUNTS[degrees]
        assert len(set(of_vectors)) == len(of_vectors) == count
        assert len(set(hs)) == len(hs) == count
        assert set(of_vectors) == set(hs)
        # every valid h is 0 at sigma_ci, so the benchmark's list is the same
        assert valid_hilbert_functions(a, a.sigma_ci) == hs


class TestSequenceStats:
    def test_running_example_values(self):
        h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
        # ceiling for (4,4,6) at degree 4 is 13 = H(4); first drop is at 5
        assert ci_hilbert_function(A446).at(4) == 13
        assert sequence_alpha(h, A446) == 5
        assert sequence_sigma(h) == 8

    def test_ci_sequence(self):
        a = DegreeList((2, 3, 4))
        h = ci_hilbert_function(a)
        assert sequence_alpha(h, a) == INF
        assert sequence_sigma(h) == a.sigma_ci == 7

    def test_alpha_drops_after_decomposition(self):
        h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
        s1, _, _ = decompose(h, A446)
        assert sequence_alpha(s1, A446) < sequence_alpha(h, A446)

    def test_matches_vector_stats(self):
        for a in all_degree_lists(2, 4):
            for t in enumerate_vectors(a):
                st = stats(t, a)
                h = hf_of_vector(t)
                assert sequence_sigma(h) == st.sigma
                assert sequence_alpha(h, a) == st.alpha


class TestDual:
    def test_lpp_5_7_residual_vector(self):
        assert format_vector(dual(parse_vector("[1,3,4,7,7]", 2), A57)) == "[3,4,6]"

    def test_ci_dualizes_to_empty(self):
        for a in (DegreeList((3,)), A57, DegreeList((2, 3, 4))):
            assert dual(ci_vector(a), a) == EMPTY
            assert dual(EMPTY, a) == ci_vector(a)

    def test_involution_and_colon_match_exhaustively(self):
        a = DegreeList((2, 3, 4))
        powers = a.powers_ideal()
        for t in enumerate_vectors(a):
            d = dual(t, a)
            assert dual(d, a) == t
            assert colon(powers, ideal_of_vector(t, a)) == ideal_of_vector(d, a)

    def test_a_plus_s_identity(self):
        for a in all_degree_lists(3, 3):
            target = a.sigma_ci
            for t in enumerate_vectors(a):
                st = stats(t, a)
                dt = stats(dual(t, a), a)
                if not st.is_ci:
                    assert st.alpha + dt.sigma == target
                if not dt.is_ci:
                    assert st.sigma + dt.alpha == target

    def test_sigma_alpha_exchange(self):
        # sigma(S) < alpha(T) forces sigma(T*) < alpha(S*); needs T* nonempty,
        # i.e. T not the complete intersection
        for a in (DegreeList((2, 3)), DegreeList((2, 2, 2))):
            vecs = enumerate_vectors(a)
            checked = 0
            for s, t in itertools.product(vecs, vecs):
                if stats(t, a).is_ci:
                    continue
                if stats(s, a).sigma < stats(t, a).alpha:
                    assert stats(dual(t, a), a).sigma < stats(dual(s, a), a).alpha
                    checked += 1
            assert checked > 0


class TestContainmentChain:
    def test_running_example(self):
        assert containment_chain_check(RUNNING, A446)

    def test_ci_vector_allows_equal_tail(self):
        assert containment_chain_check(ci_vector(DegreeList((2, 3, 4))), DegreeList((2, 3, 4)))

    def test_exhaustive_small(self):
        for a in (DegreeList((2, 2, 3)), DegreeList((3, 3))):
            for t in enumerate_vectors(a):
                assert containment_chain_check(t, a)


class TestChildStatsInequalities:
    def test_alpha_of_vector_at_most_alpha_of_last_child(self):
        for a in all_degree_lists(3, 3):
            if a.n == 1:
                continue
            for t in enumerate_vectors(a):
                if not isinstance(t, Node):
                    continue
                st = stats(t, a)
                last = stats(t.children[-1], tail(a))
                assert st.alpha <= last.alpha

    def test_sigma_window_over_children(self):
        for a in all_degree_lists(3, 3):
            if a.n == 1:
                continue
            for t in enumerate_vectors(a):
                if not isinstance(t, Node):
                    continue
                st = stats(t, a)
                u = len(t.children)
                for j in range(u):
                    child = stats(t.children[u - 1 - j], tail(a))
                    assert st.sigma - j >= child.sigma


class TestTextFormat:
    def test_round_trip(self):
        for text, n in [
            ("[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]", 3),
            ("[1,3,4,7,7]", 2),
            ("[]", 2),
            ("3", 1),
        ]:
            assert format_vector(parse_vector(text, n)) == text

    def test_flattened_singletons_accepted(self):
        assert parse_vector("[3]", 2) == Node((Leaf(3),))
        assert parse_vector("[[3]]", 3) == Node((Node((Leaf(3),)),))
        assert parse_vector("[3]", 1) == Leaf(3)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_vector("[1, oops]", 2)
        with pytest.raises(ValueError):
            parse_vector('["x"]', 2)

    @pytest.mark.parametrize(
        "text, n, message",
        [
            ("true", 1, "expected an integer leaf in 'true', got True"),
            ("true", 2, "bad vector element True in 'true'"),
            ("[true, 3]", 2, "expected an integer leaf in '[true, 3]', got True"),
            ("[false]", 1, "expected an integer leaf in '[false]', got [False]"),
            ("[false]", 2, "expected an integer leaf in '[false]', got False"),
        ],
    )
    def test_booleans_are_not_integers(self, text, n, message):
        with pytest.raises(ValueError) as exc:
            parse_vector(text, n)
        assert str(exc.value) == message


class TestLppIdealSequenceInvariants:
    def test_lpp_ideal_hilbert_functions_are_valid_sequences(self):
        for a in (DegreeList((2, 3)), DegreeList((2, 2, 3)), DegreeList((3, 4))):
            for t in enumerate_vectors(a):
                w = ideal_of_vector(t, a)
                h = w.hilbert_function()
                assert is_lpp_sequence(h, a)
                assert is_lpp_sequence(h, DegreeList(tuple(w.pure_power_profile())))

    def test_degree_slice_growth_attains_the_bound(self):
        # powers plus the whole degree-d piece of an exact-profile ideal grow
        # to exactly the generalized bound
        for a in (DegreeList((2, 3)), DegreeList((2, 2, 3)), DegreeList((2, 3, 4))):
            for t in enumerate_vectors(a):
                w = ideal_of_vector(t, a)
                if w.pure_power_profile() != a.degrees:
                    continue
                h = w.hilbert_function()
                for d in range(1, h.sigma):
                    slice_gens = [
                        m for m in monomials_of_degree(a.n, d) if contains(w, m)
                    ]
                    truncated = minimalize(
                        a.n, list(a.powers_ideal().gens) + slice_gens
                    )
                    grown = truncated.hilbert_function().at(d + 1)
                    assert grown == lpp_bound(h.at(d), d, a), (a, t, d)

    def test_alpha_drops_whenever_first_value_is_full(self):
        from lppkit.harness import valid_hilbert_functions

        for a in (DegreeList((2, 2, 2)), DegreeList((2, 3, 3)), DegreeList((3, 3))):
            for h in valid_hilbert_functions(a, 6):
                if h.at(1) != a.n or h.at(1) < 2:
                    continue
                s1, _, _ = decompose(h, a)
                assert sequence_alpha(s1, a) < sequence_alpha(h, a), (a, str(h))


TABLE_DEGREES = [a.degrees for a in all_degree_lists(3, 4)] + [(3, 4, 5), (2, 2, 3, 3), (2, 2, 2, 2)]

# sha256 of the format_vector stream of enumerate_vectors, as the recursive
# enumeration gave it: one line per degree list of all_degree_lists(3, 4),
# and one vector per line for the others
VECTOR_STREAM_DIGESTS = {
    "all(3, 4)": "2c3ac1de402593d29e29ae4f32ef071d47658ec6f1c0259281c9d57b9cf54ab7",
    (3, 4, 5): "827292031c68c2718b73125685f2a6d78f9d94d190b22ee20842a415e473a3f3",
    (2, 2, 3, 3): "e3d51d126986d8a3d7f57b2e6bd578255ed78efbf970c491ab790aeee9f63951",
    (2, 2, 2, 2): "9018f2a6a03c0274a210fa9d680436090b0aba43fe3392e42fda5f18962ea162",
}


class TestVectorTable:
    """``_enumerate`` builds each vector's row starts, statistics and dual
    index from its children's entries; the recursive routines build them
    from the vector alone."""

    @pytest.mark.parametrize("degrees", TABLE_DEGREES, ids=str)
    def test_entries_agree_with_the_recursion(self, degrees):
        vecs, starts, table_stats, duals = _enumerate(degrees, INF)
        assert len(vecs) == len(starts) == len(table_stats) == len(duals)
        for v, rows, st, j in zip(vecs, starts, table_stats, duals):
            assert rows == tuple(_starts(v, degrees))
            assert st == _measure(v, degrees)[0]
            assert (EMPTY if j is None else vecs[j]) == _dual(v, degrees)

    @pytest.mark.parametrize("key", list(VECTOR_STREAM_DIGESTS), ids=str)
    def test_enumeration_order_is_pinned(self, key):
        if key == "all(3, 4)":
            text = "\n".join(
                f"{a.degrees}: " + " ".join(map(format_vector, enumerate_vectors(a)))
                for a in all_degree_lists(3, 4)
            )
        else:
            text = "\n".join(map(format_vector, enumerate_vectors(DegreeList(key))))
        assert hashlib.sha256(text.encode()).hexdigest() == VECTOR_STREAM_DIGESTS[key]

    @pytest.mark.parametrize("degrees, count", [((3, 4, 5), 1193), ((2, 2, 3, 3), 194)])
    def test_guard_bounds_the_vectors_held(self, degrees, count):
        assert len(_enumerate(degrees, count).vectors) == count
        with pytest.raises(GuardExceeded, match=f"more than {count - 1} vectors"):
            _enumerate(degrees, count - 1)
        # the table of a tail is refused too: it is never larger
        with pytest.raises(GuardExceeded, match="more than 2 vectors"):
            _enumerate((3,), 2)
