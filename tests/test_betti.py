import itertools
import json

import pytest

from lppkit import (
    BettiDiagram,
    DegreeList,
    FieldSpec,
    HilbertFunction,
    MonomialIdeal,
    betti_diagram,
    last_betti_consequences,
    mapping_cone_check,
    parse_ideal,
    socle_dims,
    stanley_check,
)
from lppkit.betti import stanley_first_mismatch
from lppkit.harness import enumerate_ideals, valid_hilbert_functions
from lppkit.monomials import unit_monomial

from oracles import betti_euler_by_multidegree, taylor_euler_by_multidegree

GF2 = FieldSpec(2)


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

    def test_non_minimal_containment(self):
        rep = mapping_cone_check(ideal("x1, x2^2"), DegreeList((2, 2)))
        assert rep.ok and not rep.minimal
        assert all(0 <= t <= 2 for t in rep.t_by_degree.values())
        assert rep.t_by_degree[2] < 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            mapping_cone_check(ideal("x1^3, x2^2"), DegreeList((2, 2)))
