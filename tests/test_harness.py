import itertools
import json

import pytest

from lppkit import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    Monomial,
    ci_hilbert_function,
    colon,
    enumerate_ideals,
    growth_check,
    is_lex_segment,
    lexseg_lemma_check,
    lpp_dominance_check,
    residual_lpp_check,
    socle_equivalence_check,
    valid_hilbert_functions,
)
from lppkit import harness
from lppkit.betti import FieldSpec
from lppkit.growth import standard_monomials_of_degree
from lppkit.harness import lpp_ideal_for
from lppkit.monomials import parse_ideal
from lppkit.vectors import ideal_of_vector, parse_vector

from oracles import (
    direct_lpp_ideal,
    generator_orbit_key,
    lpp_dominance_check_every_ideal,
    socle_equivalence_check_every_ideal,
    standard_monomials,
)


class TestEnumerateIdeals:
    def test_complete_intersection_is_a_singleton(self):
        a = DegreeList((2, 2, 3))
        ideals = list(enumerate_ideals(ci_hilbert_function(a), a))
        assert ideals == [a.powers_ideal()]

    def test_includes_both_lpp_ideals_for_1_3_5_3_1(
        self, remark_ideal_234, remark_ideal_233
    ):
        h = HilbertFunction.from_string("1 3 5 3 1")
        from_234 = list(enumerate_ideals(h, DegreeList((2, 3, 4))))
        assert remark_ideal_234 in from_234
        from_233 = list(enumerate_ideals(h, DegreeList((2, 3, 3))))
        assert remark_ideal_233 in from_233

    def test_every_ideal_contains_powers_and_attains_h(self):
        a = DegreeList((2, 3, 3))
        h = HilbertFunction.from_string("1 3 4 2")
        seen = set()
        for i in enumerate_ideals(h, a):
            assert i not in seen
            seen.add(i)
            for k, deg in enumerate(a.degrees):
                exps = [0, 0, 0]
                exps[k] = deg
                assert i.contains(Monomial(tuple(exps)))
            assert i.hilbert_function() == h
        assert seen

    def test_completeness_against_brute_force_n2(self):
        # every divisor-closed subset of the (3,3) box shows up exactly once
        a = DegreeList((3, 3))
        box = [
            m for d in range(5) for m in standard_monomials_of_degree(a, d)
        ]
        brute = set()
        for r in range(len(box) + 1):
            for sub in itertools.combinations(box, r):
                s = {m.exps for m in sub}
                if (0, 0) not in s:
                    continue
                if all(
                    all(
                        (e[:k] + (e[k] - 1,) + e[k + 1 :]) in s
                        for k in range(2)
                        if e[k] > 0
                    )
                    for e in s
                ):
                    brute.add(frozenset(s))
        streamed = set()
        for h in valid_hilbert_functions(a, 5):
            for i in enumerate_ideals(h, a):
                std = frozenset(
                    m.exps for ms in standard_monomials(i).values() for m in ms
                )
                assert std not in streamed
                streamed.add(std)
        assert streamed == brute

    def test_invalid_sequence_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_ideals(HilbertFunction.from_string("1 4"), DegreeList((2, 2, 2))))

    def test_guard_on_ideal_count(self):
        a = DegreeList((2, 3, 4))
        h = HilbertFunction.from_string("1 3 5 3 1")
        with pytest.raises(GuardExceeded):
            list(enumerate_ideals(h, a, max_ideals=3))

    def test_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("LPPKIT_GUARD", "2")
        a = DegreeList((2, 3, 4))
        h = HilbertFunction.from_string("1 3 5 3 1")
        with pytest.raises(GuardExceeded):
            list(enumerate_ideals(h, a))


class TestLppIdealConstruction:
    def test_vector_route_matches_direct_route(self):
        for a in (DegreeList((2, 3, 4)), DegreeList((2, 2, 3)), DegreeList((3, 3))):
            for h in valid_hilbert_functions(a, 6):
                assert lpp_ideal_for(h, a) == direct_lpp_ideal(h, a), (a, str(h))

    def test_not_valid_when_profile_drops(self):
        # H(1) = 2 forces a linear generator, so no ideal with minimal pure
        # powers (3,3,3) attains it
        a = DegreeList((3, 3, 3))
        h = HilbertFunction.from_string("1 2 2 1")
        assert lpp_ideal_for(h, a) is None
        assert lpp_dominance_check(h, a).verdict == "not-valid"


class TestGrowthCheck:
    def test_worked_instance(self):
        r = growth_check(HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4)))
        assert r.ok and r.details["ideals"] == 14

    def test_complete_intersection_instance(self):
        a = DegreeList((2, 2, 2))
        r = growth_check(ci_hilbert_function(a), a)
        assert r.ok and r.details["ideals"] == 1


class TestDominanceCheck:
    def test_lpp_dominates_class(self, remark_ideal_234):
        h = HilbertFunction.from_string("1 3 5 3 1")
        r = lpp_dominance_check(h, DegreeList((2, 3, 4)))
        assert r.ok
        assert r.details["ideals"] == 14
        assert r.details["first_betti_dominance"] is True

    def test_report_json_round_trips(self):
        h = HilbertFunction.from_string("1 3 3 1")
        r = lpp_dominance_check(h, DegreeList((2, 2, 3)))
        data = json.loads(r.to_json())
        assert data["check"] == "lpp-dominance"
        assert data["verdict"] == "pass"


class TestResidualCheck:
    def test_exhaustive_2_2_3(self):
        r = residual_lpp_check(DegreeList((2, 2, 3)))
        assert r.ok and r.details["vectors"] > 0

    def test_exhaustive_5_7(self):
        assert residual_lpp_check(DegreeList((5, 7))).ok


class TestLexsegCheck:
    def test_lpp_5_7_instance_directly(self):
        a = DegreeList((5, 7))
        w = ideal_of_vector(parse_vector("[1,3,4,7,7]", 2), a)
        residual = colon(a.powers_ideal(), w)
        assert residual.pure_power_profile() == (3, 6)
        assert is_lex_segment(residual, 3)
        assert is_lex_segment(residual, 6)

    def test_sweep_n2_up_to_6(self):
        for a1 in range(1, 7):
            for a2 in range(a1, 7):
                assert lexseg_lemma_check(DegreeList((a1, a2))).ok

    def test_no_drop_is_vacuous(self):
        r = lexseg_lemma_check(DegreeList((2, 2)))
        assert r.ok


class TestSocleEquivalenceCheck:
    def test_worked_instance(self):
        h = HilbertFunction.from_string("1 3 5 3 1")
        r = socle_equivalence_check(h, DegreeList((2, 3, 4)))
        assert r.ok and r.details["ideals"] == 14

    def test_singleton_class(self):
        a = DegreeList((2, 2, 2))
        assert socle_equivalence_check(ci_hilbert_function(a), a).ok


ORBIT_CASES = [((3, 3, 4), 0), ((2, 2, 3, 3), 0), ((2, 3, 3), 2)]
CHECKS = [
    (lpp_dominance_check, lpp_dominance_check_every_ideal),
    (socle_equivalence_check, socle_equivalence_check_every_ideal),
]


def _without_orbits(report) -> str:
    report.details.pop("orbits", None)
    return report.to_json()


class TestOrbitMemo:
    """The dominance and socle checks compute one Betti diagram per orbit of
    the permutations of equal-degree variables; their reports must equal
    those of the checks that compute one per ideal."""

    @pytest.mark.parametrize("degrees,char", ORBIT_CASES, ids=str)
    @pytest.mark.parametrize("check,oracle", CHECKS, ids=["lpp", "socle"])
    def test_same_reports_as_one_diagram_per_ideal(self, degrees, char, check, oracle):
        a, f = DegreeList(degrees), FieldSpec(char)
        for h in valid_hilbert_functions(a, a.sigma_ci):
            assert _without_orbits(check(h, a, f)) == oracle(h, a, f).to_json(), str(h)

    @pytest.mark.parametrize("degrees,char", ORBIT_CASES, ids=str)
    @pytest.mark.parametrize("check,oracle", CHECKS, ids=["lpp", "socle"])
    def test_same_witnesses_against_a_non_lpp_comparator(
        self, degrees, char, check, oracle, monkeypatch
    ):
        # comparing with the first ideal of the class instead of the LPP
        # ideal makes witnesses appear, so their content and order count
        monkeypatch.setattr(
            harness, "lpp_ideal_for", lambda h, a: next(enumerate_ideals(h, a))
        )
        a, f = DegreeList(degrees), FieldSpec(char)
        witnesses = 0
        for h in valid_hilbert_functions(a, a.sigma_ci):
            expected = oracle(h, a, f)
            assert _without_orbits(check(h, a, f)) == expected.to_json(), str(h)
            witnesses += len(expected.witnesses)
        assert witnesses > 0

    @pytest.mark.parametrize("degrees,orbits", [((3, 3, 4), 1535), ((2, 2, 3, 3), 2478)])
    def test_orbit_count_of_the_non_vacuous_sweep(self, degrees, orbits):
        a = DegreeList(degrees)
        reports = [lpp_dominance_check(h, a) for h in valid_hilbert_functions(a, a.sigma_ci)]
        assert sum(r.details.get("orbits", 0) for r in reports) == orbits

    def test_distinct_degrees_have_singleton_orbits(self):
        a = DegreeList((2, 3, 4))
        for h in valid_hilbert_functions(a, a.sigma_ci):
            for check in (lpp_dominance_check, socle_equivalence_check):
                details = check(h, a).details
                assert details.get("orbits") == details.get("ideals"), str(h)

    def test_diagrams_go_through_the_module_global(self, monkeypatch):
        # perfbench traces Betti by rebinding harness.betti_diagram
        calls = []
        original = harness.betti_diagram

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(harness, "betti_diagram", counting)
        a = DegreeList((3, 3, 4))
        r = lpp_dominance_check(HilbertFunction.from_string("1 3 6 8 7 4 1"), a)
        assert r.ok and r.details["orbits"] < r.details["ideals"]
        assert len(calls) == r.details["orbits"] + 1


class TestOrbitKey:
    """The row-start key of the orbit memo against the generator-tuple key."""

    @pytest.mark.parametrize(
        "degrees",
        [(1, 1, 2), (2, 2, 2), (3, 3, 3), (3, 3, 4), (2, 2, 2, 2), (2, 2, 3, 3)],
        ids=str,
    )
    def test_same_orbits_as_the_generator_key(self, degrees):
        a = DegreeList(degrees)
        key, oracle = harness._orbit_key(a), generator_orbit_key(a)
        pairs = {
            (key(ideal), oracle(ideal))
            for h in valid_hilbert_functions(a, a.sigma_ci)
            for ideal in enumerate_ideals(h, a)
        }
        # the pairs match the orbits of one key one-to-one with the other's
        assert len({k for k, _ in pairs}) == len(pairs) == len({o for _, o in pairs})

    def test_row_starts_in_another_box_are_refused(self):
        a = DegreeList((2, 2, 3))
        key = harness._orbit_key(a)
        assert key(a.powers_ideal()) == key(next(enumerate_ideals(ci_hilbert_function(a), a)))
        with pytest.raises(ValueError, match="box"):
            key(parse_ideal("x1, x2^2, x3^3"))
