import hashlib
import itertools
import json
import re
from collections import Counter

import pytest

from lppkit import (
    BettiDiagram,
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    ci_hilbert_function,
    colon,
    enumerate_ideals,
    growth_check,
    is_lex_segment,
    lexseg_lemma_check,
    lpp_bound,
    lpp_dominance_check,
    residual_lpp_check,
    socle_equivalence_check,
    valid_hilbert_functions,
)
from lppkit import harness
from lppkit.betti import FieldSpec
from lppkit.growth import standard_monomials_of_degree
from lppkit.harness import lpp_ideal_for
from lppkit.vectors import INF, MISSING, Leaf, Node, _enumerate, format_vector, ideal_of_vector, parse_vector

from conftest import all_degree_lists, short_sequences
from oracles import (
    contains,
    direct_lpp_ideal,
    generator_orbit_key,
    is_lpp_sequence_with_ceiling,
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
                assert contains(i, Monomial(tuple(exps)))
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

    @pytest.mark.parametrize("guard", [0, -1])
    def test_guard_below_one_is_refused(self, guard, monkeypatch):
        a = DegreeList((2, 3, 4))
        h = HilbertFunction.from_string("1 3 5 3 1")
        with pytest.raises(ValueError, match="guard must be at least 1"):
            list(enumerate_ideals(h, a, max_ideals=guard))
        monkeypatch.setenv("LPPKIT_GUARD", str(guard))
        with pytest.raises(ValueError, match="guard must be at least 1"):
            growth_check(h, a)


class TestValidHilbertFunctions:
    def test_the_sequences_the_ceiling_rule_accepts_in_descending_order(self):
        for a in all_degree_lists(3, 3):
            valid = [s for s in short_sequences(a) if is_lpp_sequence_with_ceiling(s, a)]
            valid.sort(key=lambda s: s.values, reverse=True)
            for sigma_max in (2, a.sigma_ci):
                want = [s for s in valid if s.sigma <= sigma_max]
                assert valid_hilbert_functions(a, sigma_max) == want, (a, sigma_max)

    def test_huge_powers_read_only_the_columns_the_bound_needs(self, rectangle_widths):
        hs = valid_hilbert_functions(DegreeList((300000,) * 3), 2)
        assert [str(h) for h in hs] == ["1 3 0", "1 2 0", "1 1 0", "1 0"]
        assert max(rectangle_widths) <= 4


class TestLppIdealConstruction:
    def test_vector_route_matches_direct_route(self):
        small = [DegreeList(d) for d in ((2, 3, 4), (2, 2, 3), (3, 3))]
        cases = [(a, valid_hilbert_functions(a, 6)) for a in small]
        # every valid h of the two sweep boxes
        sweeps = [DegreeList((3, 3, 4)), DegreeList((2, 2, 3, 3))]
        cases += [(a, valid_hilbert_functions(a, a.sigma_ci + 1)) for a in sweeps]
        assert [len(hs) for _, hs in cases[3:]] == [189, 194]
        for a, hs in cases:
            for h in hs:
                assert lpp_ideal_for(h, a) == direct_lpp_ideal(h, a), (a, str(h))

    def test_not_valid_when_profile_drops(self):
        # H(1) = 2 forces a linear generator, so no ideal with minimal pure
        # powers (3,3,3) attains it
        a = DegreeList((3, 3, 3))
        h = HilbertFunction.from_string("1 2 2 1")
        assert lpp_ideal_for(h, a) is None
        for check in (lpp_dominance_check, socle_equivalence_check):
            r = check(h, a)
            assert (r.verdict, r.witnesses, r.details) == ("not-valid", [], {}), check


class TestGrowthCheck:
    def test_worked_instance(self):
        r = growth_check(HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4)))
        assert r.ok and r.details["ideals"] == 14

    def test_complete_intersection_instance(self):
        a = DegreeList((2, 2, 2))
        r = growth_check(ci_hilbert_function(a), a)
        assert r.ok and r.details["ideals"] == 1

    @pytest.mark.parametrize("hf", ["1 4", "1 2 4"])
    def test_an_h_that_breaks_a_bound_is_refused(self, hf):
        a = DegreeList((2, 3, 4))
        assert lpp_bound(2, 1, a) == 3
        with pytest.raises(ValueError, match="is not a valid sequence for A="):
            growth_check(HilbertFunction.from_string(hf), a)


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


# sha256 of a check's reports over every valid h, one JSON per line
SWEEP_DIGESTS = {
    ("lpp", (3, 3, 4), 0): "5403626673e7db3e7995d28cd192bc262a65bb3d88df820b4fcd0577896db38d",
    ("lpp", (3, 3, 4), 2): "a553e8c8cfd0c6e3134ed1f05bc119d74b531b24aec06f374687f0091854de1a",
    ("lpp", (2, 2, 3, 3), 0): "6697c3cdf23e876493a6ef077920d41fd4ffec2138b9a4a636f45ecfa76d3ae6",
    ("lpp", (2, 2, 3, 3), 2): "1707bf242d8292cf795099d770a33c332fa7b82942d6428e529a0c662f595431",
    ("socle", (3, 3, 4), 0): "47e227ccd7bf7408832b9e318983e036a26ce6a6d7c870d07aa8452677f20938",
    ("socle", (3, 3, 4), 2): "50ae289228bb357f3b573b3c835d1f1f15f4e8dbe578ad94f0ce0d72aca0021b",
    ("socle", (2, 2, 3, 3), 0): "60f1a910cb2bc54d1a222a7d2db85f2d3ca1b7190b64c64c4d35fddcc956174f",
    ("socle", (2, 2, 3, 3), 2): "2122b8179f11e5c2a25edbeac0b6eb52d300fe791fb4e4c659760d6b51b064b0",
}
SWEEP_CHECKS = {"lpp": lpp_dominance_check, "socle": socle_equivalence_check}


def _sweep_id(key) -> str:
    name, degrees, char = key
    # an lpp sweep is named by its degrees and characteristic alone, so its id is stable
    return f"{degrees}-{char}" if name == "lpp" else f"{name}-{degrees}-{char}"


@pytest.mark.parametrize(
    "name, degrees, char", [pytest.param(*k, id=_sweep_id(k)) for k in sorted(SWEEP_DIGESTS)]
)
def test_whole_dominance_sweep_reports_are_pinned(name, degrees, char):
    a = DegreeList(degrees)
    text = "\n".join(
        SWEEP_CHECKS[name](h, a, FieldSpec(char)).to_json()
        for h in valid_hilbert_functions(a, sum(degrees))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[name, degrees, char]


# sha256 of growth_check's reports over every valid h, one JSON per line
GROWTH_DIGESTS = {
    (3, 3, 4): "0c11644090a6b59c1e9cb6d6066dac48d10a7be6c80374561eb9e2e52a5a432a",
    (2, 2, 3, 3): "ad49877535d18c33e3b7f3ceaa295bb2f92d14097ddd24ff5bc2e2e3d353a62e",
}


@pytest.mark.parametrize("degrees", sorted(GROWTH_DIGESTS), ids=str)
def test_whole_growth_sweep_reports_are_pinned(degrees):
    a = DegreeList(degrees)
    text = "\n".join(
        growth_check(h, a).to_json() for h in valid_hilbert_functions(a, sum(degrees))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GROWTH_DIGESTS[degrees]


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


# sha256 of to_json() of the residual and lex-segment reports, as the
# recursive vector routines gave them before the checks read the table
RESIDUAL_DIGESTS = {
    (3, 4, 5): "86e89d2d90714a6bc6cfa7f0d41ce0c0d8ed57092d1bd58698ea9747911d3958",
    (2, 2, 3, 3): "4a9cd83d649151d8da77b4e8a0a965ce387795e6401154aede547d818ff64cbc",
    (3, 3, 4): "eea59c223ed30e3ecf192738279a19e373c75ffc6a18fe47d5153780a32eca8f",
    (2, 3, 3): "f59d9e58c69d4115d56d7dbef4c52679a522873399d2e76c7a265c56a693bc64",
    (5, 7): "4f5040fc82b1c4fc0a3ebf15112ad39531427e0508c58ca23734eaaa295cbba0",
}
LEXSEG_DIGESTS = {
    (3, 4, 5): "6fee4061b82a895381e90ca3c238cb8a459bf3a1f86e4c67daacc1232a22d5d8",
    (2, 2, 3, 3): "6a1722dd712211398d184ba7903ff5470db756a14db18e0f28420c190f80a935",
    (3, 3, 4): "98d37c8df18c0581b7e15c8979e0341a07f9c8e85f4c251f80998ea1a3961664",
    (2, 3, 3): "44e009c983523f96ab447a4e17e2e47ac9c264590cf64d6e3bb046262e4273a0",
    (5, 7): "24dfb2373fe6a0b433120cad81b2f93f9512fa88a48c4c52e609c93f8e400ca7",
}


def patch_table(monkeypatch, a: DegreeList, **entries):
    """Have the checks read a copy of A's vector table with ``entries``
    replaced."""
    table = _enumerate(a.degrees, INF)._replace(**entries)
    monkeypatch.setattr(harness, "_enumerate", lambda degrees, guard: table)


class TestResidualTable:
    """The residual and lex-segment checks read the vector table, and still
    compare something the table does not hold: the colon."""

    @pytest.mark.parametrize("degrees", list(RESIDUAL_DIGESTS), ids=str)
    def test_reports_are_pinned(self, degrees):
        a = DegreeList(degrees)
        for check, digests in ((residual_lpp_check, RESIDUAL_DIGESTS), (lexseg_lemma_check, LEXSEG_DIGESTS)):
            assert hashlib.sha256(check(a).to_json().encode()).hexdigest() == digests[degrees]

    def test_a_moved_residual_row_is_a_witness(self, monkeypatch):
        a = DegreeList((2, 3, 3))
        calls = Counter()

        def moved(sides, degrees, i):
            residual = reflect(sides, degrees, i)
            calls["colon"] += 1
            if calls["colon"] > 1:
                return residual
            sides, starts = residual._row_starts()
            return harness._ideal_of_rows(a.n, sides, (starts[0] + 1,) + starts[1:])

        reflect = harness._colon_of_powers
        monkeypatch.setattr(harness, "_colon_of_powers", moved)
        r = residual_lpp_check(a)
        first = format_vector(_enumerate(a.degrees, INF).vectors[0])
        assert [(w["reason"], w["vector"]) for w in r.witnesses] == [
            ("colon differs from the dual vector's ideal", first)
        ]

    def test_a_corrupt_dual_index_is_a_witness(self, monkeypatch):
        a = DegreeList((2, 3, 3))
        duals = list(_enumerate(a.degrees, INF).duals)
        i = next(k for k, j in enumerate(duals) if j not in (None, k))
        true = duals[i]
        duals[i] = next(k for k in range(len(duals)) if k not in (true, i))
        patch_table(monkeypatch, a, duals=tuple(duals))
        r = residual_lpp_check(a)
        assert Counter(w["reason"] for w in r.witnesses) == {
            "colon differs from the dual vector's ideal": 1,
            "duality is not an involution": 1,
        }

    def test_a_dual_missing_from_the_table_is_refused(self, monkeypatch):
        a = DegreeList((2, 3, 3))
        duals = _enumerate(a.degrees, INF).duals
        patch_table(monkeypatch, a, duals=(MISSING,) + duals[1:])
        with pytest.raises(ValueError, match="is not enumerated for A="):
            residual_lpp_check(a)
        # an invalid dual is refused with the error of ideal_of_vector
        bad = Node((Leaf(1),))
        monkeypatch.setattr(harness, "_dual", lambda t, degrees: bad)
        with pytest.raises(ValueError) as expected:
            ideal_of_vector(bad, a)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            residual_lpp_check(a)

    def test_a_decreasing_residual_profile_is_a_witness(self, monkeypatch):
        # every profile is read reversed: the residual of [[1]] reads (3, 3, 2)
        a = DegreeList((2, 3, 3))
        read = MonomialIdeal.pure_power_profile
        monkeypatch.setattr(MonomialIdeal, "pure_power_profile", lambda i: read(i)[::-1])
        r = residual_lpp_check(a)
        reason = "residual profile is not non-decreasing"
        assert r.witnesses[0] == {"reason": reason, "vector": "[[1]]", "profile": [3, 3, 2]}
        assert Counter(w["reason"] for w in r.witnesses) == {reason: 36}

    def test_a_residual_not_lex_plus_powers_is_a_witness(self, monkeypatch):
        a = DegreeList((2, 3, 3))
        monkeypatch.setattr(harness, "_lex_above_powers", lambda i, caps: False)
        r = residual_lpp_check(a)
        # every residual but the unit ideal, the complete intersection's
        assert Counter(w["reason"] for w in r.witnesses) == {
            "residual is not lex-plus-powers for its profile": r.details["vectors"] - 1
        }

    def test_a_residual_piece_not_a_lex_segment_is_a_witness(self, monkeypatch):
        monkeypatch.setattr(harness, "is_lex_segment", lambda i, d: False)
        r = lexseg_lemma_check(DegreeList((2, 3)))
        assert [(w["reason"], w["vector"], w["position"]) for w in r.witnesses] == [
            ("degree-1 piece of the residual is not a lex segment", "[1,3]", 1),
            ("degree-2 piece of the residual is not a lex segment", "[1,3]", 2),
            ("degree-1 piece of the residual is not a lex segment", "[2,3]", 1),
            ("degree-1 piece of the residual is not a lex segment", "[2,3]", 2),
        ]

    @pytest.mark.parametrize("check", [residual_lpp_check, lexseg_lemma_check])
    def test_the_ideal_guard_counts_vectors(self, check, monkeypatch):
        a = DegreeList((3, 4, 5))  # 1193 vectors
        monkeypatch.delenv("LPPKIT_GUARD", raising=False)
        assert check(a).ok  # its table is now cached
        monkeypatch.setenv("LPPKIT_GUARD", "1192")
        with pytest.raises(GuardExceeded, match="more than 1192 vectors"):
            check(a)
        monkeypatch.setenv("LPPKIT_GUARD", "1193")
        assert check(a).ok
        # 364,920 vectors: refused before the table is built
        monkeypatch.delenv("LPPKIT_GUARD")
        with pytest.raises(GuardExceeded, match="more than 100000 vectors"):
            check(DegreeList((4, 4, 4, 4)))


class TestSocleEquivalenceCheck:
    def test_worked_instance(self):
        h = HilbertFunction.from_string("1 3 5 3 1")
        r = socle_equivalence_check(h, DegreeList((2, 3, 4)))
        assert r.ok and r.details["ideals"] == 14

    def test_singleton_class(self):
        a = DegreeList((2, 2, 2))
        assert socle_equivalence_check(ci_hilbert_function(a), a).ok

    def test_a_differing_last_corner_is_a_witness(self, monkeypatch):
        # L_h's diagram, the first one computed, gets one more last-corner entry
        h, a = HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4))
        corner = (a.n, h.rho + a.n)
        compute = harness.betti_diagram
        calls = Counter()

        def bumped(ideal, f):
            b = compute(ideal, f)
            calls["betti"] += 1
            if calls["betti"] > 1:
                return b
            return BettiDiagram(b.n, {**b.entries, corner: b.beta(*corner) + 1})

        monkeypatch.setattr(harness, "betti_diagram", bumped)
        r = socle_equivalence_check(h, a)
        assert Counter(w["reason"] for w in r.witnesses) == {
            "last-corner Betti numbers differ despite equal Hilbert functions": 14
        }
        assert {w["beta_lpp"] - w["beta_ideal"] for w in r.witnesses} == {1}

    def test_a_truncation_that_changes_beta_is_a_witness(self, monkeypatch):
        # truncating at degree 1, not at rho = 4, gives the maximal ideal,
        # whose beta_(3,3) = 1 is in no diagram of the class
        h, a = HilbertFunction.from_string("1 3 5 3 1"), DegreeList((2, 3, 4))
        truncate = harness.add_maximal_power
        monkeypatch.setattr(harness, "add_maximal_power", lambda i, t: truncate(i, 1))
        r = socle_equivalence_check(h, a)
        assert Counter(w["reason"] for w in r.witnesses) == {
            "truncation changed beta_(3,3) below the last two rows": 14,
            "truncation changed beta_(3,5) below the last two rows": 13,
        }


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

    @pytest.mark.parametrize(
        "degrees,orbits", [((3, 3, 4), 1535), ((2, 2, 3, 3), 2478), ((3, 4, 4), 10774)]
    )
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
    """The walk that keeps one ideal per orbit against the generator-tuple
    orbit key."""

    @pytest.mark.parametrize(
        "degrees",
        [
            (1, 1),
            (1, 1, 2),
            (1, 2, 2),
            (2, 2, 2),
            (2, 3, 3),
            (3, 3, 3),
            (3, 3, 4),
            (2, 2, 2, 2),
            (2, 2, 3, 3),
        ],
        ids=str,
    )
    def test_same_orbits_as_the_generator_key(self, degrees):
        a = DegreeList(degrees)
        key = generator_orbit_key(a)
        for h in valid_hilbert_functions(a, a.sigma_ci):
            orbits = Counter(key(ideal) for ideal in enumerate_ideals(h, a))
            leaves = [(key(ideal), size) for ideal, size in harness._walk(h, a, None, True)]
            # one leaf per orbit, and its size is the number of ideals there
            assert len(leaves) == len(orbits) and dict(leaves) == orbits, str(h)


class TestOrbitWalk:
    # per-h (ideals, orbits) of A = (2,2,2,3,3), whose group has 3! * 2! = 12
    # permutations, as the full walk keyed by the largest image of each
    # ideal's points counted them
    SAMPLE = {
        "1 5 12 18 18 12 5 1 0": (1, 1),
        "1 5 12 18 18 7 0": (792, 97),
        "1 5 12 18 17 6 1 0": (452, 45),
        "1 5 12 18 14 6 0": (645, 72),
        "1 5 12 18 1 0": (18, 5),
        "1 5 12 17 15 7 2 0": (15, 3),
        "1 5 12 16 12 4 0": (2637, 248),
        "1 5 12 15 13 7 2 0": (3, 1),
        "1 5 12 15 11 4 1 0": (246, 24),
        "1 5 12 14 6 2 0": (4038, 368),
        "1 5 12 13 9 1 0": (1269, 121),
        "1 5 11 15 13 7 1 0": (6, 1),
        "1 5 10 13 5 2 0": (9, 2),
        "1 5 9 2 1 0": (84, 12),
        "1 5 8 0": (495, 65),
    }

    @pytest.mark.parametrize("hf", SAMPLE)
    def test_counts_of_a_sample_of_2_2_2_3_3(self, hf):
        r = lpp_dominance_check(HilbertFunction.from_string(hf), DegreeList((2, 2, 2, 3, 3)))
        assert r.ok and (r.details["ideals"], r.details["orbits"]) == self.SAMPLE[hf]

    # sha256 of the walk's leaves with the moves of A over every valid h, one
    # (h, row starts, orbit size) per line, as a walk that tested every row
    # of the box at every degree gave them
    STREAM_DIGESTS = {
        (3, 3, 4): "25b25573965624bb5570762ea117775fbcc05111034211c7cd1a7a5c3b8b734b",
        (2, 2, 3, 3): "2e5798bb1eba510b9005a21cfff69d772c0da8baa280032a976e1f93710be652",
    }

    @pytest.mark.parametrize("degrees", sorted(STREAM_DIGESTS), ids=str)
    def test_stream_is_pinned(self, degrees):
        a = DegreeList(degrees)
        text = "\n".join(
            repr((str(h), ideal._row_starts()[1], size))
            for h in valid_hilbert_functions(a, a.sigma_ci)
            for ideal, size in harness._walk(h, a, None, True)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.STREAM_DIGESTS[degrees]

    # the same, for the full walk (no moves, every orbit of size 1)
    FULL_STREAM_DIGESTS = {
        (3, 3, 4): "9dcc50946bf8871e776b4dab449c364086edbadddc3c3ab531604e4ec057bef5",
        (2, 2, 3, 3): "51879690da4eb0c09f415ffa717d293d4f3c1125b200abdebd55c0e2b0f26975",
    }

    @pytest.mark.parametrize("degrees", sorted(FULL_STREAM_DIGESTS), ids=str)
    def test_full_stream_is_pinned(self, degrees):
        a = DegreeList(degrees)
        text = "\n".join(
            repr((str(h), ideal._row_starts()[1], size))
            for h in valid_hilbert_functions(a, a.sigma_ci)
            for ideal, size in harness._walk(h, a, None, False)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == self.FULL_STREAM_DIGESTS[degrees]

    def test_guard_counts_orbit_sizes(self):
        # 20 orbits of sizes 1, 2 and 4, 56 ideals: the guard stops the walk at
        # the first orbit that takes the count past it, before yielding it
        a, h = DegreeList((2, 2, 3, 3)), HilbertFunction.from_string("1 4 8 10 5 0")
        walk = harness._walk(h, a, None, True)
        leaves = [(ideal._row_starts()[1], size) for ideal, size in walk]
        sizes = [size for _, size in leaves]
        assert (len(leaves), sum(sizes), sorted(set(sizes))) == (20, 56, [1, 2, 4])
        yielded = {}
        for guard in range(1, 57):
            got = []
            try:
                for ideal, size in harness._walk(h, a, guard, True):
                    got.append((ideal._row_starts()[1], size))
            except GuardExceeded as exc:
                assert str(exc) == f"more than {guard} ideals; raise the guard"
                assert sum(size for _, size in leaves[: len(got) + 1]) > guard
            else:
                assert guard == 56
            assert got == leaves[: len(got)] and sum(size for _, size in got) <= guard
            yielded[guard] = len(got)
        pinned = {1: 0, 2: 1, 3: 1, 5: 2, 7: 3, 10: 4, 20: 6, 30: 10, 56: 20}
        assert {g: yielded[g] for g in pinned} == pinned
