"""Acceptance criteria, one test per criterion, exact integer arithmetic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Failures that would amount to a counterexample in the sweep
criteria additionally write a reproducible witness file.
"""

import itertools
import pathlib

from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    betti_diagram,
    ci_hilbert_function,
    classical_bound,
    classical_expansion,
    codim_from_monomial,
    colon,
    decompose,
    dual,
    enumerate_ideals,
    format_ideal,
    gk_coefficients,
    growth_check,
    hf_of_vector,
    ideal_of_vector,
    last_betti_consequences,
    lpp_bound,
    lpp_dominance_check,
    mapping_cone_check,
    parse_ideal,
    parse_vector,
    residual_lpp_check,
    socle_dims,
    socle_equivalence_check,
    stanley_check,
    stats,
    valid_hilbert_functions,
    vector_of_hf,
)
from lppkit.growth import standard_monomials_of_degree
from lppkit.vectors import enumerate_vectors

from oracles import lpp_bound_oracle

from conftest import all_degree_lists


def _report(num: int, text: str):
    print(f"criterion {num:02d} PASS: {text}")


def test_c01_classical_macaulay_expansion_and_bound():
    e = classical_expansion(32, 3)
    assert e.terms == ((6, 3), (5, 2), (2, 1))
    assert e.bound() == 58
    assert classical_bound(32, 3) == 58
    _report(1, "32 = C(6,3)+C(5,2)+C(2,1), bound 58")


def test_c02_greene_kleitman_rows_for_3_4_11():
    assert gk_coefficients([10], 11) == [1] * 11 + [0]
    assert gk_coefficients([10, 3], 14) == [1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4, 3, 2, 1, 0]
    assert gk_coefficients([10, 3, 2], 16) == [
        1, 3, 6, 9, 11, 12, 12, 12, 12, 12, 12, 11, 9, 6, 3, 1, 0,
    ]
    _report(2, "all three coefficient rows for degrees 3,4,11 reproduced")


def test_c03_generalized_bounds_match_oracle():
    a = DegreeList((3, 4, 11))
    assert lpp_bound(10, 4, a) == 10 == lpp_bound_oracle(10, 4, a)
    assert lpp_bound(7, 12, a) == 4 == lpp_bound_oracle(7, 12, a)
    # exhaustive agreement: n <= 3, entries <= 6, d <= 10
    for deg_list in all_degree_lists(3, 6):
        ci = ci_hilbert_function(deg_list)
        for d in range(1, 11):
            for h in range(0, ci.at(d) + 1):
                assert lpp_bound(h, d, deg_list) == lpp_bound_oracle(h, d, deg_list), (
                    deg_list, d, h,
                )
    _report(3, "bounds 10 and 4 match the direct construction; exhaustive agreement")


def test_c04_degree_12_codimension_table():
    a = DegreeList((3, 4, 11))
    table = [
        ((2, 3, 7), 8), ((2, 2, 8), 7), ((2, 1, 9), 6), ((2, 0, 10), 5),
        ((1, 3, 8), 4), ((1, 2, 9), 3), ((1, 1, 10), 2), ((0, 3, 9), 1),
        ((0, 2, 10), 0),
    ]
    std = standard_monomials_of_degree(a, 12)
    assert len(std) == 9 == len(table)
    assert [m.exps for m in std] == [exps for exps, _ in table]
    for exps, h in table:
        assert codim_from_monomial(Monomial(exps), a) == h
    _report(4, "all 9 degree-12 codimensions regenerated, 8 down to 0")


def test_c05_bijection_worked_example():
    a = DegreeList((4, 4, 6))
    h = HilbertFunction.from_string("1 3 6 10 13 10 5 3")
    t = parse_vector("[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]", 3)
    assert vector_of_hf(h, a) == t
    assert hf_of_vector(t) == h
    s1, s1p, _ = decompose(h, a)
    assert str(s1) == "1 3 6 9 6 2 1 0"
    assert str(s1p) == "1 2 3 4 4 4 3 2 0"
    _report(5, "1 3 6 10 13 10 5 3 0 maps to the nested vector and back; split exact")


def test_c06_exhaustive_bijection_round_trip():
    count = 0
    for a in all_degree_lists(3, 4):
        for t in enumerate_vectors(a):
            h = hf_of_vector(t)
            assert vector_of_hf(h, a) == t, (a, t)
            count += 1
    assert count > 300
    _report(6, f"round trip on all {count} valid vectors, n <= 3, entries <= 4")


def test_c07_residual_theorem():
    a57 = DegreeList((5, 7))
    w = ideal_of_vector(parse_vector("[1,3,4,7,7]", 2), a57)
    residual = colon(a57.powers_ideal(), w)
    assert format_ideal(residual) == "x1^3, x1^2*x2^3, x1*x2^4, x2^6"
    assert residual == ideal_of_vector(parse_vector("[3,4,6]", 2), a57)
    count = 0
    for a in all_degree_lists(3, 4):
        powers = a.powers_ideal()
        for t in enumerate_vectors(a):
            d = dual(t, a)
            assert colon(powers, ideal_of_vector(t, a)) == ideal_of_vector(d, a), (a, t)
            assert dual(d, a) == t, (a, t)
            count += 1
    _report(7, f"colon(powers, W) = W(dual) and involution on all {count} vectors")


def test_c08_alpha_sigma_duality_identity():
    checked = 0
    for a in all_degree_lists(3, 4):
        target = a.sigma_ci
        for t in enumerate_vectors(a):
            st = stats(t, a)
            dt = stats(dual(t, a), a)
            # alpha(empty) = sigma(empty) = 0; each equality is asserted
            # whenever its alpha side is finite (the complete intersection
            # has infinite alpha and empty dual)
            if not st.is_ci:
                assert st.alpha + dt.sigma == target, (a, t)
                checked += 1
            if not dt.is_ci:
                assert st.sigma + dt.alpha == target, (a, t)
                checked += 1
    assert checked > 600
    _report(8, f"alpha + dual sigma = sigma(c.i.) = sigma + dual alpha ({checked} checks)")


CORPUS_LISTS = [
    (3,), (4,),
    (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4),
    (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 2, 4),
]


def _corpus():
    for degs in CORPUS_LISTS:
        a = DegreeList(degs)
        for h in valid_hilbert_functions(a, a.sigma_ci):
            for ideal in enumerate_ideals(h, a):
                yield a, h, ideal


def test_c09_betti_stanley_socle_and_last_corner():
    by_h = {}
    count = 0
    for _a, h, ideal in _corpus():
        count += 1
        b = betti_diagram(ideal)
        assert stanley_check(h, b), format_ideal(ideal)
        soc = socle_dims(ideal)  # raises on mismatch with the monomial count
        assert soc == {d: len(ms) for d, ms in ideal.socle_monomials().items()}
        key = (ideal.n, h.values)
        if key in by_h:
            first_h, first_b = by_h[key]
            assert last_betti_consequences(first_h, first_b, b), format_ideal(ideal)
        else:
            by_h[key] = (h, b)
    assert count > 400
    _report(9, f"Stanley + socle + last-corner equalities on {count} corpus ideals")


def _sort_variables_by_profile(ideal):
    """Relabel variables so the pure-power profile is non-decreasing.

    A permutation of the variables is a ring automorphism, so Hilbert
    functions, colon ideals, and Betti numbers are unchanged.
    """
    from lppkit import MonomialIdeal

    profile = ideal.pure_power_profile()
    order = sorted(range(ideal.n), key=lambda k: profile[k])
    gens = [Monomial(tuple(g.exps[k] for k in order)) for g in ideal.gens]
    return MonomialIdeal.from_gens(ideal.n, gens)


def test_c10_mapping_cone_relation():
    rep = mapping_cone_check(parse_ideal("x1^2, x1*x2, x2^2"), DegreeList((2, 2)))
    assert rep.ok and rep.t_by_degree == {2: 2}  # 1 = 3 - 2 at j = 2
    count = 0
    for _a, _h, ideal in _corpus():
        sorted_ideal = _sort_variables_by_profile(ideal)
        profile = sorted_ideal.profile_degrees()
        rep = mapping_cone_check(sorted_ideal, profile)
        assert rep.ok and rep.minimal, format_ideal(sorted_ideal)
        count += 1
    # a few non-minimal containments exercise the 0 <= t_j <= |j| slack
    for text, degs in [
        ("x1, x2^2", (2, 2)),
        ("x1, x2, x3^2", (2, 2, 2)),
        ("x1^2, x1*x2, x2^3", (2, 4)),
    ]:
        rep = mapping_cone_check(parse_ideal(text), DegreeList(degs))
        assert rep.ok and not rep.minimal
    _report(10, f"last-column relation with t_j = multiplicities on {count} ideals")


SWEEP_LISTS = [
    degs for degs in itertools.combinations_with_replacement(range(1, 4), 3)
]


def _witness(name: str, report):
    path = pathlib.Path(f"lppkit_witness_{name}.json")
    path.write_text(report.to_json())
    return f"counterexample written to {path.resolve()}"


def test_c11_growth_and_residual_theorem_sweep():
    instances = 0
    for degs in SWEEP_LISTS:
        a = DegreeList(degs)
        r = residual_lpp_check(a)
        assert r.ok, _witness("residual", r)
        for h in valid_hilbert_functions(a, 6):
            r = growth_check(h, a)
            assert r.ok, _witness("growth", r)
            instances += 1
    assert instances > 150
    _report(11, f"growth and residual theorems hold on {instances} instances")


def test_c12_dominance_and_socle_conjecture_sweep():
    instances = 0
    vacuous = 0
    for degs in SWEEP_LISTS:
        a = DegreeList(degs)
        for h in valid_hilbert_functions(a, 6):
            r1 = lpp_dominance_check(h, a)
            assert r1.verdict != "counterexample", _witness("dominance", r1)
            r2 = socle_equivalence_check(h, a)
            assert r2.verdict != "counterexample", _witness("socle_equivalence", r2)
            assert r1.verdict == r2.verdict
            if r1.verdict == "not-valid":
                vacuous += 1
            else:
                assert r1.details["first_betti_dominance"] is True
            instances += 1
    assert instances > 150
    _report(
        12,
        f"no Betti or socle counterexamples over {instances} instances "
        f"({vacuous} without an exact-profile comparison ideal)",
    )
