"""Exhaustive desk-scale checks over monomial ideals with a fixed Hilbert
function and prescribed pure powers.

The enumeration walks standard-monomial complements degree by degree with
forward-closure pruning; each check consumes the stream and produces a
CheckReport whose failures carry reproducible witnesses.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field as dc_field

from .monomials import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    _ideal_outside,
    add_maximal_power,
    colon,
    ideal_to_json_dict,
    is_lex_segment,
    is_lpp,
)
from .growth import (
    ci_hilbert_function,
    is_lpp_sequence,
    lpp_bound,
    standard_monomials_of_degree,
)
from .vectors import enumerate_vectors, format_vector, ideal_of_vector, dual, vector_of_hf
from .betti import FieldSpec, QQ, betti_diagram


DEFAULT_GUARD = 100_000
CELL_GUARD = 4096


def default_guard() -> int:
    raw = os.environ.get("LPPKIT_GUARD")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"bad LPPKIT_GUARD value {raw!r}") from None
    return DEFAULT_GUARD


@dataclass
class CheckReport:
    check: str
    instance: dict
    verdict: str  # "pass" | "counterexample" | "not-valid"
    witnesses: list[dict] = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    @classmethod
    def from_witnesses(
        cls, check: str, instance: dict, witnesses: list[dict], details: dict
    ) -> CheckReport:
        """A finished check: it passes exactly when it found no witness."""
        verdict = "counterexample" if witnesses else "pass"
        return cls(check, instance, verdict, witnesses, details)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "instance": self.instance,
                "verdict": self.verdict,
                "witnesses": self.witnesses,
                "details": self.details,
            },
            sort_keys=False,
        )


def enumerate_ideals(h: HilbertFunction, a: DegreeList, max_ideals: int | None = None):
    """Every monomial ideal containing the A-powers whose quotient attains h.

    Complements are chosen degree by degree: a standard monomial may only be
    kept if all its one-step divisors were kept.  The stream is deterministic
    (candidates lex-descending, subsets in combination order).
    """
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    if h.total > CELL_GUARD:
        raise GuardExceeded(f"{h.total} standard monomials exceeds {CELL_GUARD}")
    guard = default_guard() if max_ideals is None else max_ideals
    box_by_degree: dict[int, list[Monomial]] = {}
    for d in range(h.sigma):
        box_by_degree[d] = standard_monomials_of_degree(a, d)
    sides = tuple(deg + 1 for deg in a.degrees)
    count = 0
    chosen: dict[int, set[tuple[int, ...]]] = {}

    def emit() -> MonomialIdeal:
        return _ideal_outside(sides, itertools.chain(*chosen.values()))

    def walk(d: int):
        nonlocal count
        need = h.at(d)
        if need == 0:
            count += 1
            if count > guard:
                raise GuardExceeded(f"more than {guard} ideals; raise the guard")
            yield emit()
            return
        if d == 0:
            chosen[0] = {(0,) * a.n}
            yield from walk(1)
            del chosen[0]
            return
        prev = chosen[d - 1]
        candidates = [
            m
            for m in box_by_degree.get(d, [])
            if all(
                _step_down(m.exps, k) in prev for k in range(a.n) if m.exps[k] > 0
            )
        ]
        if len(candidates) < need:
            return
        for combo in itertools.combinations(range(len(candidates)), need):
            chosen[d] = {candidates[i].exps for i in combo}
            yield from walk(d + 1)
            del chosen[d]

    yield from walk(0)


def _step_down(exps: tuple[int, ...], k: int) -> tuple[int, ...]:
    return exps[:k] + (exps[k] - 1,) + exps[k + 1 :]


def valid_hilbert_functions(a: DegreeList, sigma_max: int) -> list[HilbertFunction]:
    """All valid sequences for A that reach zero by index sigma_max."""
    ci = ci_hilbert_function(a)
    results: list[HilbertFunction] = []

    def extend(prefix: list[int]):
        d = len(prefix) - 1
        if prefix[-1] == 0:
            results.append(HilbertFunction(tuple(prefix)))
            return
        if d >= sigma_max:
            return
        cap = ci.at(d + 1)
        if d >= 1:
            cap = min(cap, lpp_bound(prefix[d], d, a))
        for v in range(cap, -1, -1):
            extend(prefix + [v])

    extend([1])
    return results


def lpp_ideal_for(h: HilbertFunction, a: DegreeList) -> MonomialIdeal | None:
    """The lex-plus-powers ideal attaining h with powers exactly A, if any.

    Built through the vector correspondence; returns None when the vector
    route yields an ideal whose pure powers are smaller than A (then no ideal
    with minimal generators x_i^{a_i} attains h).
    """
    vec = vector_of_hf(h, a)
    ideal = ideal_of_vector(vec, a)
    if ideal.pure_power_profile() != a.degrees:
        return None
    return ideal


def growth_check(
    h: HilbertFunction, a: DegreeList, max_ideals: int | None = None
) -> CheckReport:
    """Growth bound holds for every enumerated ideal (a theorem here; any
    failure means an implementation bug).  Re-verifies each ideal's Hilbert
    function on the way."""
    instance = {"A": list(a.degrees), "H": str(h)}
    witnesses = []
    count = 0
    violations = None  # of h itself; every ideal with Hilbert function h shares them
    for ideal in enumerate_ideals(h, a, max_ideals):
        count += 1
        actual = ideal.hilbert_function()
        if actual != h:
            witnesses.append(
                {
                    "reason": "enumeration emitted an ideal with the wrong Hilbert function",
                    "ideal": ideal_to_json_dict(ideal),
                    "hf": str(actual),
                }
            )
            continue
        if violations is None:
            violations = _growth_violations(h, a)
        witnesses.extend(
            {"reason": reason, "ideal": ideal_to_json_dict(ideal), **extra}
            for reason, extra in violations
        )
    return CheckReport.from_witnesses("growth", instance, witnesses, {"ideals": count})


def _growth_violations(h: HilbertFunction, a: DegreeList) -> list[tuple[str, dict]]:
    """The degree-1 ceiling and the growth bound at each degree, checked on h;
    h must have passed the enumeration's validity check, so that every bound
    is defined."""
    out: list[tuple[str, dict]] = []
    if h.at(1) > ci_hilbert_function(a).at(1):
        out.append(("degree-1 value exceeds the embedding bound", {}))
    for d in range(1, h.sigma):
        bound = lpp_bound(h.at(d), d, a)
        if h.at(d + 1) > bound:
            out.append(
                (
                    f"growth bound violated at degree {d}",
                    {"bound": bound, "value": h.at(d + 1)},
                )
            )
    return out


def lpp_dominance_check(
    h: HilbertFunction,
    a: DegreeList,
    f: FieldSpec = QQ,
    max_ideals: int | None = None,
) -> CheckReport:
    """Betti dominance of the lex-plus-powers ideal over the enumerated class."""
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    lpp = lpp_ideal_for(h, a)
    if lpp is None:
        return CheckReport("lpp-dominance", instance, "not-valid", [], {})
    b_lpp = betti_diagram(lpp, f)
    witnesses = []
    count = 0
    first_betti_ok = True
    for ideal in enumerate_ideals(h, a, max_ideals):
        count += 1
        b = betti_diagram(ideal, f)
        violation = b_lpp.first_violation(b)
        if violation is not None:
            i, j = violation
            if i == 1:
                first_betti_ok = False
            witnesses.append(
                {
                    "reason": f"beta_({i},{j}) exceeds the lex-plus-powers value",
                    "ideal": ideal_to_json_dict(ideal),
                    "lpp": ideal_to_json_dict(lpp),
                    "beta_lpp": b_lpp.beta(i, j),
                    "beta_ideal": b.beta(i, j),
                }
            )
    details = {"ideals": count, "first_betti_dominance": first_betti_ok}
    return CheckReport.from_witnesses("lpp-dominance", instance, witnesses, details)


def residual_lpp_check(a: DegreeList) -> CheckReport:
    """Residuals of vector ideals inside the pure powers are again vector
    ideals: colon(powers, W_T) = W_(T*), duality is an involution, and the
    residual is lex-plus-powers for its own profile."""
    instance = {"A": list(a.degrees)}
    powers = a.powers_ideal()
    witnesses = []
    count = 0
    for vec in enumerate_vectors(a):
        count += 1
        ideal = ideal_of_vector(vec, a)
        dual_vec = dual(vec, a)
        expected = ideal_of_vector(dual_vec, a)
        actual = colon(powers, ideal)
        if actual != expected:
            witnesses.append(
                {
                    "reason": "colon differs from the dual vector's ideal",
                    "vector": format_vector(vec),
                    "colon": ideal_to_json_dict(actual),
                    "dual_ideal": ideal_to_json_dict(expected),
                }
            )
            continue
        if dual(dual_vec, a) != vec:
            witnesses.append(
                {"reason": "duality is not an involution", "vector": format_vector(vec)}
            )
            continue
        if not actual.is_unit:
            prof = actual.pure_power_profile()
            if any(p is None for p in prof) or list(prof) != sorted(prof):
                witnesses.append(
                    {
                        "reason": "residual profile is not non-decreasing",
                        "vector": format_vector(vec),
                        "profile": list(prof),
                    }
                )
                continue
            if not is_lpp(actual, DegreeList(tuple(prof))):
                witnesses.append(
                    {
                        "reason": "residual is not lex-plus-powers for its profile",
                        "vector": format_vector(vec),
                        "residual": ideal_to_json_dict(actual),
                    }
                )
    return CheckReport.from_witnesses(
        "residual-lpp", instance, witnesses, {"vectors": count}
    )


def lexseg_lemma_check(a: DegreeList) -> CheckReport:
    """Where the residual's pure-power degree drops below A's, the residual's
    graded piece at that degree is a lex segment."""
    instance = {"A": list(a.degrees)}
    powers = a.powers_ideal()
    witnesses = []
    count = 0
    for vec in enumerate_vectors(a):
        ideal = ideal_of_vector(vec, a)
        if ideal.pure_power_profile() != a.degrees:
            continue  # lemma is about ideals with powers exactly A
        count += 1
        residual = colon(powers, ideal)
        prof = residual.pure_power_profile()
        if residual.is_unit:
            continue
        for s, (ap, orig) in enumerate(zip(prof, a.degrees)):
            if ap is not None and ap < orig and not is_lex_segment(residual, ap):
                witnesses.append(
                    {
                        "reason": f"degree-{ap} piece of the residual is not a lex segment",
                        "vector": format_vector(vec),
                        "residual": ideal_to_json_dict(residual),
                        "position": s + 1,
                    }
                )
    return CheckReport.from_witnesses(
        "lexseg", instance, witnesses, {"lpp_ideals": count}
    )


def socle_equivalence_check(
    h: HilbertFunction,
    a: DegreeList,
    f: FieldSpec = QQ,
    max_ideals: int | None = None,
) -> CheckReport:
    """Socle dominance of the lex-plus-powers ideal, the single-degree variant
    at regularity, and truncation consistency of the last column."""
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    lpp = lpp_ideal_for(h, a)
    if lpp is None:
        return CheckReport("socle-equivalence", instance, "not-valid", [], {})
    n = a.n
    rho = h.rho
    b_lpp = betti_diagram(lpp, f)
    witnesses = []
    count = 0
    for ideal in enumerate_ideals(h, a, max_ideals):
        count += 1
        b = betti_diagram(ideal, f)
        for j in {jj for (i, jj) in set(b.entries) | set(b_lpp.entries) if i == n}:
            if b_lpp.beta(n, j) < b.beta(n, j):
                witnesses.append(
                    {
                        "reason": f"socle dominance fails at beta_({n},{j})",
                        "ideal": ideal_to_json_dict(ideal),
                        "beta_lpp": b_lpp.beta(n, j),
                        "beta_ideal": b.beta(n, j),
                    }
                )
        j_last = rho + n - 1
        if b_lpp.beta(n, j_last) < b.beta(n, j_last):
            witnesses.append(
                {
                    "reason": f"dominance fails at the regularity degree beta_({n},{j_last})",
                    "ideal": ideal_to_json_dict(ideal),
                }
            )
        if b_lpp.beta(n, rho + n) != b.beta(n, rho + n):
            witnesses.append(
                {
                    "reason": "last-corner Betti numbers differ despite equal Hilbert functions",
                    "ideal": ideal_to_json_dict(ideal),
                    "beta_lpp": b_lpp.beta(n, rho + n),
                    "beta_ideal": b.beta(n, rho + n),
                }
            )
        if rho >= 1:
            truncated = add_maximal_power(ideal, rho)
            b_tr = betti_diagram(truncated, f)
            for j in range(rho + n - 1):
                if b.beta(n, j) != b_tr.beta(n, j):
                    witnesses.append(
                        {
                            "reason": f"truncation changed beta_({n},{j}) below the last two rows",
                            "ideal": ideal_to_json_dict(ideal),
                        }
                    )
    return CheckReport.from_witnesses(
        "socle-equivalence", instance, witnesses, {"ideals": count}
    )
