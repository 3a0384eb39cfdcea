"""Exhaustive desk-scale checks over monomial ideals with a fixed Hilbert
function and prescribed pure powers.

The enumeration grows the standard monomials degree by degree as the row
starts of the box, keeping a monomial only when its divisors are kept; each
check consumes the stream and produces a CheckReport whose failures carry
reproducible witnesses.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .monomials import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    MonomialIdeal,
    _ideal_of_rows,
    _lex_above_powers,
    _row_strides,
    add_maximal_power,
    colon,
    ideal_to_json_dict,
    is_lex_segment,
)
from .growth import ci_hilbert_function, is_lpp_sequence, lpp_bound
from .vectors import (
    _dual,
    _ideal,
    enumerate_vectors,
    format_vector,
    ideal_of_vector,
    vector_of_hf,
)
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


def _ideal_guard(max_ideals: int | None) -> int:
    """The ideal guard: ``max_ideals``, or :func:`default_guard` when it is
    None.  Raises ValueError when it is below 1."""
    guard = default_guard() if max_ideals is None else max_ideals
    if guard < 1:
        raise ValueError(f"the ideal guard must be at least 1, not {guard}")
    return guard


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

    The complement is grown degree by degree as row starts of the box
    prod [0, a_k] (see :meth:`MonomialIdeal._row_starts`): the standard
    monomial of degree d in row p is (p, c) with c = d - |p|, and it may be
    kept only if c < a_n, the row has kept exactly c points, and each row
    p - e_k one step below has kept more than c.  The stream is deterministic
    (candidate rows lex-descending, subsets in combination order).
    """
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    if h.total > CELL_GUARD:
        raise GuardExceeded(f"{h.total} standard monomials exceeds {CELL_GUARD}")
    guard = _ideal_guard(max_ideals)
    sides = tuple(deg + 1 for deg in a.degrees)
    strides = _row_strides(sides)
    last = a.degrees[-1]
    # the rows that can hold standard monomials, lex-descending, as
    # (row index, |p|, indices of the rows one step below)
    rows = []
    for prefix in itertools.product(*(range(e - 1, -1, -1) for e in a.degrees[:-1])):
        r = sum(p * s for p, s in zip(prefix, strides))
        rows.append((r, sum(prefix), [r - s for p, s in zip(prefix, strides) if p]))
    starts = [0] * math.prod(sides[:-1])
    count = 0

    def walk(d: int):
        nonlocal count
        need = h.at(d)
        if need == 0:
            count += 1
            if count > guard:
                raise GuardExceeded(f"more than {guard} ideals; raise the guard")
            yield _ideal_of_rows(a.n, sides, starts)
            return
        candidates = []
        for r, d0, below in rows:
            c = d - d0
            if c < last and starts[r] == c and all(starts[q] > c for q in below):
                candidates.append(r)
        for combo in itertools.combinations(candidates, need):
            for r in combo:
                starts[r] += 1
            yield from walk(d + 1)
            for r in combo:
                starts[r] -= 1

    yield from walk(0)


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
    """Every enumerated ideal has Hilbert function h.

    Each ideal is read from the row starts it was built from
    (:func:`_starts_attain`).  Only an ideal whose starts fail is re-derived
    from its generators, and it is a witness when that Hilbert function is
    not h either.  An h that breaks the degree-1 ceiling or the growth bound
    fails first, in :func:`enumerate_ideals` (ValueError)."""
    instance = {"A": list(a.degrees), "H": str(h)}
    witnesses = []
    count = 0
    for ideal in enumerate_ideals(h, a, max_ideals):
        count += 1
        if _starts_attain(ideal, h):
            continue
        actual = MonomialIdeal(ideal.n, ideal._corners()).hilbert_function()
        if actual != h:
            witnesses.append(
                {
                    "reason": "enumeration emitted an ideal with the wrong Hilbert function",
                    "ideal": ideal_to_json_dict(ideal),
                    "hf": str(actual),
                }
            )
    return CheckReport.from_witnesses("growth", instance, witnesses, {"ideals": count})


def _starts_attain(ideal: MonomialIdeal, h: HilbertFunction) -> bool:
    """Are the ideal's row starts those of the ideal its generators span, and
    is the Hilbert function read from them h?

    They are when row 0 starts inside the box and no row starts after a row
    one step below it along a prefix axis.  Then the ideal its generators
    span has these starts, so True means that ideal has Hilbert function h.
    Raises NotArtinianError as :meth:`MonomialIdeal.hilbert_function` does."""
    sides, starts = ideal._row_starts()
    lower, upper = _row_steps(sides)
    get = starts.__getitem__
    return (
        starts[0] < sides[-1]
        and all(map(operator.ge, map(get, lower), map(get, upper)))
        and ideal.hilbert_function() == h
    )


# one key per box: 1 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _row_steps(sides: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Every pair of rows one step apart along a prefix axis of the box
    prod [0, sides_k), as two parallel lists: the lower row, the upper row."""
    strides = _row_strides(sides)
    lower, upper = [], []
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        for p, stride in zip(prefix, strides):
            if p:
                lower.append(r - stride)
                upper.append(r)
    return lower, upper


# one key per degree list: 1 in a sweep-betti pass
@lru_cache(maxsize=32)
def _orbit_moves(degrees: tuple[int, ...]):
    """The permutations of variables of equal degree in A, as getters on the
    cells of the box prod [0, a_k): ``(runs, inner, moves)``.

    The ideals that contain the powers of A differ only in their standard
    monomials, which lie in that box: the first a_n points of each inner row,
    a row of prod [0, a_k) over the prefix coordinates.  ``inner`` picks the
    starts of the inner rows, in row order, out of the row starts in the box
    prod [0, a_k].  ``moves`` holds one getter per permutation, the identity
    included, all built by one loop over the cells:

    - x_n alone in its degree: the permutations fix x_n, so they permute
      whole rows.  A cell is an inner row, ``runs`` is empty, and a move
      reads the permuted inner rows straight out of the row starts.
    - x_n shares its degree: a cell is a point.  ``runs[s]`` holds the a_n
      membership flags of a row that starts at s, and a move permutes the
      flags of the inner rows, laid end to end in row order.
    """
    last = degrees[-1]
    row_strides = _row_strides(tuple(deg + 1 for deg in degrees))
    rows = itertools.product(*(range(deg) for deg in degrees[:-1]))
    inner = _getter([sum(map(operator.mul, prefix, row_strides)) for prefix in rows])
    if degrees.count(last) > 1:
        shape, strides = degrees, _row_strides(degrees + (1,))
        runs = [(0,) * s + (1,) * (last - s) for s in range(last + 1)]
    else:
        shape, strides, runs = degrees[:-1], row_strides, []
    blocks = [list(b) for _, b in itertools.groupby(range(len(shape)), key=shape.__getitem__)]
    cells = list(itertools.product(*(range(side) for side in shape)))
    moves = []
    for perm in itertools.product(*map(itertools.permutations, blocks)):
        perm = list(itertools.chain.from_iterable(perm))
        moves.append(
            _getter([sum(cell[k] * stride for k, stride in zip(perm, strides)) for cell in cells])
        )
    return runs, inner, moves


def _getter(indices: list[int]):
    """``operator.itemgetter(*indices)``, giving a tuple also for one index."""
    get = operator.itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


def _orbit_key(a: DegreeList):
    """``key(ideal)``, the same on exactly the ideals of one orbit of the
    permutations of variables of equal degree in A: the largest image of the
    ideal's cells under the moves of :func:`_orbit_moves`.  The ideal must
    contain the powers of A and have its row starts in the box
    prod [0, a_k], as :func:`enumerate_ideals`' ideals do."""
    box = tuple(deg + 1 for deg in a.degrees)
    side = a.degrees[-1]
    power_rows = [deg * stride for deg, stride in zip(a.degrees, _row_strides(box))]
    runs, inner, moves = _orbit_moves(a.degrees)

    def key(ideal: MonomialIdeal) -> tuple[int, ...]:
        sides, starts = ideal._row_starts()
        if sides != box or starts[0] > side or any(starts[r] for r in power_rows):
            raise ValueError(f"not row starts in the box {box} of an ideal holding A's powers")
        if runs:
            starts = tuple(itertools.chain.from_iterable(map(runs.__getitem__, inner(starts))))
        return max([move(starts) for move in moves])

    return key


def _orbit_memo(a: DegreeList, compute):
    """``lookup(ideal)``: ``compute(ideal)``, computed once per orbit of the
    permutations of variables of equal degree in A (keyed by
    :func:`_orbit_key`), and the memo dict, whose size is the number of
    orbits seen.  ``compute`` must give the same value on every ideal of an
    orbit, as graded Betti numbers do."""
    key = _orbit_key(a)
    memo: dict = {}

    def lookup(ideal: MonomialIdeal):
        k = key(ideal)
        if k not in memo:
            memo[k] = compute(ideal)
        return memo[k]

    return lookup, memo


def lpp_dominance_check(
    h: HilbertFunction,
    a: DegreeList,
    f: FieldSpec = QQ,
    max_ideals: int | None = None,
) -> CheckReport:
    """Betti dominance of the lex-plus-powers ideal over the enumerated class.

    Every enumerated ideal is compared (``details["ideals"]``), but Betti
    diagrams, and their first entry above the lex-plus-powers diagram, are
    computed once per orbit of the permutations of variables of equal degree
    in A (``details["orbits"]``), which preserve the class and the diagram.
    """
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    guard = _ideal_guard(max_ideals)
    lpp = lpp_ideal_for(h, a)
    if lpp is None:
        return CheckReport("lpp-dominance", instance, "not-valid", [], {})
    b_lpp = betti_diagram(lpp, f)

    def compared(ideal):
        b = betti_diagram(ideal, f)
        return b, b_lpp.first_violation(b)

    diagram, orbits = _orbit_memo(a, compared)
    witnesses = []
    count = 0
    first_betti_ok = True
    for ideal in enumerate_ideals(h, a, guard):
        count += 1
        b, violation = diagram(ideal)
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
    details = {
        "ideals": count,
        "orbits": len(orbits),
        "first_betti_dominance": first_betti_ok,
    }
    return CheckReport.from_witnesses("lpp-dominance", instance, witnesses, details)


def residual_lpp_check(a: DegreeList) -> CheckReport:
    """Residuals of vector ideals inside the pure powers are again vector
    ideals: colon(powers, W_T) = W_(T*), duality is an involution, and the
    residual is lex-plus-powers for its own profile."""
    instance = {"A": list(a.degrees)}
    powers = a.powers_ideal()
    witnesses = []
    count = 0
    for vec in enumerate_vectors(a):  # valid by construction
        count += 1
        ideal = _ideal(vec, a)
        dual_vec = _dual(vec, a.degrees)
        expected = ideal_of_vector(dual_vec, a)  # checks dual_vec
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
        if _dual(dual_vec, a.degrees) != vec:
            witnesses.append(
                {"reason": "duality is not an involution", "vector": format_vector(vec)}
            )
            continue
        prof = actual.pure_power_profile()
        if prof[0] != 0:  # a unit residual has nothing left to check
            if any(p is None for p in prof) or list(prof) != sorted(prof):
                witnesses.append(
                    {
                        "reason": "residual profile is not non-decreasing",
                        "vector": format_vector(vec),
                        "profile": list(prof),
                    }
                )
                continue
            if not _lex_above_powers(actual, prof):
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
    for vec in enumerate_vectors(a):  # valid by construction
        ideal = _ideal(vec, a)
        if ideal.pure_power_profile() != a.degrees:
            continue  # lemma is about ideals with powers exactly A
        count += 1
        residual = colon(powers, ideal)
        prof = residual.pure_power_profile()
        if prof[0] == 0:  # the unit ideal
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
    at regularity, and truncation consistency of the last column.

    As in :func:`lpp_dominance_check`, every ideal is compared but the Betti
    diagrams of an ideal and of its truncation are computed once per orbit
    (``details["orbits"]``); ``(x_1, ..., x_n)^rho`` is symmetric, so the
    truncation commutes with the permutations.
    """
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    guard = _ideal_guard(max_ideals)
    lpp = lpp_ideal_for(h, a)
    if lpp is None:
        return CheckReport("socle-equivalence", instance, "not-valid", [], {})
    n = a.n
    rho = h.rho
    b_lpp = betti_diagram(lpp, f)

    def diagrams(ideal):
        if rho < 1:
            return betti_diagram(ideal, f), None
        return betti_diagram(ideal, f), betti_diagram(add_maximal_power(ideal, rho), f)

    diagram, orbits = _orbit_memo(a, diagrams)
    witnesses = []
    count = 0
    for ideal in enumerate_ideals(h, a, guard):
        count += 1
        b, b_tr = diagram(ideal)
        for j in sorted({jj for (i, jj) in set(b.entries) | set(b_lpp.entries) if i == n}):
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
        if b_tr is not None:
            for j in range(rho + n - 1):
                if b.beta(n, j) != b_tr.beta(n, j):
                    witnesses.append(
                        {
                            "reason": f"truncation changed beta_({n},{j}) below the last two rows",
                            "ideal": ideal_to_json_dict(ideal),
                        }
                    )
    return CheckReport.from_witnesses(
        "socle-equivalence", instance, witnesses, {"ideals": count, "orbits": len(orbits)}
    )
