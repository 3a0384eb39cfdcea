"""Exhaustive desk-scale checks over monomial ideals with a fixed Hilbert
function and prescribed pure powers.

The enumeration grows the standard monomials degree by degree as the row
starts of the box, keeping a monomial only when its divisors are kept; each
check consumes the stream and produces a CheckReport whose failures carry
reproducible witnesses.  The Betti and socle dominance checks walk one ideal
per orbit of the permutations of variables of equal degree in A, by orderly
generation, and go back to the full stream only to list witnesses.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from array import array
from dataclasses import asdict, dataclass, field as dc_field
from functools import lru_cache

from .monomials import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    MonomialIdeal,
    NotArtinianError,
    _axis_ends,
    _check_cells,
    _checked_box,
    _colon_of_powers,
    _ideal_guard,
    _ideal_of_rows,
    _lex_above_powers,
    _row_plan,
    _row_strides,
    _start_degrees,
    add_maximal_power,
    ideal_to_json_dict,
    is_lex_segment,
)
from .growth import is_lpp_sequence, lpp_bound
from .vectors import (
    MISSING,
    _dual,
    _enumerate,
    _ideal,
    format_vector,
    ideal_of_vector,
    vector_of_hf,
)
from .betti import FieldSpec, QQ, betti_diagram


CELL_GUARD = 4096


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
        return json.dumps(asdict(self))


def enumerate_ideals(h: HilbertFunction, a: DegreeList, max_ideals: int | None = None):
    """Every monomial ideal containing the A-powers whose quotient attains h.

    The complement is grown degree by degree as row starts of the box
    prod [0, a_k] (see :meth:`MonomialIdeal._row_starts`): the standard
    monomial of degree d in row p is (p, c) with c = d - |p|, and it may be
    kept only if c < a_n, the row has kept exactly c points, and each row
    p - e_k one step below has kept more than c.  The stream is deterministic
    (candidate rows lex-descending, subsets in combination order).
    """
    for ideal, _ in _walk(h, a, max_ideals, False):
        yield ideal


def _walk(h: HilbertFunction, a: DegreeList, guard: int | None, orbits: bool):
    """The walk of :func:`enumerate_ideals`, as ``(ideal, orbit size)``;
    with ``orbits`` it keeps one ideal per orbit of the group G made of the
    moves of A (see :func:`_moves`) and the identity.  ``guard`` is read as
    ``max_ideals`` and counts ideals, orbit sizes summed.  h and the guards,
    the box prod [0, a_k + 1) and the move table of (|G| - 1) * prod a_k
    point indices too, are checked before any frame or move.

    Orderly generation (Read, "Every one a winner", 1978): the layer of
    degree d, the descending tuple of its points in prod [0, a_k), is kept
    only if no move in the stabilizer of the layers below maps it, re-sorted,
    above itself; the moves that map it to itself stabilize the next degree.
    So an ideal is kept exactly when its layers, read degree by degree, are
    the largest among its images, and its orbit has |G| / |stabilizer|
    ideals.  With no moves this is the full walk, every orbit of size 1.
    """
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    if h.total > CELL_GUARD:
        raise GuardExceeded(f"{h.total} standard monomials exceeds {CELL_GUARD}")
    guard = _ideal_guard(guard)
    sides = _checked_box(tuple(deg + 1 for deg in a.degrees))
    # |G|, the product of the factorials of A's multiplicities
    order = math.prod(math.factorial(a.multiplicity(j)) for j in set(a.degrees)) if orbits else 1
    _check_cells("move table", (order - 1) * math.prod(a.degrees))
    moves = _moves(a.degrees) if orbits else ()
    offsets, below, fresh = _frame(a.degrees)
    last = a.degrees[-1]
    values = h.values  # valid: 1 at degree 0, so the walk ends at its one 0
    starts = [0] * len(offsets)
    count = 0

    def walk(d: int, stabilizer: list, raised: tuple):
        nonlocal count
        need = values[d]
        # a row can grow at d only if it grew at d - 1 or its first point has
        # degree d; then it holds c = starts[r] points, c = d - |p|
        candidates = []
        for r in sorted(raised + fresh[d], reverse=True) if d < len(fresh) else raised:
            c = starts[r]
            if c < last:
                for q in below[r]:
                    if starts[q] <= c:
                        break
                else:
                    candidates.append(r)
        if len(candidates) < need:
            return
        # at the last nonzero degree each subset completes an ideal
        final = values[d + 1] == 0
        for combo in itertools.combinations(candidates, need):
            fixed = stabilizer and _fixing(stabilizer, [offsets[r] + d for r in combo])
            if fixed is None:
                continue
            for r in combo:
                starts[r] += 1
            if final:
                size = order // (len(fixed) + 1)
                count += size
                if count > guard:
                    raise GuardExceeded(f"more than {guard} ideals; raise the guard")
                yield _ideal_of_rows(a.n, sides, starts), size
            else:
                yield from walk(d + 1, fixed, combo)
            for r in combo:
                starts[r] -= 1

    yield from walk(0, list(moves), ())


# one frame per degree list: 1 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _frame(degrees: tuple[int, ...]):
    """The rows of the box prod [0, a_k + 1) that can hold standard
    monomials, the prefixes below A, for :func:`_walk`: per row index r, the
    offset of its points (the point of degree d in row r has index
    ``offsets[r] + d`` in prod [0, a_k)) and the rows one step below it; and
    per degree d, the rows whose first point has degree d, lex-descending (a
    row's index grows with its prefix in lex order)."""
    strides = _row_strides(tuple(deg + 1 for deg in degrees))
    point_strides = _row_strides(degrees + (1,))
    offsets = [0] * math.prod(deg + 1 for deg in degrees[:-1])
    below = [()] * len(offsets)
    fresh = [()] * (sum(degrees[:-1]) - len(degrees) + 2)
    for prefix in itertools.product(*(range(e - 1, -1, -1) for e in degrees[:-1])):
        r = sum(map(operator.mul, prefix, strides))
        offsets[r] = sum(map(operator.mul, prefix, point_strides)) - sum(prefix)
        below[r] = tuple(r - s for p, s in zip(prefix, strides) if p)
        fresh[sum(prefix)] += (r,)
    return tuple(offsets), tuple(below), tuple(fresh)


def _fixing(stabilizer: list, layer: list[int]) -> list | None:
    """The moves of ``stabilizer`` that map ``layer``, a descending list of
    point indices, to itself; None when one maps it, re-sorted, above
    itself."""
    fixed = []
    for move in stabilizer:
        image = sorted(map(move.__getitem__, layer), reverse=True)
        if image > layer:
            return None
        if image == layer:
            fixed.append(move)
    return fixed


# one key per degree list: 1 in a sweep-betti pass
@lru_cache(maxsize=32)
def _moves(degrees: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The permutations of variables of equal degree in A but the identity,
    each as the map it induces on the point indices of the box
    prod [0, a_k) (mixed radix, last coordinate fastest)."""
    blocks = [list(b) for _, b in itertools.groupby(range(len(degrees)), key=degrees.__getitem__)]
    strides = _row_strides(degrees + (1,))
    points = list(itertools.product(*map(range, degrees)))
    moves = []
    for perm in itertools.product(*map(itertools.permutations, blocks)):
        perm = list(itertools.chain.from_iterable(perm))
        if perm != sorted(perm):
            moves.append(tuple(sum(x[k] * s for k, s in zip(perm, strides)) for x in points))
    return tuple(moves)


def valid_hilbert_functions(a: DegreeList, sigma_max: int) -> list[HilbertFunction]:
    """All valid sequences for A that reach zero by index sigma_max, each
    value capped by the rules of :func:`is_lpp_sequence`."""
    results: list[HilbertFunction] = []

    def extend(prefix: list[int]):
        d = len(prefix) - 1
        if prefix[-1] == 0:
            results.append(HilbertFunction(tuple(prefix)))
            return
        if d >= sigma_max:
            return
        cap = lpp_bound(prefix[d], d, a) if d else a.n - a.multiplicity(1)
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
    ideal = _ideal(vector_of_hf(h, a), a)  # valid by construction
    if ideal.pure_power_profile() != a.degrees:
        return None
    return ideal


def growth_check(
    h: HilbertFunction, a: DegreeList, max_ideals: int | None = None
) -> CheckReport:
    """Every enumerated ideal has Hilbert function h.

    Each ideal is read from the row starts it was built from, by one test
    per box built for h (:func:`_attains`), so no Hilbert function is
    computed.  Only an ideal whose starts fail is re-derived
    from its generators, and it is a witness when that Hilbert function is
    not h either.  An h that breaks the degree-1 ceiling or the growth bound
    fails first, in the walk (ValueError)."""
    instance = {"A": list(a.degrees), "H": str(h)}
    witnesses = []
    count = 0
    for ideal, _ in _walk(h, a, max_ideals, False):
        sides, starts = ideal._rows
        if not count:  # the walk builds every ideal in one box, after its guards
            attains = _attains(h, sides)
        count += 1
        if attains(starts):
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


def _attains(h: HilbertFunction, sides: tuple[int, ...]):
    """A test of row starts from 0 to sides[-1] in the box prod [0, sides_k):
    are they those of the ideal their generators span (row 0 starts inside
    the box, and no row after a row one step below it along a prefix axis),
    and does it attain h?  On the starts packed by :func:`_lanes`, each step
    is one subtraction, and the rows' degrees |p| + start, one addition,
    sorted, are compared with the key of :func:`_start_degrees`.  Raises
    NotArtinianError as :meth:`MonomialIdeal.hilbert_function` does."""
    pack, unpack, high, row_degrees, steps = _lanes(sides)
    ends = _axis_ends(sides)
    key = _start_degrees(h, sides)
    last = sides[-1]

    def attains(starts) -> bool:
        # lane r of (x << shift | high) - x is high + start(r - stride) -
        # start(r): its top bit is set when row r starts no later than that
        x = pack(starts)
        if starts[0] >= last:
            return False
        for shift, mask in steps:
            if ((x << shift | high) - x) & mask != mask:
                return False
        if any(ends(starts)):
            raise NotArtinianError("ideal is not Artinian")
        return sorted(unpack(row_degrees + x)) == key

    return attains


# one table per box: 1 in a sweep-residual pass
@lru_cache(maxsize=32)
def _lanes(sides: tuple[int, ...]):
    """The row starts of the box prod [0, sides_k) packed one lane per row,
    row 0 lowest, in lanes wide enough that none carries or borrows (8 bits
    when every start is below 128 and every |p| + start below 256): the
    packer, its inverse, the top bit of each lane, the packed |p|, and per
    prefix axis its row stride in bits and the top bits of its rows p_k > 0."""
    row_degrees = tuple(itertools.chain.from_iterable(_row_plan(sides)[0]))
    peak = sides[-1] + max(sides[-1], *row_degrees)  # above every lane's value
    code = next(c for c in "BHIQ" if peak < 1 << 8 * array(c).itemsize)
    rows, width = range(len(row_degrees)), 8 * array(code).itemsize
    if code == "B":  # bytes are faster than an array of bytes
        pack = lambda starts: int.from_bytes(bytes(starts), "little")
        unpack = operator.methodcaller("to_bytes", len(rows), "little")
    else:
        pack = lambda starts: int.from_bytes(array(code, starts), sys.byteorder)
        unpack = lambda x: memoryview(x.to_bytes(len(rows) * width // 8, sys.byteorder)).cast(code)
    top, axes = 1 << width - 1, zip(sides, _row_strides(sides))
    steps = tuple((s * width, pack([top if r // s % k else 0 for r in rows])) for k, s in axes)
    return pack, unpack, pack([top] * len(rows)), pack(row_degrees), steps


def lpp_dominance_check(
    h: HilbertFunction,
    a: DegreeList,
    f: FieldSpec = QQ,
    max_ideals: int | None = None,
) -> CheckReport:
    """Betti dominance of the lex-plus-powers ideal over the enumerated class:
    an ideal is a witness at the first entry of its diagram above the
    lex-plus-powers diagram, and ``details["first_betti_dominance"]`` says
    that no such entry is a first Betti number.  The class is walked as
    :func:`_against_lpp` says.
    """
    first_betti_ok = True

    def rule(ideal, b, lpp, b_lpp):
        nonlocal first_betti_ok
        violation = b_lpp.first_violation(b)
        if violation is None:
            return []
        i, j = violation
        if i == 1:
            first_betti_ok = False
        return [
            {
                "reason": f"beta_({i},{j}) exceeds the lex-plus-powers value",
                "ideal": ideal_to_json_dict(ideal),
                "lpp": ideal_to_json_dict(lpp),
                "beta_lpp": b_lpp.beta(i, j),
                "beta_ideal": b.beta(i, j),
            }
        ]

    report = _against_lpp("lpp-dominance", h, a, f, max_ideals, rule)
    if report.verdict != "not-valid":
        report.details["first_betti_dominance"] = first_betti_ok
    return report


def _against_lpp(
    check: str, h: HilbertFunction, a: DegreeList, f: FieldSpec, max_ideals: int | None, rule
) -> CheckReport:
    """The report of ``check``, which compares each ideal of the class of h
    with the lex-plus-powers ideal L_h by ``rule(ideal, b, lpp, b_lpp)``, a
    list of witnesses, where b and b_lpp are the Betti diagrams over f of
    the ideal and of L_h.  It is ``not-valid`` when no L_h has powers
    exactly A; the ideal guard and an invalid h, the zero function too, are
    refused before that, and the walk's guards after it.

    The permutations of variables of equal degree in A map the class onto
    itself and leave Betti diagrams unchanged, so the rule, whose verdict
    must be the same on every ideal of an orbit, is called on one ideal per
    orbit (``details["orbits"]``) until one has witnesses, while
    ``details["ideals"]`` counts every ideal of the class.  Then it is called
    once more on every ideal, in the order of :func:`enumerate_ideals`, so
    the witnesses are those that calling it on every ideal gives."""
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    guard = _ideal_guard(max_ideals)
    if h.sigma == 0:  # vector_of_hf maps it to the unit ideal, not to a class
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    lpp = lpp_ideal_for(h, a)
    if lpp is None:
        return CheckReport(check, instance, "not-valid")
    b_lpp = betti_diagram(lpp, f)

    def witnesses_of(ideal):
        return rule(ideal, betti_diagram(ideal, f), lpp, b_lpp)

    ideals = orbits = 0
    violated = False
    for ideal, size in _walk(h, a, guard, True):
        ideals += size
        orbits += 1
        violated = violated or bool(witnesses_of(ideal))
    witnesses = []
    if violated:
        for ideal in enumerate_ideals(h, a, guard):
            witnesses += witnesses_of(ideal)
    details = {"ideals": ideals, "orbits": orbits}
    return CheckReport.from_witnesses(check, instance, witnesses, details)


def residual_lpp_check(a: DegreeList) -> CheckReport:
    """Residuals of vector ideals inside the pure powers are again vector
    ideals: colon(powers, W_T) = W_(T*), duality is an involution, and the
    residual is lex-plus-powers for its own profile.

    Every vector and its dual are read from the table of
    :func:`vectors._enumerate`, which the ideal guard bounds: W_T and W_(T*)
    from their row starts, T* and T** by their indices.  A dual that is not
    in the table is not a valid vector, and is refused as
    :func:`ideal_of_vector` refuses it (ValueError)."""
    instance = {"A": list(a.degrees)}
    vectors, starts, _, duals = _enumerate(a.degrees, _ideal_guard(None))
    sides = _checked_box(tuple(deg + 1 for deg in a.degrees))
    unit = (0,) * len(starts[0])  # the rows of the empty vector's ideal
    ci = duals.index(None)  # the dual of the empty vector
    witnesses = []
    for i, vec in enumerate(vectors):
        j = duals[i]
        if j == MISSING:
            ideal_of_vector(_dual(vec, a.degrees), a)
            raise ValueError(f"the dual of {format_vector(vec)} is not enumerated for A={a}")
        expected = _ideal_of_rows(a.n, sides, unit if j is None else starts[j])
        actual = _colon_of_powers(sides, a.degrees, _ideal_of_rows(a.n, sides, starts[i]))
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
        if (ci if j is None else duals[j]) != i:
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
        "residual-lpp", instance, witnesses, {"vectors": len(vectors)}
    )


def lexseg_lemma_check(a: DegreeList) -> CheckReport:
    """Where the residual's pure-power degree drops below A's, the residual's
    graded piece at that degree is a lex segment.  The vectors' ideals are
    read from their row starts in the table of :func:`vectors._enumerate`,
    which the ideal guard bounds, and their residuals by reflection."""
    instance = {"A": list(a.degrees)}
    vectors, starts = _enumerate(a.degrees, _ideal_guard(None))[:2]
    sides = _checked_box(tuple(deg + 1 for deg in a.degrees))
    witnesses = []
    count = 0
    for vec, rows in zip(vectors, starts):
        ideal = _ideal_of_rows(a.n, sides, rows)
        if ideal.pure_power_profile() != a.degrees:
            continue  # lemma is about ideals with powers exactly A
        count += 1
        residual = _colon_of_powers(sides, a.degrees, ideal)
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
    at regularity, and truncation consistency of the last column, over the
    class walked as :func:`_against_lpp` says.  ``(x_1, ..., x_n)^rho`` is
    symmetric, so the truncation commutes with the permutations.
    """
    n = a.n
    rho = h.rho

    def rule(ideal, b, lpp, b_lpp):
        witnesses = []
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
        if rho >= 1:
            b_tr = betti_diagram(add_maximal_power(ideal, rho), f)
            for j in range(rho + n - 1):
                if b.beta(n, j) != b_tr.beta(n, j):
                    witnesses.append(
                        {
                            "reason": f"truncation changed beta_({n},{j}) below the last two rows",
                            "ideal": ideal_to_json_dict(ideal),
                        }
                    )
        return witnesses

    return _against_lpp("socle-equivalence", h, a, f, max_ideals, rule)
