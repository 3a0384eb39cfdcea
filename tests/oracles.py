"""Reference implementations that only the tests use.

They are slow and direct on purpose: each one computes by the definition, so
that the library's faster routes can be compared with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache

from lppkit import harness
from lppkit.betti import (
    BettiDiagram,
    FieldSpec,
    QQ,
    _rank,
    _row_contribution,
    betti_diagram,
)
from lppkit.growth import (
    ci_hilbert_function,
    is_lpp_sequence,
    lpp_bound,
    standard_monomials_of_degree,
)
from lppkit.monomials import (
    DegreeList,
    DimensionError,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    _exps_of_degree,
    _getter,
    _members_first,
    _row_strides,
    ideal_to_json_dict,
    minimalize,
    pure_power,
)
from lppkit.vectors import (
    INF,
    Empty,
    Leaf,
    LppVector,
    Node,
    Validation,
    VectorStats,
    _require_valid,
    decompose,
    ideal_of_vector,
)


def reduced_homology_dims(faces: list[tuple[int, ...]], p: int) -> tuple[int, ...]:
    """Reduced homology dimensions (H_{-1}, H_0, H_1, ...) of a complex.

    ``faces`` holds the nonempty faces as sorted vertex tuples, each once; the
    empty face is implicit.  Boundary ranks are computed over the requested
    field.
    """
    by_dim: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for f in faces:
        by_dim[len(f) - 1].append(f)
    for fs in by_dim.values():
        fs.sort()
    max_dim = max(by_dim, default=-1)
    counts = [len(by_dim.get(k, [])) for k in range(max_dim + 1)]
    # ranks[k] = rank of boundary C_k -> C_{k-1}; C_{-1} is the empty face.
    ranks = [0] * (max_dim + 2)
    if counts and counts[0]:
        ranks[0] = 1
    for k in range(1, max_dim + 1):
        lower = {f: idx for idx, f in enumerate(by_dim[k - 1])}
        cols = by_dim[k]
        mat = [[0] * len(cols) for _ in range(len(lower))]
        for cidx, f in enumerate(cols):
            sign = 1
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1 :]
                mat[lower[sub]][cidx] = sign
                sign = -sign
        ranks[k] = _rank(mat, p)
    dims = [1 - ranks[0]]  # H_{-1}
    for k in range(max_dim + 1):
        dims.append(counts[k] - ranks[k] - ranks[k + 1])
    return tuple(dims)


def betti_diagram_by_contains(i: MonomialIdeal, f: FieldSpec = QQ) -> BettiDiagram:
    """Betti diagram of R/I by scanning every point b of the generator box and
    testing each face x^(b - tau) with ``MonomialIdeal.contains``; homology is
    computed afresh at every point."""
    if is_unit(i):
        return BettiDiagram(i.n, {})
    prof = i.pure_power_profile()
    if any(p is None for p in prof):
        raise NotArtinianError("Betti diagram needs an Artinian ideal")
    n = i.n
    p = f.characteristic
    box = [max(g.exps[k] for g in i.gens) for k in range(n)]
    beta: Counter[tuple[int, int]] = Counter()
    beta[(0, 0)] = 1
    for b in itertools.product(*(range(c + 1) for c in box)):
        if not contains(i, Monomial(b)):
            continue
        supp = tuple(k for k in range(n) if b[k] > 0)
        full = tuple(e - 1 if k in supp else e for k, e in enumerate(b))
        if supp and contains(i, Monomial(full)):
            continue  # full simplex: acyclic
        faces: set[tuple[int, ...]] = set()
        for size in range(1, len(supp) + 1):
            for tau in itertools.combinations(supp, size):
                e = list(b)
                for k in tau:
                    e[k] -= 1
                if contains(i, Monomial(tuple(e))):
                    faces.add(tau)
        dims = reduced_homology_dims(sorted(faces), p)
        total = sum(b)
        for k, hd in enumerate(dims, start=-1):
            if hd:
                beta[(k + 2, total)] += hd
    return BettiDiagram(n, dict(beta))


def monomials_of_degree(n: int, d: int):
    """Yield all degree-d monomials in n variables in lex-descending order."""
    for exps in _exps_of_degree(n, d):
        yield Monomial(exps)


def add_maximal_power_by_minimalize(i: MonomialIdeal, t: int) -> MonomialIdeal:
    """I + (x_1, ..., x_n)^t: I's generators and every monomial of degree t,
    minimalized."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    return minimalize(i.n, tuple(i.gens) + tuple(monomials_of_degree(i.n, t)))


def gk_coefficients_by_convolution(e, upto: int) -> list[int]:
    """Coefficients of prod_j (1 + t + ... + t^{e_j}) through degree `upto`,
    multiplying in one factor at a time term by term."""
    poly = [1]
    for ej in e:
        if ej < 0:
            raise ValueError(f"negative entry {ej}")
        out = [0] * min(len(poly) + ej, upto + 1)
        for i, c in enumerate(poly):
            if c == 0 or i > upto:
                continue
            for s in range(min(ej, upto - i) + 1):
                out[i + s] += c
        poly = out
    poly += [0] * (upto + 1 - len(poly))
    return poly[: upto + 1]


def unit_monomial(n: int) -> Monomial:
    """The monomial 1, which generates the unit ideal."""
    return Monomial((0,) * n)


def is_unit(i: MonomialIdeal) -> bool:
    """Is I the unit ideal: does it hold x_1^0 = 1?"""
    return i.pure_power_profile()[0] == 0


def contains(i: MonomialIdeal, m: Monomial) -> bool:
    """Is m in I: does some minimal generator of I divide it?"""
    if m.n != i.n:
        raise DimensionError(f"{m.n} vs {i.n} variables")
    return any(all(a <= b for a, b in zip(g, m.exps)) for g in i._corners())


def minimalize_by_all_pairs(gens) -> tuple[tuple[int, ...], ...]:
    """The exponent tuples of ``gens`` that no other one divides,
    duplicates once, lex-descending: every pair is tested."""
    pool = set(map(tuple, gens))
    return tuple(
        sorted(
            (e for e in pool if not any(g != e and all(map(operator.le, g, e)) for g in pool)),
            reverse=True,
        )
    )


def rank_by_fractions(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix by Gaussian elimination in
    ``Fraction`` arithmetic."""
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col] / top[col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def times(m1: Monomial, m2: Monomial) -> Monomial:
    if m1.n != m2.n:
        raise DimensionError(f"{m1.n} vs {m2.n} variables")
    return Monomial(tuple(a + b for a, b in zip(m1.exps, m2.exps)))


def tail(a: DegreeList) -> DegreeList:
    """Drop a_1 (the sub-list used for recursion into fewer variables)."""
    if a.n == 1:
        raise ValueError("tail of a length-1 degree list")
    return DegreeList(a.degrees[1:])


def divides(m1: Monomial, m2: Monomial) -> bool:
    if m1.n != m2.n:
        raise DimensionError(f"{m1.n} vs {m2.n} variables")
    return all(a <= b for a, b in zip(m1.exps, m2.exps))


def times_var(m: Monomial, k: int) -> Monomial:
    e = list(m.exps)
    e[k] += 1
    return Monomial(tuple(e))


def socle_by_definition(i: MonomialIdeal) -> dict[int, tuple[Monomial, ...]]:
    """Monomials m of the pure-power box outside I with x_k * m in I for every
    k, by degree, lex-descending; membership by ``contains``."""
    prof = i.pure_power_profile()
    out: dict[int, list[Monomial]] = {}
    for exps in itertools.product(*(range(e) for e in prof)):
        m = Monomial(exps)
        if not contains(i, m) and all(contains(i, times_var(m, k)) for k in range(i.n)):
            out.setdefault(m.degree, []).append(m)
    return {d: tuple(sorted(ms, reverse=True)) for d, ms in sorted(out.items())}


def profile_degrees(i: MonomialIdeal) -> DegreeList:
    """Sorted pure-power profile as a DegreeList; requires Artinian."""
    prof = i.pure_power_profile()
    if any(p is None for p in prof):
        raise NotArtinianError(f"no pure power for some variable: {prof}")
    return DegreeList(tuple(sorted(prof)))  # type: ignore[arg-type]


def standard_monomials(i: MonomialIdeal) -> dict[int, tuple[Monomial, ...]]:
    """Monomials outside the ideal, grouped by degree (lex-descending), read
    from the row starts.  Requires an Artinian ideal."""
    if None in i.pure_power_profile():
        raise NotArtinianError("ideal is not Artinian")
    sides, starts = i._row_starts()
    prefixes = itertools.product(*(range(s - 1, -1, -1) for s in sides[:-1]))
    by_degree: dict[int, list[Monomial]] = {}
    for prefix, t in zip(prefixes, reversed(starts)):
        d0 = sum(prefix)
        for c in range(t - 1, -1, -1):
            by_degree.setdefault(d0 + c, []).append(Monomial(prefix + (c,)))
    return {d: tuple(ms) for d, ms in sorted(by_degree.items())}


def is_lpp_by_contains(i: MonomialIdeal, a: DegreeList) -> bool:
    """The lex-plus-powers predicate by its definition: the pure powers are
    minimal generators, and for every other minimal generator each lex-larger
    monomial of its degree passes ``contains``."""
    if i.n != a.n:
        raise DimensionError(f"{i.n} vs {a.n} variables")
    powers = {pure_power(a.n, idx, e) for idx, e in enumerate(a.degrees)}
    gen_set = set(i.gens)
    if not powers <= gen_set:
        return False
    for g in gen_set - powers:
        for m in monomials_of_degree(i.n, g.degree):
            if m == g:
                break
            if not contains(i, m):
                return False
    return True


def is_lex_segment_by_contains(i: MonomialIdeal, d: int) -> bool:
    """Is the degree-d piece of I closed upward under lex order, by
    ``contains`` on every degree-d monomial?"""
    seen_gap = False
    for m in monomials_of_degree(i.n, d):
        if contains(i, m):
            if seen_gap:
                return False
        else:
            seen_gap = True
    return True


def lex_above_powers_by_degree(i: MonomialIdeal, caps: tuple[int, ...]) -> bool:
    """``monomials._lex_above_powers`` read one degree at a time: in each
    degree of a minimal generator in two or more variables, the members
    among the monomials below ``caps`` come first in lex order."""
    degrees = {sum(g) for g in i._corners() if g.count(0) < i.n - 1}
    return all(_members_first(i, d, caps) for d in degrees)


def row_step_getters(sides: tuple[int, ...]):
    """Every pair of rows one step apart along a prefix axis of the box
    prod [0, sides_k), as two getters of the row starts: the lower rows,
    the upper rows."""
    strides = _row_strides(sides)
    lower, upper = [], []
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        for p, stride in zip(prefix, strides):
            if p:
                lower.append(r - stride)
                upper.append(r)
    return _getter(lower), _getter(upper)


def starts_in_order(sides: tuple[int, ...], starts) -> bool:
    """The step test of ``harness._attains`` pair by pair: row 0 starts
    inside the box, and no row starts after a row one step below it."""
    lower, upper = row_step_getters(sides)
    return starts[0] < sides[-1] and all(map(operator.ge, lower(starts), upper(starts)))


def lcm(m1: Monomial, m2: Monomial) -> Monomial:
    if m1.n != m2.n:
        raise DimensionError(f"{m1.n} vs {m2.n} variables")
    return Monomial(tuple(max(a, b) for a, b in zip(m1.exps, m2.exps)))


def intersect(i1: MonomialIdeal, i2: MonomialIdeal) -> MonomialIdeal:
    if i1.n != i2.n:
        raise DimensionError(f"{i1.n} vs {i2.n} variables")
    return minimalize(i1.n, (lcm(a, b) for a in i1.gens for b in i2.gens))


def _quotient_by_monomial(j: MonomialIdeal, g: Monomial) -> MonomialIdeal:
    gens = (
        Monomial(tuple(max(u - v, 0) for u, v in zip(m.exps, g.exps)))
        for m in j.gens
    )
    return minimalize(j.n, gens)


def colon_by_intersection(j: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """(J : I) as the intersection over generators g of I of the monomial
    quotients (J : g), each minimalized, intersected through lcms."""
    if j.n != i.n:
        raise DimensionError(f"{j.n} vs {i.n} variables")
    result: MonomialIdeal | None = None
    for g in i.gens:
        q = _quotient_by_monomial(j, g)
        result = q if result is None else intersect(result, q)
    assert result is not None
    return result


def ideal_of_vector_by_minimalize(t: LppVector, a: DegreeList) -> MonomialIdeal:
    """The ideal of a vector by its definition: x_1^u and x_1^(u-i) times the
    shifted ideal of child i, minimalized."""
    return _ideal_by_minimalize(t, a.degrees)


# vectors share their children; each child's ideal is built once
@lru_cache(maxsize=4096)
def _ideal_by_minimalize(t: LppVector, degrees: tuple[int, ...]) -> MonomialIdeal:
    n = len(degrees)
    if isinstance(t, Empty):
        return MonomialIdeal(n, (unit_monomial(n),))
    if isinstance(t, Leaf):
        return MonomialIdeal(1, (pure_power(1, 0, t.degree),))
    u = len(t.children)
    gens: list[Monomial] = [pure_power(n, 0, u)]
    for i, child in enumerate(t.children, start=1):
        sub = _ideal_by_minimalize(child, degrees[1:])
        gens += [Monomial((u - i,) + g.exps) for g in sub.gens]
    return minimalize(n, gens)


def containment_chain_check(t: LppVector, a: DegreeList) -> bool:
    """Children's ideals descend: each strictly contains the next, with
    equality only between structurally equal (trailing complete-intersection)
    children."""
    _require_valid(t, a)
    if not isinstance(t, Node):
        return True
    ideals = [ideal_of_vector(c, tail(a)) for c in t.children]
    for (c1, i1), (c2, i2) in zip(
        zip(t.children, ideals), zip(t.children[1:], ideals[1:])
    ):
        if not all(contains(i1, g) for g in i2.gens):
            return False
        if c1 != c2 and i1 == i2:
            return False
    return True


def stats_by_recursion(t: LppVector, a: DegreeList) -> VectorStats:
    """length, sigma, alpha by their recursive definitions, each child's
    statistics recomputed where they are needed; only the children it reads
    are checked for their shape."""
    if isinstance(t, Empty):
        return VectorStats(0, 0, 0, False)
    if isinstance(t, Leaf):
        if a.n != 1:
            raise ValueError(f"leaf against {a.n} variables")
        if t.degree == a.degrees[0]:
            return VectorStats(t.degree, t.degree, INF, True)
        return VectorStats(t.degree, t.degree, t.degree, False)
    if a.n == 1:
        raise ValueError("node against a single variable")
    a2 = tail(a)
    u = len(t.children)
    last = t.children[-1]
    last_stats = stats_by_recursion(last, a2)
    if last_stats.is_ci:
        s = sum(1 for c in t.children if c == last)
        sigma = last_stats.sigma + s - 1
    else:
        sigma = last_stats.sigma
    if u < a.degrees[0]:
        alpha: int | float = u
    else:
        alpha = u + stats_by_recursion(t.children[0], a2).alpha - 1
    is_ci = u == a.degrees[0] and all(
        stats_by_recursion(c, a2).is_ci for c in t.children
    )
    return VectorStats(u, sigma, alpha, is_ci)


def validate_by_recursion(t: LppVector, a: DegreeList) -> Validation:
    """The defining conditions checked top-down, each child's statistics
    recomputed by :func:`stats_by_recursion`."""
    if isinstance(t, Empty):
        return Validation(True)
    if isinstance(t, Leaf):
        if a.n != 1:
            return Validation(False, f"leaf where a {a.n}-variable vector is needed")
        if t.degree < 1:
            return Validation(False, f"leaf degree {t.degree} is not positive")
        if t.degree > a.degrees[0]:
            return Validation(
                False, f"leaf degree {t.degree} exceeds the bound {a.degrees[0]}"
            )
        return Validation(True)
    if a.n == 1:
        return Validation(False, "node where a one-variable vector is needed")
    a2 = tail(a)
    u = len(t.children)
    if u > a.degrees[0]:
        return Validation(False, f"length {u} exceeds a_1 = {a.degrees[0]}")
    for idx, child in enumerate(t.children, start=1):
        sub = validate_by_recursion(child, a2)
        if not sub:
            return Validation(False, f"child {idx}: {sub.reason}")
    last_len = stats_by_recursion(t.children[-1], a2).length
    if u > last_len:
        return Validation(
            False, f"length {u} exceeds the last child's length {last_len}"
        )
    for idx in range(u - 1):
        left = stats_by_recursion(t.children[idx], a2)
        right = stats_by_recursion(t.children[idx + 1], a2)
        if not left.sigma < right.alpha:
            return Validation(
                False,
                f"sigma of child {idx + 1} ({left.sigma}) not below "
                f"alpha of child {idx + 2} ({right.alpha})",
            )
    return Validation(True)


def vector_of_hf_by_checked_recursion(h: HilbertFunction, a: DegreeList) -> LppVector:
    """The vector of a valid h by the recursion that checks every sequence it
    visits: h itself, and the S1 and S1' of each split (each at its own
    entry, and S again inside the public ``decompose``)."""
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    n = a.n
    if n == 1:
        return Leaf(h.sigma)
    if h.at(1) < n:
        return Node((vector_of_hf_by_checked_recursion(h, tail(a)),))
    s1, s1p, _cut = decompose(h, a)
    tail_vec = vector_of_hf_by_checked_recursion(s1p, tail(a))
    head = vector_of_hf_by_checked_recursion(s1, a)
    assert isinstance(head, Node)
    return Node(head.children + (tail_vec,))


def sequence_sigma(s: HilbertFunction) -> int:
    return s.sigma


def lex_compare(m1: Monomial, m2: Monomial) -> int:
    """Lex comparison: +1 if m1 > m2, 0 if equal, -1 if m1 < m2.

    Higher exponent on an earlier variable wins.
    """
    if m1.n != m2.n:
        raise DimensionError(f"{m1.n} vs {m2.n} variables")
    if m1.exps == m2.exps:
        return 0
    return 1 if m1.exps > m2.exps else -1


def is_lpp_sequence_with_ceiling(s: HilbertFunction, a: DegreeList) -> bool:
    """The validity rule that also reads the complete-intersection ceiling:
    s(0) = 1, s(d) <= CI(d) at every degree, and the growth bound at every
    degree."""
    if s.at(0) != 1:
        return False
    ci = ci_hilbert_function(a)
    if any(s.at(d) > ci.at(d) for d in range(len(s.values))):
        return False
    return all(s.at(d + 1) <= lpp_bound(s.at(d), d, a) for d in range(1, s.sigma))


def lpp_bound_oracle(h: int, d: int, a: DegreeList) -> int:
    """Independent bound: build powers + the shortest degree-d lex segment
    reaching codimension h, then count the degree-(d+1) codimension directly.
    """
    std_d = standard_monomials_of_degree(a, d)
    full = len(std_d)
    if not 0 <= h <= full:
        raise ValueError(f"h={h} not reachable at degree {d} for A={a}")
    added = std_d[: full - h]  # lex-largest standard monomials join the ideal
    count = 0
    for m in standard_monomials_of_degree(a, d + 1):
        if not any(divides(g, m) for g in added):
            count += 1
    return count


def _step_down(exps: tuple[int, ...], k: int) -> tuple[int, ...]:
    return exps[:k] + (exps[k] - 1,) + exps[k + 1 :]


def enumerate_ideals_by_kept_points(h: HilbertFunction, a: DegreeList):
    """The stream of ``enumerate_ideals`` by the sets of kept standard
    monomials: at degree d a monomial may be kept when every one-step divisor
    was kept at degree d - 1 (candidates lex-descending, subsets in
    combination order).  Each ideal is the minimalized set of the pure powers
    and the standard monomials left out."""
    box = [standard_monomials_of_degree(a, d) for d in range(a.sigma_ci)]
    powers = list(a.powers_ideal().gens)
    chosen: dict[int, set[tuple[int, ...]]] = {}

    def emit() -> MonomialIdeal:
        kept = set().union(*chosen.values())
        outside = [m for ms in box for m in ms if m.exps not in kept]
        return minimalize(a.n, powers + outside)

    def walk(d: int):
        need = h.at(d)
        if need == 0:
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
            for m in box[d]
            if all(_step_down(m.exps, k) in prev for k in range(a.n) if m.exps[k] > 0)
        ]
        for combo in itertools.combinations(candidates, need):
            chosen[d] = {m.exps for m in combo}
            yield from walk(d + 1)
            del chosen[d]

    yield from walk(0)


def direct_lpp_ideal(h: HilbertFunction, a: DegreeList) -> MonomialIdeal | None:
    """Independent construction of the A-lex-plus-powers ideal for h.

    Keeps the lex-smallest h(d) standard monomials at each degree; fails
    (None) if the kept set is not closed under division or some pure power
    would not be a minimal generator.
    """
    if not is_lpp_sequence(h, a):
        return None
    kept: set[tuple[int, ...]] = set()
    for d in range(h.sigma):
        std = standard_monomials_of_degree(a, d)
        take = h.at(d)
        if take > len(std):
            return None
        bottom = std[len(std) - take :]
        for m in bottom:
            for k in range(a.n):
                if m.exps[k] > 0 and _step_down(m.exps, k) not in kept:
                    return None
            kept.add(m.exps)
    gens: list[Monomial] = list(a.powers_ideal().gens)
    for d in range(a.sigma_ci):  # the whole box, not just below sigma(h)
        for m in standard_monomials_of_degree(a, d):
            if m.exps not in kept:
                gens.append(m)
    ideal = minimalize(a.n, gens)
    if ideal.pure_power_profile() != a.degrees:
        return None
    return ideal


def taylor_euler_by_multidegree(i: MonomialIdeal) -> dict[tuple[int, ...], int]:
    """Alternating face counts of the Taylor complex per lcm.

    Must match the alternating sum of Betti numbers in every multidegree.
    """
    out: dict[tuple[int, ...], int] = defaultdict(int)
    gens = [g.exps for g in i.gens]
    n = i.n
    for bits in itertools.product((0, 1), repeat=len(gens)):
        chosen = [g for g, bit in zip(gens, bits) if bit]
        size = len(chosen)
        if size == 0:
            key = (0,) * n
        else:
            key = tuple(max(g[k] for g in chosen) for k in range(n))
        out[key] += (-1) ** size
    return {k: v for k, v in out.items() if v}


def betti_euler_by_multidegree(
    i: MonomialIdeal, f: FieldSpec = QQ
) -> dict[tuple[int, ...], int]:
    """Alternating Betti sums per multidegree b = prefix + (c,) from the
    library's row contributions, for the Taylor cross-check.  Every row of
    the box is keyed here by the starts of the rows one step below it along
    each subset j of its prefix support (bit m of j for its m-th coordinate),
    in the order :func:`_row_contribution` reads them."""
    if is_unit(i):
        return {}
    sides, starts = i._row_starts()
    strides = _row_strides(sides)
    out = {(0,) * i.n: 1}
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        steps = [0]
        for e, stride in zip(prefix, strides):
            if e:
                steps += [step + stride for step in steps]
        key = tuple(starts[r - step] for step in steps)
        for index, c, dim in _row_contribution(f.characteristic, key):
            b = prefix + (c,)
            out[b] = out.get(b, 0) + (-1) ** index * dim
    return {b: chi for b, chi in out.items() if chi}


def socle_dims(i: MonomialIdeal, f: FieldSpec = QQ) -> dict[int, int]:
    """Socle dimensions by degree, via the last column of the Betti diagram.

    For monomial ideals these match the monomial socle count in every
    characteristic; the agreement is checked and a mismatch raises.
    """
    diagram = betti_diagram(i, f)
    n = i.n
    dims = {
        j - n: v for (idx, j), v in diagram.entries.items() if idx == n and v
    }
    expected = {d: len(ms) for d, ms in i.socle_monomials().items()}
    if dims != expected:
        raise AssertionError(
            f"socle mismatch: homology {dims} vs monomial count {expected}"
        )
    return dims


def stanley_first_mismatch(h: HilbertFunction, b: BettiDiagram) -> int | None:
    """First degree where sum_i (-1)^i beta_{i,j} differs from H(t)(1-t)^n."""
    n = b.n
    numerator: dict[int, int] = defaultdict(int)
    for (i, j), v in b.entries.items():
        numerator[j] += (-1) ** i * v
    # H(t) * (1-t)^n, exact integer convolution
    signs = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    top = max(h.sigma + n, max(numerator, default=0)) + 1
    for j in range(top + 1):
        coeff = sum(
            signs[k] * h.at(j - k) for k in range(min(j, n) + 1)
        )
        if coeff != numerator.get(j, 0):
            return j
    return None


def stanley_check(h: HilbertFunction, b: BettiDiagram) -> bool:
    return stanley_first_mismatch(h, b) is None


def last_betti_consequences(
    h: HilbertFunction, b1: BettiDiagram, b2: BettiDiagram
) -> bool:
    """Equalities at the regularity forced by a shared Hilbert function:
    the last corner entries agree and the adjacent column differences agree."""
    n = b1.n
    rho = h.rho
    if b1.beta(n, rho + n) != b2.beta(n, rho + n):
        return False
    lhs = b1.beta(n - 1, rho + n - 1) - b1.beta(n, rho + n - 1)
    rhs = b2.beta(n - 1, rho + n - 1) - b2.beta(n, rho + n - 1)
    return lhs == rhs


def sequence_alpha(s: HilbertFunction, a: DegreeList) -> int | float:
    """Least degree where s drops below the complete-intersection ceiling."""
    ci = ci_hilbert_function(a)
    for i in range(max(s.sigma, ci.sigma) + 1):
        if s.at(i) < ci.at(i):
            return i
    return INF


def codim_from_monomial(m: Monomial, a: DegreeList) -> int:
    """Codimension slot of a standard monomial: the number of standard
    monomials of the same degree that are lex-smaller."""
    if m.n != a.n:
        raise ValueError(f"{m.n} vs {a.n} variables")
    if any(e >= cap for e, cap in zip(m.exps, a.degrees)):
        raise ValueError(f"{m.exps} is not standard modulo the powers of {a}")
    std = standard_monomials_of_degree(a, m.degree)
    return sum(1 for other in std if other < m)


def monomial_from_codim(h: int, d: int, a: DegreeList) -> Monomial:
    """Inverse of :func:`codim_from_monomial` at degree d."""
    std = standard_monomials_of_degree(a, d)
    if not 0 <= h < len(std):
        raise ValueError(f"codimension {h} out of range 0..{len(std) - 1}")
    return std[len(std) - 1 - h]


def lpp_dominance_check_every_ideal(
    h: HilbertFunction, a: DegreeList, f: FieldSpec = QQ
) -> harness.CheckReport:
    """``harness.lpp_dominance_check`` computing one Betti diagram per
    enumerated ideal, with no orbit memo; its report has no ``orbits`` key."""
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    lpp = harness.lpp_ideal_for(h, a)
    if lpp is None:
        return harness.CheckReport("lpp-dominance", instance, "not-valid", [], {})
    b_lpp = betti_diagram(lpp, f)
    witnesses = []
    count = 0
    first_betti_ok = True
    for ideal in harness.enumerate_ideals(h, a):
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
    return harness.CheckReport.from_witnesses("lpp-dominance", instance, witnesses, details)


def socle_equivalence_check_every_ideal(
    h: HilbertFunction, a: DegreeList, f: FieldSpec = QQ
) -> harness.CheckReport:
    """``harness.socle_equivalence_check`` computing the diagrams of every
    enumerated ideal and of its truncation, with no orbit memo."""
    instance = {"A": list(a.degrees), "H": str(h), "char": f.characteristic}
    lpp = harness.lpp_ideal_for(h, a)
    if lpp is None:
        return harness.CheckReport("socle-equivalence", instance, "not-valid", [], {})
    n = a.n
    rho = h.rho
    b_lpp = betti_diagram(lpp, f)
    witnesses = []
    count = 0
    for ideal in harness.enumerate_ideals(h, a):
        count += 1
        b = betti_diagram(ideal, f)
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
            truncated = add_maximal_power_by_minimalize(ideal, rho)
            b_tr = betti_diagram(truncated, f)
            for j in range(rho + n - 1):
                if b.beta(n, j) != b_tr.beta(n, j):
                    witnesses.append(
                        {
                            "reason": f"truncation changed beta_({n},{j}) below the last two rows",
                            "ideal": ideal_to_json_dict(ideal),
                        }
                    )
    return harness.CheckReport.from_witnesses(
        "socle-equivalence", instance, witnesses, {"ideals": count}
    )


def generator_orbit_key(a: DegreeList):
    """``key(ideal)`` for the orbits of the permutations of variables of
    equal degree in A, by generators: over the permutations within each
    block of equal degrees (the identity included), the lex-largest of the
    permuted, re-sorted generator tuples."""
    blocks = [tuple(g) for _, g in itertools.groupby(range(a.n), key=a.degrees.__getitem__)]
    perms = [
        list(itertools.chain.from_iterable(p))
        for p in itertools.product(*map(itertools.permutations, blocks))
    ]

    def key(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
        gens = [g.exps for g in ideal.gens]
        return max(
            tuple(sorted((tuple(e[k] for k in perm) for e in gens), reverse=True))
            for perm in perms
        )

    return key
