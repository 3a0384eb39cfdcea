"""Reference implementations that only the tests use.

They are slow and direct on purpose: each one computes by the definition, so
that the library's faster routes can be compared with it.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict

from lppkit.betti import (
    BettiDiagram,
    FieldSpec,
    QQ,
    _koszul_homology,
    _reduced_homology_dims,
)
from lppkit.growth import is_lpp_sequence, standard_monomials_of_degree
from lppkit.harness import _step_down
from lppkit.monomials import (
    DegreeList,
    DimensionError,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    minimalize,
    pure_power,
    unit_monomial,
)
from lppkit.vectors import (
    INF,
    Empty,
    Leaf,
    LppVector,
    Node,
    Validation,
    VectorStats,
    _ideal,
    _require_valid,
)

# the homology computation itself, without the memo
_homology_uncached = _reduced_homology_dims.__wrapped__


def betti_diagram_by_contains(i: MonomialIdeal, f: FieldSpec = QQ) -> BettiDiagram:
    """Betti diagram of R/I by scanning every point b of the generator box and
    testing each face x^(b - tau) with ``MonomialIdeal.contains``; homology is
    computed afresh at every point."""
    if i.is_unit:
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
        if not i.contains(Monomial(b)):
            continue
        supp = tuple(k for k in range(n) if b[k] > 0)
        full = tuple(e - 1 if k in supp else e for k, e in enumerate(b))
        if supp and i.contains(Monomial(full)):
            continue  # full simplex: acyclic
        faces: set[tuple[int, ...]] = set()
        for size in range(1, len(supp) + 1):
            for tau in itertools.combinations(supp, size):
                e = list(b)
                for k in tau:
                    e[k] -= 1
                if i.contains(Monomial(tuple(e))):
                    faces.add(tau)
        dims = _homology_uncached(frozenset(faces), p)
        total = sum(b)
        for k, hd in enumerate(dims, start=-1):
            if hd:
                beta[(k + 2, total)] += hd
    return BettiDiagram(n, dict(beta))


def socle_by_definition(i: MonomialIdeal) -> dict[int, tuple[Monomial, ...]]:
    """Monomials m of the pure-power box outside I with x_k * m in I for every
    k, by degree, lex-descending; membership by ``contains``."""
    prof = i.pure_power_profile()
    out: dict[int, list[Monomial]] = {}
    for exps in itertools.product(*(range(e) for e in prof)):
        m = Monomial(exps)
        if not i.contains(m) and all(i.contains(m.times_var(k)) for k in range(i.n)):
            out.setdefault(m.degree, []).append(m)
    return {d: tuple(sorted(ms, reverse=True)) for d, ms in sorted(out.items())}


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
    if isinstance(t, Empty):
        return MonomialIdeal(a.n, (unit_monomial(a.n),))
    if isinstance(t, Leaf):
        return MonomialIdeal(1, (pure_power(1, 0, t.degree),))
    u = len(t.children)
    gens: list[Monomial] = [pure_power(a.n, 0, u)]
    for i, child in enumerate(t.children, start=1):
        sub = ideal_of_vector_by_minimalize(child, a.tail())
        gens += [Monomial((u - i,) + g.exps) for g in sub.gens]
    return minimalize(a.n, gens)


def containment_chain_check(t: LppVector, a: DegreeList) -> bool:
    """Children's ideals descend: each strictly contains the next, with
    equality only between structurally equal (trailing complete-intersection)
    children."""
    _require_valid(t, a)
    if not isinstance(t, Node):
        return True
    ideals = [_ideal(c, a.n - 1) for c in t.children]
    for (c1, i1), (c2, i2) in zip(
        zip(t.children, ideals), zip(t.children[1:], ideals[1:])
    ):
        if not all(i1.contains(g) for g in i2.gens):
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
    a2 = a.tail()
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
    a2 = a.tail()
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
        if not any(g.divides(m) for g in added):
            count += 1
    return count


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
    ideal = MonomialIdeal.from_gens(a.n, gens)
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
    """Alternating Betti sums per multidegree from the library's Koszul
    homology loop, for the Taylor cross-check."""
    if i.is_unit:
        return {}
    out = {(0,) * i.n: 1}
    for b, dims in _koszul_homology(i, f.characteristic):
        chi = sum((-1) ** (k + 2) * hd for k, hd in enumerate(dims, start=-1))
        if chi:
            out[b] = chi
    return out
