"""Reference implementations that only the tests use.

They are slow and direct on purpose: each one computes by the definition, so
that the library's faster routes can be compared with it.
"""

from __future__ import annotations

import itertools
from collections import Counter

from lppkit.betti import BettiDiagram, FieldSpec, QQ, _reduced_homology_dims
from lppkit.monomials import (
    DegreeList,
    DimensionError,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    minimalize,
    pure_power,
    unit_monomial,
)
from lppkit.vectors import Empty, Leaf, LppVector

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
