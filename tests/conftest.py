"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from lppkit import (
    DegreeList,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    ci_hilbert_function,
    growth,
    minimalize,
)

from oracles import contains, divides, monomials_of_degree, times


def all_degree_lists(n_max: int, a_max: int, a_min: int = 1):
    """Every non-decreasing degree list with n <= n_max and entries <= a_max."""
    for n in range(1, n_max + 1):
        for degs in itertools.combinations_with_replacement(
            range(a_min, a_max + 1), n
        ):
            yield DegreeList(degs)


@pytest.fixture
def rectangle_widths(monkeypatch):
    """The widths of the rectangle rows built from here on, the rectangle
    and growth-bound memos cleared first."""
    widths = []
    times_run = growth._times_run

    def recording(poly, e, width):
        widths.append(width)
        return times_run(poly, e, width)

    monkeypatch.setattr(growth, "_times_run", recording)
    growth._rectangle.cache_clear()
    growth._lpp_bound.cache_clear()
    return widths


def short_sequences(a: DegreeList):
    """The zero ring, and every sequence of A's length up to sigma_ci + 2
    with 1 in degree 0 and values 1 to CI(d) + 1 after it."""
    ci = ci_hilbert_function(a)
    yield HilbertFunction((0,))
    for length in range(1, a.sigma_ci + 3):
        caps = (range(1, ci.at(d) + 2) for d in range(1, length))
        for values in itertools.product(*caps):
            yield HilbertFunction((1,) + values)


def hf_by_inclusion_exclusion(ideal: MonomialIdeal) -> HilbertFunction:
    """Independent Hilbert function oracle via inclusion-exclusion over
    generator subsets: counts degree-d multiples of each lcm directly."""
    n = ideal.n
    gens = [g.exps for g in ideal.gens]
    assert len(gens) <= 20, "oracle is exponential in the generator count"
    subsets = []
    for bits in itertools.product((0, 1), repeat=len(gens)):
        chosen = [g for g, b in zip(gens, bits) if b]
        if not chosen:
            continue
        lcm_deg = sum(max(g[k] for g in chosen) for k in range(n))
        subsets.append((len(chosen), lcm_deg))

    def in_ideal_count(d: int) -> int:
        total = 0
        for size, ldeg in subsets:
            if ldeg <= d:
                total += (-1) ** (size + 1) * math.comb(n - 1 + d - ldeg, n - 1)
        return total

    values = []
    d = 0
    while True:
        h = math.comb(n - 1 + d, n - 1) - in_ideal_count(d)
        values.append(h)
        if h == 0:
            return HilbertFunction(tuple(values))
        d += 1
        assert d < 200, "ideal does not look Artinian"


def brute_colon(j: MonomialIdeal, i: MonomialIdeal, degree_bound: int) -> MonomialIdeal:
    """Colon oracle: scan all monomials up to degree_bound for membership."""
    kept = []
    for d in range(degree_bound + 1):
        for m in monomials_of_degree(j.n, d):
            if any(divides(k, m) for k in kept):
                continue
            if all(contains(j, times(m, g)) for g in i.gens):
                kept.append(m)
    return minimalize(j.n, kept)


def random_box_hf(rng: random.Random, sides: tuple[int, ...]) -> HilbertFunction:
    """Hilbert function of a seeded random ideal with pure powers x_k^{sides_k}
    plus 25 monomials of the box's middle degree, counted on a dense
    table of the box (one flag per point, set when the point is a generator
    or one step above a member)."""
    n = len(sides)
    mid = sum(s - 1 for s in sides) // 2
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < 25:
        cuts = sorted(rng.randint(0, mid) for _ in range(n - 1))
        exps = tuple(b - a for a, b in zip((0, *cuts), (*cuts, mid)))
        if all(e < s for e, s in zip(exps, sides)):
            chosen.add(exps)
    member: dict[tuple[int, ...], bool] = {}
    counts = [0] * (sum(sides) + 1)
    for p in itertools.product(*(range(s) for s in sides)):
        below = (p[:k] + (p[k] - 1,) + p[k + 1 :] for k in range(n) if p[k])
        member[p] = p in chosen or any(member[q] for q in below)
        if not member[p]:
            counts[sum(p)] += 1
    return HilbertFunction(tuple(counts))


@pytest.fixture
def remark_ideal_234() -> MonomialIdeal:
    """Degree-list (2,3,4) lex-plus-powers ideal with H = 1 3 5 3 1 0."""
    return minimalize(
        3,
        [
            Monomial((2, 0, 0)),
            Monomial((0, 3, 0)),
            Monomial((0, 0, 4)),
            Monomial((1, 2, 0)),
            Monomial((1, 1, 1)),
            Monomial((1, 0, 2)),
            Monomial((0, 2, 2)),
        ],
    )


@pytest.fixture
def remark_ideal_233() -> MonomialIdeal:
    """Degree-list (2,3,3) lex-plus-powers ideal with H = 1 3 5 3 1 0."""
    return minimalize(
        3,
        [
            Monomial((2, 0, 0)),
            Monomial((0, 3, 0)),
            Monomial((0, 0, 3)),
            Monomial((1, 2, 0)),
            Monomial((1, 1, 1)),
        ],
    )
