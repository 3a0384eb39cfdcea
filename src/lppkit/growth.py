"""Macaulay growth bounds and their Clements-Lindstrom generalization.

The classical side works with binomial expansions; the generalized side
replaces Pascal's rectangle by rows of truncated complete-intersection
coefficients.  Row ``r`` (1-based, top row is 1) of the rectangle for a degree
list ``A = (a_1 <= ... <= a_n)`` holds the coefficients of

    prod_{i = n-r+1}^{n} (1 + t + ... + t^{a_i - 1}),

i.e. the degree-wise counts of monomials in ``r`` variables with exponents
capped by the top ``r`` entries of ``A``.  A value ``h`` in column ``d`` is
expanded greedily, column by column to the left, always taking the deepest row
entry that still fits; shifting every picked entry one column right gives the
maximal Hilbert function growth from degree ``d`` to ``d + 1`` over ideals
containing the pure powers ``x_i^{a_i}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .monomials import (
    DegreeList,
    HilbertFunction,
    Monomial,
    _exps_of_degree,
)


@dataclass(frozen=True)
class MacaulayExpansion:
    """The unique d-binomial expansion h = sum of C(k_t, t), t = d, d-1, ..."""

    h: int
    d: int
    terms: tuple[tuple[int, int], ...]  # (k, t) with t descending

    def bound(self) -> int:
        """Macaulay's bound: the same sum with both indices shifted up."""
        return sum(math.comb(k + 1, t + 1) for k, t in self.terms)


def classical_expansion(h: int, d: int) -> MacaulayExpansion:
    """Greedy d-binomial expansion of h >= 1."""
    if h < 1 or d < 1:
        raise ValueError(f"need h >= 1 and d >= 1, got h={h}, d={d}")
    terms = []
    rem = h
    t = d
    while rem > 0:
        if t < 1:
            raise ValueError(f"no {d}-binomial expansion for h={h}")
        k = t
        while math.comb(k + 1, t) <= rem:
            k += 1
        terms.append((k, t))
        rem -= math.comb(k, t)
        t -= 1
    ks = [k for k, _ in terms]
    assert all(a > b for a, b in zip(ks, ks[1:])), terms
    return MacaulayExpansion(h, d, tuple(terms))


def classical_bound(h: int, d: int) -> int:
    """h^<d>, the maximal value in degree d+1 given h in degree d."""
    if h == 0:
        return 0
    return classical_expansion(h, d).bound()


def gk_coefficients(e, upto: int) -> list[int]:
    """Coefficients of prod_j (1 + t + ... + t^{e_j}) through degree `upto`.

    These are the first differences of the Hilbert function of a complete
    intersection whose forms have degrees e_j + 1 (one extra variable), with
    the convention that a single entry gives the 0/1 indicator of 0 <= i <= e.
    """
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


# one key per (degree list, top degree): ~1200 in a cli-large benchmark pass
@lru_cache(maxsize=8192)
def _rows(degrees: tuple[int, ...], upto: int) -> tuple[tuple[int, ...], ...]:
    """Rectangle rows 1..n for A; row r uses the top r degrees."""
    n = len(degrees)
    rows = []
    for r in range(1, n + 1):
        e = [a - 1 for a in degrees[n - r :]]
        rows.append(tuple(gk_coefficients(e, upto)))
    return tuple(rows)


def rectangle_rows(a: DegreeList, upto: int) -> list[list[int]]:
    return [list(row) for row in _rows(a.degrees, upto)]


def row_label(a: DegreeList, r: int) -> str:
    """Complete-intersection type labelling row r, e.g. ``(1,4,11)``."""
    n = a.n
    padded = (1,) * (n - r) + a.degrees[n - r :]
    return "(" + ",".join(str(v) for v in padded) + ")"


def ci_hilbert_function(a: DegreeList) -> HilbertFunction:
    """Hilbert function of R/(x_1^{a_1}, ..., x_n^{a_n})."""
    vals = gk_coefficients([ai - 1 for ai in a.degrees], a.sigma_ci)
    return HilbertFunction(tuple(vals))


@dataclass(frozen=True)
class GKExpansion:
    """Generalized Macaulay expansion: one rectangle entry per column.

    ``terms`` lists (row, column) pairs with 1-based rows and consecutive
    descending columns starting at d; with ``k(t) = t + row - 1`` the rows
    encode the classical indices, which must descend strictly.
    """

    a: DegreeList
    d: int
    h: int
    terms: tuple[tuple[int, int], ...]

    def term_values(self) -> list[int]:
        rows = _rows(self.a.degrees, self.d + 1)
        return [rows[r - 1][t] for r, t in self.terms]

    def bound_values(self) -> list[int]:
        rows = _rows(self.a.degrees, self.d + 1)
        return [rows[r - 1][t + 1] for r, t in self.terms]

    def bound(self) -> int:
        return sum(self.bound_values())


def gk_expansion(h: int, d: int, a: DegreeList) -> GKExpansion:
    """Greedy generalized expansion of h in column d for the degree list A.

    Requires 0 < h <= (number of monomials of degree d with exponents below
    A).  The greedy choices are checked afterwards against the uniqueness
    constraints (strictly descending k, per-depth counts below the matching
    degree, nonzero last term); violations raise instead of returning junk.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    n = a.n
    rows = _rows(a.degrees, d + 1)
    full = rows[n - 1][d]
    if not 0 < h <= full:
        raise ValueError(f"h={h} out of range 1..{full} at degree {d} for A={a}")
    terms: list[tuple[int, int]] = []
    rem = h
    t = d
    depth_cap = n
    while rem > 0:
        if t < 1:
            raise ValueError(f"expansion of h={h} at d={d} ran past column 1")
        vals = [rows[r - 1][t] for r in range(1, depth_cap + 1)]
        pick = None
        for r in range(depth_cap, 0, -1):
            if vals[r - 1] <= rem:
                pick = r
                break
        if pick is None:
            raise ValueError(f"greedy expansion stuck: h={h}, d={d}, A={a}")
        terms.append((pick, t))
        rem -= rows[pick - 1][t]
        t -= 1
        depth_cap = pick
    _assert_expansion_shape(a, d, h, terms, rows)
    return GKExpansion(a, d, h, tuple(terms))


def _assert_expansion_shape(a, d, h, terms, rows):
    n = a.n
    cols = [t for _, t in terms]
    assert cols == list(range(d, d - len(terms), -1)), terms
    depths = [r for r, _ in terms]
    assert all(x >= y for x, y in zip(depths, depths[1:])), terms
    last_r, last_t = terms[-1]
    assert rows[last_r - 1][last_t] > 0, f"zero last term in {terms}"
    assert sum(rows[r - 1][t] for r, t in terms) == h
    counts: dict[int, int] = {}
    for r, _ in terms:
        counts[r - 1] = counts.get(r - 1, 0) + 1
    for depth0, cnt in counts.items():
        idx = n - depth0 - 1  # 1-based index into A; vacuous outside 1..n
        if 1 <= idx <= n:
            assert cnt < a.degrees[idx - 1], (terms, a)


def lpp_bound(h: int, d: int, a: DegreeList) -> int:
    """Maximal growth h -> degree d+1 over ideals containing the A-powers."""
    if h == 0:
        return 0
    return gk_expansion(h, d, a).bound()


def standard_monomials_of_degree(a: DegreeList, d: int) -> list[Monomial]:
    """Degree-d monomials with exponents below A, in lex-descending order."""
    caps = a.degrees
    out = []
    for exps in _exps_of_degree(a.n, d):
        if all(e < c for e, c in zip(exps, caps)):
            out.append(Monomial(exps))
    return out


def is_lpp_sequence(s: HilbertFunction, a: DegreeList) -> bool:
    """Is s the Hilbert function of some ideal between the A-powers and R?

    Checks s(0) = 1, the complete-intersection ceiling, and the generalized
    Macaulay growth bound at every degree.
    """
    if s.at(0) != 1:
        return False
    ci = ci_hilbert_function(a)
    top = max(s.sigma, ci.sigma)
    for i in range(top + 1):
        if s.at(i) > ci.at(i):
            return False
    for i in range(1, s.sigma):
        if s.at(i + 1) > lpp_bound(s.at(i), i, a):
            return False
    return True


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
