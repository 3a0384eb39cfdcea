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

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .monomials import (
    DegreeList,
    HilbertFunction,
    Monomial,
    _check_cells,
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
        poly = _times_run(poly, ej, upto + 1)
    poly += [0] * (upto + 1 - len(poly))
    return poly[: upto + 1]


def _times_run(poly: list[int], e: int, width: int) -> list[int]:
    """The first `width` coefficients of poly * (1 + t + ... + t^e), up to
    its degree: coefficient i is the window sum poly[i - e] + ... + poly[i],
    a difference of two running sums."""
    m = len(poly)
    size = min(m + e, width)
    run = list(itertools.accumulate(poly, initial=0))  # run[j] = sum(poly[:j])
    high = run[1 : size + 1] + [run[m]] * (size - m)
    low = [0] * min(e, size) + run[: max(0, size - e)]
    return list(map(operator.sub, high, low))


def _rows(degrees: tuple[int, ...], upto: int) -> tuple[tuple[int, ...], ...]:
    """Rectangle rows 1..n for A, row r from the top r degrees, through
    column `upto` or further, in :func:`_width` columns."""
    return _rectangle(degrees, _width(degrees, upto))


def _width(degrees: tuple[int, ...], upto: int) -> int:
    """The columns :func:`_rows` builds through column `upto`: the rows are
    memoized per degree list at the least power-of-two width past `upto`,
    but at most sigma_ci + 2 columns: from sigma_ci on every column is 0, so
    a reader past the width reads 0."""
    cap = sum(degrees) - len(degrees) + 3
    return min(1 << max(upto, 0).bit_length(), cap)


# one key per (degree list, width): ~150 in a cli-large benchmark pass
@lru_cache(maxsize=1024)
def _rectangle(degrees: tuple[int, ...], width: int) -> tuple[tuple[int, ...], ...]:
    """Rectangle rows 1..n for A in `width` columns, each row the one above
    times the next degree's run."""
    rows = []
    row = [1]
    for a in reversed(degrees):
        row = _times_run(row, a - 1, width)
        rows.append(tuple(row) + (0,) * (width - len(row)))
    return tuple(rows)


def rectangle_rows(a: DegreeList, upto: int) -> list[list[int]]:
    """Rectangle rows 1..n for A, each with columns 0..upto."""
    pad = [0] * (upto + 1)
    return [(list(row) + pad)[: upto + 1] for row in _rows(a.degrees, upto)]


def row_label(a: DegreeList, r: int) -> str:
    """Complete-intersection type labelling row r, e.g. ``(1,4,11)``."""
    n = a.n
    padded = (1,) * (n - r) + a.degrees[n - r :]
    return "(" + ",".join(str(v) for v in padded) + ")"


def ci_hilbert_function(a: DegreeList) -> HilbertFunction:
    """Hilbert function of R/(x_1^{a_1}, ..., x_n^{a_n})."""
    return _ci_hilbert_function(a.degrees)


# one key per degree list: 1 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _ci_hilbert_function(degrees: tuple[int, ...]) -> HilbertFunction:
    vals = gk_coefficients([ai - 1 for ai in degrees], sum(degrees) - len(degrees) + 1)
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
    A).  The rectangle is refused before it is built when it would have
    more than BOX_GUARD cells (GuardExceeded).  The greedy choices are
    checked afterwards against the uniqueness constraints (strictly
    descending k, per-depth counts below the matching degree, nonzero last
    term); violations raise instead of returning junk.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    n = a.n
    # from sigma_ci on every monomial is a multiple of a pure power, so the
    # rectangle, d + 2 columns wide, is not built for an empty column
    full = 0
    if d < a.sigma_ci:
        _check_cells("rectangle", n * _width(a.degrees, d + 1))
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
    return _lpp_bound(h, d, a.degrees)


# one key per (value, degree, degree list): 35 in a sweep benchmark pass
@lru_cache(maxsize=1024)
def _lpp_bound(h: int, d: int, degrees: tuple[int, ...]) -> int:
    return gk_expansion(h, d, DegreeList(degrees)).bound()


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
    # the last rectangle row is the complete intersection's Hilbert function,
    # built only as far as s reads it; an s longer than the row is positive
    # at sigma_ci, where the row is 0
    ceiling = _rows(a.degrees, len(s.values))[-1]
    if not all(map(operator.le, s.values, ceiling)):
        return False
    for i in range(1, s.sigma):
        if s.at(i + 1) > lpp_bound(s.at(i), i, a):
            return False
    return True
