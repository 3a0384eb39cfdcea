"""Monomials, Artinian monomial ideals, and Hilbert functions.

Everything is exact integer arithmetic over exponent vectors.  Monomials in
``k[x_1, ..., x_n]`` are exponent tuples; the monomial order is plain lex with
``x_1 > x_2 > ... > x_n`` (compare exponent vectors at the first differing
position).  All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache


class DimensionError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class NotArtinianError(ValueError):
    """Operation requires an ideal containing a power of every variable."""


class GuardExceeded(RuntimeError):
    """The instance is larger than a guard on the work allows."""


# Most points an ideal's box may hold.  Every reader of the box (Hilbert
# function, socle, colon, Betti numbers, the lex predicates) scans its row
# starts or its points, so this bounds the time of each scan.
BOX_GUARD = 2_000_000


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector ``(e_1, ..., e_n)``."""

    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(self.exps))
        if len(self.exps) < 1:
            raise ValueError("monomial needs at least one variable")
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    # lex order on exponent vectors; total on fixed n
    def __lt__(self, other: Monomial) -> bool:
        if self.n != other.n:
            raise DimensionError(f"{self.n} vs {other.n} variables")
        return self.exps < other.exps

    def __le__(self, other: Monomial) -> bool:
        return self == other or self < other

    def __gt__(self, other: Monomial) -> bool:
        return other < self

    def __ge__(self, other: Monomial) -> bool:
        return other <= self


def pure_power(n: int, i: int, e: int) -> Monomial:
    exps = [0] * n
    exps[i] = e
    return Monomial(tuple(exps))


def _exps_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in _exps_of_degree(n - 1, d - e):
            yield (e,) + rest


@dataclass(frozen=True)
class DegreeList:
    """Non-decreasing positive degrees ``a_1 <= ... <= a_n``."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.degrees) < 1:
            raise ValueError("empty degree list")
        if self.degrees[0] < 1:
            raise ValueError(f"degrees must be positive: {self.degrees}")
        if any(a > b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ValueError(f"degrees must be non-decreasing: {self.degrees}")

    @classmethod
    def from_string(cls, text: str) -> DegreeList:
        try:
            return cls(tuple(int(tok) for tok in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad degree list {text!r}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def omega(self) -> int:
        return sum(self.degrees)

    @property
    def sigma_ci(self) -> int:
        """Least degree where the pure-powers ideal is the whole graded piece."""
        return self.omega - self.n + 1

    def multiplicity(self, j: int) -> int:
        return self.degrees.count(j)

    def powers_ideal(self) -> MonomialIdeal:
        n = self.n
        gens = ((0,) * i + (a,) + (0,) * (n - 1 - i) for i, a in enumerate(self.degrees))
        return MonomialIdeal(n, gens)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.degrees)


@dataclass(frozen=True)
class HilbertFunction:
    """Hilbert function of an Artinian quotient, stored up to its first zero.

    ``values`` always ends with exactly one 0.  The unit ideal's quotient is
    the zero ring, represented as ``(0,)``.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(map(int, self.values))
        if not vals:
            raise ValueError("empty Hilbert function")
        if min(vals) < 0:
            raise ValueError(f"negative entries: {vals}")
        if vals[0] == 0:
            if any(vals):
                raise ValueError(f"H(0)=0 but later values nonzero: {vals}")
            vals = (0,)
        else:
            if vals[0] != 1:
                raise ValueError(f"H(0) must be 1 for a cyclic quotient: {vals}")
            if 0 in vals:
                k = vals.index(0)
                if any(vals[k:]):
                    raise ValueError(f"nonzero value after a zero: {vals}")
                vals = vals[: k + 1]
            else:
                vals = vals + (0,)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_string(cls, text: str) -> HilbertFunction:
        toks = text.replace(",", " ").split()
        if not toks:
            raise ValueError("empty Hilbert function string")
        try:
            vals = tuple(int(t) for t in toks)
        except ValueError:
            raise ValueError(f"bad Hilbert function {text!r}") from None
        return cls(vals)

    @classmethod
    def _of_counts(cls, counts) -> HilbertFunction:
        """The Hilbert function of counts the library computed itself, so
        unchecked: ``counts`` cut after its first 0, or with a 0 appended."""
        h = object.__new__(cls)
        values = tuple(counts[: counts.index(0) + 1]) if 0 in counts else tuple(counts) + (0,)
        object.__setattr__(h, "values", values)
        return h

    def at(self, d: int) -> int:
        if d < 0 or d >= len(self.values):
            return 0
        return self.values[d]

    __call__ = at

    @property
    def sigma(self) -> int:
        """min { i : H(i) = 0 }."""
        return self.values.index(0)

    @property
    def rho(self) -> int:
        """Regularity of the sequence, sigma - 1."""
        return self.sigma - 1

    @property
    def total(self) -> int:
        return sum(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


class MonomialIdeal:
    """A monomial ideal stored by its minimal generators, as exponent tuples.

    The tuples are lex-descending and minimal (no generator divides another);
    build instances with :func:`minimalize` unless the input is already
    canonical.  The unit ideal is generated by the all-zero tuple.  An ideal
    built from row starts (:func:`_ideal_of_rows`) keeps them and reads its
    generators off them on first use.  ``==`` compares the row starts when
    both ideals hold them in the same box, and the generators otherwise;
    ``hash`` goes by ``(n, generators)`` whatever the box.  Neither builds a
    box.  ``gens`` and ``repr`` build :class:`Monomial`s when read.
    """

    __slots__ = ("_n", "_gens", "_rows")

    def __init__(self, n: int, gens):
        """``gens``: the minimal generators, lex-descending, as Monomials or
        exponent tuples."""
        if n < 1:
            raise ValueError("need at least one variable")
        gens = tuple(g.exps if isinstance(g, Monomial) else tuple(g) for g in gens)
        if not gens:
            raise ValueError("zero ideal is not representable here")
        if any(len(g) != n for g in gens):
            raise DimensionError("generator with wrong variable count")
        self._n = n
        self._gens = gens
        self._rows = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self._corners()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._n != other._n:
            return False
        # in one box, equal starts mean equal members, so equal ideals
        if self._rows is not None and other._rows is not None and self._rows[0] == other._rows[0]:
            return self._rows[1] == other._rows[1]
        return self._corners() == other._corners()

    def __hash__(self) -> int:
        return hash((self._n, self._corners()))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self._n!r}, gens={self.gens!r})"

    @property
    def is_unit(self) -> bool:
        return self.pure_power_profile()[0] == 0

    def _is_artinian(self) -> bool:
        """Does the ideal hold a power of every variable?

        With row starts, x_n has one when row 0 starts inside the box, and
        x_k, k < n, when the row (side_k - 1) * e_k starts at 0: starts
        never increase along an axis, and beyond the box membership does
        not change.  An ideal with generators only reads its pure-power
        profile from them, so no box is built."""
        if self._rows is None:
            return None not in self.pure_power_profile()
        sides, starts = self._rows
        return starts[0] < sides[-1] and not any(_axis_ends(sides)(starts))

    def _corners(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuples of the minimal generators, lex-descending; an
        ideal built from row starts reads them off its starts once."""
        if self._gens is None:
            self._gens = tuple(_corners_of_rows(*self._rows))
        return self._gens

    def pure_power_profile(self) -> tuple[int | None, ...]:
        """Per variable, the least e with x_i^e in the ideal (None if none).

        Read from the row starts when the ideal has them: x_k^e is in it when
        row e * e_k starts at 0, the first 0 of the strided slice of the starts
        along axis k, and x_n^e when row 0 starts at or before e.  Otherwise
        read from the generators, so no box is built.
        """
        if self._rows is not None:
            sides, starts = self._rows
            strides = _row_strides(sides)
            axes = (starts[: side * stride : stride] for side, stride in zip(sides, strides))
            prof = [axis.index(0) if 0 in axis else None for axis in axes]
            prof.append(starts[0] if starts[0] < sides[-1] else None)
            return tuple(prof)
        prof = [None] * self.n
        for g in self._corners():
            support = [i for i, e in enumerate(g) if e > 0]
            if len(support) == 0:
                return (0,) * self.n
            if len(support) == 1:
                i = support[0]
                e = g[i]
                if prof[i] is None or e < prof[i]:
                    prof[i] = e
        return tuple(prof)

    def _row_starts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row starts of the ideal in a box prod [0, sides_k) that holds every
        minimal generator, as ``(sides, starts)``.

        A row is a prefix of all coordinates but the last; rows are indexed in
        mixed radix, last prefix coordinate fastest.  A row's start is the
        least exponent of the last variable that puts the point in the ideal,
        or ``sides[-1]`` when none in the box does; the members of a row are
        exactly the points from its start on.

        The box is the one an ideal built from row starts
        (:func:`_ideal_of_rows`) was built in, which may be larger than its
        generator box; otherwise it is the generator box, box_k - 1 the
        largest generator exponent in variable k, and each start comes from
        the generators in the row and the starts of the rows one step below.
        Beyond the generator box membership does not change, so every reader
        of the row starts gives the same answer for any such box.  Raises
        GuardExceeded when the generator box has more than BOX_GUARD points.
        """
        if self._rows is not None:
            return self._rows
        corners = self._corners()
        sides = _generator_box(corners)
        self._rows = (sides, tuple(_starts_of_corners(sides, corners)))
        return self._rows

    def hilbert_function(self) -> HilbertFunction:
        """H(R/I, d) = number of degree-d monomials outside I, down to 0.

        Row p holds the standard monomials of degrees |p| to |p| + start - 1,
        so the counts are the running sum of the rows of each degree |p|
        (cached per box by :func:`_row_plan`, with the |p| of every row) less
        one at |p| + start per row; for the unit ideal every row starts at 0,
        giving (0,).
        """
        if not self._is_artinian():
            raise NotArtinianError("ideal is not Artinian")
        sides, starts = self._row_starts()
        row_degrees, _, degree_counts = _row_plan(sides)
        diff = list(degree_counts)
        for d in map(operator.add, itertools.chain.from_iterable(row_degrees), starts):
            diff[d] -= 1
        return HilbertFunction._of_counts(list(itertools.accumulate(diff)))

    def socle_monomials(self) -> dict[int, tuple[Monomial, ...]]:
        """Monomials m outside I with x_i * m in I for every i, by degree.

        Only the last standard monomial (p, t - 1) of a row can have x_n * m
        in I; for it, x_k * m is in I when the row one step up in k starts
        before t.  A row with t > 0 has p_k below x_k's pure power, so that
        row is inside the box; a row at the top of axis k starts at 0, so
        the start read past it (0, or a row that wraps round) never counts.
        Prefixes are built only for the rows kept.
        """
        if not self._is_artinian():
            raise NotArtinianError("ideal is not Artinian")
        sides, starts = self._row_starts()
        strides = _row_strides(sides)
        ups = [starts[s:] + (0,) * s for s in strides]
        # per row, the latest start one step up; max needs two iterables
        above = map(max, *ups) if len(ups) > 1 else ups[0] if ups else (0,) * len(starts)
        kept = itertools.compress(range(len(starts)), map(operator.lt, above, starts))
        out: dict[int, list[Monomial]] = {}
        for r in reversed(list(kept)):
            exps = tuple(r // s % side for s, side in zip(strides, sides)) + (starts[r] - 1,)
            out.setdefault(sum(exps), []).append(Monomial(exps))
        return {d: tuple(ms) for d, ms in sorted(out.items())}

    def __str__(self) -> str:
        return format_ideal(self)


def minimalize(n: int, gens) -> MonomialIdeal:
    """Drop generators divisible by another; canonical lex-descending order."""
    pool = {g.exps if isinstance(g, Monomial) else tuple(g) for g in gens}
    for e in pool:
        if len(e) != n:
            raise DimensionError(f"generator with wrong variable count for {n} variables")
        if min(e, default=0) < 0:
            raise ValueError(f"negative exponent in {e}")
    minimal: list[tuple[int, ...]] = []
    # ascending degree scan: a divisor always has smaller-or-equal degree
    for e in sorted(pool, key=lambda e: (sum(e), e)):
        if not any(all(map(operator.le, g, e)) for g in minimal):
            minimal.append(e)
    if not minimal:
        raise ValueError("zero ideal is not representable here")
    return MonomialIdeal(n, tuple(sorted(minimal, reverse=True)))


@lru_cache(maxsize=64)
def _row_strides(sides: tuple[int, ...]) -> tuple[int, ...]:
    """Index step between rows one step apart in each prefix coordinate."""
    return tuple(math.prod(sides[k + 1 : -1]) for k in range(len(sides) - 1))


# one getter per box: 1 in a sweep benchmark pass; at most 64 getters of
# n - 1 indices, under 1.5 KB each for n <= 8 (tracemalloc, lru entry
# included), so under 100 KB.  sweep-betti read 3-6% more items_per_s with
# it than with a loop over _row_strides (paired runs in BENCH_22.json).
@lru_cache(maxsize=64)
def _axis_ends(sides: tuple[int, ...]):
    """A getter (see :func:`_getter`) of the starts of the last row along
    each prefix axis of the box prod [0, sides_k), (side_k - 1) * e_k."""
    return _getter([(side - 1) * stride for side, stride in zip(sides, _row_strides(sides))])


def _getter(indices):
    """``operator.itemgetter(*indices)``, but giving a tuple for any number
    of indices."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda seq: tuple(map(seq.__getitem__, indices))


# one plan per box: 1 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _row_plan(sides: tuple[int, ...]):
    """The rows of the box prod [0, sides_k) in runs: a run holds the rows
    whose prefixes agree but in the last prefix coordinate, which has row
    stride 1.  Returns per run in row order the range of its rows' |p|, per
    run ``(degree, first)``, and the number of rows of each prefix degree
    |p|, 0 to sum(sides).

    ``degree`` is the |p| of the run's first row.  The key of a row (see
    :func:`betti._row_contribution`) is the starts of the rows one step
    below it along the subsets j of its prefix support, bit m of j for its
    m-th coordinate: ``first`` holds those rows for the run's first row,
    which are the first rows of the runs one step below along the outer
    prefix support, the run itself first.  Row e > 0 of the run reads row
    e of each of those runs, then row e - 1 of each (the last prefix
    coordinate is the top bit)."""
    strides = _row_strides(sides)[:-1]
    run = sides[-2] if len(sides) > 1 else 1
    degrees, runs, counts = [], [], [0] * (sum(sides) + 1)
    for outer in itertools.product(*map(range, sides[:-2])):
        degree, first = sum(outer), [sum(map(operator.mul, outer, strides))]
        for e, stride in zip(outer, strides):
            if e:
                first += [r - stride for r in first]
        degrees.append(range(degree, degree + run))
        runs.append((degree, tuple(first)))
        counts[degree] += 1
        counts[degree + run] -= 1
    return tuple(degrees), tuple(runs), tuple(itertools.accumulate(counts))


# one table per box that asks for it: 1 in a sweep-residual pass
@lru_cache(maxsize=32)
def _row_steps(sides: tuple[int, ...]):
    """Every pair of rows one step apart along a prefix axis of the box
    prod [0, sides_k), as two getters (see :func:`_getter`) of the row
    starts: the lower rows, the upper rows.  One entry per pair, so unlike
    :func:`_row_plan` this grows with the rows of the box."""
    strides = _row_strides(sides)
    lower, upper = [], []
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        for p, stride in zip(prefix, strides):
            if p:
                lower.append(r - stride)
                upper.append(r)
    return _getter(lower), _getter(upper)


def _generator_box(corners) -> tuple[int, ...]:
    """Sides of the least box prod [0, sides_k) that holds every exponent
    tuple of ``corners``.  Raises GuardExceeded when it has more than
    BOX_GUARD points."""
    sides = tuple(max(column) + 1 for column in zip(*corners))
    volume = math.prod(sides)
    if volume > BOX_GUARD:
        raise GuardExceeded(f"box of {volume} points exceeds {BOX_GUARD}")
    return sides


def _starts_of_corners(sides: tuple[int, ...], corners) -> list[int]:
    """Row starts, in the box prod [0, sides_k), of the ideal generated by
    the exponent tuples ``corners``, as in :meth:`MonomialIdeal._row_starts`.

    Each start is the least last exponent of a corner in the row, or of the
    start of a row one step below.  So each row first takes its corners' own
    start; then, run by run (see :func:`_row_plan`), the minimum with the
    run one step below along each wider prefix axis, and a running minimum
    along the run.  A corner whose prefix is outside the box is never read,
    and a start past the box is ``sides[-1]``.
    """
    last = sides[-1]
    strides = _row_strides(sides)
    own = [last] * math.prod(sides[:-1])
    for g in corners:
        if all(map(operator.lt, g[:-1], sides)):
            r = sum(map(operator.mul, g, strides))
            own[r] = min(own[r], g[-1])
    run = sides[-2] if len(sides) > 1 else 1
    # per wider prefix axis, its row step and the rows of a block along it
    axes = [(stride, side * stride) for side, stride in zip(sides, strides[:-1])]
    starts: list[int] = []
    for lo in range(0, len(own), run):
        row = own[lo : lo + run]
        for stride, block in axes:
            if lo % block >= stride:
                row = map(min, row, starts[lo - stride : lo - stride + run])
        starts += itertools.accumulate(row, min)
    return starts


def _ideal_of_rows(n: int, sides: tuple[int, ...], starts) -> MonomialIdeal:
    """The ideal whose row starts in the box prod [0, sides_k) are ``starts``
    (as in :meth:`MonomialIdeal._row_starts`).  It keeps the box and a copy
    of the starts, and builds its generators on first access."""
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._n = n
    ideal._gens = None
    ideal._rows = (tuple(sides), tuple(starts))
    return ideal


def _corners_of_rows(sides: tuple[int, ...], starts) -> list[tuple[int, ...]]:
    """The minimal generators, as lex-descending exponent tuples, of the
    ideal whose row starts in the box prod [0, sides_k) are ``starts``.

    A row's start is a minimal generator when it lies in the box and is below
    the start of every row one step down; no other point is.  Rows are read
    from the last, so the generators come out lex-descending.
    """
    last = sides[-1]
    axes = list(enumerate(_row_strides(sides)))
    prefixes = itertools.product(*(range(s - 1, -1, -1) for s in sides[:-1]))
    corners = []
    for r, prefix in zip(range(len(starts) - 1, -1, -1), prefixes):
        t = starts[r]
        if t >= last:
            continue
        for k, stride in axes:
            if prefix[k] and starts[r - stride] <= t:
                break
        else:
            corners.append(prefix + (t,))
    return corners


def colon(j: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """The residual (J : I) = { f : f*I inside J }, as a minimal monomial ideal.

    Built in J's box from I's minimal generators as exponent tuples
    (:meth:`MonomialIdeal._corners`) or from I's row starts, so I's box is
    never built.  When J's minimal generators are one pure power x_k^{a_k}
    per variable, (J : I) is the reflection b -> a - 1 - b of the points of
    the box prod [0, a_k) outside I: one pass over those rows
    (:func:`_colon_of_powers`).  Any other J takes one pass over its box per
    generator of I (:func:`_colon_of_corners`).  Raises GuardExceeded when
    J's box has more than BOX_GUARD points.
    """
    if j.n != i.n:
        raise DimensionError(f"{j.n} vs {i.n} variables")
    j_gens = j._corners()
    if len(j_gens) == j.n and all(g.count(0) == j.n - 1 for g in j_gens):
        sides = j._rows[0] if j._rows is not None else _generator_box(j_gens)
        return _colon_of_powers(sides, j.pure_power_profile(), i)
    return _colon_of_corners(j, i._corners())


def _colon_of_powers(sides: tuple[int, ...], a: tuple[int, ...], i: MonomialIdeal):
    """(x_1^{a_1}, ..., x_n^{a_n}) : I in the box prod [0, sides_k) holding
    the powers.

    With T(q) the start of I's row q, a_n for an empty row, clamped to a_n,
    the point (p, c) with every p_k < a_k is in the colon when
    (a' - 1 - p, a_n - 1 - c) is outside I, that is c >= a_n - T(a' - 1 - p);
    every other row is in the powers and starts at 0.  I's starts are read
    in that order through :func:`_reflection`, a padding row reading one
    start appended past the end; an I with generators only first gets its
    starts in the box prod [0, a_k).  A box of more than REFLECT_CACHED rows
    builds its getter without keeping it.
    """
    last = a[-1]
    if i._rows is not None:
        i_sides, i_starts = i._rows
    else:
        i_sides, i_starts = a, tuple(_starts_of_corners(a, i._corners()))
    # a start at or past I's side is an empty row: T is then a_n
    bound = min(i_sides[-1], last)
    cached = math.prod(sides[:-1]) <= REFLECT_CACHED
    rows = (_reflection if cached else _reflection.__wrapped__)(i_sides, a, sides)
    inner = [last - t if t < bound else 0 for t in rows(i_starts + (bound,))]
    return _ideal_of_rows(len(a), sides, inner)


# Most rows of the colon's box for which the _reflection getter is kept in
# its cache; a larger one is built per call.  The sweep-residual colons read
# boxes of at most 36 rows, the cli-large ones boxes of at most 729.
REFLECT_CACHED = 4096


# one getter per pair of boxes and powers: 2 in a sweep-residual pass, 27 in
# a cli-large pass; at most 32 getters of REFLECT_CACHED rows, about 150 KB
# each (tracemalloc, lru entry included), so about 5 MB
@lru_cache(maxsize=32)
def _reflection(i_sides: tuple[int, ...], a: tuple[int, ...], sides: tuple[int, ...]):
    """A getter (see :func:`_getter`) of the starts that
    :func:`_colon_of_powers` reads, in the row order of the box
    prod [0, sides_k), from the starts of an ideal in the box
    prod [0, i_sides_k) with one start appended: row p with every p_k < a_k
    reads row a' - 1 - p, each coordinate clamped to the ideal's box, and
    every other row reads the appended start.  The rows p of
    prod [0, a_k), k < n, are laid out first, then padded along each prefix
    axis from a_k to sides_k, innermost first."""
    pad = math.prod(i_sides[:-1])
    rows = [0]
    for side, stride, ak in zip(i_sides, _row_strides(i_sides), a):
        steps = [min(q, side - 1) * stride for q in range(ak - 1, -1, -1)]
        rows = [r + step for r in rows for step in steps]
    block = 1
    for k in range(len(a) - 2, -1, -1):
        chunk, fill = a[k] * block, [pad] * ((sides[k] - a[k]) * block)
        chunks = (rows[c : c + chunk] + fill for c in range(0, len(rows), chunk))
        rows = list(itertools.chain.from_iterable(chunks))
        block *= sides[k]
    return _getter(rows)


def _colon_of_corners(j: MonomialIdeal, corners) -> MonomialIdeal:
    """(J : I) from J's row starts and I's minimal generators ``corners``.

    The generators of (J : I) lie in J's box, and beyond the box membership
    does not change, so shifted rows are clamped to it.  Point (p, c) is in
    (J : I) when, for every generator (g', g_n) of I, the row p + g' of J is
    not empty and c >= its start - g_n.
    """
    sides, starts = j._row_starts()
    last = sides[-1]
    # an empty row stays at or past `last` whatever g_n is subtracted
    empty = last + max(g[-1] for g in corners)
    need = [t if t < last else empty for t in starts]
    axes = list(zip(sides[:-1], _row_strides(sides)))
    out = [0] * len(starts)
    for g in corners:
        rows = [0]  # J's row of p + g', clamped, for every row p in order
        for e, (s, stride) in zip(g, axes):
            steps = [min(p + e, s - 1) * stride for p in range(s)]
            rows = [r + step for r in rows for step in steps]
        gn = g[-1]
        out = [max(o, need[r] - gn) for o, r in zip(out, rows)]
    return _ideal_of_rows(j.n, sides, [min(o, last) for o in out])


def add_maximal_power(i: MonomialIdeal, t: int) -> MonomialIdeal:
    """I + (x_1, ..., x_n)^t, from I's row starts: row p starts at
    min(start, max(0, t - |p|)).

    The result is kept in I's box, widened to t + 1 along each variable of
    which I holds no power: a new generator has degree t, and below a power
    x_k^e of I its k-th exponent is below e.  Rows past I's box read the row
    clamped to it.
    """
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    sides, starts = i._row_starts()
    last = sides[-1]
    box = tuple(
        side if power is not None else max(side, t + 1)
        for side, power in zip(sides, i.pure_power_profile())
    )
    rows, degrees = [0], [0]
    for side, stride, wide in zip(sides, _row_strides(sides), box):
        rows = [r + min(p, side - 1) * stride for r in rows for p in range(wide)]
        degrees = [d + p for d in degrees for p in range(wide)]
    # an empty row of I takes the start t - |p| of the power
    starts = [
        min(starts[r] if starts[r] < last else t, max(0, t - d)) for r, d in zip(rows, degrees)
    ]
    return _ideal_of_rows(i.n, box, starts)


def is_lpp(i: MonomialIdeal, a: DegreeList) -> bool:
    """Is I a lex-plus-powers ideal for the degree list A?

    Requires the pure powers x_i^{a_i} among the minimal generators (the
    least power of x_i in I is always one, so that is a pure-power profile of
    A), and for every other minimal generator all lex-larger monomials of the
    same degree must already lie in the ideal.  As a lex segment times a
    variable is again one, that holds when, in each degree of another
    generator, the members among the monomials below A come first in lex
    order.  Raises GuardExceeded when I has such a generator and its box has
    more than BOX_GUARD points.
    """
    if i.n != a.n:
        raise DimensionError(f"{i.n} vs {a.n} variables")
    return i.pure_power_profile() == a.degrees and _lex_above_powers(i, a.degrees)


def _lex_above_powers(i: MonomialIdeal, caps: tuple[int, ...]) -> bool:
    """:func:`is_lpp` once I's pure-power profile is known to be ``caps``:
    in each degree of a minimal generator in two or more variables, the
    members among the monomials below ``caps`` come first in lex order."""
    degrees = {sum(g) for g in i._corners() if g.count(0) < i.n - 1}
    return all(_members_first(i, d, caps) for d in degrees)


def is_lex_segment(i: MonomialIdeal, d: int) -> bool:
    """Is the degree-d piece of I closed upward under lex order?

    Past the socle degree sum(e_k - 1) of an Artinian I with pure powers e,
    every monomial of degree d is in I, so it is, with nothing read.
    Otherwise the C(d + n - 1, n - 1) monomials of degree d are read in lex
    order.  Raises GuardExceeded when they are more than BOX_GUARD, or when
    I's box has more than BOX_GUARD points."""
    profile = i.pure_power_profile()
    if None not in profile and d > sum(profile) - i.n:
        return True
    count = math.comb(d + i.n - 1, i.n - 1) if d >= 0 else 0
    if count > BOX_GUARD:
        raise GuardExceeded(f"{count} monomials of degree {d} exceeds {BOX_GUARD}")
    return _members_first(i, d, None)


def _members_first(i: MonomialIdeal, d: int, caps) -> bool:
    """Do I's members come before its non-members among the degree-d exponent
    tuples in lex-descending order (only the tuples below ``caps``, when
    given)?  Each tuple is read as the row and column of
    :func:`_lex_table`: it is a member when the row starts at or before the
    column.  A degree with more than LEX_CACHED tuples builds its table
    without keeping it."""
    sides, starts = i._row_starts()
    n = len(sides)
    cached = d < 0 or math.comb(d + n - 1, n - 1) <= LEX_CACHED
    rows, columns = (_lex_table if cached else _lex_table.__wrapped__)(sides, caps, d)
    members = list(map(operator.le, rows(starts), columns))
    return True not in members[members.count(True) :]


# Most degree-d exponent tuples, counted without caps, for which the
# _lex_table is kept in its cache; a larger table (at most BOX_GUARD tuples,
# about 40 bytes each) is built per call.  Sweeps read tables of at most 15
# tuples.
LEX_CACHED = 4096


# one table per box, caps and degree: 94 in a sweep-residual pass; at most
# 128 tables of LEX_CACHED tuples, about 25 MB
@lru_cache(maxsize=128)
def _lex_table(sides: tuple[int, ...], caps, d: int):
    """The degree-d exponent tuples below ``caps`` (all of them when it is
    None), lex-descending, as a getter (see :func:`_getter`) of their rows'
    starts in the box prod [0, sides_k) and a tuple of their last
    exponents.  Membership does not change beyond the box, so each
    coordinate is clamped to it.

    The tuples are built one coordinate at a time, each prefix as its degree
    and row."""
    caps = caps or (d + 1,) * len(sides)
    prefixes = [(0, 0)]
    for cap, side, stride in zip(caps, sides, _row_strides(sides)):
        prefixes = [
            (s + e, r + min(e, side - 1) * stride)
            for s, r in prefixes
            for e in range(min(cap - 1, d - s), -1, -1)
        ]
    top = sides[-1] - 1
    kept = [(r, min(d - s, top)) for s, r in prefixes if d - s < caps[-1]]
    return _getter([r for r, _ in kept]), tuple(c for _, c in kept)


# ---------------------------------------------------------------------------
# text formats


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m.exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(i: MonomialIdeal) -> str:
    return ", ".join(format_monomial(g) for g in i.gens)


def parse_monomial(text: str, n: int) -> Monomial:
    text = text.strip()
    exps = [0] * n
    if text == "1":
        return Monomial(tuple(exps))
    for factor in text.split("*"):
        factor = factor.strip()
        match = _FACTOR_RE.match(factor)
        if not match:
            raise ValueError(f"bad monomial factor {factor!r}")
        idx = int(match.group(1))
        if idx == 0:
            raise ValueError("variable x0: variables are numbered from x1")
        if idx > n:
            raise ValueError(f"variable x{idx} out of range for n={n}")
        exps[idx - 1] += int(match.group(2) or 1)
    return Monomial(tuple(exps))


def _infer_n(text: str) -> int:
    indices = [int(tok) for tok in re.findall(r"x(\d+)", text)]
    if not indices:
        raise ValueError(f"cannot infer variable count from {text!r}")
    return max(indices)


def parse_ideal(text: str, n: int | None = None) -> MonomialIdeal:
    """Parse either the JSON format or the human generator list.

    JSON: ``{"n": 3, "gens": [[2,0,0], [0,3,0]]}``.  Human: comma-separated
    monomials like ``x1^2, x2^3, x1*x2^2`` (exponent 1 elided, 0 omitted).
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad ideal JSON: {exc}") from None
        return ideal_from_json_dict(data)
    if n is None:
        n = _infer_n(text)
    gens = [parse_monomial(tok, n) for tok in text.split(",") if tok.strip()]
    if not gens:
        raise ValueError(f"no generators in {text!r}")
    return minimalize(n, gens)


def ideal_to_json_dict(i: MonomialIdeal) -> dict:
    return {"n": i.n, "gens": [list(g) for g in i._corners()]}


def ideal_from_json_dict(data: dict) -> MonomialIdeal:
    """The ideal of a JSON object; ``n`` and every exponent must be JSON
    integers (not floats, booleans or strings)."""
    try:
        n = data["n"]
        gens = [tuple(g) for g in data["gens"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad ideal JSON object: {exc}") from None
    for v in (n, *itertools.chain.from_iterable(gens)):
        if type(v) is not int:
            raise ValueError(f"bad ideal JSON object: {json.dumps(v)} is not an integer")
    return minimalize(n, [Monomial(g) for g in gens])
