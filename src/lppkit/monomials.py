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

    def __mul__(self, other: Monomial) -> Monomial:
        if self.n != other.n:
            raise DimensionError(f"{self.n} vs {other.n} variables")
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

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


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n)


def pure_power(n: int, i: int, e: int) -> Monomial:
    exps = [0] * n
    exps[i] = e
    return Monomial(tuple(exps))


def monomials_of_degree(n: int, d: int):
    """Yield all degree-d monomials in n variables in lex-descending order."""
    for exps in _exps_of_degree(n, d):
        yield Monomial(exps)


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

    def tail(self) -> DegreeList:
        """Drop a_1 (the sub-list used for recursion into fewer variables)."""
        if self.n == 1:
            raise ValueError("tail of a length-1 degree list")
        return DegreeList(self.degrees[1:])

    def powers_ideal(self) -> MonomialIdeal:
        gens = tuple(pure_power(self.n, i, a) for i, a in enumerate(self.degrees))
        return MonomialIdeal(self.n, gens)

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
    """A monomial ideal stored by its minimal generating set.

    ``gens`` is lex-descending and minimal (no generator divides another);
    build instances with :func:`minimalize` / :meth:`from_gens` unless the
    input is already canonical.  The unit ideal is generated by the monomial
    with all-zero exponents.  An ideal built from row starts
    (:func:`_ideal_of_rows`) keeps them and builds ``gens`` on first access.
    Equality, hashing and ``repr`` go by ``(n, gens)``.
    """

    __slots__ = ("_n", "_gens", "_cache")

    def __init__(self, n: int, gens: tuple[Monomial, ...]):
        if n < 1:
            raise ValueError("need at least one variable")
        if not gens:
            raise ValueError("zero ideal is not representable here")
        if any(g.n != n for g in gens):
            raise DimensionError("generator with wrong variable count")
        self._n = n
        self._gens = gens
        self._cache: dict = {}

    @property
    def n(self) -> int:
        return self._n

    @property
    def gens(self) -> tuple[Monomial, ...]:
        if self._gens is None:
            self._gens = _gens_of_rows(*self._cache["rows"])
        return self._gens

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._n, self.gens) == (other._n, other.gens)

    def __hash__(self) -> int:
        return hash((self._n, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self._n!r}, gens={self.gens!r})"

    @classmethod
    def from_gens(cls, n: int, gens) -> MonomialIdeal:
        return minimalize(n, gens)

    @property
    def is_unit(self) -> bool:
        rows = self._cache.get("rows")
        if rows is None:
            return self.gens[0].degree == 0
        return rows[1][0] == 0  # the origin's row starts at 0

    def contains(self, m: Monomial) -> bool:
        if m.n != self.n:
            raise DimensionError(f"{m.n} vs {self.n} variables")
        me = m.exps
        for g in self.gens:
            ge = g.exps
            if all(a <= b for a, b in zip(ge, me)):
                return True
        return False

    def __contains__(self, m: Monomial) -> bool:
        return self.contains(m)

    def pure_power_profile(self) -> tuple[int | None, ...]:
        """Per variable, the least e with x_i^e in the ideal (None if none)."""
        prof: list[int | None] = [None] * self.n
        for g in self.gens:
            support = [i for i, e in enumerate(g.exps) if e > 0]
            if len(support) == 0:
                return (0,) * self.n
            if len(support) == 1:
                i = support[0]
                e = g.exps[i]
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
        cached = self._cache.get("rows")
        if cached is not None:
            return cached
        n = self.n
        sides = tuple(max(g.exps[k] for g in self.gens) + 1 for k in range(n))
        volume = math.prod(sides)
        if volume > BOX_GUARD:
            raise GuardExceeded(f"box of {volume} points exceeds {BOX_GUARD}")
        last = sides[-1]
        own: dict[tuple[int, ...], int] = {}
        for g in self.gens:
            key = g.exps[:-1]
            own[key] = min(own.get(key, last), g.exps[-1])
        row_strides = _row_strides(sides)
        starts: list[int] = []
        for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
            t = own.get(prefix, last)
            for k, stride in enumerate(row_strides):
                if prefix[k] and starts[r - stride] < t:
                    t = starts[r - stride]
            starts.append(t)
        result = (sides, tuple(starts))
        self._cache["rows"] = result
        return result

    def _is_artinian(self) -> bool:
        """Does the ideal hold a power of every variable?

        Read from the row starts when the ideal has them: x_n has a power in
        it when row 0 starts inside the box, and x_k when the last row along
        axis k starts at 0.  Otherwise read from the generators, so that a
        non-Artinian ideal is told apart before its box is built.
        """
        rows = self._cache.get("rows")
        if rows is None:
            return None not in self.pure_power_profile()
        sides, starts = rows
        far_rows = ((s - 1) * stride for s, stride in zip(sides, _row_strides(sides)))
        return starts[0] < sides[-1] and not any(starts[r] for r in far_rows)

    def _box_rows(self):
        """The box sides and, per row, (row index, prefix, start), rows in
        lex-descending order.  Requires an Artinian ideal, so every row ends
        inside the ideal."""
        if not self._is_artinian():
            raise NotArtinianError("ideal is not Artinian")
        sides, starts = self._row_starts()
        prefixes = itertools.product(*(range(s - 1, -1, -1) for s in sides[:-1]))
        return sides, zip(range(len(starts) - 1, -1, -1), prefixes, reversed(starts))

    def hilbert_function(self) -> HilbertFunction:
        """H(R/I, d) = number of degree-d monomials outside I, down to 0.

        Row p holds the standard monomials of degrees |p| to |p| + start - 1,
        so the counts are the running sum of +1 at |p| and -1 at |p| + start
        over the rows.
        """
        cached = self._cache.get("hf")
        if cached is not None:
            return cached
        if self.is_unit:
            hf = HilbertFunction((0,))
        else:
            sides, rows = self._box_rows()
            diff = [0] * (sum(sides) + 1)
            for _, prefix, t in rows:
                d0 = sum(prefix)
                diff[d0] += 1
                diff[d0 + t] -= 1
            counts = list(itertools.accumulate(diff))
            hf = HilbertFunction(tuple(counts[: counts.index(0) + 1]))
        self._cache["hf"] = hf
        return hf

    def socle_monomials(self) -> dict[int, tuple[Monomial, ...]]:
        """Monomials m outside I with x_i * m in I for every i, by degree.

        Only the last standard monomial (p, t - 1) of a row can have x_n * m
        in I; for it, x_k * m is in I when the row one step up in k starts
        before t.  A row with t > 0 has p_k below x_k's pure power, so that
        row is inside the box.
        """
        sides, rows = self._box_rows()
        starts = self._row_starts()[1]
        row_strides = _row_strides(sides)
        out: dict[int, list[Monomial]] = {}
        for r, prefix, t in rows:
            if t and all(starts[r + stride] < t for stride in row_strides):
                exps = prefix + (t - 1,)
                out.setdefault(sum(exps), []).append(Monomial(exps))
        return {d: tuple(ms) for d, ms in sorted(out.items())}

    def __str__(self) -> str:
        return format_ideal(self)


def minimalize(n: int, gens) -> MonomialIdeal:
    """Drop generators divisible by another; canonical lex-descending order."""
    pool = {g if isinstance(g, Monomial) else Monomial(tuple(g)) for g in gens}
    if any(m.n != n for m in pool):
        raise DimensionError(f"generator with wrong variable count for {n} variables")
    minimal: list[Monomial] = []
    # ascending degree scan: a divisor always has smaller-or-equal degree
    for m in sorted(pool, key=lambda m: (m.degree, m.exps)):
        e = m.exps
        if not any(all(map(operator.le, g.exps, e)) for g in minimal):
            minimal.append(m)
    if not minimal:
        raise ValueError("zero ideal is not representable here")
    return MonomialIdeal(n, tuple(sorted(minimal, reverse=True)))


def _row_strides(sides: tuple[int, ...]) -> list[int]:
    """Index step between rows one step apart in each prefix coordinate."""
    return [math.prod(sides[k + 1 : -1]) for k in range(len(sides) - 1)]


def _ideal_of_rows(n: int, sides: tuple[int, ...], starts) -> MonomialIdeal:
    """The ideal whose row starts in the box prod [0, sides_k) are ``starts``
    (as in :meth:`MonomialIdeal._row_starts`).  It keeps the box and a copy
    of the starts, and builds its generators on first access."""
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._n = n
    ideal._gens = None
    ideal._cache = {"rows": (tuple(sides), tuple(starts))}
    return ideal


def _gens_of_rows(sides: tuple[int, ...], starts) -> tuple[Monomial, ...]:
    """The minimal generators, lex-descending, of the ideal whose row starts
    in the box prod [0, sides_k) are ``starts``.

    A row's start is a minimal generator when it lies in the box and is below
    the start of every row one step down; no other point is.  Rows are read
    from the last, so the generators come out lex-descending.
    """
    last = sides[-1]
    axes = list(enumerate(_row_strides(sides)))
    prefixes = itertools.product(*(range(s - 1, -1, -1) for s in sides[:-1]))
    gens = []
    for r, prefix in zip(range(len(starts) - 1, -1, -1), prefixes):
        t = starts[r]
        if t >= last:
            continue
        for k, stride in axes:
            if prefix[k] and starts[r - stride] <= t:
                break
        else:
            gens.append(Monomial(prefix + (t,)))
    return tuple(gens)


def colon(j: MonomialIdeal, i: MonomialIdeal) -> MonomialIdeal:
    """The residual (J : I) = { f : f*I inside J }, as a minimal monomial ideal.

    Read from J's row starts.  The generators of (J : I) lie in J's box, and
    beyond the box membership does not change, so shifted rows are clamped
    to it.  Point (p, c) is in (J : I) when, for every generator (g', g_n)
    of I, the row p + g' of J is not empty and c >= its start - g_n.  With J
    the pure powers this is the reflection b -> a - 1 - b.  Raises
    GuardExceeded when J's box has more than BOX_GUARD points.
    """
    if j.n != i.n:
        raise DimensionError(f"{j.n} vs {i.n} variables")
    sides, starts = j._row_starts()
    last = sides[-1]
    # an empty row stays at or past `last` whatever g_n is subtracted
    empty = last + max(g.exps[-1] for g in i.gens)
    need = [t if t < last else empty for t in starts]
    axes = list(zip(sides[:-1], _row_strides(sides)))
    out = [0] * len(starts)
    for g in i.gens:
        rows = [0]  # J's row of p + g', clamped, for every row p in order
        for e, (s, stride) in zip(g.exps, axes):
            steps = [min(p + e, s - 1) * stride for p in range(s)]
            rows = [r + step for r in rows for step in steps]
        gn = g.exps[-1]
        out = [max(o, need[r] - gn) for o, r in zip(out, rows)]
    return _ideal_of_rows(j.n, sides, [min(o, last) for o in out])


def add_maximal_power(i: MonomialIdeal, t: int) -> MonomialIdeal:
    """Minimalized I + (x_1, ..., x_n)^t."""
    if t < 1:
        raise ValueError(f"power must be >= 1, got {t}")
    return minimalize(i.n, tuple(i.gens) + tuple(monomials_of_degree(i.n, t)))


def is_lpp(i: MonomialIdeal, a: DegreeList) -> bool:
    """Is I a lex-plus-powers ideal for the degree list A?

    Requires the pure powers x_i^{a_i} among the minimal generators, and for
    every other minimal generator all lex-larger monomials of the same degree
    must already lie in the ideal.  As a lex segment times a variable is again
    one, that holds when, in each degree of another generator, the members
    among the monomials below A come first in lex order.  Raises GuardExceeded
    when I has such a generator and its box has more than BOX_GUARD points.
    """
    if i.n != a.n:
        raise DimensionError(f"{i.n} vs {a.n} variables")
    powers = {pure_power(a.n, idx, e) for idx, e in enumerate(a.degrees)}
    gen_set = set(i.gens)
    if not powers <= gen_set:
        return False
    degrees = {g.degree for g in gen_set - powers}
    return all(_members_first(i, d, a.degrees) for d in degrees)


def is_lex_segment(i: MonomialIdeal, d: int) -> bool:
    """Is the degree-d piece of I closed upward under lex order?  Raises
    GuardExceeded when I's box has more than BOX_GUARD points."""
    return _members_first(i, d, None)


def _members_first(i: MonomialIdeal, d: int, caps) -> bool:
    """Do I's members come before its non-members among the degree-d exponent
    tuples in lex-descending order (only the tuples below ``caps``, when
    given)?

    The tuples are built one coordinate at a time, each prefix as its degree
    and row.  Membership is read from the row starts; beyond the box it does
    not change, so each coordinate is clamped to the box.
    """
    sides, starts = i._row_starts()
    caps = caps or (d + 1,) * i.n
    prefixes = [(0, 0)]
    for cap, side, stride in zip(caps, sides, _row_strides(sides)):
        prefixes = [
            (s + e, r + min(e, side - 1) * stride)
            for s, r in prefixes
            for e in range(min(cap - 1, d - s), -1, -1)
        ]
    top = sides[-1] - 1
    members = [min(d - s, top) >= starts[r] for s, r in prefixes if d - s < caps[-1]]
    return members == sorted(members, reverse=True)


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
        if not 1 <= idx <= n:
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
    return {"n": i.n, "gens": [list(g.exps) for g in i.gens]}


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
