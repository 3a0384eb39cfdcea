"""Recursive degree vectors for lex-plus-powers ideals.

A vector for a single degree bound ``a_1`` is a leaf ``(d)`` with
``d <= a_1``.  For ``n > 1`` variables a vector is a tuple of vectors over the
tail degrees ``(a_2, ..., a_n)``, subject to length and interleaving
constraints that make the associated monomial ideal lex-plus-powers.  The
distinguished complete-intersection vector corresponds to the pure-powers
ideal; its dual is the empty vector, standing for the unit ideal.

The calculus here provides: validity checking and the ``length / sigma /
alpha`` statistics (one bottom-up walk computes both), the ideal and Hilbert
function of a vector, the inverse map from Hilbert functions to vectors, and
the dual vector whose ideal is the residual of the original inside the
pure-powers complete intersection.  The enumeration of every valid vector
keeps a table that holds each vector's row starts, statistics and dual,
built from its children's entries by the same node rules.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .monomials import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    MonomialIdeal,
    _checked_box,
    _ideal_guard,
    _ideal_of_rows,
)
from .growth import _rows, is_lpp_sequence

INF = math.inf


@dataclass(frozen=True)
class Leaf:
    """One-variable vector: the ideal (x^degree)."""

    degree: int


@dataclass(frozen=True)
class Node:
    """Vector over n > 1 variables: a nonempty tuple of (n-1)-vectors."""

    children: tuple["LppVector", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("node needs at least one child")


@dataclass(frozen=True)
class Empty:
    """The empty vector: dual of the complete intersection, unit ideal."""


EMPTY = Empty()

LppVector = Leaf | Node | Empty


@dataclass(frozen=True)
class VectorStats:
    length: int
    sigma: int
    alpha: int | float  # math.inf exactly for the complete-intersection vector
    is_ci: bool


@dataclass(frozen=True)
class Validation:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def ci_vector(a: DegreeList) -> LppVector:
    """The vector of the pure-powers ideal (x_1^{a_1}, ..., x_n^{a_n})."""
    return _ci_vector(a.degrees)


# one key per degree list and its tails: 2 in a sweep-betti pass, 0 in a
# sweep-residual pass, 29 in a cli-large pass
@lru_cache(maxsize=32)
def _ci_vector(degrees: tuple[int, ...]) -> LppVector:
    if len(degrees) == 1:
        return Leaf(degrees[0])
    return Node((_ci_vector(degrees[1:]),) * degrees[0])


def stats(t: LppVector, a: DegreeList) -> VectorStats:
    """length, sigma, alpha of a structurally well-formed vector.

    sigma - 1 is the top degree outside the associated ideal; alpha is the
    least degree of an ideal element outside the pure powers (infinite exactly
    for the complete-intersection vector).  alpha(empty) = sigma(empty) = 0.
    Raises ValueError when some part of t is a leaf where a node is needed or
    a node where a leaf is needed.
    """
    st, reason = _measure(t, a.degrees)
    if st is None:
        raise ValueError(f"malformed vector for A={a}: {reason}")
    return VectorStats(*st)


def validate(t: LppVector, a: DegreeList) -> Validation:
    """Check the defining conditions; the reason names the first failure."""
    reason = _measure(t, a.degrees)[1]
    return Validation(reason is None, reason)


def _require_valid(t: LppVector, a: DegreeList) -> None:
    reason = _measure(t, a.degrees)[1]
    if reason is not None:
        raise ValueError(f"invalid vector for A={a}: {reason}")


def _measure(t: LppVector, degrees: tuple[int, ...]) -> tuple[tuple | None, str | None]:
    """Statistics, as a tuple ``(length, sigma, alpha, is_ci)`` in the order
    of :class:`VectorStats`, and first failed condition of t, in one
    bottom-up walk.

    A node's statistics come from its children's alone.  The statistics are
    None when some part of t sits at the wrong depth; the reason is then set.
    Conditions are checked in order: length against a_1, the children, length
    against the last child's length, then sigma < alpha for neighbours.
    """
    if isinstance(t, Empty):
        return (0, 0, 0, False), None
    n, a1 = len(degrees), degrees[0]
    if isinstance(t, Leaf):
        if n != 1:
            return None, f"leaf where a {n}-variable vector is needed"
        d = t.degree
        st = (d, d, INF if d == a1 else d, d == a1)
        if d < 1:
            return st, f"leaf degree {d} is not positive"
        if d > a1:
            return st, f"leaf degree {d} exceeds the bound {a1}"
        return st, None
    if n == 1:
        return None, "node where a one-variable vector is needed"
    u = len(t.children)
    reason = f"length {u} exceeds a_1 = {a1}" if u > a1 else None
    tail = degrees[1:]
    subs = []
    for idx, child in enumerate(t.children, start=1):
        sub, why = _measure(child, tail)
        subs.append(sub)
        if reason is None and why is not None:
            reason = f"child {idx}: {why}"
    if None in subs:
        return None, reason
    last_length = subs[-1][0]
    if reason is None and u > last_length:
        reason = f"length {u} exceeds the last child's length {last_length}"
    if reason is None:
        for idx, (left, right) in enumerate(zip(subs, subs[1:]), start=1):
            if not left[1] < right[2]:
                reason = (
                    f"sigma of child {idx} ({left[1]}) not below "
                    f"alpha of child {idx + 1} ({right[2]})"
                )
                break
    return _node_stats(subs, a1), reason


def _node_stats(subs: list[tuple], a1: int) -> tuple:
    """The statistics of a node from its children's ``subs``, in order."""
    u = len(subs)
    # a child is CI exactly when it equals the CI vector, hence the last child
    cis = sum(sub[3] for sub in subs)
    last_sigma, last_ci = subs[-1][1], subs[-1][3]
    sigma = last_sigma + cis - 1 if last_ci else last_sigma
    alpha = u if u < a1 else u + subs[0][2] - 1
    return (u, sigma, alpha, u == a1 and cis == u)


def ideal_of_vector(t: LppVector, a: DegreeList) -> MonomialIdeal:
    """The monomial ideal associated with a valid vector.

    A leaf (d) gives (x^d); a node (T_1, ..., T_u) gives the ideal generated
    by x_1^u together with x_1^{u-i} times the shifted ideal of T_i.  The
    empty vector gives the unit ideal.  t is checked first.
    """
    _require_valid(t, a)
    return _ideal(t, a)


def _ideal(t: LppVector, a: DegreeList) -> MonomialIdeal:
    """:func:`ideal_of_vector` of a vector known to be valid, unchecked.
    Raises GuardExceeded when the box prod [0, a_k] has more than BOX_GUARD
    points."""
    sides = _checked_box(tuple(deg + 1 for deg in a.degrees))
    return _ideal_of_rows(a.n, sides, _starts(t, a.degrees))


def _starts(t: LppVector, degrees: tuple[int, ...]) -> list[int]:
    """Row starts of the ideal of t in the box prod [0, a_k], as in
    :meth:`MonomialIdeal._row_starts`.

    All rows of the empty vector start at 0.
    """
    if isinstance(t, Leaf):
        return [t.degree]
    rows = math.prod(deg + 1 for deg in degrees[:-1])
    if isinstance(t, Empty):
        return [0] * rows
    return _node_starts([_starts(child, degrees[1:]) for child in t.children], rows)


def _node_starts(subs: list, rows: int) -> list[int]:
    """The ``rows`` row starts of a node from its children's ``subs``, in
    order.  The children's ideals descend, so below x_1^u the rows at
    x_1-exponent e_1 are those of child u - e_1 (1-based); from x_1^u on
    every row starts at 0."""
    out: list[int] = []
    for sub in reversed(subs):
        out += sub
    return out + [0] * (rows - len(out))


def hf_of_vector(t: LppVector) -> HilbertFunction:
    """Hilbert function of the vector: leaves contribute runs of ones and a
    node staggers its children, H(i) = sum_j H_j(i - u + j)."""
    if isinstance(t, Empty):
        return HilbertFunction((0,))
    if isinstance(t, Leaf):
        if t.degree < 1:
            raise ValueError(f"leaf degree {t.degree} is not positive")
        return HilbertFunction((1,) * t.degree + (0,))
    u = len(t.children)
    child_hfs = [hf_of_vector(c) for c in t.children]
    top = max(h.sigma + u - j for j, h in enumerate(child_hfs, start=1))
    values = tuple(
        sum(h.at(i - u + j) for j, h in enumerate(child_hfs, start=1))
        for i in range(top + 1)
    )
    return HilbertFunction(values)


def decompose(
    s: HilbertFunction, a: DegreeList
) -> tuple[HilbertFunction, HilbertFunction, int | float]:
    """Split a valid sequence S with S(1) >= 2 into (S1, S1', h).

    With b = S and e the coefficient row built from the top S(1) - 1 degree
    bounds, set c_i = b_{i+1} - e_{i+1} and let h be the first index where c
    goes negative (infinite if none).  S1 is the c-row cut at h; S1' follows e
    through h and b afterwards.  Then S(i) = S1'(i) + S1(i - 1).  Both parts
    are checked as any HilbertFunction is: a 0 before a nonzero value raises.
    """
    b1 = s.at(1)
    if b1 < 2:
        raise ValueError(f"decomposition needs S(1) >= 2, got {b1}")
    if not is_lpp_sequence(s, a):
        raise ValueError(f"not a valid sequence for A={a}: {s}")
    s1, s1p, h = _split(*_split_frame(list(s.values), a.degrees, b1 - 1))
    return HilbertFunction(s1), HilbertFunction(s1p), h


def _split_frame(
    b: list[int], degrees: tuple[int, ...], r: int
) -> tuple[list[int], list[int]]:
    """S and the rectangle row of A's top r degrees, both padded with zeros
    to the columns a split of S reads, or of any S1 split off it later.
    That is S's own width: the row is nonzero on an interval from column 0,
    so a split goes negative by the first column where S is 0 and the row
    is not, and one that never goes negative leaves the row inside S."""
    top = b.index(0) + 2
    pad = [0] * (top + 1)
    return (b + pad)[: top + 1], (list(_rows(degrees, top)[r - 1]) + pad)[: top + 1]


def _split(b: list[int], e: list[int]) -> tuple[list[int], list[int], int | float]:
    """The split of S = b against the rectangle row e, as in
    :func:`decompose`: S1, S1' and h, the parts padded to b's width.  The
    row c = b[1:] - e[1:] is padded back to that width and h is the first
    index where it goes negative (infinite if none)."""
    c = list(map(operator.sub, b[1:], e[1:]))
    c.append(0)
    if min(c) >= 0:
        return c, e, INF
    h = next(i for i, ci in enumerate(c) if ci < 0)
    return c[:h] + [0] * (len(c) - h), e[: h + 1] + b[h + 1 :], h


def vector_of_hf(h: HilbertFunction, a: DegreeList) -> LppVector:
    """The unique valid vector whose Hilbert function is h.

    Inverse of :func:`hf_of_vector` on valid sequences and on the zero
    function (the unit ideal), which maps to the empty vector; preserves sigma
    and alpha.  h is checked once, here.
    """
    if h.sigma == 0:
        return EMPTY
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    return _vector_of_counts(list(h.values), a.degrees)


def _vector_of_counts(b: list[int], degrees: tuple[int, ...]) -> LppVector:
    """The vector of a valid sequence, given as counts that end in zeros.

    While b(1) = n, one split peels the last child off: the vector of S1'
    over the tail, and b goes on as S1.  Once b(1) < n, b lives in one
    variable less and is the first child.  Every S1' and S1 split off a
    valid sequence is valid, so none is checked again.  Recursion goes only
    into the tail, so its depth is n."""
    n = len(degrees)
    if n == 1:
        return Leaf(b.index(0))
    tail = degrees[1:]
    children = []
    if b[1] >= n:
        b, e = _split_frame(b, degrees, n - 1)
        while b[1] >= n:
            b, s1p, cut = _split(b, e)
            # with no cut S1' is e, the complete intersection of the tail
            children.append(_ci_vector(tail) if cut is INF else _vector_of_counts(s1p, tail))
    children.append(_vector_of_counts(b, tail))
    children.reverse()
    return Node(tuple(children))


def dual(t: LppVector, a: DegreeList) -> LppVector:
    """The residual vector: the ideal of dual(t) is (powers of A) : ideal(t).

    Leaf duals reflect the degree in a_1; node duals reverse the children's
    duals, drop empties, and pad with complete-intersection children up to
    length a_1.  The dual of the empty vector is the complete intersection,
    making the map an involution.
    """
    _require_valid(t, a)
    return _dual(t, a.degrees)


def _dual(t: LppVector, degrees: tuple[int, ...]) -> LppVector:
    if isinstance(t, Empty):
        return _ci_vector(degrees)
    a1 = degrees[0]
    if isinstance(t, Leaf):
        d = t.degree
        return Leaf(a1 - d) if d < a1 else EMPTY
    tail = degrees[1:]
    subs = [_dual(child, tail) for child in t.children]
    children = _node_dual(subs, a1, _ci_vector(tail), EMPTY)
    return Node(tuple(children)) if children else EMPTY


def _node_dual(subs: list, a1: int, ci, empty) -> list:
    """The children of a node's dual from its children's duals ``subs``, in
    order: reversed, with the ``empty`` ones dropped and ``ci``, the
    complete intersection of the tail, appended up to length a1 less the
    node's length.  No children means the dual is empty."""
    children = [sub for sub in reversed(subs) if sub is not empty]
    return children + [ci] * (a1 - len(subs))


def enumerate_vectors(a: DegreeList) -> list[LppVector]:
    """All valid vectors for A, deterministically ordered.  The table is the
    one the residual checks read, bounded by the ideal guard: raises
    GuardExceeded past it."""
    return list(_enumerate(a.degrees, _ideal_guard(None)).vectors)


# The dual index of a vector whose dual is not a valid vector, so not in the
# table; a node with such a child has one too.
MISSING = -1


class VectorTable(NamedTuple):
    """The valid vectors of a degree list, in the order of
    :func:`enumerate_vectors`, and per vector: its row starts as a tuple (as
    :func:`_starts` gives them), its statistics (as :func:`_measure` gives
    them), and the index of its dual, None for the empty vector."""

    vectors: tuple[LppVector, ...]
    starts: tuple[tuple[int, ...], ...]
    stats: tuple[tuple, ...]
    duals: tuple[int | None, ...]


# one key per degree list and its tails, and guard: 7 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _enumerate(degrees: tuple[int, ...], guard: int | float) -> VectorTable:
    """The table of the valid vectors for ``degrees``, each node's entries
    built from its children's in the table of the tail.  Raises
    GuardExceeded before it holds more than ``guard`` vectors; the table of
    a tail never holds more than the table of its degree list, as every
    tail vector T gives the valid vector (T)."""
    a1 = degrees[0]
    if len(degrees) == 1:
        if a1 > guard:
            raise GuardExceeded(f"more than {guard} vectors; raise the guard")
        leaves = tuple(Leaf(d) for d in range(1, a1 + 1))
        index = {leaf: i for i, leaf in enumerate(leaves)}
        return VectorTable(
            leaves,
            tuple(tuple(_starts(leaf, degrees)) for leaf in leaves),
            tuple(_measure(leaf, degrees)[0] for leaf in leaves),
            tuple(index.get(_dual(leaf, degrees)) for leaf in leaves),  # EMPTY: None
        )
    pool = _enumerate(degrees[1:], guard)
    st = pool.stats  # (length, sigma, alpha, is_ci)
    keys: list[tuple[int, ...]] = []  # per vector, its children's indices in the pool
    # per sigma, the pool indices a child of that sigma may precede, in order
    after = {s: [i for i, sub in enumerate(st) if s < sub[2]] for s in {sub[1] for sub in st}}

    def extend(prefix: list[int], following):
        for idx in following:
            prefix.append(idx)
            if len(prefix) <= st[idx][0]:
                if len(keys) >= guard:
                    raise GuardExceeded(f"more than {guard} vectors; raise the guard")
                keys.append(tuple(prefix))
            if len(prefix) < a1:
                extend(prefix, after[st[idx][1]])
            prefix.pop()

    extend([], range(len(st)))
    rows = math.prod(deg + 1 for deg in degrees[:-1])
    index = {key: i for i, key in enumerate(keys)}
    ci = pool.duals.index(None)  # only the complete intersection has the empty dual
    duals = []
    for key in keys:
        children = _node_dual([pool.duals[c] for c in key], a1, ci, None)
        duals.append(index.get(tuple(children), MISSING) if children else None)
    return VectorTable(
        tuple(Node(tuple(map(pool.vectors.__getitem__, key))) for key in keys),
        tuple(tuple(_node_starts([pool.starts[c] for c in key], rows)) for key in keys),
        tuple(_node_stats([st[c] for c in key], a1) for key in keys),
        tuple(duals),
    )


# ---------------------------------------------------------------------------
# text format: nested bracket lists, bare integers for leaves


def format_vector(t: LppVector) -> str:
    if isinstance(t, Empty):
        return "[]"
    if isinstance(t, Leaf):
        return str(t.degree)
    return "[" + ",".join(format_vector(c) for c in t.children) + "]"


def parse_vector(text: str, n: int) -> LppVector:
    """Parse the bracket format; integers stand for (nested) single leaves."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad vector {text!r}: {exc}") from None
    return _coerce(obj, n, text)


def _coerce(obj, n: int, original: str) -> LppVector:
    """The vector of a parsed JSON value; a leaf must be a JSON integer, not
    a boolean."""
    if isinstance(obj, list) and not obj:
        return EMPTY
    if n == 1:
        if type(obj) is int:
            return Leaf(obj)
        if isinstance(obj, list) and len(obj) == 1 and type(obj[0]) is int:
            return Leaf(obj[0])
        raise ValueError(f"expected an integer leaf in {original!r}, got {obj!r}")
    if type(obj) is int:
        return Node((_coerce(obj, n - 1, original),))
    if isinstance(obj, list):
        return Node(tuple(_coerce(c, n - 1, original) for c in obj))
    raise ValueError(f"bad vector element {obj!r} in {original!r}")
