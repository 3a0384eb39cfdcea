"""Recursive degree vectors for lex-plus-powers ideals.

A vector for a single degree bound ``a_1`` is a leaf ``(d)`` with
``d <= a_1``.  For ``n > 1`` variables a vector is a tuple of vectors over the
tail degrees ``(a_2, ..., a_n)``, subject to length and interleaving
constraints that make the associated monomial ideal lex-plus-powers.  The
distinguished complete-intersection vector corresponds to the pure-powers
ideal; its dual is the empty vector, standing for the unit ideal.

The calculus here provides: validity checking, the ``length / sigma / alpha``
statistics, the ideal and Hilbert function of a vector, the inverse map from
Hilbert functions to vectors, and the dual vector whose ideal is the residual
of the original inside the pure-powers complete intersection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .monomials import (
    DegreeList,
    HilbertFunction,
    Monomial,
    MonomialIdeal,
    pure_power,
    unit_monomial,
)
from .growth import ci_hilbert_function, gk_coefficients, is_lpp_sequence

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


# one key per degree list and its tails: 7 in a sweep benchmark pass
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
    """
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
    last_stats = stats(last, a2)
    if last_stats.is_ci:
        s = sum(1 for c in t.children if c == last)
        sigma = last_stats.sigma + s - 1
    else:
        sigma = last_stats.sigma
    if u < a.degrees[0]:
        alpha: int | float = u
    else:
        alpha = u + stats(t.children[0], a2).alpha - 1
    is_ci = u == a.degrees[0] and all(stats(c, a2).is_ci for c in t.children)
    return VectorStats(u, sigma, alpha, is_ci)


def validate(t: LppVector, a: DegreeList) -> Validation:
    """Check the defining conditions; the reason names the first failure."""
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
        sub = validate(child, a2)
        if not sub:
            return Validation(False, f"child {idx}: {sub.reason}")
    last_len = stats(t.children[-1], a2).length
    if u > last_len:
        return Validation(
            False, f"length {u} exceeds the last child's length {last_len}"
        )
    for idx in range(u - 1):
        left = stats(t.children[idx], a2)
        right = stats(t.children[idx + 1], a2)
        if not left.sigma < right.alpha:
            return Validation(
                False,
                f"sigma of child {idx + 1} ({left.sigma}) not below "
                f"alpha of child {idx + 2} ({right.alpha})",
            )
    return Validation(True)


def _require_valid(t: LppVector, a: DegreeList) -> None:
    v = validate(t, a)
    if not v:
        raise ValueError(f"invalid vector for A={a}: {v.reason}")


def ideal_of_vector(t: LppVector, a: DegreeList) -> MonomialIdeal:
    """The monomial ideal associated with a valid vector.

    A leaf (d) gives (x^d); a node (T_1, ..., T_u) gives the ideal generated
    by x_1^u together with x_1^{u-i} times the shifted ideal of T_i.  The
    empty vector gives the unit ideal.
    """
    _require_valid(t, a)
    return _ideal(t, a)


def _ideal(t: LppVector, a: DegreeList) -> MonomialIdeal:
    if isinstance(t, Empty):
        return MonomialIdeal(a.n, (unit_monomial(a.n),))
    if isinstance(t, Leaf):
        return MonomialIdeal(1, (pure_power(1, 0, t.degree),))
    # The children's ideals descend, so x_1^(u-i) * g is a minimal generator
    # unless g lies in the next child's ideal; only a unit first child (an
    # empty vector) swallows x_1^u.  The generators come out lex-descending.
    u = len(t.children)
    a2 = a.tail()
    subs = [_ideal(child, a2) for child in t.children]
    gens: list[Monomial] = [] if subs[0].is_unit else [pure_power(a.n, 0, u)]
    for i, sub in enumerate(subs, start=1):
        below = subs[i] if i < u else None
        for g in sub.gens:
            if below is None or not below.contains(g):
                gens.append(Monomial((u - i,) + g.exps))
    return MonomialIdeal(a.n, tuple(gens))


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


def sequence_sigma(s: HilbertFunction) -> int:
    return s.sigma


def sequence_alpha(s: HilbertFunction, a: DegreeList) -> int | float:
    """Least degree where s drops below the complete-intersection ceiling."""
    ci = ci_hilbert_function(a)
    for i in range(max(s.sigma, ci.sigma) + 1):
        if s.at(i) < ci.at(i):
            return i
    return INF


def decompose(
    s: HilbertFunction, a: DegreeList
) -> tuple[HilbertFunction, HilbertFunction, int | float]:
    """Split a valid sequence S with S(1) >= 2 into (S1, S1', h).

    With b = S and e the coefficient row built from the top S(1) - 1 degree
    bounds, set c_i = b_{i+1} - e_{i+1} and let h be the first index where c
    goes negative (infinite if none).  S1 is the c-row cut at h; S1' follows e
    through h and b afterwards.  Then S(i) = S1'(i) + S1(i - 1).
    """
    b1 = s.at(1)
    if b1 < 2:
        raise ValueError(f"decomposition needs S(1) >= 2, got {b1}")
    if not is_lpp_sequence(s, a):
        raise ValueError(f"not a valid sequence for A={a}: {s}")
    n = a.n
    e_entries = [a.degrees[i] - 1 for i in range(n - b1 + 1, n)]
    top = max(s.sigma, sum(e_entries)) + 2
    e = gk_coefficients(e_entries, top)
    c = [s.at(i + 1) - e[i + 1] for i in range(top)]
    h: int | float = INF
    for i, ci in enumerate(c):
        if ci < 0:
            h = i
            break
    if h is INF:
        s1 = HilbertFunction(tuple(c) + (0,))
        s1p = HilbertFunction(tuple(e))
    else:
        s1 = HilbertFunction(tuple(c[:h]) + (0,))
        s1p_vals = [e[i] if i <= h else s.at(i) for i in range(top + 1)]
        s1p = HilbertFunction(tuple(s1p_vals))
    return s1, s1p, h


def vector_of_hf(h: HilbertFunction, a: DegreeList) -> LppVector:
    """The unique valid vector whose Hilbert function is h.

    Inverse of :func:`hf_of_vector` on valid sequences; preserves sigma and
    alpha.  Recursion: with fewer than n independent linear forms the sequence
    already lives in one variable less; otherwise peel one decomposition step,
    map the primed part into the tail and recurse on the rest.
    """
    if not is_lpp_sequence(h, a):
        raise ValueError(f"{h} is not a valid sequence for A={a}")
    n = a.n
    if n == 1:
        return Leaf(h.sigma)
    if h.at(1) < n:
        return Node((vector_of_hf(h, a.tail()),))
    s1, s1p, _cut = decompose(h, a)
    tail_vec = vector_of_hf(s1p, a.tail())
    head = vector_of_hf(s1, a)
    assert isinstance(head, Node)
    return Node(head.children + (tail_vec,))


def dual(t: LppVector, a: DegreeList) -> LppVector:
    """The residual vector: the ideal of dual(t) is (powers of A) : ideal(t).

    Leaf duals reflect the degree in a_1; node duals reverse the children's
    duals, drop empties, and pad with complete-intersection children up to
    length a_1.  The dual of the empty vector is the complete intersection,
    making the map an involution.
    """
    _require_valid(t, a)
    return _dual(t, a)


def _dual(t: LppVector, a: DegreeList) -> LppVector:
    if isinstance(t, Empty):
        return ci_vector(a)
    if isinstance(t, Leaf):
        d = t.degree
        return Leaf(a.degrees[0] - d) if d < a.degrees[0] else EMPTY
    a2 = a.tail()
    u = len(t.children)
    children = []
    for child in reversed(t.children):
        sub = _dual(child, a2)
        if not isinstance(sub, Empty):
            children.append(sub)
    children.extend([ci_vector(a2)] * (a.degrees[0] - u))
    return Node(tuple(children)) if children else EMPTY


def containment_chain_check(t: LppVector, a: DegreeList) -> bool:
    """Children's ideals descend: each strictly contains the next, with
    equality only between structurally equal (trailing complete-intersection)
    children."""
    _require_valid(t, a)
    if not isinstance(t, Node):
        return True
    a2 = a.tail()
    ideals = [_ideal(c, a2) for c in t.children]
    for (c1, i1), (c2, i2) in zip(
        zip(t.children, ideals), zip(t.children[1:], ideals[1:])
    ):
        if not all(i1.contains(g) for g in i2.gens):
            return False
        if c1 != c2 and i1 == i2:
            return False
    return True


def enumerate_vectors(a: DegreeList) -> list[LppVector]:
    """All valid vectors for A, deterministically ordered."""
    return list(_enumerate(a.degrees))


# one key per degree list and its tails: 7 in a sweep benchmark pass
@lru_cache(maxsize=32)
def _enumerate(degrees: tuple[int, ...]) -> tuple[LppVector, ...]:
    if len(degrees) == 1:
        return tuple(Leaf(d) for d in range(1, degrees[0] + 1))
    a1 = degrees[0]
    tail = DegreeList(degrees[1:])
    pool = _enumerate(degrees[1:])
    st = [stats(c, tail) for c in pool]
    out: list[LppVector] = []

    def extend(prefix: list[int]):
        if prefix:
            last = prefix[-1]
            if len(prefix) <= st[last].length:
                out.append(Node(tuple(pool[i] for i in prefix)))
            if len(prefix) == a1:
                return
        for idx in range(len(pool)):
            if prefix and not st[prefix[-1]].sigma < st[idx].alpha:
                continue
            prefix.append(idx)
            extend(prefix)
            prefix.pop()

    extend([])
    return tuple(out)


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
    if isinstance(obj, list) and not obj:
        return EMPTY
    if n == 1:
        if isinstance(obj, int):
            return Leaf(obj)
        if isinstance(obj, list) and len(obj) == 1 and isinstance(obj[0], int):
            return Leaf(obj[0])
        raise ValueError(f"expected an integer leaf in {original!r}, got {obj!r}")
    if isinstance(obj, int):
        return Node((_coerce(obj, n - 1, original),))
    if isinstance(obj, list):
        return Node(tuple(_coerce(c, n - 1, original) for c in obj))
    raise ValueError(f"bad vector element {obj!r} in {original!r}")
