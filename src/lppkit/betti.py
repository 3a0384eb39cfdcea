"""Graded Betti numbers of Artinian monomial quotients.

For each multidegree b inside the generator box, let K be the simplicial
complex of squarefree vectors tau with x^(b - tau) in I.  The reduced homology
of K over the coefficient field gives the Betti numbers of R/I in multidegree
b (homological index = simplex dimension + 2); summing over total degree fills
the diagram.  Membership is read from the ideal's row starts (b is in I when
its last exponent is at least the start of its row), and homology is computed
once per distinct complex: few complexes occur (18 in three variables), so the
rank work is memoized by an integer face mask, bit v set when the face with
vertex bitmask v is in K.  Ranks are computed by exact Gaussian elimination,
over the rationals in characteristic 0 or modulo p otherwise.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .monomials import (
    DegreeList,
    MonomialIdeal,
    NotArtinianError,
    _row_strides,
    colon,
    pure_power,
)


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (rationals) or a prime field."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= PRIME_LIMIT:
            raise ValueError(
                f"characteristic {p} is too large: primality is decided only below "
                f"{PRIME_LIMIT}"
            )
        if not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")


# Miller-Rabin with the first 13 primes as bases is exact below PRIME_LIMIT,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < PRIME_LIMIT."""
    if p < 2:
        return False
    if any(p % b == 0 for b in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


QQ = FieldSpec(0)


@dataclass(frozen=True, eq=True)
class BettiDiagram:
    n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def first_violation(self, other: BettiDiagram) -> tuple[int, int] | None:
        keys = sorted(set(self.entries) | set(other.entries))
        for i, j in keys:
            if self.beta(i, j) < other.beta(i, j):
                return (i, j)
        return None

    def render(self) -> str:
        """Macaulay2-style table: columns = homological index, rows = j - i."""
        cols = list(range(self.n + 1))
        max_row = max((j - i for (i, j) in self.entries), default=0)
        totals = [sum(v for (i, _), v in self.entries.items() if i == c) for c in cols]
        rows = []
        for r in range(max_row + 1):
            rows.append([self.beta(c, c + r) for c in cols])
        labels = ["total:"] + [f"{r}:" for r in range(max_row + 1)]
        width_label = max(len(s) for s in labels)
        grids = [totals] + rows
        widths = [
            max(len(str(grid[c])) if grid[c] else 1 for grid in grids)
            for c in cols
        ]
        header = " " * width_label + "".join(
            " " + str(c).rjust(widths[c]) for c in cols
        )
        lines = [header]
        for label, grid in zip(labels, grids):
            cells = "".join(
                " " + (str(v) if v else ".").rjust(widths[c])
                for c, v in enumerate(grid)
            )
            lines.append(label.rjust(width_label) + cells)
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "betti": [[i, j, v] for (i, j), v in self.items()]}


def _rank(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over Q (p = 0) or over GF(p)."""
    if not rows or not rows[0]:
        return 0
    if p:
        mat = [[v % p for v in row] for row in rows]
    else:
        mat = [[Fraction(v) for v in row] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        inv = pow(pv, p - 2, p) if p else None
        for r in range(row + 1, nrows):
            v = mat[r][col]
            if v == 0:
                continue
            if p:
                factor = (v * inv) % p
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[row])]
            else:
                factor = v / pv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _reduced_homology_dims(faces: list[tuple[int, ...]], p: int) -> tuple[int, ...]:
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


@lru_cache(maxsize=4096)
def _homology_of_mask(mask: int, p: int) -> tuple[int, ...]:
    """:func:`_reduced_homology_dims` of the complex whose faces are the
    vertex bitmasks v with bit v of ``mask`` set."""
    faces = [
        tuple(k for k in range(v.bit_length()) if v >> k & 1)
        for v in range(mask.bit_length())
        if mask >> v & 1
    ]
    return _reduced_homology_dims(faces, p)


@lru_cache(maxsize=256)
def _face_offsets(row_strides: tuple[int, ...]):
    """Per support bitmask (bit k for x_k, the last bit for x_n): the shift
    of 1_supp, and (1 << vertex bitmask of tau, shift of tau) for every
    nonempty tau inside the support.  A shift is (row offset of tau without
    x_n, 1 if x_n is in tau else 0)."""
    n = len(row_strides) + 1

    def shift(tau):
        return sum(row_strides[k] for k in tau if k < n - 1), int(n - 1 in tau)

    by_supp = []
    for mask in range(1 << n):
        supp = [k for k in range(n) if mask >> k & 1]
        taus = tuple(
            (1 << sum(1 << k for k in tau), *shift(tau))
            for size in range(1, len(supp) + 1)
            for tau in itertools.combinations(supp, size)
        )
        by_supp.append((*shift(supp), taus))
    return tuple(by_supp)


def _koszul_homology(i: MonomialIdeal, p: int):
    """Yield (b, dims) for every multidegree b of the generator box whose
    complex K^b has nonzero reduced homology dims (as _reduced_homology_dims).

    Point b = (row r, column c) is in I when c >= starts[r], so each face
    b - tau is one lookup: row r minus tau's row offset, at column c minus
    1 if x_n is in tau.  A row is scanned from its start; from one past the
    start of the row of prefix - 1_supp(prefix) on, b - 1_supp(b) is in I
    (K^b is the full simplex, so acyclic).  K^b is looked up by its face
    mask, the OR of the bits of its faces; the bits are distinct, so their
    sum is that OR.
    """
    sides, starts = i._row_starts()
    n = len(sides)
    last = sides[-1]
    row_strides = tuple(_row_strides(sides))
    by_supp = _face_offsets(row_strides)
    last_bit = 1 << (n - 1)
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        mask = 0
        below = r
        for k in range(n - 1):
            if prefix[k]:
                mask |= 1 << k
                below -= row_strides[k]
        for c in range(starts[r], min(last, starts[below] + 1)):
            full_row, full_col, taus = by_supp[mask | last_bit if c else mask]
            if c - full_col >= starts[r - full_row]:
                continue
            face_mask = sum([bit for bit, row, col in taus if c - col >= starts[r - row]])
            dims = _homology_of_mask(face_mask, p)
            if any(dims):
                yield prefix + (c,), dims


def betti_diagram(i: MonomialIdeal, f: FieldSpec = QQ) -> BettiDiagram:
    """Full Betti diagram of R/I for an Artinian monomial ideal I."""
    if i.is_unit:
        return BettiDiagram(i.n, {})
    if not i._is_artinian():
        raise NotArtinianError("Betti diagram needs an Artinian ideal")
    beta: Counter[tuple[int, int]] = Counter()
    beta[(0, 0)] = 1
    for b, dims in _koszul_homology(i, f.characteristic):
        total = sum(b)
        for k, hd in enumerate(dims, start=-1):
            if hd:
                beta[(k + 2, total)] += hd
    return BettiDiagram(i.n, dict(beta))


@dataclass(frozen=True)
class MappingConeReport:
    ok: bool
    minimal: bool
    omega: int
    t_by_degree: dict[int, int]
    failures: tuple[str, ...]


def mapping_cone_check(
    i: MonomialIdeal, a: DegreeList, f: FieldSpec = QQ
) -> MappingConeReport:
    """Relate first Betti numbers of I to last Betti numbers of the residual.

    With w the sum of the degrees in A and |j| the multiplicity of j in A,
    checks beta_{n, w-j}(powers : I) = beta_{1,j}(I) - t_j with 0 <= t_j <=
    |j|, and t_j = |j| exactly when every pure power is a minimal generator.
    """
    if i.n != a.n:
        raise ValueError(f"{i.n} vs {a.n} variables")
    powers = [pure_power(a.n, k, e) for k, e in enumerate(a.degrees)]
    for m in powers:
        if not i.contains(m):
            raise ValueError(f"ideal does not contain {m.exps}")
    n = i.n
    omega = a.omega
    residual = colon(a.powers_ideal(), i)
    bi = betti_diagram(i, f)
    bc = betti_diagram(residual, f)
    minimal = all(m in set(i.gens) for m in powers)
    failures = []
    t_by_degree = {}
    degrees = {j for (idx, j), v in bi.entries.items() if idx == 1 and v}
    degrees |= {omega - j for (idx, j), v in bc.entries.items() if idx == n and v}
    degrees |= set(a.degrees)
    for j in sorted(degrees):
        tj = bi.beta(1, j) - bc.beta(n, omega - j)
        t_by_degree[j] = tj
        mult = a.multiplicity(j)
        if not 0 <= tj <= mult:
            failures.append(f"t_{j} = {tj} outside 0..{mult}")
        if minimal and tj != mult:
            failures.append(f"minimal containment but t_{j} = {tj} != {mult}")
    return MappingConeReport(
        not failures, minimal, omega, t_by_degree, tuple(failures)
    )
