"""Graded Betti numbers of Artinian monomial quotients.

For each multidegree b inside the generator box, let K be the simplicial
complex of squarefree vectors tau with x^(b - tau) in I.  The reduced homology
of K over the coefficient field gives the Betti numbers of R/I in multidegree
b (homological index = simplex dimension + 2); summing over total degree fills
the diagram.  Membership is read from the ideal's dense table, and homology is
computed once per distinct complex: few complexes occur (18 in three
variables), so the rank work is memoized by face set.  Ranks are computed by
exact Gaussian elimination, over the rationals in characteristic 0 or modulo p
otherwise.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .monomials import (
    DegreeList,
    HilbertFunction,
    MonomialIdeal,
    NotArtinianError,
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
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")


QQ = FieldSpec(0)


@dataclass(frozen=True, eq=True)
class BettiDiagram:
    n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def max_j(self) -> int:
        return max((j for (_, j) in self.entries), default=0)

    def dominates(self, other: BettiDiagram) -> bool:
        keys = set(self.entries) | set(other.entries)
        return all(self.beta(i, j) >= other.beta(i, j) for i, j in keys)

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


@lru_cache(maxsize=4096)
def _reduced_homology_dims(
    faces: frozenset[tuple[int, ...]], p: int
) -> tuple[int, ...]:
    """Reduced homology dimensions (H_{-1}, H_0, H_1, ...) of a complex.

    ``faces`` holds the nonempty faces as sorted vertex tuples; the empty face
    is implicit.  Boundary ranks are computed over the requested field.
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


@lru_cache(maxsize=256)
def _face_offsets(strides: tuple[int, ...]):
    """Per support bitmask: the offset of 1_supp, and (tau, offset(tau)) for
    every nonempty tau inside the support."""
    n = len(strides)
    by_supp = []
    for mask in range(1 << n):
        supp = [k for k in range(n) if mask >> k & 1]
        taus = tuple(
            (tau, sum(strides[k] for k in tau))
            for size in range(1, len(supp) + 1)
            for tau in itertools.combinations(supp, size)
        )
        by_supp.append((sum(strides[k] for k in supp), taus))
    return tuple(by_supp)


def _koszul_homology(i: MonomialIdeal, p: int):
    """Yield (b, dims) for every multidegree b of the generator box whose
    complex K^b has nonzero reduced homology dims (as _reduced_homology_dims).

    Each face b - tau is one table lookup at idx - offset(tau).  Rows run
    along the last variable; in a row, b - 1_supp(b) is in I (K^b is the full
    simplex, so acyclic) from one past the start of the row below on.
    """
    sides, table = i.membership_table()
    n = len(sides)
    last = sides[-1]
    strides = tuple(math.prod(sides[k + 1 :]) for k in range(n))
    by_supp = _face_offsets(strides)
    last_bit = 1 << (n - 1)
    for r, prefix in enumerate(itertools.product(*(range(s) for s in sides[:-1]))):
        base = r * last
        start = table.find(1, base, base + last)
        if start < 0:
            continue
        mask = 0
        below = base  # the row of prefix - 1_supp(prefix)
        for k in range(n - 1):
            if prefix[k]:
                mask |= 1 << k
                below -= strides[k]
        stop = table.find(1, below, below + last)
        stop = base + last if stop < 0 else min(base + last, stop - below + base + 1)
        for idx in range(start, stop):
            full, taus = by_supp[mask | last_bit if idx > base else mask]
            if table[idx - full]:
                continue
            faces = frozenset([tau for tau, off in taus if table[idx - off]])
            dims = _reduced_homology_dims(faces, p)
            if any(dims):
                yield prefix + (idx - base,), dims


def betti_diagram(i: MonomialIdeal, f: FieldSpec = QQ) -> BettiDiagram:
    """Full Betti diagram of R/I for an Artinian monomial ideal I."""
    if i.is_unit:
        return BettiDiagram(i.n, {})
    prof = i.pure_power_profile()
    if any(p is None for p in prof):
        raise NotArtinianError("Betti diagram needs an Artinian ideal")
    beta: Counter[tuple[int, int]] = Counter()
    beta[(0, 0)] = 1
    for b, dims in _koszul_homology(i, f.characteristic):
        total = sum(b)
        for k, hd in enumerate(dims, start=-1):
            if hd:
                beta[(k + 2, total)] += hd
    return BettiDiagram(i.n, dict(beta))


def socle_dims(i: MonomialIdeal, f: FieldSpec = QQ) -> dict[int, int]:
    """Socle dimensions by degree, via the last column of the Betti diagram.

    For monomial ideals these match the monomial socle count in every
    characteristic; the agreement is checked and a mismatch raises.
    """
    diagram = betti_diagram(i, f)
    n = i.n
    dims = {
        j - n: v for (idx, j), v in diagram.entries.items() if idx == n and v
    }
    expected = {d: len(ms) for d, ms in i.socle_monomials().items()}
    if dims != expected:
        raise AssertionError(
            f"socle mismatch: homology {dims} vs monomial count {expected}"
        )
    return dims


def stanley_first_mismatch(h: HilbertFunction, b: BettiDiagram) -> int | None:
    """First degree where sum_i (-1)^i beta_{i,j} differs from H(t)(1-t)^n."""
    n = b.n
    numerator: dict[int, int] = defaultdict(int)
    for (i, j), v in b.entries.items():
        numerator[j] += (-1) ** i * v
    # H(t) * (1-t)^n, exact integer convolution
    signs = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
    top = max(h.sigma + n, max(numerator, default=0)) + 1
    for j in range(top + 1):
        coeff = sum(
            signs[k] * h.at(j - k) for k in range(min(j, n) + 1)
        )
        if coeff != numerator.get(j, 0):
            return j
    return None


def stanley_check(h: HilbertFunction, b: BettiDiagram) -> bool:
    return stanley_first_mismatch(h, b) is None


def last_betti_consequences(
    h: HilbertFunction, b1: BettiDiagram, b2: BettiDiagram
) -> bool:
    """Equalities at the regularity forced by a shared Hilbert function:
    the last corner entries agree and the adjacent column differences agree."""
    n = b1.n
    rho = h.rho
    if b1.beta(n, rho + n) != b2.beta(n, rho + n):
        return False
    lhs = b1.beta(n - 1, rho + n - 1) - b1.beta(n, rho + n - 1)
    rhs = b2.beta(n - 1, rho + n - 1) - b2.beta(n, rho + n - 1)
    return lhs == rhs


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
