"""Graded Betti numbers of Artinian monomial quotients.

For each multidegree b inside the box, let K be the simplicial complex of
squarefree vectors tau with x^(b - tau) in I.  The reduced homology of K over
the coefficient field gives the Betti numbers of R/I in multidegree b
(homological index = simplex dimension + 2); summing over total degree fills
the diagram.  Membership is read from the ideal's row starts (b is in I when
its last exponent is at least the start of its row).

The work is memoized at three levels.  A row's contribution, the Betti
numbers of all its points, depends only on the characteristic and the starts
of the rows one step below it along the subsets of its prefix support, so it
is computed once per such configuration: a sweep's thousands of ideals share
a few hundred.  Above it, a block of up to RUN_BLOCK consecutive rows of one
run is looked up as a unit, keyed by the starts that its rows read, so most
runs of a sweep cost one lookup.  Below it, homology is computed once per
distinct complex, keyed by an integer face mask, bit v set when the face
with vertex bitmask v is in K.  Ranks are computed by exact Gaussian
elimination, over the rationals in characteristic 0 or modulo p otherwise.

The rows are read through one plan per box (``monomials._row_plan``), built
on first use: the box's runs of rows that differ only in the last prefix
coordinate, each with its prefix degree and the first rows of the runs one
step below it.  The plan has one entry per run, not per row, so a box of a
million rows in one run costs one entry.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .monomials import (
    DegreeList,
    DimensionError,
    MonomialIdeal,
    NotArtinianError,
    _row_plan,
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

# BettiDiagram.render prints a longer run of empty rows as one line
EMPTY_RUN = 32


@dataclass(frozen=True, eq=True)
class BettiDiagram:
    n: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def items(self):
        return sorted(self.entries.items())

    def first_violation(self, other: BettiDiagram) -> tuple[int, int] | None:
        """The least (i, j) where this diagram is below ``other``, if any."""
        get = self.entries.get
        return min((key for key, v in other.entries.items() if get(key, 0) < v), default=None)

    def render(self) -> str:
        """Macaulay2-style table: columns = homological index, rows = j - i.

        A run of more than EMPTY_RUN empty rows prints as one line that
        names the rows it skips."""
        cols = list(range(self.n + 1))
        totals = [sum(v for (i, _), v in self.entries.items() if i == c) for c in cols]
        occupied = sorted({0} | {j - i for (i, j) in self.entries})
        labels, grids = ["total:"], [totals]
        for above, r in zip([-1] + occupied, occupied):
            if r - above - 1 > EMPTY_RUN:
                labels.append(f"{above + 1}..{r - 1}:")
                grids.append(None)
                above = r - 1
            for q in range(above + 1, r + 1):
                labels.append(f"{q}:")
                grids.append([self.beta(c, c + q) for c in cols])
        width_label = max(len(s) for s in labels)
        widths = [
            max(len(str(grid[c])) if grid and grid[c] else 1 for grid in grids)
            for c in cols
        ]
        header = " " * width_label + "".join(
            " " + str(c).rjust(widths[c]) for c in cols
        )
        lines = [header]
        for label, grid in zip(labels, grids):
            if grid is None:
                cells = " (empty)"
            else:
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


@lru_cache(maxsize=8)
def _faces(k: int):
    """The nonempty faces v of the simplex on vertices 0..k, as (1 << v, v's
    low k bits, bit k of v): first those without vertex k, then all."""
    low = (1 << k) - 1
    faces = [(1 << v, v & low, v >> k) for v in range(1, 2 << k)]
    return faces[:low], faces


@lru_cache(maxsize=4096)
def _row_contribution(p: int, starts: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The Betti numbers (homological index, c, dim) that the points (prefix, c)
    of one row give, from the starts of the 2^k rows one step below the row
    along each subset of the k coordinates of its prefix support, ordered as
    in :func:`_row_plan` (``starts[0]`` the row's own start).

    The complex K^b of b = (prefix, c) is relabelled onto the vertices
    0..k-1 (the support, in order) and k (x_n): the face with vertex bitmask
    v is b - tau, in row j = v's low k bits at column c - (bit k of v), so it
    is in I when c - (v >> k) >= starts[j].  The homology depends only on the
    complex up to relabelling, so rows of any ideal, box or support with the
    same k and the same starts share one entry.  Points from the row's start
    on are scanned; from one past the start of the full step down on, b -
    1_supp(b) is in I (K^b is the full simplex, so acyclic).  The box is not
    part of the key: row starts never grow as a prefix coordinate grows, so
    ``starts[0] <= starts[j] <= starts[-1]``, at most the start of row 0,
    which for an Artinian ideal lies inside the box.  K^b is looked up by
    its face mask, bit v set when face v is in K^b.
    """
    low = len(starts) - 1
    without_last, with_last = _faces(low.bit_length())
    out = []
    for c in range(starts[0], starts[low] + 1):
        last = 1 if c else 0  # x_n in the support of b
        if c - last >= starts[low]:
            continue
        faces = with_last if last else without_last
        face_mask = sum([bit for bit, j, col in faces if c - col >= starts[j]])
        for index, dim in enumerate(_homology_of_mask(face_mask, p), start=1):
            if dim:
                out.append((index, c, dim))
    return tuple(out)


# betti_diagram reads each run of rows in blocks of at most this many rows,
# one _run_contribution lookup per block: every run of the sweep boxes is
# one block, and a key holds at most 2^k * (RUN_BLOCK + 1) row starts
RUN_BLOCK = 16


@lru_cache(maxsize=4096)
def _run_contribution(
    p: int, cont: int, width: int, starts: tuple[int, ...]
) -> tuple[tuple[int, int, int], ...]:
    """The Betti numbers (homological index, e + c, dim) that the points
    (prefix, c) of ``width`` consecutive rows of one run give, row e of the
    block at prefix degree e past the first's.

    ``starts`` concatenates one slice per run one step below the block's
    run along the subsets of the k coordinates of its outer prefix support,
    ordered as the first rows of :func:`_row_plan` (the run itself first):
    the starts of that run's rows from ``cont`` rows before the block's
    first row (1 when the block continues a run, else 0) through its last.
    Slice m is ``starts[m * span : (m + 1) * span]`` with span = width +
    cont, so row e's key for :func:`_row_contribution` is column j = e +
    cont of every slice, then, when j > 0, column j - 1 (the step down in
    the last prefix coordinate, the key's top bit).

    Bounded at 4096 entries.  A key holds at most 2^k * (RUN_BLOCK + 1)
    starts, k <= n - 2, and a value at most (k + 2) * (RUN_BLOCK + sides[-1])
    triples.  Measured with tracemalloc, lru entry included, an entry takes
    about 600 bytes on the boxes of the (3,3,4) sweep and 950 on those of
    (2,2,2,3,3): the full memo holds about 2.5 MB and 4 MB there.
    """
    span = width + cont
    out: dict[tuple[int, int], int] = {}
    for e, j in enumerate(range(cont, span)):
        key = starts[j::span] + starts[j - 1 :: span] if j else starts[::span]
        for index, c, dim in _row_contribution(p, key):
            out[index, e + c] = out.get((index, e + c), 0) + dim
    return tuple((index, d, dim) for (index, d), dim in out.items())


def betti_diagram(i: MonomialIdeal, f: FieldSpec = QQ) -> BettiDiagram:
    """Full Betti diagram of R/I for an Artinian monomial ideal I.

    A non-Artinian ideal is refused first, before its box is built when it
    has generators only (:meth:`MonomialIdeal._is_artinian`), and the unit
    ideal is the one whose row 0 starts at 0.  The rows are read run by run, as
    :func:`_row_plan` lays them out, in blocks of at most RUN_BLOCK rows:
    each block's key is the slices of the row starts that its rows read
    from its run and the runs one step below it (see
    :func:`_run_contribution`)."""
    if not i._is_artinian():
        raise NotArtinianError("Betti diagram needs an Artinian ideal")
    sides, starts = i._row_starts()
    if starts[0] == 0:  # the unit ideal
        return BettiDiagram(i.n, {})
    p = f.characteristic
    row_degrees, runs, _ = _row_plan(sides)
    run = len(row_degrees[0])
    beta = {(0, 0): 1}
    get = beta.get
    for degree, first in runs:
        a = cont = 0  # the block reads its runs' starts from row a on
        for lo in range(0, run, RUN_BLOCK):
            b = lo + RUN_BLOCK if lo + RUN_BLOCK < run else run
            key = sum([starts[r + a : r + b] for r in first], ())
            for index, d, dim in _run_contribution(p, cont, b - lo, key):
                entry = index, degree + lo + d
                beta[entry] = get(entry, 0) + dim
            a, cont = b - 1, 1
    return BettiDiagram(i.n, beta)


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
        raise DimensionError(f"{i.n} vs {a.n} variables")
    profile = i.pure_power_profile()
    for k, (least, e) in enumerate(zip(profile, a.degrees)):
        if least is None or least > e:
            raise ValueError(f"ideal does not contain {pure_power(a.n, k, e).exps}")
    n = i.n
    omega = a.omega
    residual = colon(a.powers_ideal(), i)
    bi = betti_diagram(i, f)
    bc = betti_diagram(residual, f)
    minimal = profile == a.degrees
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
