"""The three workloads: inputs made from the seed, the ops, and their checks.

Every op is one call into lppkit's public surface (a ``harness`` check or one
CLI query through ``lppkit.cli.main``).  ``Op.check`` compares the op's output
with a reference (the recorded counts in ``reference.json`` for the sweeps, a
dense-table oracle for the CLI queries) and with identities that hold for any
seed.  lppkit is imported inside ``load_lppkit`` only, so that a fresh
interpreter can time the import as part of set-up.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

WORKLOADS = ("sweep-betti", "sweep-residual", "cli-large")

REFERENCE = Path(__file__).with_name("reference.json")

# Box sides of the cli-large ideals: many small boxes and a few large ones.
# Fixed, so that the seed changes the generators, the bound queries and the
# order but not the size of the work.
SIDES3 = (
    (10, 10, 10), (10, 10, 11), (10, 10, 12), (10, 11, 11), (10, 11, 12),
    (10, 12, 12), (11, 11, 11), (10, 11, 13), (11, 11, 12), (10, 12, 13),
    (11, 12, 12), (11, 11, 13), (12, 12, 12), (11, 12, 13), (10, 13, 14),
    (12, 12, 13), (13, 14, 15), (14, 15, 16), (15, 16, 17), (16, 18, 20),
    (20, 21, 22),
)
SIDES4 = ((5, 5, 5, 5), (5, 5, 5, 6), (5, 5, 6, 6), (5, 6, 6, 7), (6, 6, 7, 7), (8, 8, 8, 8))
GENERATORS = 25  # non-pure-power generators drawn per cli-large ideal
BOUND_QUERIES = 65
CHAR_P = 32003


@dataclass
class Result:
    """What the check of one op found."""

    items: int = 0
    error: str | None = None
    vacuous: bool = False


@dataclass
class Op:
    label: str  # check name or CLI command, for the per-command split
    run: Callable[[], object]
    check: Callable[[object], Result]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    box_points: int | None = None  # known from the inputs (cli-large only)
    # (object, attribute) through which the workload enters the CLI layer
    cli_entry: tuple[object, str] | None = None


def load_lppkit(workload: str) -> dict:
    """Import lppkit (and its CLI for cli-large); layer name -> module."""
    import lppkit  # noqa: F401  (the package import is part of set-up)
    from lppkit import betti, growth, harness, monomials, vectors

    modules = {
        "monomials": monomials,
        "growth": growth,
        "vectors": vectors,
        "betti": betti,
        "harness": harness,
    }
    if workload == "cli-large":
        from lppkit import cli

        modules["cli"] = cli
    return modules


def build(workload: str, seed: int, lpp: dict) -> Workload:
    if workload == "sweep-betti":
        return _sweep_betti(seed, lpp)
    if workload == "sweep-residual":
        return _sweep_residual(seed, lpp)
    if workload == "cli-large":
        return _cli_large(seed, lpp)
    raise ValueError(f"unknown workload {workload!r}")


def setup_time(workload: str, seed: int) -> float:
    """Seconds to import lppkit and build the inputs, in this interpreter."""
    start = perf_counter()
    build(workload, seed, load_lppkit(workload))
    return perf_counter() - start


# ---------------------------------------------------------------------------
# sweeps


def _reference() -> dict:
    ref = json.loads(REFERENCE.read_text())
    # The recorded (3,3,4) counts must add up to MacMahon's box formula - 1.
    total = sum(ref["enumerated_ideals"]["3,3,4"].values())
    if total != _macmahon(3, 3, 4) - 1:
        raise ValueError(f"reference.json: {total} ideals for A=(3,3,4)")
    return ref


def _macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box (down-sets of the box)."""
    num = den = 1
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        num *= i + j + k - 1
        den *= i + j + k - 2
    return num // den


def _check_report(report, key: str, expected: int, vacuous_ok: bool) -> Result:
    """A pass must carry the recorded count; not-valid only where recorded."""
    if report.verdict == "not-valid":
        if vacuous_ok:
            return Result(vacuous=True)
        return Result(error="not-valid where the reference has a pass")
    if report.verdict != "pass":
        return Result(error=f"verdict {report.verdict}: {report.witnesses[:1]}")
    got = report.details.get(key)
    if got != expected:
        return Result(error=f"details[{key!r}] = {got}, reference {expected}")
    return Result(items=got)


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


def _sweep_betti(seed: int, lpp: dict) -> Workload:
    harness, monomials, betti = lpp["harness"], lpp["monomials"], lpp["betti"]
    ref = _reference()
    counts = ref["enumerated_ideals"]["3,3,4"]
    vacuous = set(ref["not_valid"]["3,3,4"])
    a = monomials.DegreeList((3, 3, 4))
    ops = []
    for h in harness.valid_hilbert_functions(a, a.sigma_ci):
        key = str(h)
        ops.append(
            Op(
                "lpp_dominance_check",
                # looked up at call time, so the traced run sees the wrapper
                lambda h=h: harness.lpp_dominance_check(h, a, betti.QQ),
                lambda r, key=key: _check_report(r, "ideals", counts[key], key in vacuous),
            )
        )
    if len(ops) != len(counts):
        raise ValueError(f"{len(ops)} Hilbert functions, reference has {len(counts)}")
    return Workload("sweep-betti", _shuffled(ops, seed))


def _sweep_residual(seed: int, lpp: dict) -> Workload:
    harness, monomials = lpp["harness"], lpp["monomials"]
    ref = _reference()
    counts = ref["enumerated_ideals"]["2,2,3,3"]
    a = monomials.DegreeList((2, 2, 3, 3))
    ops = []
    for h in harness.valid_hilbert_functions(a, a.sigma_ci):
        key = str(h)
        ops.append(
            Op(
                "growth_check",
                lambda h=h: harness.growth_check(h, a),
                lambda r, key=key: _check_report(r, "ideals", counts[key], False),
            )
        )
    if len(ops) != len(counts):
        raise ValueError(f"{len(ops)} Hilbert functions, reference has {len(counts)}")
    for degrees in ("3,4,5", "2,2,3,3"):
        d = monomials.DegreeList.from_string(degrees)
        n_vec = ref["residual_lpp_vectors"][degrees]
        n_lex = ref["lexseg_lpp_ideals"][degrees]
        ops.append(
            Op(
                "residual_lpp_check",
                lambda d=d: harness.residual_lpp_check(d),
                lambda r, n=n_vec: _check_report(r, "vectors", n, False),
            )
        )
        ops.append(
            Op(
                "lexseg_lemma_check",
                lambda d=d: harness.lexseg_lemma_check(d),
                lambda r, n=n_lex: _check_report(r, "lpp_ideals", n, False),
            )
        )
    return Workload("sweep-residual", _shuffled(ops, seed))


# ---------------------------------------------------------------------------
# cli-large


class Box:
    """Dense membership table of a monomial ideal inside the box prod [0, s_k).

    The reference for the CLI queries: it shares no code with lppkit.  Points
    are indexed in mixed radix (last variable fastest), so the reflection
    b -> s - 1 - b that gives the colon (powers : I) is index -> size - 1 - index.
    """

    def __init__(self, sides: tuple[int, ...], gens: list[tuple[int, ...]]):
        self.sides = sides
        self.n = len(sides)
        self.strides = [math.prod(sides[k + 1 :]) for k in range(self.n)]
        self.points = list(itertools.product(*(range(s) for s in sides)))
        inside = {g for g in gens if all(e < s for e, s in zip(g, sides))}
        member = bytearray(len(self.points))
        for idx, c in enumerate(self.points):
            if c in inside:
                member[idx] = 1
                continue
            for k, stride in enumerate(self.strides):
                if c[k] and member[idx - stride]:
                    member[idx] = 1
                    break
        self.member = member

    def hf(self) -> list[int]:
        counts = [0] * (sum(self.sides) + 1)
        for c, m in zip(self.points, self.member):
            if not m:
                counts[sum(c)] += 1
        return counts[: counts.index(0) + 1]

    def socle(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for idx, c in enumerate(self.points):
            if self.member[idx]:
                continue
            if all(
                c[k] == self.sides[k] - 1 or self.member[idx + stride]
                for k, stride in enumerate(self.strides)
            ):
                out.setdefault(sum(c), []).append(c)
        return {d: sorted(ms, reverse=True) for d, ms in out.items()}

    def minimal_gens(self, member: bytearray | None = None) -> list[tuple[int, ...]]:
        """Minimal generators of the ideal whose table is ``member``."""
        member = self.member if member is None else member
        gens = [
            c
            for idx, c in enumerate(self.points)
            if member[idx]
            and all(
                not c[k] or not member[idx - stride]
                for k, stride in enumerate(self.strides)
            )
        ]
        for k, s in enumerate(self.sides):
            if not member[(s - 1) * self.strides[k]]:
                gens.append(tuple(s if i == k else 0 for i in range(self.n)))
        return sorted(gens)

    def colon_gens(self) -> list[tuple[int, ...]]:
        """Minimal generators of (x_1^s_1, ..., x_n^s_n) : I."""
        top = len(self.member) - 1
        return self.minimal_gens(bytearray(1 - self.member[top - i] for i in range(top + 1)))


def _box_of_degree(sides: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """Box monomials of degree d, lex-descending."""
    if len(sides) == 1:
        return [(d,)] if 0 <= d < sides[0] else []
    out = []
    for e in range(min(d, sides[0] - 1), -1, -1):
        out += [(e,) + rest for rest in _box_of_degree(sides[1:], d - e)]
    return out


def _lex_bound(sides: tuple[int, ...], d: int, h: int) -> int:
    """Growth bound from degree d to d+1: keep the h lex-smallest degree-d box
    monomials and count the degree-(d+1) box monomials outside the ideal that
    the other ones and the pure powers generate."""
    deg_d = _box_of_degree(sides, d)
    taken = deg_d[: len(deg_d) - h]
    shadow = {
        c[:k] + (c[k] + 1,) + c[k + 1 :]
        for c in taken
        for k in range(len(sides))
        if c[k] + 1 < sides[k]
    }
    return len(_box_of_degree(sides, d + 1)) - len(shadow)


def _random_ideal(rng: random.Random, sides: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Pure powers plus GENERATORS distinct box monomials of the middle degree
    (so all are minimal generators)."""
    n = len(sides)
    d = sum(s - 1 for s in sides) // 2
    gens: set[tuple[int, ...]] = set()
    while len(gens) < GENERATORS:
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        exps = tuple(b - a for a, b in zip((0, *cuts), (*cuts, d)))
        if all(e < s for e, s in zip(exps, sides)):
            gens.add(exps)
    powers = [tuple(s if i == k else 0 for i in range(n)) for k, s in enumerate(sides)]
    return powers + sorted(gens)


def _ideal_text(gens: list[tuple[int, ...]]) -> str:
    def mono(exps):
        return "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e
        )

    return ", ".join(mono(g) for g in gens)


def _cli_large(seed: int, lpp: dict) -> Workload:
    from click.testing import CliRunner

    cli = lpp["cli"]
    runner = CliRunner()
    rng = random.Random(seed)

    def query(args: list[str]):
        # runner.invoke is looked up at call time, so the traced run sees the
        # wrapper that opens the cli span
        return lambda: runner.invoke(cli.main, args, catch_exceptions=False)

    def checked(parse, compare):
        def check(res) -> Result:
            if res.exit_code != 0:
                return Result(error=f"exit {res.exit_code}: {res.output[-200:]!r}")
            try:
                error = compare(parse(res.output))
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output {res.output[:200]!r}: {exc}"
            return Result(items=0 if error else 1, error=error)

        return check

    ops: list[Op] = []
    box_points = 0
    specs = SIDES3 + SIDES4
    for k, sides in enumerate(specs):
        gens = _random_ideal(rng, sides)
        box = Box(sides, gens)
        text = _ideal_text(gens)
        a_text = ",".join(map(str, sides))
        powers = _ideal_text(gens[: len(sides)])
        hf = box.hf()
        hf_text = " ".join(map(str, hf))
        char = 0 if k % 2 == 0 else CHAR_P
        box_points += math.prod(s + 1 for s in sides)
        ops += [
            Op("hf", query(["hf", "--ideal", text, "--json"]),
               checked(json.loads, lambda out, box=box: _check_hf(out, box))),
            Op("socle", query(["socle", "--ideal", text, "--json"]),
               checked(json.loads, lambda out, box=box: _check_socle(out, box))),
            Op("colon", query(["colon", "--ideal", powers, "--by", text, "--json"]),
               checked(json.loads, lambda out, box=box: _check_gens(out, box.colon_gens()))),
            Op("betti" if char == 0 else "betti_p",
               query(["betti", "--ideal", text, "--char", str(char), "--json"]),
               checked(json.loads, lambda out, box=box: _check_betti(out, box))),
            Op("vec_from_hf", query(["vec", "from-hf", "--A", a_text, "--hf", hf_text]),
               checked(str.strip, lambda out, a=a_text, h=hf_text:
                       _check_round_trip(runner, cli, a, out, h))),
        ]
    for k in range(BOUND_QUERIES):
        sides = specs[k % len(specs)]
        d = rng.randint(1, sum(s - 1 for s in sides) - 1)
        h = rng.randint(1, len(_box_of_degree(sides, d)))
        a_text = ",".join(map(str, sides))
        ops.append(
            Op("bound",
               query(["bound", "--A", a_text, "--d", str(d), "--h", str(h), "--json"]),
               checked(json.loads, lambda out, s=sides, d=d, h=h: _check_bound(out, s, d, h)))
        )
    rng.shuffle(ops)
    return Workload("cli-large", ops, box_points, (runner, "invoke"))


def _check_hf(out: dict, box: Box) -> str | None:
    want = box.hf()
    if out["values"] != want:
        return f"hf {out['values']} != reference {want}"
    if out["sigma"] != len(want) - 1 or out["rho"] != len(want) - 2:
        return f"sigma/rho {out['sigma']}/{out['rho']} for {want}"
    return None


def _check_socle(out: dict, box: Box) -> str | None:
    got = {int(d): sorted(map(tuple, ms), reverse=True) for d, ms in out.items()}
    return None if got == box.socle() else "socle differs from the reference"


def _check_gens(out: dict, want: list[tuple[int, ...]]) -> str | None:
    got = sorted(tuple(g) for g in out["gens"])
    return None if got == want else f"colon gens {got} != reference {want}"


def _check_betti(out: dict, box: Box) -> str | None:
    """Identities for the Betti diagram of R/I:
    beta_0 = 1 in degree 0; beta_1 counts minimal generators by degree;
    beta_n counts socle monomials of degree j - n; and Stanley's identity
    sum_i (-1)^i beta_(i,j) = coefficient of t^j in H(t) (1 - t)^n."""
    n = box.n
    beta: dict[tuple[int, int], int] = {}
    for i, j, v in out["betti"]:
        if not (0 <= i <= n and v > 0):
            return f"entry {(i, j, v)} out of range"
        beta[(i, j)] = v
    col = lambda i: {j: v for (ii, j), v in beta.items() if ii == i}  # noqa: E731
    if col(0) != {0: 1}:
        return f"beta_0 = {col(0)}"
    want1: dict[int, int] = {}
    for g in box.minimal_gens():
        want1[sum(g)] = want1.get(sum(g), 0) + 1
    if col(1) != want1:
        return f"beta_1 {col(1)} != generator degrees {want1}"
    want_n = {d + n: len(ms) for d, ms in box.socle().items()}
    if col(n) != want_n:
        return f"beta_{n} {col(n)} != socle degrees {want_n}"
    hf = box.hf()
    top = max(len(hf) + n, max((j for _, j in beta), default=0) + 1)
    for j in range(top + 1):
        lhs = sum((-1) ** i * v for (i, jj), v in beta.items() if jj == j)
        rhs = sum(
            (-1) ** k * math.comb(n, k) * (hf[j - k] if 0 <= j - k < len(hf) else 0)
            for k in range(n + 1)
        )
        if lhs != rhs:
            return f"Stanley identity fails in degree {j}: {lhs} != {rhs}"
    return None


def _check_round_trip(runner, cli, a_text: str, vec_text: str, hf_text: str) -> str | None:
    back = runner.invoke(cli.main, ["vec", "to-hf", "--A", a_text, "--vec", vec_text])
    if back.exit_code != 0 or back.output.split() != hf_text.split():
        return f"vec {vec_text} maps back to {back.output.strip()!r}, not {hf_text!r}"
    return None


def _check_bound(out: dict, sides: tuple[int, ...], d: int, h: int) -> str | None:
    want = _lex_bound(sides, d, h)
    if out["bound"] != want:
        return f"bound {out['bound']} != reference {want}"
    if sum(t["value"] for t in out["terms"]) != h:
        return f"expansion terms do not add up to h={h}"
    if sum(out["bound_terms"]) != want:
        return "bound terms do not add up to the bound"
    return None
