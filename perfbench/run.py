"""lppkit benchmark: one workload per run, in a fresh interpreter.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep-betti --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` gives the
per-layer metrics: it measures untraced for half the time and traced for the
other half (the ratio of the two is ``trace_overhead_frac``).

Load is one process, one thread and a closed loop: each op starts when the
previous one has finished.  A run repeats whole passes over the workload's ops
while the next pass is predicted to end within ``--seconds`` (at least one
pass); every pass starts with lppkit's ``lru_cache``s cleared.  Each op's
latency is the median over the passes.

Times are given at nominal machine speed.  The machines this runs on share
their cores, and their speed drifts by 20% to 50% over seconds.  So a fixed
pure-Python loop is timed after every op, and each op's wall time is scaled by
``NOMINAL_LOOP_S`` / (median loop time over the ops around it).  A change to
lppkit moves the op times but not the loop; the raw wall-clock figures are
printed too.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
TRACE_DIR = ROOT / ".bench_trace"

# The calibration loop scans a 7x7x7 box for multiples of these monomials:
# tuples, zip and dict stores, like lppkit's own inner loops.
LOOP_GENS = ((1, 2, 3), (3, 1, 2), (2, 3, 1), (0, 4, 2), (4, 0, 2))
# The loop's time on the machine the baseline was recorded on when it was not
# contended (a 2-vCPU Intel Xeon VM, Python 3.11); times are reported at that
# speed.
NOMINAL_LOOP_S = 0.9e-3
WINDOW = 4  # loop timings on each side of an op that set its speed

END_TO_END = (
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("hf", "socle", "colon", "betti", "betti_p", "vec_from_hf", "bound")
ENTRY_METRICS = (
    ("monomials", ("hilbert_function", "socle_monomials", "colon", "minimalize", "parse_ideal")),
    ("vectors", ("vector_of_hf", "hf_of_vector", "ideal_of_vector", "dual")),
    ("growth", ("is_lpp_sequence", "lpp_bound")),
)
PER_LAYER = (
    [
        ("betti.betti_diagram.calls", "count"),
        ("betti.betti_diagram.self_s", "s"),
        ("betti.box_points", "count"),
        ("betti.ns_per_box_point", "ns"),
        ("harness.enumerate_ideals.calls", "count"),
        ("harness.enumerate_ideals.self_s", "s"),
        ("harness.enumerate_ideals.ideals", "count"),
        ("harness.vacuous_frac", "fraction"),
    ]
    + [
        (f"{layer}.{fn}.{kind}", unit)
        for layer, fns in ENTRY_METRICS
        for fn in fns
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [("cli.calls", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.self_s", "s")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [(f"cli.cmd.{c}.wall_frac", "fraction") for c in CLI_COMMANDS]
    + [("trace_overhead_frac", "fraction"), ("trace.accounted_frac", "fraction")]
)


def loop_s() -> float:
    """Time one run of the fixed calibration loop."""
    start = perf_counter()
    multiples = {}
    for c in itertools.product(range(7), repeat=3):
        if any(all(a <= b for a, b in zip(g, c)) for g in LOOP_GENS):
            multiples[c] = sum(c)
    return perf_counter() - start


@dataclass
class Measurement:
    """Per op (in workload order): its label, one latency per pass (scaled to
    nominal speed, and raw), and the items its check credited (0 if failed)."""

    labels: list[str]
    samples: list[list[float]]
    raw: list[list[float]]
    items: list[int]
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    vacuous: int = 0  # ops per pass whose verdict was not-valid
    loops: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def latencies(self, raw: bool = False) -> list[float]:
        """Each op's median latency over the passes."""
        return [statistics.median(s) for s in (self.raw if raw else self.samples)]

    def items_per_s(self, raw: bool = False) -> float:
        return sum(self.items) / sum(self.latencies(raw))

    def wall_frac(self, label: str) -> float:
        lat = self.latencies()
        return sum(t for t, lab in zip(lat, self.labels) if lab == label) / sum(lat)


def lru_caches(modules: dict) -> list:
    """Every functools.lru_cache wrapper at module level in lppkit."""
    return [
        v
        for m in modules.values()
        for v in vars(m).values()
        if callable(getattr(v, "cache_clear", None)) and hasattr(v, "cache_info")
    ]


def measure(workload, budget: float, caches: list, tracer=None) -> Measurement:
    """Whole passes over the ops while the next one is predicted to fit in
    ``budget`` seconds.  Only the op call is timed; the calibration loop and
    the op's check run afterwards.  The first pass checks each output against
    the reference; later passes must reproduce the first pass's output."""
    ops = workload.ops
    m = Measurement(
        [op.label for op in ops], [[] for _ in ops], [[] for _ in ops], [0] * len(ops)
    )
    first: list[str] = []
    start = perf_counter()
    last = 0.0
    while m.passes == 0 or perf_counter() - start + last <= budget:
        pass_start = perf_counter()
        for cache in caches:
            cache.cache_clear()
        elapsed = []
        loops = [loop_s()]  # loops[i] runs before op i, loops[i + 1] after it
        for index, op in enumerate(ops):
            m.attempted += 1
            gc.collect()  # no op pays for collecting an earlier op's garbage
            t0 = perf_counter()
            try:
                out = tracer.run_op(m.attempted, op.run) if tracer else op.run()
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            elapsed.append(perf_counter() - t0)
            loops.append(loop_s())
            key = _fingerprint(out)
            if m.passes == 0:
                first.append(key)
                res = _check(op, out)
                m.items[index] = 0 if res.error else res.items
                m.vacuous += res.vacuous
            elif key != first[index]:
                res = workloads.Result(error="output differs from the first pass")
                m.items[index] = 0
            else:
                continue
            if res.error:
                m.failed += 1
                m.errors.append(f"{op.label}: {res.error}")
        for index, t in enumerate(elapsed):
            local = statistics.median(loops[max(0, index - WINDOW + 1) : index + WINDOW + 1])
            m.samples[index].append(t * NOMINAL_LOOP_S / local)
            m.raw[index].append(t)
        m.loops += loops
        m.passes += 1
        last = perf_counter() - pass_start
    return m


def _check(op, out) -> workloads.Result:
    if isinstance(out, Exception):
        return workloads.Result(error=f"raised {out!r}")
    return op.check(out)


def _fingerprint(out) -> str:
    """What must repeat exactly from pass to pass."""
    if isinstance(out, Exception):
        return repr(out)
    if hasattr(out, "verdict"):  # a harness CheckReport
        return out.to_json()
    return f"{out.exit_code}\n{out.output}"  # a click Result


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of this (fresh) interpreter, scaled to nominal speed."""
    took = workloads.setup_time(workload, seed)
    return took * NOMINAL_LOOP_S / statistics.median(loop_s() for _ in range(9))


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time import + input building in fresh interpreters (cold caches)."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
        "print(repr(run.setup_probe(sys.argv[3], int(sys.argv[4]))))"
    )
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: Measurement, setup: list[float]) -> dict[str, float]:
    lat = m.latencies()
    return {
        "items_per_s": m.items_per_s(),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(untraced: Measurement, traced: Measurement, summary: dict):
    """Per-layer metrics per pass of the traced run, and every span total per
    pass.  Span times are scaled to nominal speed by the traced run's overall
    scale factor."""
    scale = sum(traced.latencies()) / sum(traced.latencies(raw=True))
    per_pass = {
        k: v / traced.passes * (scale if k.endswith("_s") else 1)
        for k, v in summary.items()
    }
    out = {name: float(per_pass.get(name, 0)) for name, _ in PER_LAYER}
    out["cli.calls"] = float(per_pass.get("cli.main.calls", 0))
    points = out["betti.box_points"]
    out["betti.ns_per_box_point"] = (
        out["betti.betti_diagram.self_s"] / points * 1e9 if points else 0.0
    )
    out["harness.vacuous_frac"] = traced.vacuous / len(traced.labels)
    for c in CLI_COMMANDS:
        out[f"cli.cmd.{c}.wall_frac"] = untraced.wall_frac(c)
    out["trace_overhead_frac"] = untraced.items_per_s() / traced.items_per_s() - 1
    out["trace.accounted_frac"] = summary["self_total_s"] / summary["op_wall_s"]
    return out, per_pass


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    lpp = workloads.load_lppkit(args.workload)
    if not Path(lpp["harness"].__file__).resolve().is_relative_to(SRC):
        print(f"lppkit was imported from outside {SRC}", file=sys.stderr)
        return 2
    setup = setup_seconds(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, lpp)
    caches = lru_caches(lpp)

    if args.trace == 0:
        m = measure(workload, args.seconds, caches)
        metrics = end_to_end(m, setup)
        units = dict(END_TO_END)
        box_points = workload.box_points or "counted with --trace 1"
        extra = {}
    else:
        untraced = measure(workload, args.seconds / 2, caches)
        tracer = Tracer()
        tracer.install(lpp, workload.cli_entry)
        try:
            m = measure(workload, args.seconds / 2, caches, tracer)
        finally:
            tracer.uninstall()
        metrics, per_pass = per_layer(untraced, m, tracer.summary())
        units = dict(PER_LAYER)
        box_points = int(metrics["betti.box_points"])
        extra = {k: v for k, v in per_pass.items() if k not in metrics}
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv")
        m.attempted += untraced.attempted
        m.failed += untraced.failed
        m.errors += untraced.errors

    raw = m.latencies(raw=True)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(
        f"sizes: ops/pass={len(m.samples)} passes={m.passes} "
        f"items/pass={sum(m.items)} box_points/pass={box_points}"
    )
    for name, value in metrics.items():
        print(f"  {name}: {value!r} {units[name]}")
    print(
        f"  error_rate: {m.failed / m.attempted!r} fraction "
        f"(failed {m.failed} of {m.attempted} ops)"
    )
    print(
        f"  unscaled: items_per_s {m.items_per_s(raw=True):.4f} 1/s, "
        f"op_p50 {statistics.median(raw) * 1e3:.4f} ms, "
        f"op_p90 {percentile(raw, 90) * 1e3:.4f} ms, "
        f"calibration loop median {statistics.median(m.loops) * 1e3:.4f} ms "
        f"(nominal {NOMINAL_LOOP_S * 1e3} ms)"
    )
    for name in sorted(extra):
        print(f"  other spans, per pass: {name}: {extra[name]!r}")
    for line in m.errors[:20]:
        print(f"  error: {line}")
    print(
        json.dumps(
            {
                "correct": m.failed == 0,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print()
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lppkit" / "__init__.py").is_file():
        print(f"no lppkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
