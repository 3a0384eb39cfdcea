"""Layer spans for the traced run, recorded from outside the library.

The tracer rebinds each layer's public entry points where the calling module
looks them up (module globals such as ``harness.betti_diagram`` and class
attributes such as ``MonomialIdeal.hilbert_function``) and restores the
originals afterwards, so ``src/`` is never edited.  While an op is active, a
span opens where control crosses from one layer into another through an entry
point; calls inside a layer open none.  ``enumerate_ideals`` is the exception:
it gets one span per ``next()`` even when a harness check consumes it, so that
enumeration is timed apart from the consumer's work.  Per-monomial calls (``MonomialIdeal.contains``,
``Monomial(...)``) are never wrapped: their cost is counted by computation
(``betti.box_points``) and lands in the caller's self time.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("monomials", "growth", "vectors", "betti", "harness", "cli")

# (layer, attribute path) of every wrapped entry point.  A dotted path names a
# class attribute (a method); a plain name is a module-level function, which
# is rebound in every lppkit module that holds it.
ENTRY_POINTS = (
    ("monomials", "MonomialIdeal.hilbert_function"),
    ("monomials", "MonomialIdeal.socle_monomials"),
    ("monomials", "colon"),
    ("monomials", "minimalize"),
    ("monomials", "parse_ideal"),
    ("monomials", "is_lpp"),
    ("monomials", "is_lex_segment"),
    ("growth", "is_lpp_sequence"),
    ("growth", "lpp_bound"),
    ("growth", "gk_expansion"),
    ("growth", "ci_hilbert_function"),
    ("growth", "standard_monomials_of_degree"),
    ("vectors", "vector_of_hf"),
    ("vectors", "hf_of_vector"),
    ("vectors", "ideal_of_vector"),
    ("vectors", "dual"),
    ("vectors", "enumerate_vectors"),
    ("vectors", "validate"),
    ("betti", "betti_diagram"),
    ("harness", "growth_check"),
    ("harness", "lpp_dominance_check"),
    ("harness", "residual_lpp_check"),
    ("harness", "lexseg_lemma_check"),
    ("harness", "lpp_ideal_for"),
    ("harness", "enumerate_ideals"),
)

OP_SPAN = "bench.op"
CLI_SPAN = "cli.main"


def box_points(ideal) -> int:
    """Points of the box that ``betti_diagram`` scans: prod(max exponent + 1)."""
    return math.prod(max(g.exps[k] for g in ideal.gens) + 1 for k in range(ideal.n))


class Tracer:
    """Spans kept in memory, one column per field: name, start, end, parent
    span index (-1 for none) and op id.  Flat arrays keep the spans out of the
    garbage collector's way."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.op: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # children included
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(len(self.names))
        self.child_time.append(0.0)
        self.names.append(name)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.starts.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        index = self.stack.pop()
        self.ends[index] = end
        duration = end - self.starts[index]
        self.total_s[self.names[index]] += duration
        self.self_s[self.names[index]] += duration - self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += duration

    def _active(self, layer: str) -> bool:
        """Record a span for this call: an op is running and the call crosses
        into ``layer`` from another layer."""
        return self.op is not None and not (
            self.stack and self.names[self.stack[-1]].split(".", 1)[0] == layer
        )

    def run_op(self, op_id: int, fn):
        """Run one op under a root span; returns fn's result."""
        self.op = op_id
        self.open(OP_SPAN)
        try:
            return fn()
        finally:
            self.close()
            self.op = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._active(layer):
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if name == "betti.betti_diagram":
                tracer.counts["betti.box_points"] += box_points(args[0])
            tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                tracer.close()

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per next(), so the consumer's work between items is not
        counted in the generator's span."""
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if tracer.op is None:
                return gen
            tracer.calls[name] += 1
            return tracer._stepped(name, layer, gen)

        return wrapper

    def _stepped(self, name: str, layer: str, gen):
        try:
            while True:
                self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except Exception:
                    self.errors[layer] += 1
                    raise
                finally:
                    self.close()
                self.counts[name + ".ideals"] += 1
                yield item
        finally:
            gen.close()

    def install(self, modules: dict, cli_entry: tuple[object, str] | None) -> None:
        """Rebind every entry point in ``modules`` (layer name -> module), and
        the attribute ``cli_entry`` through which the benchmark runs a query."""
        if cli_entry is not None:
            owner, attr = cli_entry
            self._set(owner, attr, self._wrap(CLI_SPAN, getattr(owner, attr)))
        for layer, path in ENTRY_POINTS:
            home = modules[layer]
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, original))
                continue
            original = getattr(home, path)
            wrap = self._wrap_generator if path == "enumerate_ideals" else self._wrap
            wrapper = wrap(name, original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls, self and inclusive time per span name; self time and errors
        per layer."""
        out: dict[str, float] = {}
        for name, total in self.self_s.items():
            out[f"{name}.self_s"] = total
            out[f"{name}.total_s"] = self.total_s[name]
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer
            )
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        out["bench.self_s"] = self.self_s.get(OP_SPAN, 0.0)
        out["self_total_s"] = sum(self.self_s.values())
        out["op_wall_s"] = self.total_s[OP_SPAN]
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            rows = zip(self.names, self.starts, self.ends, self.parents, self.ops)
            for name, start, end, parent, op in rows:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")
