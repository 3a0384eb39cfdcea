"""Command-line front end: ``lppkit``."""

from __future__ import annotations

import json
import os
import sys

import click

from . import growth, harness, monomials, vectors
from .betti import FieldSpec, betti_diagram
from .monomials import (
    DegreeList,
    GuardExceeded,
    HilbertFunction,
    MonomialIdeal,
    format_ideal,
)
from .vectors import format_vector, parse_vector


def _fail(message: str):
    raise click.ClickException(message)


def _echo(message: str, err: bool = False):
    """click.echo to the current standard stream.  click.echo's own lookup
    caches a wrapper per stream object, which keeps alive every stream of an
    in-process invocation (click.testing.CliRunner); get_text_stream does not
    cache."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"))


def _guarded(fn, *args):
    """Run fn(*args): a guard exits with code 3, a bad input is a clean
    error."""
    try:
        return fn(*args)
    except GuardExceeded as exc:
        _echo(f"guard exceeded: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        _fail(str(exc))


def _ideal(text: str, n: int | None = None) -> MonomialIdeal:
    if text == "-":
        text = sys.stdin.read()
    elif os.path.isfile(text):
        with open(text) as fh:
            text = fh.read()
    return _guarded(monomials.parse_ideal, text, n)


@click.group()
def main():
    """Exact computations with Artinian monomial ideals and lex-plus-powers
    vectors: Hilbert functions, growth bounds, colon ideals, Betti diagrams,
    and exhaustive verification sweeps."""


@main.command()
@click.option("--ideal", "ideal_text", required=True, help="Ideal (inline, file, or '-').")
@click.option("--json", "as_json", is_flag=True)
def hf(ideal_text: str, as_json: bool):
    """Hilbert function of an Artinian monomial quotient."""
    ideal = _ideal(ideal_text)
    h = _guarded(ideal.hilbert_function)
    if as_json:
        _echo(json.dumps({"values": list(h.values), "sigma": h.sigma, "rho": h.rho}))
    else:
        _echo(str(h))


@main.command()
@click.option("--A", "a_text", required=True, help="Degree list, e.g. 3,4,11.")
@click.option("--d", "d", type=int, required=True)
@click.option("--h", "h", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def bound(a_text: str, d: int, h: int, as_json: bool):
    """Growth bound from degree d to d+1, with the expansion rectangle."""
    a = _guarded(DegreeList.from_string, a_text)
    if h == 0:
        if as_json:
            _echo(json.dumps({"A": list(a.degrees), "d": d, "h": 0, "terms": [], "bound": 0}))
        else:
            _echo("bound: 0")
        return
    expansion = _guarded(growth.gk_expansion, h, d, a)
    b = expansion.bound()
    if as_json:
        _echo(
            json.dumps(
                {
                    "A": list(a.degrees),
                    "d": d,
                    "h": h,
                    "terms": [
                        {"row": r, "column": t, "value": v}
                        for (r, t), v in zip(expansion.terms, expansion.term_values())
                    ],
                    "bound_terms": expansion.bound_values(),
                    "bound": b,
                }
            )
        )
        return
    _echo(_render_rectangle(a, expansion))
    _echo("")
    _echo(
        f"expansion: {h} = " + " + ".join(str(v) for v in expansion.term_values())
    )
    _echo(f"bound: {b}")


def _render_rectangle(a: DegreeList, expansion) -> str:
    upto = a.sigma_ci
    rows = growth.rectangle_rows(a, upto)
    boxed = set(expansion.terms)
    labels = [growth.row_label(a, r) + ":" for r in range(1, a.n + 1)]
    label_w = max(len(s) for s in labels)
    widths = [
        max(len(str(c)), max(len(str(row[c])) for row in rows)) for c in range(upto + 1)
    ]
    lines = [
        " " * label_w
        + "".join(" " + str(c).rjust(widths[c]) + " " for c in range(upto + 1))
    ]
    for r, (label, row) in enumerate(zip(labels, rows), start=1):
        cells = []
        for c in range(upto + 1):
            s = str(row[c]).rjust(widths[c])
            cells.append(f"[{s}]" if (r, c) in boxed else f" {s} ")
        lines.append(label.rjust(label_w) + "".join(cells))
    return "\n".join(lines)


@main.command()
@click.option("--A", "a_text", required=True)
@click.option("--hf", "hf_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def validseq(a_text: str, hf_text: str, as_json: bool):
    """Is the sequence a valid Hilbert function for the degree list?"""
    a = _guarded(DegreeList.from_string, a_text)
    h = _guarded(HilbertFunction.from_string, hf_text)
    ok = growth.is_lpp_sequence(h, a)
    if as_json:
        _echo(json.dumps({"A": list(a.degrees), "H": str(h), "valid": ok}))
    else:
        _echo("valid" if ok else "invalid")
    if not ok:
        sys.exit(2)


@main.command()
@click.option("--ideal", "j_text", required=True, help="The ideal J in (J : I).")
@click.option("--by", "i_text", required=True, help="The ideal I in (J : I).")
@click.option("--json", "as_json", is_flag=True)
def colon(j_text: str, i_text: str, as_json: bool):
    """Colon (residual) ideal (J : I)."""
    j = _ideal(j_text)
    i = _ideal(i_text, n=j.n)
    result = _guarded(monomials.colon, j, i)
    if as_json:
        _echo(json.dumps(monomials.ideal_to_json_dict(result)))
    else:
        _echo(format_ideal(result))


@main.command()
@click.option("--ideal", "ideal_text", required=True)
@click.option("--char", "char", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def betti(ideal_text: str, char: int, as_json: bool):
    """Betti diagram of an Artinian monomial quotient."""
    ideal = _ideal(ideal_text)
    field = _guarded(FieldSpec, char)
    diagram = _guarded(betti_diagram, ideal, field)
    if as_json:
        _echo(json.dumps(diagram.to_json_dict()))
    else:
        _echo(diagram.render())


@main.command()
@click.option("--ideal", "ideal_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def socle(ideal_text: str, as_json: bool):
    """Socle monomials of an Artinian monomial quotient, by degree."""
    ideal = _ideal(ideal_text)
    soc = _guarded(ideal.socle_monomials)
    if as_json:
        _echo(
            json.dumps(
                {str(d): [list(m.exps) for m in ms] for d, ms in soc.items()}
            )
        )
    else:
        for d, ms in soc.items():
            _echo(f"{d}: " + ", ".join(monomials.format_monomial(m) for m in ms))


@main.group()
def vec():
    """Operations on lex-plus-powers vectors."""


def _vec_common(a_text: str, vec_text: str):
    a = _guarded(DegreeList.from_string, a_text)
    return a, _guarded(parse_vector, vec_text, a.n)


@vec.command("validate")
@click.option("--A", "a_text", required=True)
@click.option("--vec", "vec_text", required=True)
def vec_validate(a_text: str, vec_text: str):
    a, t = _vec_common(a_text, vec_text)
    verdict = vectors.validate(t, a)
    if verdict:
        _echo("valid")
    else:
        _echo(f"invalid: {verdict.reason}")
        sys.exit(2)


@vec.command("stats")
@click.option("--A", "a_text", required=True)
@click.option("--vec", "vec_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def vec_stats(a_text: str, vec_text: str, as_json: bool):
    a, t = _vec_common(a_text, vec_text)
    verdict = vectors.validate(t, a)
    if not verdict:
        _fail(f"invalid vector: {verdict.reason}")
    st = vectors.stats(t, a)
    alpha = None if st.alpha == vectors.INF else int(st.alpha)
    if as_json:
        _echo(
            json.dumps(
                {"l": st.length, "sigma": st.sigma, "alpha": alpha, "ci": st.is_ci}
            )
        )
    else:
        _echo(
            f"l={st.length} sigma={st.sigma} "
            f"alpha={'inf' if alpha is None else alpha} ci={str(st.is_ci).lower()}"
        )


@vec.command("to-ideal")
@click.option("--A", "a_text", required=True)
@click.option("--vec", "vec_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def vec_to_ideal(a_text: str, vec_text: str, as_json: bool):
    a, t = _vec_common(a_text, vec_text)
    ideal = _guarded(vectors.ideal_of_vector, t, a)
    if as_json:
        _echo(json.dumps(monomials.ideal_to_json_dict(ideal)))
    else:
        _echo(format_ideal(ideal))


@vec.command("to-hf")
@click.option("--A", "a_text", required=True)
@click.option("--vec", "vec_text", required=True)
def vec_to_hf(a_text: str, vec_text: str):
    a, t = _vec_common(a_text, vec_text)
    verdict = vectors.validate(t, a)
    if not verdict:
        _fail(f"invalid vector: {verdict.reason}")
    _echo(str(vectors.hf_of_vector(t)))


@vec.command("from-hf")
@click.option("--A", "a_text", required=True)
@click.option("--hf", "hf_text", required=True)
def vec_from_hf(a_text: str, hf_text: str):
    a = _guarded(DegreeList.from_string, a_text)
    h = _guarded(HilbertFunction.from_string, hf_text)
    t = _guarded(vectors.vector_of_hf, h, a)
    _echo(format_vector(t))


@vec.command("dual")
@click.option("--A", "a_text", required=True)
@click.option("--vec", "vec_text", required=True)
def vec_dual(a_text: str, vec_text: str):
    a, t = _vec_common(a_text, vec_text)
    _echo(format_vector(_guarded(vectors.dual, t, a)))


@main.command()
@click.option("--A", "a_text", required=True, help="Two degrees, e.g. 5,7.")
@click.option("--vec", "vec_text", default=None)
@click.option("--ideal", "ideal_text", default=None)
def staircase(a_text: str, vec_text: str | None, ideal_text: str | None):
    """Two-variable staircase: filled circles are monomials outside the ideal."""
    a = _guarded(DegreeList.from_string, a_text)
    if a.n != 2:
        _fail("staircase rendering needs exactly two variables")
    if (vec_text is None) == (ideal_text is None):
        _fail("provide exactly one of --vec or --ideal")
    aa, bb = a.degrees
    _guarded(_check_staircase_size, aa * bb)
    if vec_text is not None:
        t = _guarded(parse_vector, vec_text, 2)
        ideal = _guarded(vectors.ideal_of_vector, t, a)
    else:
        ideal = _ideal(ideal_text, n=2)
    sides, starts = _guarded(ideal._row_starts)
    lines = []
    for xe in range(aa - 1, -1, -1):
        # the row's members run from its start on; past the box nothing changes
        t = starts[min(xe, sides[0] - 1)]
        t = bb if t == sides[1] else min(t, bb)
        lines.append("•" * t + "○" * (bb - t))
    _echo("\n".join(lines))


def _check_staircase_size(cells: int):
    if cells > monomials.BOX_GUARD:
        raise GuardExceeded(f"staircase of {cells} cells exceeds {monomials.BOX_GUARD}")


@main.group()
def check():
    """Exhaustive verification sweeps with reproducible reports."""


def _emit_report(report: harness.CheckReport, as_json: bool):
    if as_json:
        _echo(report.to_json())
    else:
        _echo(f"check: {report.check}")
        _echo(f"instance: {json.dumps(report.instance)}")
        for key, value in report.details.items():
            _echo(f"{key}: {value}")
        _echo(f"verdict: {report.verdict}")
        for w in report.witnesses:
            _echo(f"witness: {json.dumps(w)}")
    if report.verdict != "pass":
        sys.exit(2)


@check.command("growth")
@click.option("--A", "a_text", required=True)
@click.option("--hf", "hf_text", required=True)
@click.option("--max-count", "max_count", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def check_growth(a_text, hf_text, max_count, as_json):
    a = _guarded(DegreeList.from_string, a_text)
    h = _guarded(HilbertFunction.from_string, hf_text)
    _emit_report(_guarded(harness.growth_check, h, a, max_count), as_json)


@check.command("lpp")
@click.option("--A", "a_text", required=True)
@click.option("--hf", "hf_text", required=True)
@click.option("--char", "char", type=int, default=0, show_default=True)
@click.option("--max-count", "max_count", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def check_lpp(a_text, hf_text, char, max_count, as_json):
    a = _guarded(DegreeList.from_string, a_text)
    h = _guarded(HilbertFunction.from_string, hf_text)
    f = _guarded(FieldSpec, char)
    _emit_report(_guarded(harness.lpp_dominance_check, h, a, f, max_count), as_json)


@check.command("residual")
@click.option("--A", "a_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def check_residual(a_text, as_json):
    a = _guarded(DegreeList.from_string, a_text)
    _emit_report(_guarded(harness.residual_lpp_check, a), as_json)


@check.command("lexseg")
@click.option("--A", "a_text", required=True)
@click.option("--json", "as_json", is_flag=True)
def check_lexseg(a_text, as_json):
    a = _guarded(DegreeList.from_string, a_text)
    _emit_report(_guarded(harness.lexseg_lemma_check, a), as_json)


@check.command("socle-equiv")
@click.option("--A", "a_text", required=True)
@click.option("--hf", "hf_text", required=True)
@click.option("--char", "char", type=int, default=0, show_default=True)
@click.option("--max-count", "max_count", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def check_socle_equiv(a_text, hf_text, char, max_count, as_json):
    a = _guarded(DegreeList.from_string, a_text)
    h = _guarded(HilbertFunction.from_string, hf_text)
    f = _guarded(FieldSpec, char)
    _emit_report(
        _guarded(harness.socle_equivalence_check, h, a, f, max_count), as_json
    )


if __name__ == "__main__":
    main()
