"""How lppkit refuses: the command group's one exit-code policy (a guard
exits 3, a bad input exits 1, click's own exits and the commands' exit 2 pass
through), and guards that run before the work they bound."""

import inspect

import click
import pytest
from click.testing import CliRunner

from lppkit import (
    DegreeList,
    DimensionError,
    GuardExceeded,
    HilbertFunction,
    NotArtinianError,
    ci_hilbert_function,
    growth,
    growth_check,
    harness,
    lpp_dominance_check,
    monomials,
    socle_equivalence_check,
    vectors,
)
from lppkit.cli import main

ZERO = HilbertFunction.from_string("0")


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def commands(group: click.Group):
    for command in group.commands.values():
        if isinstance(command, click.Group):
            yield from commands(command)
        else:
            yield command


def refuse(exc):
    def raising(*args):
        raise exc

    return raising


def forbid(*args):
    raise AssertionError("built before the guard refused")


class TestOnePolicy:
    def test_no_command_body_handles_an_exception(self):
        found = list(commands(main))
        assert len(found) == 18
        for command in found:
            assert "try:" not in inspect.getsource(command.callback), command.name

    # validseq and vec validate call these with no handler of their own, one
    # at the top level and one in a subgroup
    @pytest.mark.parametrize(
        "module, name, args",
        [
            (growth, "is_lpp_sequence", ["validseq", "--A", "3,4", "--hf", "1 2 1"]),
            (vectors, "validate", ["vec", "validate", "--A", "3,4", "--vec", "[1,[1]]"]),
        ],
        ids=["validseq", "vec-validate"],
    )
    @pytest.mark.parametrize(
        "exc, code, stderr",
        [
            (GuardExceeded("more than 5 ideals"), 3, "guard exceeded: more than 5 ideals\n"),
            (ValueError("bad input"), 1, "Error: bad input\n"),
            (DimensionError("wrong n"), 1, "Error: wrong n\n"),
            (NotArtinianError("not Artinian"), 1, "Error: not Artinian\n"),
        ],
        ids=["guard", "value", "dimension", "not-artinian"],
    )
    def test_every_command_maps_refusals_to_exit_codes(
        self, monkeypatch, module, name, args, exc, code, stderr
    ):
        monkeypatch.setattr(module, name, refuse(exc))
        r = invoke(*args)
        assert (r.exit_code, r.stdout, r.stderr) == (code, "", stderr)

    def test_other_exceptions_pass_through(self, monkeypatch):
        monkeypatch.setattr(growth, "is_lpp_sequence", refuse(RuntimeError("bug")))
        r = invoke("validseq", "--A", "3,4", "--hf", "1 2 1")
        assert isinstance(r.exception, RuntimeError) and str(r.exception) == "bug"

    @pytest.mark.parametrize(
        "args, code, stream, text",
        [
            (["validseq", "--A", "3,4", "--hf", "1 3 1"], 2, "stdout", "invalid\n"),
            (["validseq", "--A", "3,4"], 2, "stderr", "Missing option '--hf'"),
            (["hf", "--ideal", "x1^2, x2^2", "--bad"], 2, "stderr", "No such option '--bad'"),
            (["staircase", "--A", "3,4,5", "--ideal", "x1"], 1, "stderr",
             "Error: staircase rendering needs exactly two variables\n"),
        ],
        ids=["exit-2", "missing-option", "unknown-option", "click-exception"],
    )
    def test_click_and_command_exits_pass_through(self, args, code, stream, text):
        r = invoke(*args)
        assert r.exit_code == code
        assert text in getattr(r, stream)


class TestWalkGuards:
    def test_growth_box_is_refused_before_the_frame(self, monkeypatch):
        monkeypatch.setattr(harness, "_frame", forbid)
        a, h = DegreeList((1500, 1500, 1500)), HilbertFunction.from_string("1 3 1")
        with pytest.raises(GuardExceeded, match="^box of 3381754501 points exceeds 2000000$"):
            growth_check(h, a)

    def test_box_at_the_guard_is_walked(self):
        # 125 * 125 * 128 = 2,000,000 points
        r = growth_check(HilbertFunction.from_string("1 3 1"), DegreeList((124, 124, 127)))
        assert r.ok and r.details == {"ideals": 6}

    def test_cell_guard_refuses_before_the_moves(self, monkeypatch):
        monkeypatch.setattr(harness, "_moves", forbid)
        monkeypatch.setattr(harness, "_frame", forbid)
        a = DegreeList((120, 120, 120))
        with pytest.raises(GuardExceeded, match="^1728000 standard monomials exceeds 4096$"):
            lpp_dominance_check(ci_hilbert_function(a), a)

    def test_order_of_outcomes(self):
        # a bad ideal guard, an invalid h, not-valid, then the walk's guards
        a, invalid = DegreeList((3, 4)), HilbertFunction.from_string("1 4")
        with pytest.raises(ValueError, match="ideal guard must be at least 1, not 0"):
            lpp_dominance_check(invalid, a, max_ideals=0)
        with pytest.raises(ValueError, match="^1 4 0 is not a valid sequence for A=3,4$"):
            lpp_dominance_check(invalid, a)
        # no L_h has powers exactly A: the cell and the box guard would refuse
        ci = ci_hilbert_function(DegreeList((120, 120, 120)))
        assert lpp_dominance_check(ci, DegreeList((121, 121, 121))).verdict == "not-valid"
        h, big = HilbertFunction.from_string("1 3 1"), DegreeList((1500, 1500, 1500))
        assert lpp_dominance_check(h, big).verdict == "not-valid"


class TestZeroH:
    @pytest.mark.parametrize("check", [lpp_dominance_check, socle_equivalence_check])
    def test_refused_in_the_library(self, check):
        a = DegreeList((3, 4))
        with pytest.raises(ValueError, match="^0 is not a valid sequence for A=3,4$"):
            check(ZERO, a)
        with pytest.raises(ValueError, match="ideal guard must be at least 1, not -1"):
            check(ZERO, a, max_ideals=-1)

    @pytest.mark.parametrize("check", ["growth", "lpp", "socle-equiv"])
    def test_refused_by_every_class_check(self, check):
        r = invoke("check", check, "--A", "3,4", "--hf", "0")
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr == "Error: 0 is not a valid sequence for A=3,4\n"


class TestBoundRectangle:
    ARGS = ["bound", "--A", "3000000,3000000,3000000", "--d", "5", "--h", "5"]

    def test_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(growth, "rectangle_rows", forbid)
        r = invoke(*self.ARGS)
        assert (r.exit_code, r.stdout) == (3, "")
        assert r.stderr == "guard exceeded: rectangle of 26999997 cells exceeds 2000000\n"

    def test_json_still_answers(self):
        r = invoke(*self.ARGS, "--json")
        assert r.exit_code == 0 and '"bound": ' in r.stdout

    def test_guard_counts_the_cells(self, monkeypatch):
        # the README's rectangle: 3 rows of sigma_ci + 1 = 17 columns
        args = ["bound", "--A", "3,4,11", "--d", "4", "--h", "10"]
        monkeypatch.setattr(monomials, "BOX_GUARD", 51)
        assert invoke(*args).exit_code == 0
        monkeypatch.setattr(monomials, "BOX_GUARD", 50)
        r = invoke(*args)
        assert (r.exit_code, r.stderr) == (3, "guard exceeded: rectangle of 51 cells exceeds 50\n")
