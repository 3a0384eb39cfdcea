"""How lppkit refuses: the command group's one exit-code policy (a guard
exits 3, a bad input exits 1, click's own exits and the commands' exit 2 pass
through), and guards that run before the work they bound."""

import inspect
from functools import partial

import click
import pytest
from click.testing import CliRunner

from lppkit import (
    DegreeList,
    DimensionError,
    GuardExceeded,
    HilbertFunction,
    Leaf,
    Monomial,
    Node,
    NotArtinianError,
    ci_hilbert_function,
    colon,
    growth,
    growth_check,
    harness,
    hf_of_vector,
    is_lpp,
    lpp_dominance_check,
    monomials,
    parse_ideal,
    parse_vector,
    socle_equivalence_check,
    vectors,
)
from lppkit.cli import main
from lppkit.growth import classical_expansion, gk_expansion
from lppkit.harness import CheckReport
from lppkit.vectors import enumerate_vectors

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
        # a bad ideal guard, an invalid h, the box of L_h, not-valid, then the
        # walk's guards
        a, invalid = DegreeList((3, 4)), HilbertFunction.from_string("1 4")
        with pytest.raises(ValueError, match="ideal guard must be at least 1, not 0"):
            lpp_dominance_check(invalid, a, max_ideals=0)
        with pytest.raises(ValueError, match="^1 4 0 is not a valid sequence for A=3,4$"):
            lpp_dominance_check(invalid, a)
        # L_h is built in the box the walk reads, so its box guard comes first
        h, big = HilbertFunction.from_string("1 3 1"), DegreeList((1500, 1500, 1500))
        with pytest.raises(GuardExceeded, match="^box of 3381754501 points exceeds 2000000$"):
            lpp_dominance_check(h, big)
        # no L_h has powers exactly A: the cell guard would refuse
        ci = ci_hilbert_function(DegreeList((120, 120, 120)))
        assert lpp_dominance_check(ci, DegreeList((121, 121, 121))).verdict == "not-valid"


class TestVectorGuards:
    def test_vector_ideal_box_is_refused_before_its_rows(self, monkeypatch):
        monkeypatch.setattr(vectors, "_starts", forbid)
        for args in (
            ["vec", "to-ideal", "--A", "5000,5000,5000", "--vec", "[[1]]"],
            ["check", "lpp", "--A", "5000,5000,5000", "--hf", "1 3 1"],
        ):
            r = invoke(*args)
            assert (r.exit_code, r.stdout) == (3, ""), args
            assert r.stderr == "guard exceeded: box of 125075015001 points exceeds 2000000\n"

    def test_vector_ideal_box_at_the_guard_is_built(self):
        # 125 * 125 * 128 = 2,000,000 points
        r = invoke("vec", "to-ideal", "--A", "124,124,127", "--vec", "[[1]]")
        assert (r.exit_code, r.stdout) == (0, "x1, x2, x3\n")

    def test_enumerate_vectors_reads_the_ideal_guard(self, monkeypatch):
        a = DegreeList((3, 4, 5))  # 1193 vectors
        monkeypatch.setenv("LPPKIT_GUARD", "1192")
        with pytest.raises(GuardExceeded, match="^more than 1192 vectors; raise the guard$"):
            enumerate_vectors(a)
        monkeypatch.setenv("LPPKIT_GUARD", "1193")
        assert len(enumerate_vectors(a)) == 1193
        # 364,920 vectors: refused before the table is built
        monkeypatch.delenv("LPPKIT_GUARD")
        with pytest.raises(GuardExceeded, match="^more than 100000 vectors; raise the guard$"):
            enumerate_vectors(DegreeList((4, 4, 4, 4)))


class TestNarrowColumns:
    def test_sequence_checks_read_only_the_columns_of_h(self, monkeypatch):
        # sigma_ci = 8,999,998 for this A
        widths = []
        build = growth._rectangle.__wrapped__

        def rectangle(degrees, width):
            widths.append(width)
            assert width <= 8, "too wide to build here"
            return build(degrees, width)

        monkeypatch.setattr(growth, "_rectangle", rectangle)
        a = ["--A", "3000000,3000000,3000000", "--hf", "1 3 1"]
        checked, inverse = invoke("validseq", *a), invoke("vec", "from-hf", *a)
        assert widths and max(widths) <= 8, widths
        assert (checked.exit_code, checked.stdout) == (0, "valid\n")
        assert (inverse.exit_code, inverse.stdout) == (0, "[[1],[1,3]]\n")


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

    def test_expansion_rectangle_is_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(growth, "_rectangle", forbid)
        args = ["--A", "10000000,10000000,10000000", "--h", "5", "--json"]
        r = invoke("bound", *args, "--d", "3000000")
        assert (r.exit_code, r.stdout) == (3, "")
        assert r.stderr == "guard exceeded: rectangle of 12582912 cells exceeds 2000000\n"

    def test_expansion_guard_counts_the_cells_it_would_build(self, monkeypatch):
        # d + 1 = 5 columns are read, 8 built, in 3 rows
        args = ["bound", "--A", "3,4,11", "--d", "4", "--h", "10", "--json"]
        monkeypatch.setattr(monomials, "BOX_GUARD", 24)
        assert invoke(*args).exit_code == 0
        monkeypatch.setattr(monomials, "BOX_GUARD", 23)
        r = invoke(*args)
        assert (r.exit_code, r.stderr) == (3, "guard exceeded: rectangle of 24 cells exceeds 23\n")

    def test_guard_counts_the_cells(self, monkeypatch):
        # the README's rectangle: 3 rows of sigma_ci + 1 = 17 columns
        args = ["bound", "--A", "3,4,11", "--d", "4", "--h", "10"]
        monkeypatch.setattr(monomials, "BOX_GUARD", 51)
        assert invoke(*args).exit_code == 0
        monkeypatch.setattr(monomials, "BOX_GUARD", 50)
        r = invoke(*args)
        assert (r.exit_code, r.stderr) == (3, "guard exceeded: rectangle of 51 cells exceeds 50\n")


class TestMoveTable:
    # |G| = 5! permutations of five variables of degree 8, each over 8^5 points
    ARGS = ["check", "lpp", "--A", "8,8,8,8,8", "--hf", "1 5 15 35 70 126 210 330"]

    def test_refused_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(harness, "_moves", forbid)
        r = invoke(*self.ARGS)
        assert (r.exit_code, r.stdout) == (3, "")
        assert r.stderr == "guard exceeded: move table of 3899392 cells exceeds 2000000\n"

    def test_orbit_walk_under_the_bound_runs(self, monkeypatch):
        # (3! - 1) * 2^3 = 40 cells; the box of 3^3 points is under both bounds
        a, h = DegreeList((2, 2, 2)), HilbertFunction.from_string("1 3 2")
        monkeypatch.setattr(monomials, "BOX_GUARD", 40)
        r = lpp_dominance_check(h, a)
        assert r.ok and r.details["orbits"] < r.details["ideals"]
        monkeypatch.setattr(monomials, "BOX_GUARD", 39)
        with pytest.raises(GuardExceeded, match="^move table of 40 cells exceeds 39$"):
            lpp_dominance_check(h, a)
        # the full walk builds no move table
        assert growth_check(h, a).details == {"ideals": r.details["ideals"]}


class TestInputRefusals:
    @pytest.mark.parametrize(
        "call, exc, message",
        [
            (partial(DegreeList, ()), ValueError, "empty degree list"),
            (partial(DegreeList, (0, 2)), ValueError, "degrees must be positive: (0, 2)"),
            (partial(DegreeList, (3, 2)), ValueError, "degrees must be non-decreasing: (3, 2)"),
            (partial(DegreeList.from_string, "3,x"), ValueError,
             "bad degree list '3,x': invalid literal for int() with base 10: 'x'"),
            (partial(HilbertFunction, ()), ValueError, "empty Hilbert function"),
            (partial(HilbertFunction, (1, -1)), ValueError, "negative entries: (1, -1)"),
            (partial(HilbertFunction.from_string, ""), ValueError, "empty Hilbert function string"),
            (partial(HilbertFunction.from_string, "1 a"), ValueError, "bad Hilbert function '1 a'"),
            (partial(Monomial, ()), ValueError, "monomial needs at least one variable"),
            (partial(Monomial, (1, -1)), ValueError, "negative exponent in (1, -1)"),
            (partial(colon, parse_ideal("x1^2, x2^2"), parse_ideal("x1")), DimensionError,
             "2 vs 1 variables"),
            (partial(is_lpp, parse_ideal("x1^2, x2^2"), DegreeList((2, 2, 2))), DimensionError,
             "2 vs 3 variables"),
            (partial(Node, ()), ValueError, "node needs at least one child"),
            (partial(hf_of_vector, Leaf(0)), ValueError, "leaf degree 0 is not positive"),
            (partial(classical_expansion, 0, 3), ValueError,
             "need h >= 1 and d >= 1, got h=0, d=3"),
            (partial(gk_expansion, 1, 0, DegreeList((3, 4))), ValueError, "need d >= 1, got 0"),
        ],
        ids=[
            "degrees-empty", "degrees-zero", "degrees-decreasing", "degrees-text",
            "hf-empty", "hf-negative", "hf-text-empty", "hf-text",
            "monomial-empty", "monomial-negative", "colon-n", "is-lpp-n",
            "node-empty", "leaf-zero", "classical-h", "gk-d",
        ],
    )
    def test_message(self, call, exc, message):
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc and str(info.value) == message

    def test_bad_ideal_json(self):
        with pytest.raises(ValueError, match="^bad ideal JSON: "):
            parse_ideal("{bad")

    def test_ideals_compare_only_with_ideals_in_as_many_variables(self):
        assert (parse_ideal("x1^2, x2") == 3) is False
        assert parse_ideal("x1") != parse_ideal("x1", 2)

    def test_an_integer_is_a_nested_leaf(self):
        assert parse_vector("3", 2) == Node((Leaf(3),))

    def test_bad_guard_variable(self, monkeypatch):
        monkeypatch.setenv("LPPKIT_GUARD", "abc")
        with pytest.raises(ValueError, match="^bad LPPKIT_GUARD value 'abc'$"):
            enumerate_vectors(DegreeList((2, 2)))
        r = invoke("check", "growth", "--A", "3,4", "--hf", "1 2 1")
        assert (r.exit_code, r.stdout) == (1, "")
        assert r.stderr == "Error: bad LPPKIT_GUARD value 'abc'\n"


class TestCommandOutputs:
    @pytest.mark.parametrize(
        "args, code, stdout, stderr",
        [
            (["bound", "--A", "3,4", "--d", "2", "--h", "0"], 0, "bound: 0\n", ""),
            (["bound", "--A", "3,4", "--d", "2", "--h", "0", "--json"], 0,
             '{"A": [3, 4], "d": 2, "h": 0, "terms": [], "bound": 0}\n', ""),
            (["validseq", "--A", "3,4", "--hf", "1 2 1", "--json"], 0,
             '{"A": [3, 4], "H": "1 2 1 0", "valid": true}\n', ""),
            (["validseq", "--A", "3,4", "--hf", "1 3 1", "--json"], 2,
             '{"A": [3, 4], "H": "1 3 1 0", "valid": false}\n', ""),
            (["vec", "stats", "--A", "3,4", "--vec", "[5]"], 1, "",
             "Error: invalid vector: child 1: leaf degree 5 exceeds the bound 4\n"),
            (["vec", "to-hf", "--A", "3,4", "--vec", "[5]"], 1, "",
             "Error: invalid vector: child 1: leaf degree 5 exceeds the bound 4\n"),
            (["vec", "to-ideal", "--A", "3,4", "--vec", "[1,2]", "--json"], 0,
             '{"n": 2, "gens": [[2, 0], [1, 1], [0, 2]]}\n', ""),
            (["staircase", "--A", "3,4"], 1, "",
             "Error: provide exactly one of --vec or --ideal\n"),
            (["staircase", "--A", "3,4", "--vec", "[1]", "--ideal", "x1, x2"], 1, "",
             "Error: provide exactly one of --vec or --ideal\n"),
        ],
        ids=[
            "bound-zero", "bound-zero-json", "validseq-json", "validseq-json-invalid",
            "vec-stats-invalid", "vec-to-hf-invalid", "vec-to-ideal-json",
            "staircase-neither", "staircase-both",
        ],
    )
    def test_output(self, args, code, stdout, stderr):
        r = invoke(*args)
        assert (r.exit_code, r.stdout, r.stderr) == (code, stdout, stderr)

    def test_text_report_lists_its_witnesses(self, monkeypatch):
        witness = {"reason": "planted", "ideal": {"n": 2, "gens": [[1, 0], [0, 1]]}}
        report = CheckReport.from_witnesses("growth", {"A": [3, 4]}, [witness], {"ideals": 1})
        monkeypatch.setattr(harness, "growth_check", lambda h, a, max_count: report)
        r = invoke("check", "growth", "--A", "3,4", "--hf", "1 2 1")
        assert r.exit_code == 2
        assert r.stdout.splitlines() == [
            "check: growth",
            'instance: {"A": [3, 4]}',
            "ideals: 1",
            "verdict: counterexample",
            'witness: {"reason": "planted", "ideal": {"n": 2, "gens": [[1, 0], [0, 1]]}}',
        ]
