import json
import random
import time

import pytest
from click.testing import CliRunner

from lppkit import (
    DegreeList,
    ci_hilbert_function,
    ci_vector,
    classical_bound,
    format_vector,
    growth,
)
from lppkit.cli import main

from conftest import random_box_hf
from oracles import gk_coefficients_by_convolution
from test_bench_smoke import workloads as bench_workloads


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


class TestBound:
    def test_rectangle_and_bound_golden(self):
        r = run("bound", "--A", "3,4,11", "--d", "4", "--h", "10")
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert lines[1] == "(1,1,11): 1 [1][1] 1   1   1   1   1   1   1   1   0   0   0   0   0   0 "
        assert lines[2] == "(1,4,11): 1  2  3 [4][ 4]  4   4   4   4   4   4   3   2   1   0   0   0 "
        assert lines[3] == "(3,4,11): 1  3  6  9  11  12  12  12  12  12  12  11   9   6   3   1   0 "
        assert lines[-2] == "expansion: 10 = 4 + 4 + 1 + 1"
        assert lines[-1] == "bound: 10"

    def test_second_bound_example(self):
        r = run("bound", "--A", "3,4,11", "--d", "12", "--h", "7")
        assert r.output.splitlines()[-1] == "bound: 4"

    def test_json(self):
        r = run("bound", "--A", "3,4,11", "--d", "4", "--h", "10", "--json")
        data = json.loads(r.output)
        assert data["bound"] == 10
        assert data["terms"][0] == {"row": 2, "column": 4, "value": 4}

    def test_out_of_range_is_a_clean_error(self):
        r = run("bound", "--A", "2,2", "--d", "1", "--h", "5")
        assert r.exit_code == 1
        assert "out of range" in r.output

    def test_degree_past_the_box_fails_before_building_rows(self):
        start = time.perf_counter()
        r = run("bound", "--A", "2,3", "--d", "1000000000", "--h", "1")
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 1
        assert "h=1 out of range 1..0 at degree 1000000000" in r.output

    def test_text_of_the_benchmark_queries_matches_rows_by_convolution(self, monkeypatch):
        """The bound queries of the cli-large benchmark (seed 1), as text:
        byte-equal to the text from rectangles built term by term at exactly
        the width each reader asks for."""
        lpp = bench_workloads.load_lppkit("cli-large")
        workload = bench_workloads.build("cli-large", 1, lpp)
        runner = workload.cli_entry[0]
        queries = []
        monkeypatch.setattr(runner, "invoke", lambda cli, args, **kw: queries.append(args))
        for op in workload.ops:
            if op.label == "bound":
                op.run()
        assert len(queries) == 65
        texts = [[arg for arg in args if arg != "--json"] for args in queries]
        got = [run(*args).output for args in texts]
        monkeypatch.setattr(growth, "_rows", rows_by_convolution)
        assert got == [run(*args).output for args in texts]


def rows_by_convolution(degrees, upto):
    n = len(degrees)
    return tuple(
        tuple(gk_coefficients_by_convolution([d - 1 for d in degrees[n - r :]], upto))
        for r in range(1, n + 1)
    )


class TestVec:
    def test_from_hf_golden(self):
        r = run("vec", "from-hf", "--A", "4,4,6", "--hf", "1 3 6 10 13 10 5 3")
        assert r.output == "[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]\n"

    def test_from_hf_invalid_is_a_clean_error(self):
        r = run("vec", "from-hf", "--A", "2,2,2", "--hf", "1 4 1")
        assert r.exit_code == 1
        assert "is not a valid sequence for A=" in r.output

    def test_from_hf_zero_function_is_the_empty_vector(self):
        assert run("vec", "to-hf", "--A", "2,3", "--vec", "[]").output == "0\n"
        r = run("vec", "from-hf", "--A", "2,3", "--hf", "0")
        assert r.exit_code == 0
        assert r.output == "[]\n"

    def test_from_hf_large_box_round_trip(self):
        h = str(random_box_hf(random.Random(3), (20, 21, 22)))
        r = run("vec", "from-hf", "--A", "20,21,22", "--hf", h)
        assert r.exit_code == 0
        back = run("vec", "to-hf", "--A", "20,21,22", "--vec", r.output.strip())
        assert back.exit_code == 0
        assert back.output.split() == h.split()

    def test_dual_golden(self):
        r = run("vec", "dual", "--A", "5,7", "--vec", "[1,3,4,7,7]")
        assert r.output == "[3,4,6]\n"

    def test_to_ideal(self):
        r = run("vec", "to-ideal", "--A", "5,7", "--vec", "[1,3,4,7,7]")
        assert r.output == "x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7\n"

    def test_to_hf(self):
        r = run("vec", "to-hf", "--A", "4,4,6", "--vec", "[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]")
        assert r.output == "1 3 6 10 13 10 5 3 0\n"

    def test_validate_exit_codes(self):
        ok = run("vec", "validate", "--A", "4,4,6", "--vec", "[[1,2],[1,3,4]]")
        assert ok.exit_code == 0 and ok.output == "valid\n"
        bad = CliRunner().invoke(
            main,
            ["vec", "validate", "--A", "4,4,6", "--vec", "[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6],[6,6,6,6]]"],
        )
        assert bad.exit_code == 2 and bad.output.startswith("invalid:")
        boolean = CliRunner().invoke(main, ["vec", "validate", "--A", "3", "--vec", "true"])
        assert boolean.exit_code == 1
        assert "expected an integer leaf in 'true', got True" in boolean.output

    def test_stats(self):
        r = run("vec", "stats", "--A", "4,4,6", "--vec", "[[1,2],[1,3,4],[2,3,6,6],[5,6,6,6]]")
        assert r.output == "l=4 sigma=8 alpha=5 ci=false\n"
        r = run("vec", "stats", "--A", "2,2", "--vec", "[2,2]", "--json")
        assert json.loads(r.output) == {"l": 2, "sigma": 3, "alpha": None, "ci": True}


class TestIdealCommands:
    def test_hf(self):
        r = run("hf", "--ideal", "x1^2, x1*x2, x2^2")
        assert r.output == "1 2 0\n"

    def test_hf_json_ideal(self):
        blob = '{"n":3,"gens":[[2,0,0],[0,3,0],[0,0,4],[1,2,0],[1,1,1],[1,0,2],[0,2,2]]}'
        r = run("hf", "--ideal", blob)
        assert r.output == "1 3 5 3 1 0\n"

    def test_hf_from_file(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text('{"n":2,"gens":[[2,0],[1,1],[0,2]]}')
        r = run("hf", "--ideal", str(path))
        assert r.output == "1 2 0\n"

    def test_hf_from_stdin(self):
        r = CliRunner().invoke(
            main, ["hf", "--ideal", "-"], input='{"n":2,"gens":[[2,0],[1,1],[0,2]]}'
        )
        assert r.exit_code == 0 and r.output == "1 2 0\n"

    def test_hf_json_output(self):
        r = run("hf", "--ideal", "x1^2, x1*x2, x2^2", "--json")
        assert json.loads(r.output) == {"values": [1, 2, 0], "sigma": 2, "rho": 1}

    def test_colon(self):
        r = run(
            "colon",
            "--ideal", "x1^5, x2^7",
            "--by", "x1^5, x1^4*x2, x1^3*x2^3, x1^2*x2^4, x2^7",
        )
        assert r.output == "x1^3, x1^2*x2^3, x1*x2^4, x2^6\n"

    def test_betti_table(self):
        r = run("betti", "--ideal", "x1^2, x1*x2, x2^2")
        assert r.output.splitlines() == [
            "       0 1 2",
            "total: 1 3 2",
            "    0: 1 . .",
            "    1: . 3 2",
        ]

    def test_betti_table_of_a_huge_power_is_short(self):
        start = time.perf_counter()
        r = run("betti", "--ideal", "x1^1500000")
        assert time.perf_counter() - start < 0.5
        assert r.output.splitlines() == [
            "            0 1",
            "     total: 1 1",
            "         0: 1 .",
            "1..1499998: (empty)",
            "   1499999: . 1",
        ]

    def test_betti_json_with_char(self):
        r = run("betti", "--ideal", "x1, x2", "--char", "2", "--json")
        assert json.loads(r.output) == {"n": 2, "betti": [[0, 0, 1], [1, 1, 2], [2, 2, 1]]}

    def test_betti_with_a_large_prime_characteristic(self):
        start = time.perf_counter()
        r = run("betti", "--ideal", "x1^2, x1*x2, x2^2", "--char", str(2**61 - 1), "--json")
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 0
        assert json.loads(r.output)["betti"] == [[0, 0, 1], [1, 2, 3], [2, 3, 2]]

    def test_betti_rejects_a_large_composite_characteristic_fast(self):
        start = time.perf_counter()
        r = run("betti", "--ideal", "x1, x2", "--char", str((2**31 - 1) * (2**61 - 1)))
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 1
        assert "is too large" in r.output

    def test_socle(self):
        r = run("socle", "--ideal", "x1^3, x2^5")
        assert r.output == "6: x1^2*x2^4\n"

    @pytest.mark.parametrize(
        "blob",
        [
            '{"n":2,"gens":[[2.7,0],[0,3]]}',
            '{"n":2,"gens":[[true,0],[0,3]]}',
            '{"n":2,"gens":[["2",0],[0,3]]}',
            '{"n":"2","gens":[[2,0],[0,3]]}',
        ],
        ids=["float", "bool", "string", "string-n"],
    )
    def test_json_ideal_takes_only_integers(self, blob):
        r = CliRunner().invoke(main, ["hf", "--ideal", blob])
        assert r.exit_code == 1
        assert "bad ideal JSON" in r.output

    def test_parse_error_names_token(self):
        r = CliRunner().invoke(main, ["hf", "--ideal", "x1^2, bogus"])
        assert r.exit_code == 1
        assert "bogus" in r.output

    @pytest.mark.parametrize("text", ["x0", "x1^2, x2^2, x0"])
    def test_variables_start_at_x1(self, text):
        r = CliRunner().invoke(main, ["hf", "--ideal", text])
        assert r.exit_code == 1
        assert "Error: variable x0: variables are numbered from x1" in r.output

    def test_colon_by_names_a_variable_past_the_ideal(self):
        # --by is read in the variables of --ideal
        r = CliRunner().invoke(main, ["colon", "--ideal", "x1^2, x2^2", "--by", "x1*x3"])
        assert r.exit_code == 1
        assert "Error: variable x3 out of range for n=2" in r.output


class TestBoxGuard:
    @pytest.mark.parametrize("command", ["betti", "hf", "socle"])
    def test_huge_box_exits_3_fast(self, command):
        start = time.perf_counter()
        r = CliRunner().invoke(main, [command, "--ideal", "x1^400, x2^400, x3^400"])
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 3
        assert "guard exceeded" in r.output

    @pytest.mark.parametrize("command", ["betti", "hf", "socle"])
    def test_non_artinian_is_reported_before_the_guard(self, command):
        # the box of x1^3000*x2^3000 is over the guard: the Artinian error
        # must come first, and without building the box
        start = time.perf_counter()
        r = CliRunner().invoke(main, [command, "--ideal", "x1^3000*x2^3000"])
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 1
        assert "Artinian" in r.output

    @pytest.mark.parametrize(
        "args",
        [
            ["colon", "--ideal", "x1^400, x2^400, x3^400", "--by", "x1*x2"],
            ["staircase", "--A", "3000,3000", "--ideal", "x1^3000, x2^3000"],
        ],
        ids=["colon", "staircase"],
    )
    def test_huge_colon_and_staircase_exit_3_fast(self, args):
        start = time.perf_counter()
        r = CliRunner().invoke(main, args)
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 3
        assert "guard exceeded" in r.output

    def test_23_cubed_box_answers(self):
        text = "x1^22, x2^22, x3^22, x1^11*x2^11, x1^10*x2^6*x3^17, x2^12*x3^9"
        betti = run("betti", "--ideal", text, "--json")
        assert betti.exit_code == 0
        entries = {(i, j): v for i, j, v in json.loads(betti.output)["betti"]}
        assert sum(v for (i, _), v in entries.items() if i == 1) == 6
        socle = run("socle", "--ideal", text, "--json")
        assert socle.exit_code == 0
        assert sum(len(ms) for ms in json.loads(socle.output).values()) == sum(
            v for (i, _), v in entries.items() if i == 3
        )
        assert run("hf", "--ideal", text).exit_code == 0


class TestStaircase:
    def test_weak_configuration_figure(self):
        r = run("staircase", "--A", "5,7", "--vec", "[1,3,4,7,7]")
        assert r.output.splitlines() == [
            "•○○○○○○",
            "•••○○○○",
            "••••○○○",
            "•••••••",
            "•••••••",
        ]

    def test_complement_figure(self):
        r = run("staircase", "--A", "5,7", "--vec", "[3,4,6]")
        assert r.output.splitlines() == [
            "○○○○○○○",
            "○○○○○○○",
            "•••○○○○",
            "••••○○○",
            "••••••○",
        ]

    def test_ideal_input(self):
        r = run("staircase", "--A", "5,7", "--ideal", "x1^3, x1^2*x2^3, x1*x2^4, x2^6")
        assert r.output.splitlines()[0] == "○○○○○○○"

    def test_requires_two_variables(self):
        r = CliRunner().invoke(main, ["staircase", "--A", "2,2,2", "--vec", "[[1],[1]]"])
        assert r.exit_code == 1


class TestChecks:
    def test_growth_pass(self):
        r = run("check", "growth", "--A", "2,3,4", "--hf", "1 3 5 3 1")
        assert r.exit_code == 0
        assert "verdict: pass" in r.output

    # "1 4" breaks the degree-1 ceiling; "1 2 4" only the growth bound, as
    # lpp_bound(2, 1, A) = 3: the enumeration refuses both before any ideal
    @pytest.mark.parametrize("hf", ["1 4", "1 2 4"])
    def test_growth_refuses_an_h_that_breaks_a_bound(self, hf):
        r = CliRunner().invoke(main, ["check", "growth", "--A", "2,3,4", "--hf", hf])
        assert r.exit_code == 1
        assert "is not a valid sequence for A=" in r.output

    def test_json_lines(self):
        r = run("check", "residual", "--A", "2,2", "--json")
        data = json.loads(r.output)
        assert data["check"] == "residual-lpp" and data["verdict"] == "pass"

    def test_guard_exit_code(self):
        r = CliRunner().invoke(
            main,
            ["check", "growth", "--A", "2,3,4", "--hf", "1 3 5 3 1", "--max-count", "3"],
        )
        assert r.exit_code == 3

    def test_guard_env_var(self):
        r = CliRunner().invoke(
            main,
            ["check", "growth", "--A", "2,3,4", "--hf", "1 3 5 3 1"],
            env={"LPPKIT_GUARD": "3"},
        )
        assert r.exit_code == 3

    @pytest.mark.parametrize("name", ["residual", "lexseg"])
    def test_guard_env_var_counts_vectors(self, name):
        args = ["check", name, "--A", "3,4,5"]
        r = CliRunner().invoke(main, args, env={"LPPKIT_GUARD": "10"})
        assert r.exit_code == 3
        assert "more than 10 vectors" in r.output

    @pytest.mark.parametrize(
        "max_count,env", [("-1", None), ("0", None), (None, "0"), (None, "-5")], ids=str
    )
    def test_guard_below_one_is_a_clean_error(self, max_count, env):
        args = ["check", "growth", "--A", "2,2", "--hf", "1 2 1 0"]
        if max_count is not None:
            args += ["--max-count", max_count]
        r = CliRunner().invoke(main, args, env={"LPPKIT_GUARD": env})
        assert r.exit_code == 1
        assert "Error: the ideal guard must be at least 1" in r.output

    @pytest.mark.parametrize(
        "name,max_count", [("lpp", "0"), ("socle-equiv", "-3")], ids=["lpp", "socle-equiv"]
    )
    def test_guard_below_one_is_rejected_on_a_not_valid_instance(self, name, max_count):
        # no ideal with minimal powers (3,3,4) attains 1 3 6 0; the guard is
        # still read, and refused, before the instance reports not-valid
        args = ["check", name, "--A", "3,3,4", "--hf", "1 3 6 0"]
        assert CliRunner().invoke(main, args).exit_code == 2
        r = CliRunner().invoke(main, args + ["--max-count", max_count])
        assert r.exit_code == 1
        assert f"Error: the ideal guard must be at least 1, not {max_count}" in r.output

    def test_lpp_check(self):
        r = run("check", "lpp", "--A", "2,2,3", "--hf", "1 3 3 1")
        assert r.exit_code == 0

    def test_socle_equiv_check(self):
        r = run("check", "socle-equiv", "--A", "2,2,3", "--hf", "1 3 3 1")
        assert r.exit_code == 0

    def test_lexseg_check(self):
        r = run("check", "lexseg", "--A", "5,7")
        assert r.exit_code == 0

    @pytest.mark.parametrize("name", ["lpp", "socle-equiv"])
    def test_reports_the_orbit_count(self, name):
        # x1 <-> x2 pairs up four of the five ideals of (2,2,3) with h = 1 3 3 1
        args = ("check", name, "--A", "2,2,3", "--hf", "1 3 3 1")
        lines = run(*args).output.splitlines()
        assert "ideals: 5" in lines and "orbits: 3" in lines
        details = json.loads(run(*args, "--json").output)["details"]
        assert details["ideals"] == 5 and details["orbits"] == 3

    @pytest.mark.parametrize("name", ["lpp", "socle-equiv"])
    @pytest.mark.parametrize("max_count,code", [("4", 3), ("5", 0)])
    def test_the_guard_counts_ideals_not_orbits(self, name, max_count, code):
        # the 5 ideals come in 3 orbits: a guard of 4 is exceeded
        args = ["check", name, "--A", "2,2,3", "--hf", "1 3 3 1", "--max-count", max_count]
        assert CliRunner().invoke(main, args).exit_code == code


class TestHugeDegreeLists:
    """Queries whose answer needs only a few columns of the rectangle, or
    one column-wise pass, finish at once however large A is."""

    def test_small_degree_bound(self):
        start = time.perf_counter()
        r = run("bound", "--A", "100000,100000,100000", "--d", "5", "--h", "3", "--json")
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 0
        assert json.loads(r.output)["bound"] == classical_bound(3, 5)

    @pytest.mark.parametrize(
        "command, output",
        [(["validseq"], "valid\n"), (["vec", "from-hf"], "[[1],[1,2],[1,2,3],[1,2,3,4]]\n")],
        ids=["validseq", "vec-from-hf"],
    )
    def test_short_sequence(self, command, output):
        start = time.perf_counter()
        r = run(*command, "--A", "3000,3000,3000", "--hf", "1 3 6 10")
        assert time.perf_counter() - start < 0.5
        assert r.exit_code == 0 and r.output == output


class TestDeepVector:
    def test_vec_from_hf_of_a_deep_complete_intersection(self):
        a = DegreeList((1100, 1100))
        r = run("vec", "from-hf", "--A", "1100,1100", "--hf", str(ci_hilbert_function(a)))
        assert r.exit_code == 0
        assert r.output == format_vector(ci_vector(a)) + "\n"


class TestValidseq:
    def test_valid(self):
        r = run("validseq", "--A", "2,3,4", "--hf", "1 3 5 1")
        assert r.exit_code == 0 and r.output == "valid\n"

    def test_invalid(self):
        r = CliRunner().invoke(main, ["validseq", "--A", "2,3,4", "--hf", "1 4 5 1"])
        assert r.exit_code == 2 and r.output == "invalid\n"
