import json
import random
import time

import pytest
from click.testing import CliRunner

from lppkit.cli import main

from conftest import random_box_hf


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


class TestValidseq:
    def test_valid(self):
        r = run("validseq", "--A", "2,3,4", "--hf", "1 3 5 1")
        assert r.exit_code == 0 and r.output == "valid\n"

    def test_invalid(self):
        r = CliRunner().invoke(main, ["validseq", "--A", "2,3,4", "--hf", "1 4 5 1"])
        assert r.exit_code == 2 and r.output == "invalid\n"
