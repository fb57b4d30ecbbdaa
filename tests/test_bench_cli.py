import json

import pytest

from intprop.bench import build_benchmark
from intprop.cli import main
from intprop.model import PolynomialConstraint


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBenchmarkShapes:
    def test_cubes_model(self):
        csp = build_benchmark("cubes")
        assert csp.names == ["n", "x1", "x2", "x3", "x4"]
        assert csp.domains[0] == (1, 100000)
        assert csp.domains[1:] == [(None, None)] * 4
        assert len(csp.constraints) == 6
        assert csp.goal == "all"

    def test_opt_model(self):
        csp = build_benchmark("opt")
        assert csp.goal == "maximize"
        assert csp.domains == [(1, 100000)] * 3
        assert csp.objective is not None

    def test_fractions_model(self):
        csp = build_benchmark("fractions")
        assert len(csp.names) == 9
        assert csp.domains == [(1, 9)] * 9
        eqs = [c for c in csp.constraints if c.op == "eq"]
        les = [c for c in csp.constraints if c.op == "le"]
        nes = [c for c in csp.constraints if c.op == "ne"]
        assert (len(eqs), len(les), len(nes)) == (1, 4, 36)
        # the equality expands to 20 degree-3 monomials
        assert len(eqs[0].monomials) == 20

    def test_kyoto_model(self):
        csp = build_benchmark("kyoto")
        assert csp.names == ["K", "Y", "O", "T", "B"]
        assert csp.domains[csp.var("B")] == (2, 100)
        assert csp.domains[csp.var("K")][0] == 1   # K may not be zero
        assert csp.domains[csp.var("Y")][0] == 0
        les = [c for c in csp.constraints if isinstance(c, PolynomialConstraint)
               and c.op == "le"]
        assert len(les) == 4                        # digits below the base
        nes = [c for c in csp.constraints if c.op == "ne"]
        assert len(nes) == 6

    def test_sumprod_model(self):
        csp = build_benchmark("sumprod", 14)
        assert len(csp.names) == 28
        assert csp.domains[:14] == [(1, 14)] * 14
        assert csp.domains[14:] == [(i, i) for i in range(1, 15)]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_benchmark("nosuch")

    def test_fractions_takes_no_size(self):
        with pytest.raises(ValueError, match="fractions takes no size"):
            build_benchmark("fractions", 5)


class TestCli:
    def test_json_stats(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "sumprod", "--n", "10",
                                 "--variant", "pu", "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["solutions"] == 6
        assert rep["variant"] == "pu"
        assert rep["nvar"] == 22 and rep["n_drf"] == 62
        assert rep["ops"]["total"] == sum(
            rep["ops"][k] for k in ("root", "exp", "div", "multI", "multF",
                                    "sum", "q_div", "q_sum"))

    def test_deterministic_output_except_elapsed(self, capsys):
        reps = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "--problem", "kyoto", "--n", "12",
                                "--variant", "fe", "--stats", "json")
            rep = json.loads(out)
            rep.pop("elapsed")
            reps.append(json.dumps(rep, sort_keys=True))
        assert reps[0] == reps[1]

    def test_file_problem_and_print_solutions(self, tmp_path, capsys):
        p = tmp_path / "ex.csp"
        p.write_text("""
            # small puzzle
            var a in [1..4]; var b in [1..4];
            constraint a*b = 6;
            constraint a != b;
            solve all;
        """)
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--variant", "fe", "--schedule", "generated",
                                 "--print-solutions", "--stats", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert "a=2 b=3" in lines and "a=3 b=2" in lines
        assert lines[-1].startswith("fe,weak,generated")

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "file:/nonexistent/x.csp"])
        assert exc.value.code == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text("var x in [1..5]\nconstraint x = 1;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "line" in err

    def test_infeasible_maximize_exit_code(self, tmp_path, capsys):
        p = tmp_path / "inf.csp"
        p.write_text("var x in [1..5]; constraint x^2 = 3; maximize x;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 1
        assert "infeasible" in err

    def test_truncated_maximize_is_not_infeasible(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "opt", "--n", "200",
                                 "--variant", "fm", "--max-nodes", "5",
                                 "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["complete"] is False and rep["objective"] is None
        assert "truncated" in err and "infeasible" not in err

    def test_unbounded_variable_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "unbounded.csp"
        p.write_text("var x in Z; solve all;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert err.startswith("intprop: domain of x is still unbounded")

    def test_size_for_fractions_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "fractions", "--n", "5",
                                 "--max-nodes", "1", "--stats", "json")
        assert code == 2
        assert out == ""
        assert err == "intprop: fractions takes no size\n"

    def test_table_and_csv_headers(self, capsys):
        args = ("--problem", "sumprod", "--n", "7", "--variant", "fe")
        _, out, _ = run_cli(capsys, *args)
        assert out.splitlines()[0] == (
            "variant  nvar  nDRF  nodes  applied   %eff  sol  time(s)  root"
            "  exp  div  multI  multF    sum  q_div  q_sum  total")
        _, out, _ = run_cli(capsys, *args, "--stats", "csv")
        assert out.splitlines()[0] == (
            "variant,division,schedule,nvar,n_drf,nodes,drf_applications,"
            "percent_effective,solutions,complete,elapsed,root,exp,div,multI,"
            "multF,sum,q_div,q_sum,total")

    def test_max_nodes_marks_incomplete(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "cubes", "--n", "500",
                                 "--variant", "fm", "--max-nodes", "10",
                                 "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["complete"] is False
        assert "truncated" in err

    def test_compare_table(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "sumprod", "--n", "7",
                                 "--compare")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8           # header + 7 variants
        assert lines[0].split()[0] == "variant"
        for variant, line in zip(("du", "do", "pu", "po", "fm", "fs", "fe"),
                                 lines[1:]):
            assert line.split()[0] == variant
            assert line.split()[6] == "1"   # one solution for n=7

    def test_maximize_run(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "opt", "--n", "60",
                                 "--variant", "fe", "--stats", "json",
                                 "--print-solutions")
        assert code == 0
        body, js = out.split("\n", 1)
        assert "objective=" in body
        rep = json.loads(js)
        assert rep["objective"] == rep["incumbents"][-1]

    def test_goal_override(self, capsys):
        # enumerate all feasible points of the opt constraint instead of
        # maximizing
        code, out, err = run_cli(capsys, "--problem", "opt", "--n", "40",
                                 "--goal", "all", "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert "objective" not in rep
        assert rep["solutions"] > 0
