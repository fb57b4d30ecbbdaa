import decimal
import errno
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import intprop
from intprop import engine, search
from intprop.bench import build_benchmark
from intprop.cli import main
from intprop.decompose import VARIANTS
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
        assert csp.domains[csp.names.index("B")] == (2, 100)
        assert csp.domains[csp.names.index("K")][0] == 1   # K may not be zero
        assert csp.domains[csp.names.index("Y")][0] == 0
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
        with pytest.raises(ValueError, match="unknown benchmark 'nosuch'"):
            build_benchmark("nosuch")

    def test_fractions_takes_no_size(self):
        with pytest.raises(ValueError, match="fractions takes no size"):
            build_benchmark("fractions", 5)

    @pytest.mark.parametrize("name, least", [("cubes", 1), ("opt", 1),
                                             ("kyoto", 2), ("sumprod", 1)])
    def test_size_below_the_least(self, name, least):
        assert build_benchmark(name, least).names
        for n in (least - 1, -3):
            with pytest.raises(ValueError) as e:
                build_benchmark(name, n)
            assert str(e.value) == ("%s takes a size of at least %d, not %d"
                                    % (name, least, n))


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

    def test_file_with_a_byte_order_mark(self, tmp_path, capsys):
        p = tmp_path / "bom.csp"
        p.write_bytes(b"\xef\xbb\xbfvar a in [1..3];\n"
                      b"constraint a*a = 4;\nsolve all;\n")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--print-solutions")
        assert code == 0, err
        assert "a=2" in out.splitlines()

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "--problem",
                                 "file:/nonexistent/x.csp")
        assert code == 2
        assert err == ("intprop: cannot read /nonexistent/x.csp: %s\n"
                       % os.strerror(errno.ENOENT))

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.csp"
        p.write_text("var x in [1..5]\nconstraint x = 1;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "line" in err

    def test_oversized_expansion_exit_code(self, tmp_path, capsys):
        p = tmp_path / "big.csp"
        names = ["a%d" % i for i in range(10)]
        p.write_text("".join("var %s in [0..1]; " % a for a in names)
                     + "\nconstraint %s = 1;"
                     % "*".join(["(%s)" % " + ".join(names)] * 20))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "line 2, col 1" in err and "10000 monomials" in err
        p.write_text(p.read_text().replace("constraint", "maximize")
                     .replace(" = 1;", ";"))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "10000 monomials" in err

    def test_oversized_decomposition_exit_code(self, tmp_path, capsys):
        p = tmp_path / "long.csp"
        # 225 factors test more than 10**5 pairs of sub-terms
        names = ["x%d" % i for i in range(225)]
        p.write_text("".join("var %s in [1..2]; " % x for x in names)
                     + "\nconstraint %s = 2;" % "*".join(names))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "more than 100000 pairs" in err
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--variant", "du", "--max-nodes", "10")
        assert code == 0

    def test_infeasible_maximize_exit_code(self, tmp_path, capsys):
        p = tmp_path / "inf.csp"
        p.write_text("var x in [1..5]; constraint x^2 = 3; maximize x;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 1
        assert "infeasible" in err
        # the statistics of the complete search are printed all the same
        p.write_text("var x in [1..3]; constraint x*x = 5; maximize x;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--stats", "json")
        assert code == 1
        assert "infeasible: no solution exists" in err
        rep = json.loads(out)
        assert rep["complete"] is True and rep["objective"] is None
        assert rep["solutions"] == 0 and rep["drf_applications"] > 0
        # every variant runs before the verdict
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--compare", "--stats", "csv")
        assert code == 1
        assert "infeasible: no solution exists" in err
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == list(VARIANTS)
        assert all(",True," in r for r in rows)

    def test_truncated_maximize_is_not_infeasible(self, capsys):
        code, out, err = run_cli(capsys, "--problem", "opt", "--n", "200",
                                 "--variant", "fm", "--max-nodes", "5",
                                 "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["complete"] is False and rep["objective"] is None
        assert "truncated" in err and "infeasible" not in err

    def test_deep_truncated_maximize_succeeds(self, tmp_path, capsys):
        # about 1,330 levels of bisection under a 5,000-node budget
        n = 10 ** 400
        p = tmp_path / "deep.csp"
        p.write_text("var x in [0..%d]; var y in [0..%d];\n"
                     "constraint x + y = %d;\nmaximize x - 2*y;" % (n, n, n))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--max-nodes", "5000", "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["nodes"] == 5000 and rep["complete"] is False
        assert err == "warning: search truncated at 5000 nodes (incomplete)\n"

    def test_time_limit_marks_incomplete(self, tmp_path, capsys):
        n = 10 ** 400
        p = tmp_path / "deep.csp"
        p.write_text("var x in [0..%d]; var y in [0..%d];\n"
                     "constraint x + y = %d;\nsolve all;" % (n, n, n))
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--time-limit", "0.3", "--stats", "json")
        assert time.perf_counter() - t0 < 1.3
        assert code == 0
        rep = json.loads(out)
        assert rep["complete"] is False and rep["nodes"] > 0
        assert err == ("warning: time limit reached: search truncated at "
                       "%d nodes (incomplete)\n" % rep["nodes"])

    def test_time_limit_stops_a_diverging_propagation(self, tmp_path,
                                                      capsys):
        p = tmp_path / "diverging.csp"
        p.write_text("var x0 in Z;\nconstraint -2*x0^2 + 3*x0^3 = 8;\n"
                     "solve all;")
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--variant", "du", "--time-limit", "0.2",
                                 "--stats", "json")
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        rep = json.loads(out)
        assert rep["complete"] is False and rep["nodes"] == 0
        assert err == ("warning: time limit reached: search truncated at "
                       "0 nodes (incomplete)\n")

    # root propagation narrows nothing; node 1 splits x, and node 2,
    # x in [1..4], narrows y
    SPLIT = ("var x in [1..8]; var y in [1..8]; constraint x + y = 9;"
             " solve all;")

    def test_time_limit_met_before_a_zero_node_budget(self, tmp_path,
                                                       capsys):
        # root propagation meets the deadline: no node is popped, so the
        # node budget never stops the search
        p = tmp_path / "split.csp"
        p.write_text(self.SPLIT)
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--variant", "du", "--max-nodes", "0",
                                 "--time-limit", "0")
        assert code == 0
        assert err == ("warning: time limit reached: search truncated at "
                       "0 nodes (incomplete)\n")

    def test_time_limit_met_at_the_last_node(self, tmp_path, capsys,
                                             monkeypatch):
        # the search reads its clock at its start and at each pop; the
        # engine's clock passes the deadline once the search has read its
        # own three times, so while node 2, the last of the budget,
        # propagates
        reads = []

        def search_clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr(search, "perf_counter", search_clock)
        monkeypatch.setattr(engine, "perf_counter",
                            lambda: 10.0 if len(reads) >= 3 else 0.0)
        p = tmp_path / "split.csp"
        p.write_text(self.SPLIT)
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--variant", "du", "--max-nodes", "2",
                                 "--time-limit", "5", "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["nodes"] == 2 and rep["complete"] is False
        assert err == ("warning: time limit reached: search truncated at "
                       "2 nodes (incomplete)\n")

    def test_negative_time_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--problem", "sumprod", "--time-limit", "-1"])
        assert e.value.code == 2
        assert "--time-limit" in capsys.readouterr().err

    def test_negative_max_nodes_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--problem", "sumprod", "--n", "6", "--max-nodes", "-5"])
        assert e.value.code == 2
        assert "--max-nodes must be a number of nodes >= 0" in \
            capsys.readouterr().err

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

    def test_size_for_a_problem_file_is_an_input_error(self, tmp_path,
                                                       capsys):
        p = tmp_path / "ex.csp"
        p.write_text("var x in [1..3]; solve all;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--n", "5")
        assert code == 2
        assert out == ""
        assert err == "intprop: a problem file takes no size\n"

    # every input error and run error: (problem file text or None, the
    # arguments, with {file} for that file's path, and the stderr message)
    FAILED_RUNS = {
        "unknown benchmark": (
            None, ["--problem", "foo"],
            "unknown benchmark 'foo' (have: cubes, fractions, kyoto, opt, "
            "sumprod)"),
        "unreadable file": (
            None, ["--problem", "file:{file}"],
            "cannot read {file}: %s" % os.strerror(errno.ENOENT)),
        "parse error": (
            "var x in [1..5]\nconstraint x = 1;", ["--problem", "file:{file}"],
            "line 2, col 1: expected ;"),
        "size with a file": (
            "var x in [1..3]; solve all;",
            ["--problem", "file:{file}", "--n", "5"],
            "a problem file takes no size"),
        "size below the least": (
            None, ["--problem", "sumprod", "--n", "0"],
            "sumprod takes a size of at least 1, not 0"),
        "negative size": (
            None, ["--problem", "sumprod", "--n", "-3"],
            "sumprod takes a size of at least 1, not -3"),
        "size below the least of kyoto": (
            None, ["--problem", "kyoto", "--n", "1"],
            "kyoto takes a size of at least 2, not 1"),
        "maximize without an objective": (
            None, ["--problem", "sumprod", "--n", "4", "--goal", "maximize"],
            "the problem has no objective to maximize"),
        "unbounded variable": (
            "var x in Z; solve all;", ["--problem", "file:{file}"],
            "domain of x is still unbounded after propagation"),
        # the cap lowered to 100 pairs, which 10 factors pass
        "decomposition cap": (
            "".join("var x%d in [1..2]; " % i for i in range(10))
            + "constraint %s = 2;" % "*".join("x%d" % i for i in range(10)),
            ["--problem", "file:{file}"],
            "full decomposition would test more than 100 pairs of "
            "sub-terms"),
    }

    @pytest.mark.parametrize("case", FAILED_RUNS)
    def test_failed_run_is_one_line_and_exit_2(self, case, tmp_path, capsys,
                                               monkeypatch):
        text, args, message = self.FAILED_RUNS[case]
        monkeypatch.setattr(sys.modules["intprop.decompose"], "_MAX_PAIRS",
                            100)
        path = tmp_path / "problem.csp"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys,
                                 *[a.format(file=path) for a in args])
        assert (code, out) == (2, "")
        assert err == "intprop: %s\n" % message.format(file=path)

    def test_table_and_csv_headers(self, capsys):
        args = ("--problem", "sumprod", "--n", "7", "--variant", "fe")
        _, out, _ = run_cli(capsys, *args)
        assert out.splitlines()[0] == (
            "variant  nvar  nDRF  nodes  applied   %eff  sol  time(s)  root"
            "  exp  div  multI  multF   sum  q_div  q_sum  total")
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

    def test_integers_over_4300_digits(self, tmp_path, capsys):
        # a literal past the parser's cap, and solutions, objectives and
        # incumbents past the interpreter's cap on int-to-str conversion
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        p = tmp_path / "long.csp"
        p.write_text("var x in [0..%s]; solve all;" % ("1" * 4301))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p)
        assert code == 2
        assert "line 1, col 14: an integer literal has at most 4300" in err

        p.write_text("var x in [10..10]; maximize %s*x*x;" % ("9" * 4299))
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--stats", "json", "--print-solutions")
        objective = "9" * 4299 + "00"
        assert code == 0
        assert "x=10   objective=%s\n" % objective in out
        assert '"objective": %s,' % objective in out
        assert '"incumbents": [\n    %s\n  ]' % objective in out

        p.write_text("var x in [9999..9999]; var y in Z;\n"
                     "constraint y = x^2000; solve all;")
        code, out, err = run_cli(capsys, "--problem", "file:%s" % p,
                                 "--print-solutions")
        assert code == 0
        y = str(decimal.Decimal(9999 ** 2000))
        assert len(y) == 8000
        assert out.startswith("x=9999 y=%s\n" % y)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap

    def test_goal_override(self, capsys):
        # enumerate all feasible points of the opt constraint instead of
        # maximizing
        code, out, err = run_cli(capsys, "--problem", "opt", "--n", "40",
                                 "--goal", "all", "--stats", "json")
        assert code == 0
        rep = json.loads(out)
        assert "objective" not in rep
        assert rep["solutions"] > 0


def run_cli_process(stdout, *args, stderr=subprocess.PIPE, shell=()):
    # the command in a child process whose stdout and stderr are the given
    # file descriptors, started through the ``shell`` command line if one
    # is given; returns its exit status and stderr.  The child buffers its
    # output as by default, so that what a failed write leaves in a buffer
    # is still there at exit.
    src = pathlib.Path(intprop.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        list(shell) + [sys.executable, "-m", "intprop.cli"] + list(args),
        stdout=stdout, stderr=stderr, text=True, timeout=120, env=env)
    return proc.returncode, proc.stderr


class TestOutputErrors:
    """A write that fails ends the command with one line on stderr, when
    stderr can take it, and exit status 2, not a traceback."""

    def check(self, code, err, reason):
        assert code == 2, err
        assert err == "intprop: cannot write output: %s\n" % reason

    def test_pipe_closed_before_the_first_write(self):
        r, w = os.pipe()
        os.close(r)
        try:
            code, err = run_cli_process(w, "--problem", "sumprod", "--n",
                                        "7", "--compare", "--stats", "csv")
        finally:
            os.close(w)
        self.check(code, err, os.strerror(errno.EPIPE))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            code, err = run_cli_process(full, "--problem", "sumprod",
                                        "--n", "6", "--print-solutions")
        self.check(code, err, os.strerror(errno.ENOSPC))

    def test_stderr_on_a_closed_pipe(self):
        # the truncation warning is the first write to stderr; a traceback
        # would exit 1, and a failed flush at exit 120
        r, w = os.pipe()
        os.close(r)
        try:
            code, _ = run_cli_process(subprocess.DEVNULL, "--problem",
                                      "sumprod", "--n", "6", "--max-nodes",
                                      "3", stderr=w)
        finally:
            os.close(w)
        assert code == 2

    @pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
    def test_no_stdout(self):
        code, err = run_cli_process(None, "--problem", "sumprod", "--n", "6",
                                    shell=("sh", "-c", 'exec "$@" >&-', "sh"))
        self.check(code, err, "no standard output")
