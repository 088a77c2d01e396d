import copy
import warnings

import numpy as np
import pytest

from helpers import count_evaluations
from tsvar import cli
from tsvar import variational as va
from tsvar.calculus import read_csv
from tsvar.cli import (
    EXIT_BAD_FORM,
    EXIT_DOMAIN,
    EXIT_NOT_CONVERGED,
    EXIT_PARSE,
    EXIT_SCALE_MISMATCH,
    ProblemFileError,
    load_bundled_manifest,
    main,
    parse_problem_text,
    run_verify_cases,
)
from tsvar.solver import SolverConfig

GOOD = """\
[timescale]
timescale = uniform 0 2 3

[lagrangian]
delta = v^2
nabla = v^2

[boundary]
a = fixed:0
b = fixed:2
"""

GOOD_FULL = """\
[timescale]
timescale = uniform 0 3 4

[lagrangian]
delta = v^2
nabla = v^2 + v

[boundary]
a = fixed:0
b = fixed:3

[constraint]
delta = t*v
nabla = 1/3
k = 1

[solver]
multistarts = 4
seed = 11
grad_tol = 1e-9
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def line_csv(tmp_path, points, values, name="traj.csv"):
    rows = ["t,value"] + [f"{t:.17g},{v:.17g}" for t, v in zip(points, values)]
    return write(tmp_path, name, "\n".join(rows) + "\n")


class TestProblemFiles:
    def test_full_file_parses(self):
        problem, overrides = parse_problem_text(GOOD_FULL)
        assert problem.constraint is not None
        assert problem.constraint.k == 1.0
        assert problem.bc_a == 0.0 and problem.bc_b == 3.0
        assert overrides == {"multistarts": 4, "seed": 11, "grad_tol": 1e-9}

    def test_timescale_literals(self):
        for literal, points in [
            ("explicit [0, 0.5, 1]", [0, 0.5, 1]),
            ("uniform 0 1 3", [0, 0.5, 1]),
            ("hz 0 6 2", [0, 2, 4, 6]),
            ("qscale 2 0 3", [1, 2, 4, 8]),
        ]:
            text = GOOD.replace("uniform 0 2 3", literal).replace(
                "fixed:2", f"fixed:{points[-1]}"
            ).replace("fixed:0", f"fixed:{points[0]}")
            problem, _ = parse_problem_text(text)
            np.testing.assert_array_equal(problem.scale.points, points)

    def test_free_boundary(self):
        problem, _ = parse_problem_text(GOOD.replace("b = fixed:2", "b = free"))
        assert problem.bc_b is None

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda s: s.replace("[timescale]", "[timescales]"),
            lambda s: s.replace("[boundary]", "[bounds]"),
            lambda s: s.replace("delta =", "delta_fn ="),
            lambda s: s + "\n[extras]\nx = 1\n",
            lambda s: s + "\nstray = 1\n",  # lands in [boundary]
            lambda s: s.replace("a = fixed:0", "a = pinned:0"),
            lambda s: s.replace("v^2", "v^2 + w"),
            lambda s: s.replace("uniform 0 2 3", "uniform 0 2"),
            lambda s: s.replace("[lagrangian]\ndelta = v^2\n", "[lagrangian]\n"),
            lambda s: "stray = 1\n" + s,
        ],
    )
    def test_bad_files_rejected(self, mutation):
        with pytest.raises(ProblemFileError):
            parse_problem_text(mutation(GOOD))

    def test_bundled_problems_have_no_solver_overrides(self):
        # verify runs every case at the config it is given, so a [solver]
        # section in a bundled problem would go unread
        for case in load_bundled_manifest()["cases"]:
            text = cli._bundled_path(case["problem"]).read_text(encoding="utf-8")
            assert parse_problem_text(text)[1] == {}, case["id"]

    @pytest.mark.parametrize("old, new, message", [
        ("uniform 0 2 3", "explicit 0, 1, 2", "explicit time scale needs [..] list"),
        ("uniform 0 2 3", "explicit [0, one, 2]", "bad explicit time scale: "),
        ("uniform 0 2 3", "uniform 0 1 1e12", "bad time scale literal: "),
        ("a = fixed:0", "a = fixed:zero", "bad boundary value for a: 'fixed:zero'"),
        ("[boundary]\na = fixed:0\nb = fixed:2\n", "", "missing required section [boundary]"),
        ("b = fixed:2\n", "b = fixed:2\n[constraint]\ndelta = v\nnabla = 1\nk = one\n",
         "constraint level k must be a number"),
        ("b = fixed:2\n", "b = fixed:2\n[constraint]\ndelta = v\nnabla = 1\nk = nan\n",
         "constraint level k must be finite"),
        ("b = fixed:2\n", "b = fixed:2\n[constraint]\ndelta = v\nnabla = 1\nk = inf\n",
         "constraint level k must be finite"),
        ("b = fixed:2\n", "b = fixed:2\n[solver]\nmultistarts = 2.5\n",
         "bad numeric value for solver multistarts"),
        ("a = fixed:0", "a = fixed:inf", "bc_a must be finite or None (free)"),
    ])
    def test_problem_file_errors_exit_64_with_message(self, tmp_path, capsys, old, new, message):
        assert old in GOOD
        prob = write(tmp_path, "p.problem", GOOD.replace(old, new))
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: " + message) and err.count("\n") == 1

    @pytest.mark.parametrize("builder, literal", [
        ("uniform", "uniform 0 1 100000000000"),
        ("h_integers", "hz 0 1 0.0000000001"),
        ("q_scale", "qscale 2 0 100000000000"),
    ])
    def test_scale_too_large_to_allocate_exits_64(
        self, tmp_path, capsys, monkeypatch, builder, literal
    ):
        # the builder raises as numpy does when the points do not fit in
        # memory; a real allocation of that size might succeed and be touched
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(cli.tsc, builder, no_memory)
        prob = write(tmp_path, "p.problem", GOOD.replace("uniform 0 2 3", literal))
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "o")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == f"parse error: time scale too large to allocate: {literal!r}\n"

    def test_default_section_rejected(self):
        # configparser would silently inject DEFAULT keys into every section
        with pytest.raises(ProblemFileError):
            parse_problem_text("[DEFAULT]\ndelta = v\n" + GOOD)

    def test_fuzzed_mutations_never_silently_accepted(self):
        rng = np.random.default_rng(2024)
        sections = ["timescale", "lagrangian", "boundary", "constraint", "solver"]
        keys = ["timescale", "delta", "nabla", "a", "b", "k", "seed", "multistarts"]
        base = GOOD_FULL
        rejected = 0
        for i in range(1000):
            kind = rng.integers(0, 4)
            junk = f"zz{i}"
            if kind == 0:  # rename a known section
                target = str(rng.choice(sections))
                mutated = base.replace(f"[{target}]", f"[{junk}]", 1)
            elif kind == 1:  # rename a known key
                target = str(rng.choice(keys))
                mutated = base.replace(f"\n{target} =", f"\n{junk} =", 1)
            elif kind == 2:  # inject an unknown key into a random section
                target = str(rng.choice(sections))
                mutated = base.replace(f"[{target}]", f"[{target}]\n{junk} = 1", 1)
            else:  # append an unknown section
                mutated = base + f"\n[{junk}]\nvalue = 1\n"
            with pytest.raises(ProblemFileError):
                parse_problem_text(mutated)
            rejected += 1
        assert rejected == 1000


class TestEvalCommand:
    def test_straight_line_values(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert main(["eval", "--problem", prob, "--trajectory", traj]) == 0
        assert capsys.readouterr().out.strip() == "J_delta=2 J_nabla=2 J=4"

    def test_normalized_backward_integrand(self, tmp_path, capsys):
        text = GOOD.replace("nabla = v^2", "nabla = 0.5")
        prob = write(tmp_path, "p.problem", text)
        traj = line_csv(tmp_path, [0, 1, 2], [0.0, 1.5, 2.0])
        main(["eval", "--problem", prob, "--trajectory", traj])
        out = capsys.readouterr().out.split()
        jd = float(out[0].split("=")[1])
        j = float(out[2].split("=")[1])
        assert j == jd

    def test_zero_integrands(self, tmp_path, capsys):
        text = GOOD.replace("delta = v^2", "delta = 0").replace("nabla = v^2", "nabla = 0")
        prob = write(tmp_path, "p.problem", text)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        main(["eval", "--problem", prob, "--trajectory", traj])
        assert capsys.readouterr().out.strip() == "J_delta=0 J_nabla=0 J=0"

    def test_parse_error_exit_code(self, tmp_path):
        prob = write(tmp_path, "p.problem", GOOD.replace("v^2", "v^^2"))
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert main(["eval", "--problem", prob, "--trajectory", traj]) == EXIT_PARSE

    def test_malformed_csv_exit_code(self, tmp_path):
        prob = write(tmp_path, "p.problem", GOOD)
        bad = write(tmp_path, "t.csv", "t,value\n0,zero\n")
        assert main(["eval", "--problem", prob, "--trajectory", bad]) == EXIT_PARSE

    def test_scale_mismatch_exit_code(self, tmp_path):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 0.5, 2], [0, 1, 2])
        assert main(["eval", "--problem", prob, "--trajectory", traj]) == EXIT_SCALE_MISMATCH

    def test_missing_files_are_parse_errors(self, tmp_path):
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert main(["eval", "--problem", str(tmp_path / "nope"), "--trajectory", traj]) == EXIT_PARSE
        prob = write(tmp_path, "p.problem", GOOD)
        assert main(["eval", "--problem", prob, "--trajectory", str(tmp_path / "no.csv")]) == EXIT_PARSE


class TestTrajectoryCsv:
    def test_blank_lines_crlf_and_padding_accepted(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        messy = tmp_path / "messy.csv"
        messy.write_bytes(b"t,value\r\n\r\n 0 , 0 \r\n   \r\n1,\t1\r\n\t\r\n2 ,2\r\n")
        assert main(["eval", "--problem", prob, "--trajectory", str(messy)]) == 0
        assert capsys.readouterr().out.strip() == "J_delta=2 J_nabla=2 J=4"

    @pytest.mark.parametrize(
        "body",
        ["0\n1\n2\n", "0,0,0\n1,1,1\n2,2,2\n", "0,0\n1,1,1\n2,2\n", "0,0,\n1,1,\n2,2,\n",
         "0,0\n1,one\n2,2\n"],
    )
    def test_malformed_rows_are_parse_errors(self, tmp_path, capsys, body):
        prob = write(tmp_path, "p.problem", GOOD)
        bad = write(tmp_path, "t.csv", "t,value\n" + body)
        assert main(["eval", "--problem", prob, "--trajectory", bad]) == EXIT_PARSE
        assert "bad trajectory CSV" in capsys.readouterr().err

    def test_header_only_trajectory_is_scale_mismatch(self, tmp_path):
        prob = write(tmp_path, "p.problem", GOOD)
        empty = write(tmp_path, "t.csv", "t,value\n")
        assert main(["eval", "--problem", prob, "--trajectory", empty]) == EXIT_SCALE_MISMATCH

    def test_non_utf8_trajectory_is_parse_error(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        latin = tmp_path / "t.csv"
        latin.write_bytes(b"t,value\n0,0\n1,1\xe9\n2,2\n")
        for command in (["eval"], ["residual", "--form", "el1"]):
            rc = main(command + ["--problem", prob, "--trajectory", str(latin)])
            assert rc == EXIT_PARSE
            assert "parse error" in capsys.readouterr().err

    def test_non_utf8_problem_is_parse_error(self, tmp_path, capsys):
        prob = tmp_path / "p.problem"
        prob.write_bytes(GOOD.replace("v^2", "v^2 # caf\xe9", 1).encode("latin-1"))
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert main(["eval", "--problem", str(prob), "--trajectory", traj]) == EXIT_PARSE
        assert main(["solve", "--problem", str(prob), "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err


class TestDomainViolations:
    LOG = GOOD.replace("delta = v^2", "delta = ln(y) + v^2")

    def test_eval_and_residual_exit_with_domain_code(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", self.LOG)
        traj = line_csv(tmp_path, [0, 1, 2], [-1.0, -2.0, -3.0])
        for command in (["eval"], ["residual", "--form", "el1"], ["residual", "--form", "el2"]):
            rc = main(command + ["--problem", prob, "--trajectory", traj])
            assert rc == EXIT_DOMAIN
            err = capsys.readouterr().err
            assert err == "domain violation in 'ln' at t=0.0 (node at offset 0)\n"

    def test_consistency_solve_with_undefined_integrand_exits_with_domain_code(
        self, tmp_path, capsys
    ):
        # both endpoints fixed and state-independent integrands select the
        # consistency scan, which samples ln(t) at t = 0 like a direct solve
        text = GOOD.replace("uniform 0 2 3", "uniform 0 1 5").replace(
            "delta = v^2", "delta = ln(t) + v^2")
        prob = write(tmp_path, "p.problem", text)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "o")])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err == "domain violation in 'ln' at t=0.0 (node at offset 0)\n"

    def test_overflowing_constant_power_exits_with_domain_code(self, tmp_path, capsys):
        # 10^400 is not folded to a float: solve and the residual report the
        # pow node as undefined, as eval does
        text = (cli._bundled_path("ex1.problem").read_text(encoding="utf-8")
                .replace("delta = v^2", "delta = 10^400*v^2"))
        prob = write(tmp_path, "p.problem", text)
        traj = line_csv(tmp_path, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        for command in (["solve", "--out", str(tmp_path / "o")],
                        ["residual", "--trajectory", traj, "--form", "el1"]):
            assert main(command + ["--problem", prob]) == EXIT_DOMAIN
            assert capsys.readouterr().err == "domain violation in 'pow' at t=0.0 (node at offset 2)\n"

    def test_overflowing_node_differences_print_only_the_violation(self, tmp_path, capsys):
        # the differences of the nodes 1e308 and -1e308 overflow; every
        # command runs under one np.errstate, so eval prints no numpy
        # warning before its violation, as residual does not either
        prob = str(cli._bundled_path("ex1.problem"))
        traj = line_csv(tmp_path, [0, 1, 2, 3, 4], [0, 1e308, -1e308, 3, 4])
        for command in (["eval"], ["residual", "--form", "el1"]):
            rc = main(command + ["--problem", prob, "--trajectory", traj])
            assert rc == EXIT_DOMAIN
            assert capsys.readouterr().err == "domain violation in 'pow' at t=0.0 (node at offset 1)\n"

    def test_solve_with_undefined_objective_exits_with_domain_code(self, tmp_path, capsys):
        text = GOOD.replace("delta = v^2", "delta = sqrt(-1 - y^2) + v^2")
        prob = write(tmp_path, "p.problem", text)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "o")])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err == "objective undefined at every multistart\n"


def _reference_rows(points, values) -> str:
    return "t,residual\n" + "".join("%.17g,%.17g\n" % (t, v) for t, v in zip(points, values))


class TestResidualCommand:
    def test_residual_csv_matches_reference_bytes(self, tmp_path, capsys):
        n = 257
        rng = np.random.default_rng(3)
        text = GOOD.replace("uniform 0 2 3", f"uniform 0 2 {n}").replace(
            "delta = v^2", "delta = v^2 + sin(y)^2")
        prob = write(tmp_path, "p.problem", text)
        ts_pts = np.linspace(0, 2, n)
        ys = np.sin(3 * ts_pts) + rng.normal(scale=1e-3, size=n)
        ys[0], ys[-1] = 0.0, 2.0
        traj = line_csv(tmp_path, ts_pts, ys)
        problem, _ = cli.parse_problem_file(prob)
        y = read_csv(traj, problem.scale)
        for form, fn in (("el1", va.el_residual_1), ("el2", va.el_residual_2)):
            residual = fn(problem, y).residual
            want = _reference_rows(residual.t, residual.values)
            out = tmp_path / form
            argv = ["residual", "--problem", prob, "--trajectory", traj, "--form", form]
            assert main(argv + ["--out", str(out)]) == 0
            assert (out / "residual.csv").read_bytes() == want.encode("ascii")
            assert capsys.readouterr().out.startswith(f"form={form} ")
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith(want + f"form={form} ")

    def test_nbc_rows_match_reference_bytes(self, tmp_path, capsys):
        text = GOOD.replace("a = fixed:0", "a = free").replace("b = fixed:2", "b = free")
        prob = write(tmp_path, "p.problem", text)
        traj = line_csv(tmp_path, [0, 1, 2], [0.1, 1.0 / 3.0, 2.5])
        problem, _ = cli.parse_problem_file(prob)
        y = read_csv(traj, problem.scale)
        vals = [va.natural_bc_residual_a(problem, y), va.natural_bc_residual_b(problem, y)]
        want = _reference_rows([0.0, 2.0], vals)
        assert main(["residual", "--problem", prob, "--trajectory", traj, "--form", "nbc"]) == 0
        assert capsys.readouterr().out.startswith(want + "form=nbc ")

    def test_out_naming_a_regular_file_is_a_usage_error(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        afile = write(tmp_path, "afile", "")
        argv = ["residual", "--problem", prob, "--trajectory", traj, "--form", "el1"]
        assert main(argv + ["--out", afile]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("bad --out: cannot use ") and err.count("\n") == 1

    def test_stationary_line_small_defect(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert main(["residual", "--problem", prob, "--trajectory", traj, "--form", "el2"]) == 0
        out = capsys.readouterr().out
        defect = float(out.rsplit("defect=", 1)[1].split()[0])
        assert defect <= 1e-12
        assert out.startswith("t,residual")

    def test_square_trajectory_large_defect(self, tmp_path, capsys):
        text = GOOD.replace("uniform 0 2 3", "uniform 0 3 4").replace("fixed:2", "fixed:9")
        prob = write(tmp_path, "p.problem", text)
        traj = line_csv(tmp_path, [0, 1, 2, 3], [0, 1, 4, 9])
        main(["residual", "--problem", prob, "--trajectory", traj, "--form", "el2"])
        defect = float(capsys.readouterr().out.rsplit("defect=", 1)[1].split()[0])
        assert defect > 0.1

    def test_iso_form_with_multipliers(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD_FULL)
        closed = [0.0, 2.0, 3.0, 3.0]
        traj = line_csv(tmp_path, [0, 1, 2, 3], closed)
        rc = main(
            ["residual", "--problem", prob, "--trajectory", traj,
             "--form", "iso2", "--lambda0", "1", "--lambda", "-26"]
        )
        assert rc == 0
        defect = float(capsys.readouterr().out.rsplit("defect=", 1)[1].split()[0])
        assert defect <= 1e-9

    def test_iso_form_needs_flags_and_constraint(self, tmp_path):
        prob = write(tmp_path, "p.problem", GOOD_FULL)
        traj = line_csv(tmp_path, [0, 1, 2, 3], [0, 1, 2, 3])
        rc = main(["residual", "--problem", prob, "--trajectory", traj, "--form", "iso1"])
        assert rc == EXIT_BAD_FORM
        plain = write(tmp_path, "q.problem", GOOD)
        traj2 = line_csv(tmp_path, [0, 1, 2], [0, 1, 2], name="t2.csv")
        rc = main(
            ["residual", "--problem", plain, "--trajectory", traj2,
             "--form", "iso1", "--lambda0", "1", "--lambda", "0"]
        )
        assert rc == EXIT_BAD_FORM

    @pytest.mark.parametrize("lambda0, lam", [("0", "0"), ("nan", "1"), ("1", "inf")])
    def test_zero_or_non_finite_multipliers_exit_64(self, tmp_path, capsys, lambda0, lam):
        prob = write(tmp_path, "p.problem", GOOD_FULL)
        traj = line_csv(tmp_path, [0, 1, 2, 3], [0.0, 2.0, 3.0, 3.0])
        rc = main(["residual", "--problem", prob, "--trajectory", traj, "--form", "iso1",
                   "--lambda0", lambda0, "--lambda", lam])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err == (
            "parse error: --lambda0 and --lambda must be finite and not both zero\n")

    def test_overflowing_multiplier_residual_exits_67(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD_FULL)
        traj = line_csv(tmp_path, [0, 1, 2, 3], [0.0, 1.0, 4.0, 3.0])
        rc = main(["residual", "--problem", prob, "--trajectory", traj, "--form", "iso2",
                   "--lambda0", "1e308", "--lambda", "1e308"])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err == "iso2 residual not finite at t=0.0\n"

    OVERFLOW = (GOOD.replace("delta = v^2", "delta = 10000000000*v")
                .replace("nabla = v^2", "nabla = 10000000000*v").replace("b = fixed:2", "b = free"))

    @pytest.mark.parametrize("form, where", [
        ("el1", "el1 residual not finite at t=1.0"),
        ("el2", "el2 residual not finite at t=0.0"),
        ("nbc", "natural boundary residual not finite at t=2.0"),
    ])
    def test_overflowing_residual_exits_67_for_every_form(self, tmp_path, capsys, form, where):
        prob = write(tmp_path, "p.problem", self.OVERFLOW)
        traj = line_csv(tmp_path, [0, 1, 2], [0.0, 1e290, 2e290])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["residual", "--problem", prob, "--trajectory", traj, "--form", form])
        assert rc == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == where + "\n" and captured.out == ""

    def test_out_directory_receives_csv(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        out = tmp_path / "r"
        rc = main(
            ["residual", "--problem", prob, "--trajectory", traj,
             "--form", "el1", "--out", str(out)]
        )
        assert rc == 0
        text = (out / "residual.csv").read_text()
        assert text.startswith("t,residual\n")
        assert len(text.strip().splitlines()) == 3  # header + two interior rows
        assert "form=el1" in capsys.readouterr().out

    def test_nbc_needs_free_endpoint(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        assert (
            main(["residual", "--problem", prob, "--trajectory", traj, "--form", "nbc"])
            == EXIT_BAD_FORM
        )
        free = write(tmp_path, "f.problem", GOOD.replace("b = fixed:2", "b = free"))
        zero = line_csv(tmp_path, [0, 1, 2], [0, 0, 0], name="z.csv")
        assert (
            main(["residual", "--problem", free, "--trajectory", zero, "--form", "nbc"]) == 0
        )
        out = capsys.readouterr().out
        assert "defect=0" in out


class TestSolveCommand:
    def test_bundled_quadratic_solves_to_identity(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "converged=true" in report
        csv_text = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        values = [float(r.split(",")[1]) for r in csv_text[1:]]
        np.testing.assert_allclose(values, [0, 1, 2], atol=1e-8)

    def test_three_point_product_reports_empty_set(self, tmp_path, capsys):
        text = (
            "[timescale]\ntimescale = explicit [0, 0.5, 1]\n\n"
            "[lagrangian]\ndelta = t*v\nnabla = v^2\n\n"
            "[boundary]\na = fixed:0\nb = fixed:1\n"
        )
        prob = write(tmp_path, "p.problem", text)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "out")])
        assert rc == EXIT_NOT_CONVERGED
        assert "empty consistency set" in capsys.readouterr().out

    @pytest.mark.parametrize("n", [11, 1001])
    def test_empty_set_reports_closest_approach(self, tmp_path, capsys, n):
        # the refined least-squares point of the uniform-grid product problem
        # approaches (4/3, 1/3) at first order, as in acceptance criterion 3
        text = (
            f"[timescale]\ntimescale = uniform 0 1 {n}\n\n"
            "[lagrangian]\ndelta = t*v\nnabla = v^2\n\n"
            "[boundary]\na = fixed:0\nb = fixed:1\n"
        )
        prob = write(tmp_path, "p.problem", text)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "out")])
        assert rc == EXIT_NOT_CONVERGED
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "no self-consistent extremal found (empty consistency set)"
        assert lines[1].startswith("closest approach: theta=")
        fields = dict(cell.split("=") for cell in lines[1].split()[2:])
        assert set(fields) == {"theta", "A", "B", "gap"}
        A, B, gap = float(fields["A"]), float(fields["B"]), float(fields["gap"])
        assert abs(A - 4 / 3) + abs(B - 1 / 3) <= 5 / n
        assert 0 < gap <= 3 / n
        assert not (tmp_path / "out").exists()

    def test_empty_set_is_scanned_once(self, tmp_path, capsys, monkeypatch):
        # the closest-approach line comes from the scan that found no root
        calls = []
        real = cli.so.consistency_scan
        monkeypatch.setattr(cli.so, "consistency_scan", lambda p: calls.append(p) or real(p))
        text = (
            "[timescale]\ntimescale = uniform 0 1 11\n\n"
            "[lagrangian]\ndelta = t*v\nnabla = v^2\n\n"
            "[boundary]\na = fixed:0\nb = fixed:1\n"
        )
        prob = write(tmp_path, "p.problem", text)
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_NOT_CONVERGED
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[1].startswith("closest approach: theta=")

    def test_infeasible_constraint_exit_code(self, tmp_path, capsys):
        text = GOOD + "\n[constraint]\ndelta = v\nnabla = 0.5\nk = 9\n"
        prob = write(tmp_path, "p.problem", text)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().out

    def test_iso_multiplier_in_report(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD_FULL)
        rc = main(["solve", "--problem", prob, "--out", str(tmp_path / "out")])
        assert rc == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        fields = dict(
            line.split("=", 1) for line in report.splitlines() if "=" in line
        )
        lam = float(fields["lambda"])
        a_val = float(fields["J_nabla"])
        b_val = float(fields["J_delta"])
        want = -12 * (a_val + b_val) * (3 - 2) / (3 * (3 - 1))
        assert abs(lam - want) <= 1e-6

    def test_out_naming_a_regular_file_is_a_usage_error(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        afile = write(tmp_path, "afile", "not a directory\n")
        assert main(["solve", "--problem", prob, "--out", afile]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("bad --out: cannot use ") and err.count("\n") == 1
        assert (tmp_path / "afile").read_text() == "not a directory\n"

    def test_solve_output_round_trips_through_eval_and_residual(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        out = tmp_path / "out"
        main(["solve", "--problem", prob, "--out", str(out)])
        capsys.readouterr()
        traj = str(out / "trajectory.csv")
        assert main(["eval", "--problem", prob, "--trajectory", traj]) == 0
        assert main(["residual", "--problem", prob, "--trajectory", traj, "--form", "el1"]) == 0


_REPORT_HEAD = [
    "converged", "message", "J_delta", "J_nabla", "J", "el_defect_1", "el_defect_2",
    "grad_norm", "iterations", "multistart_index",
]


class TestReportContract:
    """report.txt keys and their order, per method."""

    FREE_B = GOOD.replace("b = fixed:2", "b = free").replace("nabla = v^2", "nabla = v^2 + y^2")
    DIRECT = GOOD.replace("nabla = v^2", "nabla = v^2 + y^2")
    ISO_FREE = GOOD_FULL.replace("b = fixed:3", "b = free")

    @pytest.mark.parametrize("name, text, method, tail", [
        ("direct", DIRECT, "direct", ["extension"]),
        ("direct_free", FREE_B, "direct", ["bc_residual_b", "extension"]),
        ("iso", GOOD_FULL, "isoperimetric", ["lambda0", "lambda", "constraint_error", "extension"]),
        ("iso_free", ISO_FREE, "isoperimetric",
         ["lambda0", "lambda", "constraint_error", "bc_residual_b", "extension"]),
        ("consistency", GOOD, "consistency", ["extension"]),
    ])
    def test_keys_in_order(self, tmp_path, capsys, name, text, method, tail):
        prob = write(tmp_path, "p.problem", text)
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == 0
        assert f"({method})" in capsys.readouterr().out
        lines = (tmp_path / "out" / "report.txt").read_text().splitlines()
        fields = dict(line.split("=", 1) for line in lines)
        assert [line.split("=", 1)[0] for line in lines] == _REPORT_HEAD + tail
        assert fields["el_defect_1"] == fields["el_defect_2"]
        assert fields["extension"] == ("true" if name == "iso_free" else "false")
        if method == "consistency":
            assert (fields["iterations"], fields["multistart_index"]) == ("0", "0")
            assert fields["message"].startswith("self-consistent extremal (A=")


class TestVerifyCommand:
    def test_full_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all cases pass" in out
        assert "FAIL" not in out.replace("FAILURES", "")

    def test_case_filter_runs_one_case(self, capsys):
        assert main(["verify", "--case", "product_3pt"]) == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines() if l.startswith("product_3pt")]
        assert len(body) == 1
        assert "ex1" not in out

    def test_unknown_case_rejected(self, capsys):
        assert main(["verify", "--case", "nope"]) == EXIT_PARSE

    def test_zero_tolerance_on_convergent_case_fails(self):
        manifest = copy.deepcopy(load_bundled_manifest())
        case = next(c for c in manifest["cases"] if c["id"] == "product_unit")
        check = next(c for c in case["checks"] if c["quantity"] == "J_delta")
        check["tol"] = 0.0
        rows, ok = run_verify_cases(manifest, SolverConfig(seed=0), "product_unit")
        assert not ok
        failed = [r for r in rows if not r[-1]]
        assert any(r[1] == "J_delta" for r in failed)

    def test_trajectory_case_samples_once(self, monkeypatch):
        manifest = load_bundled_manifest()
        (rows, ok), runs, n = count_evaluations(
            monkeypatch, lambda: run_verify_cases(manifest, SolverConfig(), "product_unit"))
        assert ok and len(rows) == 3 and runs == [va._FIRST] and n == 0
        # a residual that is not finite fails every check of the case
        real = va._first

        def unbounded(*args):
            first = real(*args)
            return first._replace(gradient=first.gradient + np.inf)

        monkeypatch.setattr(va, "_first", unbounded)
        rows, ok = run_verify_cases(manifest, SolverConfig(), "product_unit")
        assert not ok and {r[3] for r in rows} == {"error: el1 residual not finite at t=0.01"}

    def test_deterministic_under_seed(self):
        manifest = load_bundled_manifest()
        r1, ok1 = run_verify_cases(manifest, SolverConfig(seed=9), "iso_M3")
        r2, ok2 = run_verify_cases(manifest, SolverConfig(seed=9), "iso_M3")
        assert ok1 and ok2
        assert r1 == r2

    def test_cases_run_in_solve_or_trajectory_mode(self):
        manifest = copy.deepcopy(load_bundled_manifest())
        assert {c["mode"] for c in manifest["cases"]} == {"solve", "trajectory"}
        # the empty consistency set of product_3pt is a solve with no report
        rows, ok = run_verify_cases(manifest, SolverConfig(), "product_3pt")
        assert ok and [r[1:4] for r in rows] == [("n_roots", "0", "0")]
        case = next(c for c in manifest["cases"] if c["id"] == "product_3pt")
        case["mode"] = "consistency"
        rows, ok = run_verify_cases(manifest, SolverConfig(), "product_3pt")
        assert not ok and rows[0][3] == "error: unknown verify mode 'consistency'"

    def test_manifest_provenance_present_for_every_expected_number(self):
        manifest = load_bundled_manifest()
        for case in manifest["cases"]:
            for check in case["checks"]:
                assert check.get("provenance"), (case["id"], check["quantity"])


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        import shutil
        import subprocess

        if shutil.which("tsvar") is None:
            pytest.skip("console script not on PATH (package not installed)")
        prob = write(tmp_path, "p.problem", GOOD)
        traj = line_csv(tmp_path, [0, 1, 2], [0, 1, 2])
        out = subprocess.run(
            ["tsvar", "eval", "--problem", prob, "--trajectory", traj],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "J_delta=2 J_nabla=2 J=4"


class TestSeedPlumbing:
    def test_environment_seed_is_default(self, monkeypatch):
        monkeypatch.setenv("TSVAR_SEED", "123")
        assert cli._config_for({}, None).seed == 123

    def test_file_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("TSVAR_SEED", "123")
        assert cli._config_for({"seed": 5}, None).seed == 5

    def test_flag_beats_everything(self, monkeypatch):
        monkeypatch.setenv("TSVAR_SEED", "123")
        assert cli._config_for({"seed": 5}, 99).seed == 99

    def test_malformed_environment_seed_is_parse_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TSVAR_SEED", "not-a-number")
        prob = write(tmp_path, "p.problem", GOOD)
        assert main(["solve", "--problem", prob, "--out", str(tmp_path)]) == EXIT_PARSE

    @pytest.mark.parametrize("key", ["ab_box", "consistency_starts"])
    def test_removed_consistency_search_keys_are_unknown(self, tmp_path, capsys, key):
        # the exact consistency scan has no seed box and no start count
        prob = write(tmp_path, "p.problem", GOOD + f"\n[solver]\n{key} = 10\n")
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert f"unknown key {key!r} in section [solver]" in capsys.readouterr().err

    def test_removed_penalty_growth_key_is_unknown(self, tmp_path, capsys):
        # Newton on the KKT system has no penalty schedule
        prob = write(tmp_path, "p.problem", GOOD + "\n[solver]\npenalty_growth = 10\n")
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert "unknown key 'penalty_growth' in section [solver]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["max_iter", "constraint_tol"])
    def test_removed_tolerance_keys_are_unknown(self, tmp_path, capsys, key):
        # the Newton step cap and the constraint targets are fixed constants
        prob = write(tmp_path, "p.problem", GOOD_FULL + f"{key} = 10\n")
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert f"unknown key {key!r} in section [solver]" in capsys.readouterr().err

    def test_solver_keys_are_the_config_fields(self):
        fields = set(SolverConfig.__dataclass_fields__)
        assert fields == cli._SECTION_KEYS["solver"] == {"grad_tol", "multistarts", "seed"}

    @pytest.mark.parametrize("line", ["grad_tol = nan", "grad_tol = inf", "seed = -5"])
    def test_non_finite_tolerance_or_negative_seed_in_file_is_parse_error(
        self, tmp_path, capsys, line
    ):
        prob = write(tmp_path, "p.problem", GOOD + f"\n[solver]\n{line}\n")
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert "bad solver configuration" in capsys.readouterr().err

    def test_negative_seed_flag_is_parse_error(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD)
        out = str(tmp_path / "out")
        assert main(["solve", "--problem", prob, "--seed", "-5", "--out", out]) == EXIT_PARSE
        assert "seed must not be negative" in capsys.readouterr().err
        assert main(["verify", "--case", "product_unit", "--seed", "-5"]) == EXIT_PARSE

    def test_negative_environment_seed_is_parse_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("TSVAR_SEED", "-5")
        prob = write(tmp_path, "p.problem", GOOD)
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert "seed must not be negative" in capsys.readouterr().err

    def test_invalid_solver_override_is_parse_error(self, tmp_path):
        text = GOOD + "\n[solver]\ngrad_tol = -1\n"
        prob = write(tmp_path, "p.problem", text)
        assert main(["solve", "--problem", prob, "--out", str(tmp_path)]) == EXIT_PARSE


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "p.problem", "--bogus"],  # unknown flag
        ["solve", "--problem", "p.problem", "--seed", "abc"],  # malformed value
        ["residual", "--problem", "p.problem", "--trajectory", "t.csv", "--form", "el3"],
        ["solve"],  # missing required option
        [],  # missing command
        # eval reads no seed and writes no file; residual reads no seed
        ["eval", "--problem", "p.problem", "--trajectory", "t.csv", "--seed", "1"],
        ["eval", "--problem", "p.problem", "--trajectory", "t.csv", "--out", "d"],
        ["residual", "--problem", "p.problem", "--trajectory", "t.csv", "--form", "el1",
         "--seed", "1"],
    ])
    def test_usage_error_exits_64(self, capsys, argv):
        # exit 2 is "not converged", so argparse's own usage code is not used
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_PARSE
        assert "usage: tsvar" in capsys.readouterr().err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_overflowing_literal_is_parse_error(self, tmp_path, capsys):
        prob = write(tmp_path, "p.problem", GOOD.replace("delta = v^2", "delta = v^2 + " + "9" * 400))
        assert main(["solve", "--problem", prob, "--out", str(tmp_path / "out")]) == EXIT_PARSE
        assert "numeric literal out of range" in capsys.readouterr().err
