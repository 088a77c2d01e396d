"""A generated suite over the command line: problem texts, trajectory CSVs and
argv for eval, residual, solve and verify, drawn by hypothesis with a fixed
derandomized sequence.  Whatever the input, a command ends with a documented
exit code, never with a traceback, and exit 1 (verification failure) comes
only from verify."""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from tsvar import cli
from tsvar import solver as so

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXIT_CODES = {0, 1, 2, 3, 64, 65, 66, 67}  # the README's table

# time scale literals and their points
SCALES = {
    "uniform 0 1 3": "0 0.5 1",
    "explicit [0.234, 0.791, 1.05]": "0.234 0.791 1.05",
    "hz 0 3 1": "0 1 2 3",
    "qscale 2 0 2": "1 2 4",
}
BAD_SCALES = ["uniform 0 1 1e12", "explicit 0 1", "uniform 1 0 3"]
EXPRESSIONS = [
    "v^2", "v^2 + y^2", "t*v", "0.5", "exp(0.8*v) + y^2", "cos(y - t*v) + 0.6676*v^3",
    "y^1.5 + v^2",  # its second partial is undefined at y = 0
    "ln(y) + v^2", "1/v", "sqrt(-1 - y^2)",  # undefined along some or every trajectory
    "10000000000*v",  # overflows the residual along a trajectory of 1e290s
    # deep expressions within the token limit
    " + ".join(["v"] * 50), "y/" * 12 + "v", "(" * 49 + "v" + ")" * 49,
]
BAD_EXPRESSIONS = [
    "v^^2", "v + w",
    # beyond the token limit
    " + ".join(["v"] * 800), " + ".join(["v"] * 1500), "(" * 3000 + "v" + ")" * 3000,
]
BOUNDARIES = ["fixed:0", "fixed:1", "fixed:-0.5", "free"]
BAD_BOUNDARIES = ["fixed:inf", "fixed:zero", "pinned:0"]
CONSTRAINTS = [
    ("t*v", "1/3", "1"),
    ("0.3671*v^2 + y^2 + t*v*y", "cos(y - t*v) + 0.6676*v^3", "-2.855079"),
    ("v", "0.5", "9"),  # infeasible
    ("v", "1", "one"),
]
SOLVER_LINES = ["multistarts = 1", "multistarts = 2", "seed = 3", "grad_tol = 1e-6",
                "seed = -5", "grad_tol = nan", "multistarts = 0", "multistarts = 1.5", "max_iter = 5"]
JUNK_PROBLEMS = ["", "stray = 1\n", "[timescale]\ntimescale = uniform 0 1 3\n"]
VALUES = ["0", "1", "-1", "0.5", "2", "1e290", "2e290"]
BAD_VALUES = ["nan", "zero", ""]
MULTIPLIERS = ["0", "1", "-26", "nan", "inf", "1e308"]


def _pick(rnd, good, bad, p_bad=0.07):
    """One of ``good``, or with probability ``p_bad`` one of ``bad``."""
    return rnd.choice(bad if rnd.random() < p_bad else good)


@st.composite
def inputs(draw):
    """A problem text and a trajectory CSV, mostly on the problem's scale."""
    rnd = draw(st.randoms(use_true_random=True))
    scale = _pick(rnd, list(SCALES), BAD_SCALES)
    problem = (f"[timescale]\ntimescale = {scale}\n[lagrangian]\n"
               f"delta = {_pick(rnd, EXPRESSIONS, BAD_EXPRESSIONS)}\n"
               f"nabla = {_pick(rnd, EXPRESSIONS, BAD_EXPRESSIONS)}\n[boundary]\n"
               f"a = {_pick(rnd, BOUNDARIES, BAD_BOUNDARIES)}\n"
               f"b = {_pick(rnd, BOUNDARIES, BAD_BOUNDARIES)}\n")
    if rnd.random() < 0.4:
        problem += "[constraint]\ndelta = {}\nnabla = {}\nk = {}\n".format(
            *_pick(rnd, CONSTRAINTS[:3], CONSTRAINTS[3:]))
    if rnd.random() < 0.3:
        problem += "[solver]\n" + _pick(rnd, SOLVER_LINES[:4], SOLVER_LINES[4:], 0.5) + "\n"
    problem = _pick(rnd, [problem], JUNK_PROBLEMS, 0.05)
    points = _pick(rnd, [SCALES.get(scale, "0 1")], list(SCALES.values()), 0.1).split()
    rows = [f"{t},{_pick(rnd, VALUES, BAD_VALUES, 0.05)}" for t in points]
    if rnd.random() < 0.05:
        del rows[rnd.randrange(len(rows)):]
    return problem, "t,value\n" + "\n".join(rows) + "\n"


@st.composite
def argvs(draw):
    """argv of one command; {P}, {T} and {D} stand for the problem file, the
    trajectory file and an output directory.  --seed on eval and residual
    and --out on eval are not options of those commands."""
    rnd = draw(st.randoms(use_true_random=True))
    files = ["--problem", "{P}", "--trajectory", "{T}"]
    command = rnd.choice(["eval", "residual", "residual", "solve", "solve", "verify"])
    if command == "eval":
        return ["eval", *files, *_pick(rnd, [[]], [["--seed", "1"], ["--out", "{D}"]])]
    if command == "residual":
        argv = ["residual", *files, "--form", _pick(rnd, ["el1", "el2", "nbc", "iso1", "iso2"], ["el3"])]
        if rnd.random() < 0.5:
            argv += ["--lambda0", rnd.choice(MULTIPLIERS), "--lambda", rnd.choice(MULTIPLIERS)]
        return argv + _pick(rnd, [[], ["--out", "{D}"]], [["--seed", "1"]])
    if command == "solve":
        return ["solve", "--problem", "{P}", "--out", "{D}",
                *_pick(rnd, [[], ["--seed", "3"]], [["--seed", "-5"], ["--seed", "abc"]])]
    return ["verify", "--case", _pick(rnd, ["product_unit", "product_3pt", "ex1", "iso_M2"], ["nope"]),
            *_pick(rnd, [[], ["--seed", "1"]], [["--seed", "-5"]])]


def _run(argv):
    # The suite checks exit codes, not convergence, so a Newton run stops
    # after 50 steps: with no Newton model anywhere (`y^1.5 + v^2` on both
    # sides of `qscale 2 0 2`, y(b) = 0 fixed) every start crawls to the
    # 10000-step cap, which takes about 25 s apiece on a three-point scale.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(so, "_MAX_STEPS", 50):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors, from argparse
            code = exc.code
    return code, err.getvalue()


OVERFLOW = ("[timescale]\ntimescale = uniform 0 1 3\n[lagrangian]\ndelta = 10000000000*v\n"
            "nabla = 10000000000*v\n[boundary]\na = fixed:0\nb = free\n")
ISO = OVERFLOW + "[constraint]\ndelta = t*v\nnabla = 1/3\nk = 1\n"
RESIDUAL = ["residual", "--problem", "{P}", "--trajectory", "{T}", "--form"]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(case=inputs(), argv=argvs())
@hypothesis.example(case=(OVERFLOW, "t,value\n0,0\n0.5,1e290\n1,2e290\n"), argv=RESIDUAL + ["nbc"])
@hypothesis.example(case=(ISO, "t,value\n0,0\n0.5,1\n1,2\n"),
                    argv=RESIDUAL + ["iso1", "--lambda0", "0", "--lambda", "0"])
@hypothesis.example(case=(ISO, "t,value\n0,0\n0.5,1\n1,2\n"),
                    argv=RESIDUAL + ["iso2", "--lambda0", "1e308", "--lambda", "1e308"])
@hypothesis.example(case=(OVERFLOW, "t,value\n0,0\n0.5,1\n1,2\n"),
                    argv=["eval", "--problem", "{P}", "--trajectory", "{T}", "--seed", "1"])
@hypothesis.example(case=(OVERFLOW.replace("10000000000*v", "(" * 3000 + "v" + ")" * 3000), ""),
                    argv=["solve", "--problem", "{P}", "--out", "{D}"])
def test_every_input_ends_in_a_documented_exit_code(case, argv):
    problem, trajectory = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {"{P}": Path(tmp, "p.problem"), "{T}": Path(tmp, "t.csv"), "{D}": Path(tmp, "out")}
        files["{P}"].write_text(problem, encoding="utf-8")
        files["{T}"].write_text(trajectory, encoding="utf-8")
        code, err = _run([str(files.get(arg, arg)) for arg in argv])
    assert "Traceback" not in err
    assert code in EXIT_CODES, (code, err)
    assert code != cli.EXIT_VERIFY_FAIL or argv[0] == "verify"
