"""Batch command-line interface.

Commands:
  tsvar eval     --problem P --trajectory T.csv       print J_delta, J_nabla, J
  tsvar residual --problem P --trajectory T.csv --form el1|el2|iso1|iso2|nbc
                 [--lambda0 L0 --lambda L] [--out DIR]
  tsvar solve    --problem P [--seed N] [--out DIR]   solve and write report files
  tsvar verify   [--case ID] [--seed N]               run the bundled example suite

Problem files are INI-style documents with sections [timescale], [lagrangian],
[boundary] and optional [constraint] and [solver]; unknown sections or keys
are rejected.  The default random seed comes from the TSVAR_SEED environment
variable and can be overridden per file ([solver] seed = ...) or with --seed.
``solve`` and ``verify`` leave the choice of method and the report to
``solver.solve_auto``; this module parses, prints and writes files.

Exit codes: 0 success/converged, 1 verification failure, 2 no extremal or
no convergence, 3 infeasible constraint, 64 parse or usage error, or an --out
path that cannot be a directory, 65 trajectory/scale mismatch, 66 inapplicable
residual form, 67 an integrand undefined along the trajectory (domain
violation).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import calculus as ca
from . import expr as ex
from . import solver as so
from . import timescale as tsc
from . import variational as va

__all__ = [
    "main",
    "ProblemFileError",
    "InapplicableFormError",
    "parse_problem_file",
    "parse_problem_text",
    "run_verify_cases",
    "load_bundled_manifest",
]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3
EXIT_PARSE = 64
EXIT_SCALE_MISMATCH = 65
EXIT_BAD_FORM = 66
EXIT_DOMAIN = 67


class ProblemFileError(ValueError):
    pass


class InapplicableFormError(ValueError):
    pass


class OutputPathError(OSError):
    """``--out`` names a path that cannot be used as an output directory."""


def _output_dir(path) -> Path:
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OutputPathError(
            f"cannot use {str(outdir)!r} as output directory: {err.strerror or err}"
        ) from None
    return outdir


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# Problem files

_SECTION_KEYS = {
    "timescale": {"timescale"},
    "lagrangian": {"delta", "nabla"},
    "boundary": {"a", "b"},
    "constraint": {"delta", "nabla", "k"},
    "solver": {"grad_tol", "multistarts", "seed"},
}
_REQUIRED_SECTIONS = ("timescale", "lagrangian", "boundary")


def _parse_timescale_literal(text: str) -> tsc.TimeScale:
    body = text.strip()
    if body.startswith("explicit"):
        rest = body[len("explicit") :].strip()
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ProblemFileError(f"explicit time scale needs [..] list: {text!r}")
        cells = [c for c in rest[1:-1].split(",") if c.strip()]
        try:
            return tsc.from_points([float(c) for c in cells])
        except (ValueError, tsc.TimeScaleError) as err:
            raise ProblemFileError(f"bad explicit time scale: {err}") from None
    parts = body.split()
    try:
        if parts and parts[0] == "uniform" and len(parts) == 4:
            return tsc.uniform(float(parts[1]), float(parts[2]), int(parts[3]))
        if parts and parts[0] == "hz" and len(parts) == 4:
            return tsc.h_integers(float(parts[1]), float(parts[2]), float(parts[3]))
        if parts and parts[0] == "qscale" and len(parts) == 4:
            return tsc.q_scale(float(parts[1]), int(parts[2]), int(parts[3]))
    except (ValueError, tsc.TimeScaleError) as err:
        raise ProblemFileError(f"bad time scale literal: {err}") from None
    except MemoryError:
        raise ProblemFileError(f"time scale too large to allocate: {text!r}") from None
    raise ProblemFileError(f"unrecognized time scale literal: {text!r}")


def _parse_boundary(text: str, name: str) -> float | None:
    body = text.strip()
    if body == "free":
        return None
    if body.startswith("fixed:"):
        try:
            return float(body[len("fixed:") :])
        except ValueError:
            raise ProblemFileError(f"bad boundary value for {name}: {text!r}") from None
    raise ProblemFileError(f"boundary {name} must be 'fixed:<value>' or 'free'")


def _parse_expression(text: str, where: str) -> ex.Expression:
    try:
        return ex.parse(text)
    except ex.ExprSyntaxError as err:
        raise ProblemFileError(f"bad expression for {where}: {err}") from None


def parse_problem_text(text: str) -> tuple[va.VariationalProblem, dict]:
    """Parse problem-file content; returns the problem and solver overrides."""
    cp = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), interpolation=None, strict=True
    )
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ProblemFileError(f"malformed problem file: {err}") from None
    if cp.defaults():
        raise ProblemFileError("keys outside a known section are not allowed")
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ProblemFileError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ProblemFileError(f"unknown key {key!r} in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            raise ProblemFileError(f"missing required section [{section}]")

    def need(section: str, key: str) -> str:
        if key not in cp[section]:
            raise ProblemFileError(f"missing key {key!r} in section [{section}]")
        return cp[section][key]

    scale = _parse_timescale_literal(need("timescale", "timescale"))
    L_delta = _parse_expression(need("lagrangian", "delta"), "[lagrangian] delta")
    L_nabla = _parse_expression(need("lagrangian", "nabla"), "[lagrangian] nabla")
    bc_a = _parse_boundary(need("boundary", "a"), "a")
    bc_b = _parse_boundary(need("boundary", "b"), "b")

    constraint = None
    if "constraint" in cp:
        try:
            k = float(need("constraint", "k"))
        except ValueError:
            raise ProblemFileError("constraint level k must be a number") from None
        K_delta = _parse_expression(need("constraint", "delta"), "[constraint] delta")
        K_nabla = _parse_expression(need("constraint", "nabla"), "[constraint] nabla")
        try:
            constraint = va.IsoperimetricConstraint(K_delta, K_nabla, k)
        except ValueError as err:  # k is nan or inf
            raise ProblemFileError(str(err)) from None

    overrides: dict = {}
    if "solver" in cp:
        ints = {"multistarts", "seed"}
        for key, raw in cp["solver"].items():
            try:
                overrides[key] = int(raw) if key in ints else float(raw)
            except ValueError:
                raise ProblemFileError(f"bad numeric value for solver {key}") from None

    try:
        problem = va.VariationalProblem(scale, L_delta, L_nabla, bc_a, bc_b, constraint)
    except ValueError as err:
        raise ProblemFileError(str(err)) from None
    return problem, overrides


def parse_problem_file(path) -> tuple[va.VariationalProblem, dict]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ProblemFileError(f"cannot read problem file: {err}") from None
    return parse_problem_text(text)


def _config_for(overrides: dict, seed_flag: int | None) -> so.SolverConfig:
    env_seed = os.environ.get("TSVAR_SEED")
    try:
        cfg = so.SolverConfig(seed=int(env_seed) if env_seed else 0)
        if overrides:
            cfg = replace(cfg, **overrides)
        if seed_flag is not None:
            cfg = replace(cfg, seed=seed_flag)
    except ValueError as err:
        raise ProblemFileError(f"bad solver configuration: {err}") from None
    return cfg


def _load_trajectory(path, scale) -> ca.GridFunction:
    try:
        return ca.read_csv(path, scale)
    except OSError as err:
        raise ProblemFileError(f"cannot read trajectory file: {err}") from None
    except tsc.TimeScaleError:
        raise
    except ValueError as err:
        raise ProblemFileError(f"bad trajectory CSV: {err}") from None


# ---------------------------------------------------------------------------
# Commands


def _cmd_eval(args) -> int:
    problem, _ = parse_problem_file(args.problem)
    y = _load_trajectory(args.trajectory, problem.scale)
    jd = va.eval_J_delta(problem, y)
    jn = va.eval_J_nabla(problem, y)
    print(f"J_delta={_fmt(jd)} J_nabla={_fmt(jn)} J={_fmt(jd * jn)}")
    return EXIT_OK


def _residual_rows(problem, y, args):
    form = args.form
    if form in ("el1", "el2"):
        rep = va.el_residual_1(problem, y) if form == "el1" else va.el_residual_2(problem, y)
        return rep.residual.t, rep.residual.values, rep.defect, rep.mean
    if form in ("iso1", "iso2"):
        if problem.constraint is None:
            raise InapplicableFormError("isoperimetric form needs a [constraint] section")
        if args.lambda0 is None or args.lam is None:
            raise InapplicableFormError("isoperimetric form needs --lambda0 and --lambda")
        if not (np.isfinite([args.lambda0, args.lam]).all() and (args.lambda0 or args.lam)):
            raise ProblemFileError("--lambda0 and --lambda must be finite and not both zero")
        rep = va.iso_residual(problem, y, args.lambda0, args.lam, "el1" if form == "iso1" else "el2")
        return rep.residual.t, rep.residual.values, rep.defect, rep.mean
    # natural boundary conditions
    if problem.bc_a is not None and problem.bc_b is not None:
        raise InapplicableFormError("form nbc needs at least one free endpoint")
    ts = problem.scale
    idx, vals = [], []
    if problem.bc_a is None:
        idx.append(0)
        vals.append(va.natural_bc_residual_a(problem, y))
    if problem.bc_b is None:
        idx.append(len(ts) - 1)
        vals.append(va.natural_bc_residual_b(problem, y))
    defect = max(abs(v) for v in vals)
    mean = float(np.mean(vals))
    return ts.points[idx], vals, defect, mean


def _cmd_residual(args) -> int:
    problem, _ = parse_problem_file(args.problem)
    y = _load_trajectory(args.trajectory, problem.scale)
    t, values, defect, mean = _residual_rows(problem, y, args)
    if args.out:
        outdir = _output_dir(args.out)
        with open(outdir / "residual.csv", "w", encoding="utf-8") as fh:
            ca._write_rows(fh, "t,residual", t, values)
    else:
        ca._write_rows(sys.stdout, "t,residual", t, values)
    print(f"form={args.form} defect={_fmt(defect)} mean={_fmt(mean)}")
    return EXIT_OK


def _optional_fields(report: so.SolveReport):
    """(key, value) of each optional report field that is set, in order."""
    return [(key, val) for key, val in (
        ("lambda0", report.lambda0), ("lambda", report.lam),
        ("constraint_error", report.constraint_error),
        ("bc_residual_a", report.bc_residual_a), ("bc_residual_b", report.bc_residual_b),
    ) if val is not None]


def _report_lines(report: so.SolveReport) -> list[str]:
    lines = [
        f"converged={'true' if report.converged else 'false'}",
        f"message={report.message}",
        f"J_delta={_fmt(report.J_delta)}",
        f"J_nabla={_fmt(report.J_nabla)}",
        f"J={_fmt(report.J)}",
        f"el_defect_1={_fmt(report.el_defect_1)}",
        f"el_defect_2={_fmt(report.el_defect_2)}",
        f"grad_norm={_fmt(report.grad_norm)}",
        f"iterations={report.iterations}",
        f"multistart_index={report.multistart_index}",
    ]
    for key, val in _optional_fields(report):
        lines.append(f"{key}={_fmt(val)}")
    lines.append(f"extension={'true' if report.extension else 'false'}")
    return lines


def _cmd_solve(args) -> int:
    problem, overrides = parse_problem_file(args.problem)
    cfg = _config_for(overrides, args.seed)
    try:
        report, method, near = so.solve_auto(problem, cfg)
    except so.InfeasibleConstraintError as err:
        print(f"infeasible: {err}")
        return EXIT_INFEASIBLE
    if report is None:
        print("no self-consistent extremal found (empty consistency set)")
        if near is not None:
            print(
                f"closest approach: theta={_fmt(near.theta)} A={_fmt(near.A)} "
                f"B={_fmt(near.B)} gap={_fmt(near.gap)}"
            )
        return EXIT_NOT_CONVERGED
    outdir = _output_dir(args.out or ".")
    ca.write_csv(report.trajectory, outdir / "trajectory.csv")
    (outdir / "report.txt").write_text("\n".join(_report_lines(report)) + "\n", encoding="utf-8")
    print(
        f"{'converged' if report.converged else 'not converged'} ({method}): "
        f"J={_fmt(report.J)} files in {outdir}"
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# Verification suite


def load_bundled_manifest() -> dict:
    root = resources.files("tsvar").joinpath("problems")
    return json.loads(root.joinpath("manifest.json").read_text(encoding="utf-8"))


def _bundled_path(name: str):
    return resources.files("tsvar").joinpath("problems").joinpath(name)


def _case_context(case: dict, cfg: so.SolverConfig) -> dict:
    problem, _ = parse_problem_text(_bundled_path(case["problem"]).read_text(encoding="utf-8"))
    ctx: dict = {}
    mode = case["mode"]
    if mode == "solve":
        report = so.solve_auto(problem, cfg)[0]
        if report is None:
            ctx["n_roots"] = 0.0
            return ctx
        ctx.update(
            trajectory=report.trajectory.values,
            J_delta=report.J_delta,
            J_nabla=report.J_nabla,
            J=report.J,
            el_defect_1=report.el_defect_1,
            el_defect_2=report.el_defect_2,
            converged=1.0 if report.converged else 0.0,
        )
        for key, val in _optional_fields(report):
            ctx[key] = abs(val) if key.startswith("bc_") else val
        if problem.constraint is not None:
            ctx["abnormal"] = (
                1.0
                if va.is_K_extremal(problem, report.trajectory, 1e-6)
                else 0.0
            )
    elif mode == "trajectory":
        with resources.as_file(_bundled_path(case["trajectory"])) as path:
            y = ca.read_csv(path, problem.scale)
        # one first-order record: both functionals, and the residual both forms share
        L = va._record(problem, y)
        defect = va._report(problem.scale, L.gradient, "el1").defect
        ctx.update(J_delta=L.J_delta, J_nabla=L.J_nabla, J=L.value,
                   el_defect_1=defect, el_defect_2=defect)
    else:
        raise ValueError(f"unknown verify mode {mode!r}")
    return ctx


def run_verify_cases(manifest: dict, cfg: so.SolverConfig, case_filter: str | None = None):
    """Run manifest cases; returns (rows, all_passed)."""
    rows = []
    ok_all = True
    cases = [c for c in manifest["cases"] if case_filter in (None, c["id"])]
    if case_filter is not None and not cases:
        raise ValueError(f"no case with id {case_filter!r}")
    for case in cases:
        try:
            ctx = _case_context(case, cfg)
        except Exception as err:  # a crashed case fails all its checks
            for check in case["checks"]:
                rows.append((case["id"], check["quantity"], "-", f"error: {err}",
                             "-", check.get("provenance", ""), False))
            ok_all = False
            continue
        for check in case["checks"]:
            q = check["quantity"]
            got = ctx.get(q)
            if q == "trajectory":
                expected = np.asarray(check["expected"], dtype=float)
                tol = float(check["tol"])
                if got is None or len(got) != len(expected):
                    passed, gottxt = False, "missing"
                else:
                    dev = float(np.max(np.abs(np.asarray(got) - expected)))
                    passed, gottxt = dev <= tol, f"max dev {_fmt(dev)}"
                exptxt = "node values"
            elif "max" in check:
                tol = float(check["max"])
                passed = got is not None and got <= tol
                gottxt = "missing" if got is None else _fmt(got)
                exptxt = f"<= {_fmt(tol)}"
            else:
                expected = float(check["expected"])
                tol = float(check["tol"])
                passed = got is not None and abs(got - expected) <= tol
                gottxt = "missing" if got is None else _fmt(got)
                exptxt = _fmt(expected)
            rows.append(
                (case["id"], q, exptxt, gottxt, _fmt(tol), check.get("provenance", ""), passed)
            )
            ok_all = ok_all and passed
    return rows, ok_all


def _cmd_verify(args) -> int:
    cfg = _config_for({}, args.seed)
    manifest = load_bundled_manifest()
    try:
        rows, ok = run_verify_cases(manifest, cfg, args.case)
    except ValueError as err:
        print(str(err))
        return EXIT_PARSE
    widths = [12, 22, 16, 22, 10]
    header = ("case", "quantity", "expected", "got", "tol")
    print(" | ".join(h.ljust(w) for h, w in zip(header, widths)) + " | status | provenance")
    for case_id, q, exp, got, tol, prov, passed in rows:
        cells = [case_id, q, exp, got, tol]
        line = " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
        print(f"{line} | {'PASS' if passed else 'FAIL':6s} | {prov}")
    print(f"verify: {'all cases pass' if ok else 'FAILURES present'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# Entry point


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a parse error; argparse's own exit code 2 means
        # "not converged" here
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="tsvar", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate the functionals along a trajectory")
    sp.add_argument("--problem", required=True, help="problem file path")
    sp.add_argument("--trajectory", required=True, help="trajectory CSV (t,value)")

    sp = sub.add_parser("residual", help="stationarity residual along a trajectory")
    sp.add_argument("--problem", required=True, help="problem file path")
    sp.add_argument("--trajectory", required=True, help="trajectory CSV (t,value)")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--form", required=True, choices=["el1", "el2", "iso1", "iso2", "nbc"])
    sp.add_argument("--lambda0", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)

    sp = sub.add_parser("solve", help="solve for an extremal trajectory")
    sp.add_argument("--problem", required=True, help="problem file path")
    sp.add_argument("--seed", type=int, default=None, help="random seed override")
    sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("verify", help="run the bundled example suite")
    sp.add_argument("--case", default=None, help="run a single case id")
    sp.add_argument("--seed", type=int, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # an overflow raises DomainViolation or is reported, never a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "eval":
                return _cmd_eval(args)
            if args.command == "residual":
                return _cmd_residual(args)
            if args.command == "solve":
                return _cmd_solve(args)
            return _cmd_verify(args)
    except (ProblemFileError, ex.ExprSyntaxError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OutputPathError as err:
        print(f"bad --out: {err}", file=sys.stderr)
        return EXIT_PARSE
    except tsc.TimeScaleError as err:
        print(f"scale mismatch: {err}", file=sys.stderr)
        return EXIT_SCALE_MISMATCH
    except InapplicableFormError as err:
        print(f"inapplicable form: {err}", file=sys.stderr)
        return EXIT_BAD_FORM
    except ex.DomainViolation as err:
        print(err, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
