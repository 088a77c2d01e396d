"""Correctness oracles, one per op kind, in pure Python.

The worker imports this module after its set-up is measured and never needs
numpy for it: every expected value was computed when the inputs were made.
Each oracle takes the op's ``check`` record, the exit code and the captured
standard output, and returns ``None`` for a correct result or a short reason.
"""

from __future__ import annotations

import math
from pathlib import Path


def _fields(line: str) -> dict[str, str]:
    return dict(cell.split("=", 1) for cell in line.split() if "=" in cell)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _csv_rows(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines[1:] if ln.strip()]


def check_verify(check: dict, rc, out: str) -> str | None:
    """Exit code 0, one PASS row per manifest check, and the all-pass footer."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    rows = [ln for ln in lines[1:] if " | " in ln]
    if len(rows) != check["rows"]:
        return f"{len(rows)} rows, expected {check['rows']}"
    bad = [r for r in rows if r.split(" | ")[5].strip() != "PASS"]
    if bad:
        return f"row not PASS: {bad[0]!r}"
    if not lines or lines[-1] != "verify: all cases pass":
        return "missing 'all cases pass' footer"
    return None


def check_solve(check: dict, rc, out: str) -> str | None:
    """Converged direct solve, small EL defects, n trajectory rows, fixed
    boundary values honoured exactly."""
    if rc != 0:
        return f"exit code {rc}"
    if "(direct)" not in out:
        return f"not the direct path: {out.strip()!r}"
    outdir = Path(check["out"])
    report = dict(
        ln.split("=", 1) for ln in (outdir / "report.txt").read_text(encoding="utf-8").splitlines()
    )
    if report.get("converged") != "true":
        return "report says converged=false"
    for key in ("el_defect_1", "el_defect_2"):
        val = float(report[key])
        if not val <= check["defect_max"]:
            return f"{key}={val} above {check['defect_max']}"
    if not math.isfinite(float(report["J"])):
        return "J is not finite"
    rows = _csv_rows(outdir / "trajectory.csv")
    if len(rows) != check["n"]:
        return f"trajectory has {len(rows)} rows, expected {check['n']}"
    t0, y0 = (float(c) for c in rows[0].split(","))
    t1, y1 = (float(c) for c in rows[-1].split(","))
    if t0 != check["t_first"] or t1 != check["t_last"]:
        return "trajectory points do not span the scale"
    if y0 != check["y_a"]:
        return f"y(a)={y0!r}, fixed at {check['y_a']!r}"
    if check["y_b"] is not None and y1 != check["y_b"]:
        return f"y(b)={y1!r}, fixed at {check['y_b']!r}"
    return None


def check_trajectory(check: dict, rc, out: str) -> str | None:
    """eval: printed J values match the benchmark's weighted sums; residual
    el1/el2: a finite summary and a CSV on the expected domain; nbc: one
    finite row at the free endpoint b."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if not lines:
        return "no output"
    form = check["form"]
    got = _fields(lines[-1])
    if form == "eval":
        for key in ("J_delta", "J_nabla", "J"):
            if key not in got:
                return f"{key} missing from {lines[-1]!r}"
            err = _rel_err(float(got[key]), check[key])
            if not err <= check["rtol"]:
                return f"{key}={got[key]} vs {check[key]!r} (rel err {err:.2e})"
        return None
    if got.get("form") != form:
        return f"unexpected summary {lines[-1]!r}"
    for key in ("defect", "mean"):
        if key not in got or not math.isfinite(float(got[key])):
            return f"{key} missing or not finite"
    if form == "nbc":
        rows = [ln for ln in lines[1:-1] if ln.strip()]
        if len(rows) != 1:
            return f"{len(rows)} nbc rows, expected 1"
        t, val = (float(c) for c in rows[0].split(","))
        if t != check["t_b"] or not math.isfinite(val):
            return f"bad nbc row {rows[0]!r}"
        return None
    rows = _csv_rows(Path(check["out"]) / "residual.csv")
    if len(rows) != check["rows"]:
        return f"residual has {len(rows)} rows, expected {check['rows']}"
    if float(rows[0].split(",")[0]) != check["t_first"] or float(rows[-1].split(",")[0]) != check["t_last"]:
        return "residual rows do not cover the expected domain"
    return None


ORACLES = {
    "verify": check_verify,
    "solve": check_solve,
    "eval": check_trajectory,
    "el1": check_trajectory,
    "el2": check_trajectory,
    "nbc": check_trajectory,
}


def check_op(op: dict, rc, out: str) -> str | None:
    try:
        return ORACLES[op["kind"]](op["check"], rc, out)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return f"unreadable result: {type(err).__name__}: {err}"
