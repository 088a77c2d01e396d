"""Seeded input generators for the three benchmark workloads.

``generate`` returns a list of ops that the worker runs in order, wrapping
around, until the timed phase is over.  A phase always ends on a round
boundary (every ``round_len`` ops), so each run measures whole rounds.  An
op is one ``tsvar.cli.main`` call (``argv``) plus the facts its oracle needs
(``check``) and a ``meta`` record of the generated input.  The same seed
always gives the same ops and the same input files.

The structure of a round is fixed and the seed draws the numbers.  A round
holds one op per size stratum, and the scale kind, integrand family, endpoint
kind and residual form of each op follow a fixed balanced design; the seed
jitters each size inside its stratum and draws (trajectory_check) or jitters
(solve_direct) the coefficients, spans and boundary values, and draws the
gaps and trajectories.  That keeps the mix of cheap and expensive ops the
same from seed to seed, so run-to-run spread reflects the program, not the
luck of the draw.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "solve_direct", "trajectory_check")

# verify: every pass runs the cases at solver seed 0, the CLI's default, so
# every pass does the same solver work; --seed sets the case order of each
# pass.  The cost of iso_M4 varies threefold with the solver seed, so passes
# at different solver seeds would make the spread between runs a matter of
# which solver seeds were drawn.
VERIFY_SOLVER_SEED = 0
VERIFY_PASSES = 64

# solve_direct: nine size strata, geometric from 10 to 150 points.
SOLVE_SIZES = tuple(int(round(10 * 15 ** (i / 8))) for i in range(9))
SOLVE_MULTISTARTS = 2
# The default grad_tol (1e-9, absolute) is out of reach on many of these
# problems: BFGS stalls with the gradient between 1e-8 and 3e-7, where J no
# longer changes in double precision, and the solve exits 2.  The problem
# files therefore set a tolerance that descent reaches.
SOLVE_GRAD_TOL = "0.000001"
# el_defect bound for a converged direct solve
SOLVE_DEFECT_MAX = 1e-5
# Iteration counts, and so solve times, react strongly to the coefficients
# and boundary values; slot values are fixed and the seed moves them by this
# relative amount, so that seeds do not reshuffle which ops are expensive.
SOLVE_DESIGN_SEED = 20111
SOLVE_JITTER = 0.02

# trajectory_check: seven size strata, geometric from 2*10^4 to 2*10^5 points.
# A short round gives many rounds per run, so the tail (11th largest time)
# falls inside the run's cluster of largest-op times, not at its edge.
TRAJ_SIZES = tuple(int(round(20000 * 10 ** (i / 6))) for i in range(7))
# (form, scale kind) per stratum, smallest first: every form at two sizes
# (el2 once), no pair twice, and op costs spaced so that the median op
# (eval at about 9*10^4 points) has no near neighbour in cost.
TRAJ_DESIGN = (
    ("el2", "uniform"),
    ("eval", "hz"),
    ("nbc", "qscale"),
    ("el1", "hz"),
    ("eval", "qscale"),
    ("nbc", "uniform"),
    ("el1", "qscale"),
)
# relative tolerance between printed J values (12 significant digits) and
# the benchmark's own weighted sums
TRAJ_RTOL = 1e-9


def _dec(x: float, digits: int = 4) -> str:
    """Plain decimal literal (the expression language has no exponents)."""
    return f"{x:.{digits}f}"


# ---------------------------------------------------------------------------
# Scales: the literal for the problem file and the exact points tsvar builds
# from it (same numpy calls, so the floats match bit for bit).


def _scale(kind: str, n: int, span: float, rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """``span`` is the length of [a, b], or b/a - 1 for a q-scale (a = 1)."""
    span = float(np.round(span, 3))
    if kind == "uniform":
        return f"uniform 0 {span!r} {n}", np.linspace(0.0, span, n)
    if kind == "hz":
        h = span / (n - 1)
        b = h * (n - 1)
        m = round(b / h)
        return f"hz 0 {b!r} {h!r}", np.linspace(0.0, b, m + 1)
    if kind == "qscale":
        q = float(np.round((1.0 + span) ** (1.0 / (n - 1)), 12))
        return f"qscale {q!r} 0 {n - 1}", np.power(q, np.arange(0, n))
    if kind == "explicit":
        gaps = rng.uniform(0.3, 1.7, size=n - 1) * span / (n - 1)
        pts = np.round(np.concatenate([[0.0], np.cumsum(gaps)]), 12)
        body = ", ".join(repr(float(p)) for p in pts)
        return f"explicit [{body}]", pts
    raise ValueError(f"unknown scale kind {kind!r}")


def _problem_text(scale: str, delta: str, nabla: str, a: str, b: str, solver: str = "") -> str:
    return (
        f"[timescale]\ntimescale = {scale}\n\n"
        f"[lagrangian]\ndelta = {delta}\nnabla = {nabla}\n\n"
        f"[boundary]\na = {a}\nb = {b}\n" + solver
    )


# ---------------------------------------------------------------------------
# verify


def _verify_ops(seed: int, root: Path) -> list[dict]:
    manifest = json.loads((root / "src/tsvar/problems/manifest.json").read_text(encoding="utf-8"))
    cases = [(c["id"], len(c["checks"])) for c in manifest["cases"]]
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(VERIFY_PASSES):
        for i in rng.permutation(len(cases)):
            cid, nchecks = cases[i]
            ops.append(
                dict(
                    kind="verify",
                    argv=["verify", "--case", cid, "--seed", str(VERIFY_SOLVER_SEED)],
                    check=dict(rows=nchecks),
                    meta=dict(case=cid, solver_seed=VERIFY_SOLVER_SEED, pass_index=k),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# solve_direct: unconstrained, state-dependent integrands bounded below, so
# the CLI takes the multistart BFGS path.


SOLVE_FAMILIES = ("quad", "sin", "exp")
SCALE_KINDS = ("uniform", "hz", "qscale", "explicit")


def _solve_integrand(family: str, c: float) -> str:
    if family == "quad":
        return f"v^2 + {_dec(0.2 + 1.3 * c)}*y^2"
    if family == "sin":
        return "v^2 + sin(y)^2"
    return f"exp({_dec(0.3 + 0.5 * c)}*v) + y^2"


def _near(base: float, rel: float, rng: np.random.Generator) -> float:
    return base * rng.uniform(1.0 - rel, 1.0 + rel)


def _solve_round(seed: int, workdir: Path) -> list[dict]:
    # design values per slot come from a fixed stream; the seed jitters them
    design = np.random.default_rng(SOLVE_DESIGN_SEED)
    rng = np.random.default_rng(seed)
    ops = []
    for i, base_n in enumerate(SOLVE_SIZES):
        # every kind with both endpoint kinds; the nine family pairs once each
        kind = SCALE_KINDS[i % 4]
        free = (i // 4) % 2 == 1
        fam_d, fam_n = SOLVE_FAMILIES[i % 3], SOLVE_FAMILIES[(i // 3) % 3]
        cd, cn, span, ya, yb = design.uniform([0, 0, 1, 0.5, -1], [1, 1, 2, 1.5, 1])
        n = int(round(_near(base_n, SOLVE_JITTER, rng)))
        scale, pts = _scale(kind, n, _near(span, SOLVE_JITTER, rng), rng)
        delta = _solve_integrand(fam_d, _near(cd, SOLVE_JITTER, rng))
        nabla = _solve_integrand(fam_n, _near(cn, SOLVE_JITTER, rng))
        ya = float(np.round(_near(ya, SOLVE_JITTER, rng), 3))
        yb = None if free else float(np.round(_near(yb, SOLVE_JITTER, rng), 3))
        text = _problem_text(
            scale,
            delta,
            nabla,
            f"fixed:{ya!r}",
            "free" if yb is None else f"fixed:{yb!r}",
            f"\n[solver]\nmultistarts = {SOLVE_MULTISTARTS}\ngrad_tol = {SOLVE_GRAD_TOL}\n",
        )
        prob = workdir / f"solve_{i}.problem"
        prob.write_text(text, encoding="utf-8")
        out = workdir / f"solve_{i}.out"
        ops.append(
            dict(
                kind="solve",
                argv=["solve", "--problem", str(prob), "--out", str(out)],
                check=dict(
                    out=str(out),
                    n=n,
                    t_first=float(pts[0]),
                    t_last=float(pts[-1]),
                    y_a=ya,
                    y_b=yb,
                    defect_max=SOLVE_DEFECT_MAX,
                ),
                meta=dict(n=n, scale=kind, delta=delta, nabla=nabla,
                          families=[fam_d, fam_n], endpoint="free" if free else "fixed"),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# trajectory_check: transcendental integrands on large scales with a free
# right endpoint; the benchmark writes the trajectory and computes the
# expected functional values itself.

_TRAJ_FAMILIES = (
    ("sin(y)^2 + {c}*v^2", lambda t, y, v, c: np.sin(y) ** 2 + c * v**2),
    ("exp({c}*v) + cos(t)*y^2", lambda t, y, v, c: np.exp(c * v) + np.cos(t) * y**2),
    ("ln(1 + y^2) + sqrt(1 + {c}*v^2)", lambda t, y, v, c: np.log(1 + y**2) + np.sqrt(1 + c * v**2)),
    ("t*v^2 + {c}*sin(y)", lambda t, y, v, c: t * v**2 + c * np.sin(y)),
)


def _integrand(family: int, rng: np.random.Generator):
    text, fn = _TRAJ_FAMILIES[family]
    c = float(_dec(rng.uniform(0.1, 0.5)))
    return text.format(c=_dec(c)), (lambda t, y, v: fn(t, y, v, c))


def _write_trajectory(path: Path, pts: np.ndarray, ys: np.ndarray) -> int:
    lines = ["t,value"] + [f"{t!r},{y!r}" for t, y in zip(pts.tolist(), ys.tolist())]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _traj_round(seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, base_n in enumerate(TRAJ_SIZES):
        form, kind = TRAJ_DESIGN[i]
        n = int(round(base_n * rng.uniform(0.98, 1.02)))
        scale, pts = _scale(kind, n, rng.uniform(1.0, 2.0), rng)
        delta, fd = _integrand(i % 4, rng)
        nabla, fn = _integrand((i + 1 + i // 4) % 4, rng)
        s = (pts - pts[0]) / (pts[-1] - pts[0])
        amp, freq, phase, slope = rng.uniform(0.3, 1.0), rng.uniform(0.5, 3.0), rng.uniform(0, 6.28), rng.uniform(-1, 1)
        ys = np.round(amp * np.sin(6.283185307179586 * freq * s + phase) + slope * s, 12)
        ya = float(ys[0])
        prob = workdir / f"traj_{i}.problem"
        prob.write_text(_problem_text(scale, delta, nabla, f"fixed:{ya!r}", "free"), encoding="utf-8")
        traj = workdir / f"traj_{i}.csv"
        nbytes = _write_trajectory(traj, pts, ys)

        argv = ["eval" if form == "eval" else "residual", "--problem", str(prob), "--trajectory", str(traj)]
        check: dict = dict(form=form, n=n)
        if form == "eval":
            gaps = np.diff(pts)
            dq = np.diff(ys) / gaps
            jd = float(np.dot(gaps, fd(pts[:-1], ys[1:], dq)))
            jn = float(np.dot(gaps, fn(pts[1:], ys[:-1], dq)))
            check.update(J_delta=jd, J_nabla=jn, J=jd * jn, rtol=TRAJ_RTOL)
        elif form in ("el1", "el2"):
            out = workdir / f"traj_{i}.out"
            argv += ["--form", form, "--out", str(out)]
            lo, hi = (1, n - 1) if form == "el1" else (0, n - 2)
            check.update(out=str(out), rows=n - 1, t_first=float(pts[lo]), t_last=float(pts[hi]))
        else:
            argv += ["--form", "nbc"]
            check.update(t_b=float(pts[-1]))
        ops.append(
            dict(
                kind=form,
                argv=argv,
                check=check,
                meta=dict(n=n, scale=kind, delta=delta, nabla=nabla, endpoint="free",
                          form=form, csv_bytes=nbytes),
            )
        )
    return ops


# Fewest rounds in a timed phase.  The tail metric is the 11th largest op
# time; with R whole rounds it falls on the ceil(11/R)-th most expensive op
# of a round, which is the most expensive one for every R >= 11.  A slow
# phase runs longer instead of changing which op sets the tail.
MIN_ROUNDS = 11


def generate(workload: str, seed: int, root: Path, workdir: Path) -> tuple[list[dict], int]:
    """Write the inputs into ``workdir``; return the ops and the round length.

    A verify round is one pass over the manifest cases; the op list holds
    VERIFY_PASSES passes.  The other workloads' op list is a single round.
    """
    if workload == "verify":
        ops = _verify_ops(seed, root)
        return ops, len(ops) // VERIFY_PASSES
    if workload == "solve_direct":
        ops = _solve_round(seed, workdir)
    elif workload == "trajectory_check":
        ops = _traj_round(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops, len(ops)
