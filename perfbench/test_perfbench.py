"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

MODULES, _ = worker.import_tsvar(ROOT)


def _call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = MODULES["cli"].main(list(argv))
    return rc, out.getvalue()


def _generate(workload: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.generate(workload, seed, ROOT, workdir)


def _snapshot(ops: list[dict], workdir: Path) -> tuple[str, dict]:
    text = json.dumps(ops, sort_keys=True).replace(str(workdir), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return text, files


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    first = _snapshot(_generate(workload, 7, tmp_path / "a")[0], tmp_path / "a")
    second = _snapshot(_generate(workload, 7, tmp_path / "b")[0], tmp_path / "b")
    assert first == second


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload, tmp_path):
    first = _snapshot(_generate(workload, 7, tmp_path / "a")[0], tmp_path / "a")
    second = _snapshot(_generate(workload, 8, tmp_path / "b")[0], tmp_path / "b")
    assert first != second


def test_rounds_keep_their_design(tmp_path):
    ops, round_len = _generate("solve_direct", 3, tmp_path)
    assert round_len == len(ops) == len(workloads.SOLVE_SIZES)
    assert {(o["meta"]["scale"], o["meta"]["endpoint"]) for o in ops} == {
        (k, e) for k in workloads.SCALE_KINDS for e in ("fixed", "free")
    }
    assert sorted(tuple(o["meta"]["families"]) for o in ops) == sorted(
        (a, b) for a in workloads.SOLVE_FAMILIES for b in workloads.SOLVE_FAMILIES
    )
    ops, round_len = _generate("verify", 3, tmp_path)
    assert round_len == 8 and len({o["meta"]["case"] for o in ops[:round_len]}) == 8


# -- oracles ------------------------------------------------------------------


def test_verify_oracle_flags_corruption():
    op = next(o for o in workloads.generate("verify", 0, ROOT, ROOT)[0] if o["meta"]["case"] == "ex1")
    rc, out = _call(op["argv"])
    assert oracles.check_op(op, rc, out) is None
    assert oracles.check_op(op, 1, out) is not None
    assert oracles.check_op(op, rc, out.replace("PASS", "FAIL", 1)) is not None
    lines = out.splitlines()
    assert oracles.check_op(op, rc, "\n".join(lines[:1] + lines[2:])) is not None


def test_solve_oracle_flags_corruption(tmp_path):
    op = _generate("solve_direct", 0, tmp_path)[0][0]
    rc, out = _call(op["argv"])
    assert oracles.check_op(op, rc, out) is None
    assert oracles.check_op(op, 2, out) is not None

    outdir = Path(op["check"]["out"])
    report = (outdir / "report.txt").read_text()
    traj = (outdir / "trajectory.csv").read_text()

    def corrupted(report_text=report, traj_text=traj):
        (outdir / "report.txt").write_text(report_text)
        (outdir / "trajectory.csv").write_text(traj_text)
        return oracles.check_op(op, rc, out)

    assert corrupted(report_text=report.replace("converged=true", "converged=false")) is not None
    big = "\n".join("el_defect_2=0.5" if ln.startswith("el_defect_2=") else ln for ln in report.splitlines())
    assert corrupted(report_text=big) is not None
    rows = traj.splitlines()
    assert corrupted(traj_text="\n".join(rows[:-1]) + "\n") is not None
    t0 = rows[1].split(",")[0]
    assert corrupted(traj_text="\n".join([rows[0], f"{t0},{op['check']['y_a'] + 1e-9!r}"] + rows[2:])) is not None
    assert corrupted() is None


def test_trajectory_oracles_flag_corruption(tmp_path):
    ops = _generate("trajectory_check", 0, tmp_path)[0]
    by_form = {o["check"]["form"]: o for o in reversed(ops)}  # the smallest of each form

    op = by_form["eval"]
    rc, out = _call(op["argv"])
    assert oracles.check_op(op, rc, out) is None
    jd = oracles._fields(out.splitlines()[-1])["J_delta"]
    assert oracles.check_op(op, rc, out.replace(jd, repr(float(jd) * (1 + 1e-6)))) is not None

    op = by_form["el1"]
    rc, out = _call(op["argv"])
    assert oracles.check_op(op, rc, out) is None
    csv = Path(op["check"]["out"]) / "residual.csv"
    csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
    assert oracles.check_op(op, rc, out) is not None

    op = by_form["nbc"]
    rc, out = _call(op["argv"])
    assert oracles.check_op(op, rc, out) is None
    t_b = out.splitlines()[1].split(",")[0]
    assert oracles.check_op(op, rc, out.replace(t_b + ",", "0.5,")) is not None


# -- tracing ------------------------------------------------------------------


def _originals() -> dict:
    return {key: getattr(MODULES[key[0]], key[1]) for key in tracer.LAYERS}


def test_tracer_counts_outermost_eval_and_restores():
    before = _originals()
    tr = tracer.Tracer(MODULES)
    tr.install()
    try:
        ex = MODULES["expr"]
        assert ex.eval_arrays is not before[("expr", "eval_arrays")]
        import numpy as np

        t = np.linspace(0.0, 1.0, 7)
        ex.eval_arrays(ex.parse("sin(y)^2 + t*v - exp(v)/2"), t, t, t)
    finally:
        tr.uninstall()
    assert _originals() == before
    s = tr.summary()
    assert s["calls"]["expr.eval_arrays"] == 1
    assert s["calls"]["expr.parse"] == 1
    assert s["counters"]["eval_points"] == 7
    assert s["spans_kept"] == 2


def test_traced_run_self_time_and_restore(tmp_path):
    before = _originals()
    ops = [o for o in workloads.generate("verify", 0, ROOT, ROOT)[0][:8]]
    tr = tracer.Tracer(MODULES)
    tr.install()
    try:
        phase = worker.run_phase(MODULES, ops, 8, 0.0, oracles.check_op, tr)
    finally:
        tr.uninstall()
    assert _originals() == before
    assert phase["failures"] == [] and len(phase["durations"]) == 8
    s = tr.summary()
    assert s["calls"]["cli.main"] == 8
    # self times add up to the time spent inside cli.main
    assert sum(s["self_ms"].values()) <= 1e3 * sum(phase["durations"])
    spans = tmp_path / "spans.csv"
    tr.write_spans(spans)
    rows = spans.read_text().splitlines()
    assert rows[1] == "id,op,name,parent,start_s,end_s" and len(rows) == 2 + s["spans_kept"]


def test_untraced_phase_never_wraps():
    before = _originals()
    seen = []

    def check(op, rc, out):
        seen.append(_originals() == before)
        return oracles.check_op(op, rc, out)

    ops = workloads.generate("verify", 0, ROOT, ROOT)[0][:8]
    phase = worker.run_phase(MODULES, ops, 8, 0.0, check)
    assert phase["failures"] == [] and seen == [True] * 8


# -- metrics ------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 101))) == (90, pytest.approx(100 * 89 / 99))
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)
    # whole rounds: the tail stays on the same op while rounds stay in a band
    round_ms = [1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert {run.tail(round_ms * r)[0] for r in range(11, 30)} == {55}
    assert {run.tail(round_ms * r)[0] for r in range(6, 11)} == {34}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalogue_matches_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload,trace", [("trajectory_check", 0), ("verify", 1)])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 7
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
