"""tsvar benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload verify|solve_direct|trajectory_check \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: tsvar is imported from ``src/``
of that checkout and nowhere else.  The inputs are generated from ``--seed``
into ``.perfbench_work/``; a fresh worker process imports tsvar and calls
``tsvar.cli.main`` in a closed loop (one client, no think time) for about
``--seconds`` seconds, checking every result.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  A record of
the run (machine header, every generated op, timings, failures) goes to
``.perfbench_out/``, and the spans of a traced run next to it.

See perfbench/README.md for the metrics and what each is expected to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh processes timed for setup_s, after one warm-up
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10  # op_ms_tail: the sample with exactly this many above it

# name -> (unit, better); the order is the order printed
END_TO_END = {
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
_LAYER_SPANS = (
    "expr.parse", "expr.differentiate", "expr.eval_arrays", "timescale.build",
    "calculus.read_csv", "calculus.write_csv", "variational.gradient",
    "variational.eval", "variational.residual",
)
PER_LAYER: dict[str, tuple[str, str]] = {}
for _span in _LAYER_SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count/op", "lower")
    PER_LAYER[f"{_span}.ms"] = ("ms/op", "lower")
    if _span == "expr.eval_arrays":
        PER_LAYER["expr.eval_arrays.points"] = ("count/op", "lower")
    elif _span.startswith("calculus."):
        PER_LAYER[f"{_span}.bytes"] = ("B/op", "lower")
PER_LAYER.update({
    "solver.solve.ms": ("ms/op", "lower"),
    "solver.solve_isoperimetric.ms": ("ms/op", "lower"),
    "solver.consistency_solve.ms": ("ms/op", "lower"),
    "solver.gradient_evals": ("count/op", "lower"),
    "solver.iterations": ("count/op", "lower"),
    "solver.converged_frac": ("fraction", "higher"),
    "cli.main.ms": ("ms/op", "lower"),
    "cli.parse_problem_text.ms": ("ms/op", "lower"),
    "cli.run_verify_cases.ms": ("ms/op", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
})


def tail(xs: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND + 1)-th largest sample, and its percentile rank.  With
    fewer samples than that, the smallest sample (percentile 0)."""
    s = sorted(xs)
    i = max(len(s) - 1 - TAIL_BEYOND, 0)
    return s[i], 100.0 * i / max(len(s) - 1, 1)


def end_to_end_metrics(phase: dict, setup_samples: list[float], peak_rss_kb: int) -> tuple[dict, dict]:
    ms = [1e3 * d for d in phase["durations"]]
    ok = len(ms) - len(phase["failures"])
    tail_ms, p_tail = tail(ms)
    values = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": ok / sum(phase["durations"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    notes = {"op_ms_tail.percentile": p_tail, "samples": len(ms),
             "setup_s.samples": setup_samples}
    return values, notes


def per_layer_metrics(untraced: dict, traced: dict, trace: dict) -> dict:
    nops = len(traced["durations"])
    calls, self_ms, c = trace["calls"], trace["self_ms"], trace["counters"]
    values = {}
    for span in _LAYER_SPANS:
        values[f"{span}.calls"] = calls[span] / nops
        values[f"{span}.ms"] = self_ms[span] / nops
    values["expr.eval_arrays.points"] = c["eval_points"] / nops
    values["calculus.read_csv.bytes"] = c["read_bytes"] / nops
    values["calculus.write_csv.bytes"] = c["write_bytes"] / nops
    for span in ("solver.solve", "solver.solve_isoperimetric", "solver.consistency_solve",
                 "cli.main", "cli.parse_problem_text", "cli.run_verify_cases"):
        values[f"{span}.ms"] = self_ms[span] / nops
    values["solver.gradient_evals"] = c["solver_gradient_evals"] / nops
    values["solver.iterations"] = c["solver_iterations"] / nops
    reports = c["solver_reports"]
    values["solver.converged_frac"] = c["solver_converged"] / reports if reports else 0.0
    rate = {}
    for name, ph in (("untraced", untraced), ("traced", traced)):
        rate[name] = (len(ph["durations"]) - len(ph["failures"])) / sum(ph["durations"])
    values["trace.overhead_frac"] = 1.0 - rate["traced"] / rate["untraced"]
    return values


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "tsvar" / "cli.py").is_file():
        return _fail(f"no tsvar sources under {ROOT / 'src'}; run from a source checkout")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("PYTHONPATH", None)  # tsvar comes from ROOT/src only

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        ops, round_len = workloads.generate(args.workload, args.seed, ROOT, workdir)
        ops_file = workdir / "ops.json"
        ops_file.write_text(
            json.dumps(dict(ops=ops, round_len=round_len, min_rounds=workloads.MIN_ROUNDS)),
            encoding="utf-8",
        )

        setup_samples = []
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                probe = _worker(["--probe"], env, workdir)
                if probe.returncode != 0:
                    return _fail(f"set-up probe failed:\n{probe.stderr[-2000:]}")
                if i:  # the first probe only warms the bytecode and file caches
                    setup_samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])

        result_file = workdir / "result.json"
        wargs = ["--ops", str(ops_file), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--result", str(result_file)]
        if args.trace:
            wargs += ["--spans", str(outdir / f"{tag}-spans.csv")]
        proc = _worker(wargs, env, workdir)
        if proc.returncode != 0:
            return _fail(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        res = json.loads(result_file.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = res["phases"]
    attempted = sum(len(ph["durations"]) for ph in phases)
    failed = sum(len(ph["failures"]) for ph in phases)
    if args.trace:
        values = per_layer_metrics(phases[0], phases[1], res["trace"])
        catalogue, notes = PER_LAYER, {"spans_kept": res["trace"]["spans_kept"],
                                       "spans_dropped": res["trace"]["spans_dropped"]}
    else:
        values, notes = end_to_end_metrics(phases[0], [*setup_samples, res["setup_s"]], res["peak_rss_kb"])
        catalogue = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in catalogue.items()}

    header = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=nproc, python=res["python"], numpy=res["numpy"], blas=res.get("blas"),
        blas_threads={v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        platform=platform.platform(), commit=_git_commit(ROOT), clients=1, loop="closed",
        round_len=round_len, min_rounds=workloads.MIN_ROUNDS,
    )
    record = dict(header=header, ops=[dict(argv=o["argv"], **o["meta"]) for o in ops],
                  phases=phases, trace=res["trace"], notes=notes, metrics=metrics)
    (outdir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for ph in phases:
        for i, reason, _ in ph["failures"][:5]:
            print(f"FAILED op {i} {ops[i % len(ops)]['argv']}: {reason}")
    print(f"{tag}: {attempted} ops attempted, {failed} failed "
          f"(failed_frac={failed / attempted:.6g}); {json.dumps(notes)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
