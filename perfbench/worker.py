"""Fresh worker process: import tsvar, then run the closed loop.

Run by ``run.py``; not meant to be started by hand.

    worker.py --root DIR --probe
        import tsvar and print {"setup_s": ...}; nothing else
    worker.py --root DIR --ops OPS.json --seconds S --trace 0|1 --result OUT.json [--spans SPANS.csv]
        run the ops of OPS.json, one ``tsvar.cli.main`` call at a time

Nothing outside the standard library is imported before the set-up clock
starts, so ``setup_s`` includes numpy's import, as a user pays it.  The
tracer module is only imported, and its wrappers only installed, when
``--trace 1`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# a phase may overrun its deadline to finish a round, but never by this much
_MAX_OVERRUN_S = 60.0


def import_tsvar(root: Path) -> tuple[dict, float]:
    """Import tsvar from ``root/src``; return its modules and the set-up time."""
    src = (root / "src").resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import tsvar
    import tsvar.cli

    setup_s = time.perf_counter() - t0
    if Path(tsvar.__file__).resolve().parent.parent != src:
        raise ImportError(f"tsvar imported from {tsvar.__file__}, not from {src}")
    from tsvar import calculus, cli, expr, solver, timescale, variational

    modules = dict(expr=expr, timescale=timescale, calculus=calculus,
                   variational=variational, solver=solver, cli=cli)
    return modules, setup_s


def run_phase(modules: dict, ops: list, round_len: int, seconds: float, check_op,
              tracer=None, min_rounds: int = 1) -> dict:
    """Closed loop, one client: call, wait, check, repeat; stop on the first
    round boundary after ``seconds`` of wall time and ``min_rounds`` rounds."""
    cli = modules["cli"]
    durations, failures = [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i and i % round_len == 0 and elapsed >= seconds and i >= min_rounds * round_len:
            break
        if elapsed >= seconds + _MAX_OVERRUN_S:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t1 = time.perf_counter()
            try:
                rc = cli.main(list(op["argv"]))  # looked up per call: the tracer may wrap it
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashed op is a failed op, the loop goes on
                rc = f"raised {type(exc).__name__}: {exc}"
            t2 = time.perf_counter()
        durations.append(t2 - t1)
        reason = rc if isinstance(rc, str) else check_op(op, rc, out.getvalue())
        if reason is not None:
            failures.append([i, reason, err.getvalue()[-500:]])
        i += 1
    return dict(durations=durations, failures=failures, wall_s=time.perf_counter() - start)


def _blas_info() -> dict:
    import numpy as np

    info = dict(numpy=np.__version__)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas=blas.get("name"), blas_version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        info.update(blas="unknown")
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--ops", type=Path)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    modules, setup_s = import_tsvar(args.root)
    if args.probe:
        print(json.dumps(dict(setup_s=setup_s)))
        return 0

    sys.path.insert(0, str(_HERE))
    from oracles import check_op

    spec = json.loads(args.ops.read_text(encoding="utf-8"))
    ops, round_len, min_rounds = spec["ops"], spec["round_len"], spec["min_rounds"]
    phases = []
    trace = None
    if args.trace:
        from tracer import Tracer

        # untraced and traced halves over the same ops, for the overhead ratio
        half = args.seconds / 2
        phases.append(dict(traced=False, **run_phase(modules, ops, round_len, half, check_op)))
        tracer = Tracer(modules)
        tracer.install()
        try:
            phases.append(dict(traced=True, **run_phase(modules, ops, round_len, half, check_op, tracer)))
        finally:
            tracer.uninstall()
        trace = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        phases.append(dict(traced=False, **run_phase(modules, ops, round_len, args.seconds,
                                                     check_op, min_rounds=min_rounds)))

    result = dict(
        setup_s=setup_s,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        phases=phases,
        trace=trace,
        python=sys.version.split()[0],
        **_blas_info(),
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
