"""Span recorder for the traced run.

``Tracer.install`` replaces public functions on the tsvar module objects
with wrappers that open a span around each call; ``Tracer.uninstall`` puts
the originals back.  tsvar modules call each other through module attributes
(``ex.eval_arrays``, ``va.functional_gradient``, ...) or module globals, so a
wrapper set on the module is the one every caller sees.

Each span has a name (the layer name below), start, end, parent span and the
index of the op it belongs to.  Spans are kept in memory, up to
``max_spans`` of them, and written out by ``write_spans`` at the end; calls,
self time (span minus its child spans) and the counters are aggregated for
every span, kept or not.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# (module, function) -> layer name.  Several functions may share a layer.
LAYERS = {
    ("expr", "parse"): "expr.parse",
    ("expr", "differentiate"): "expr.differentiate",
    ("expr", "eval_arrays"): "expr.eval_arrays",
    ("timescale", "uniform"): "timescale.build",
    ("timescale", "h_integers"): "timescale.build",
    ("timescale", "q_scale"): "timescale.build",
    ("timescale", "from_points"): "timescale.build",
    ("calculus", "read_csv"): "calculus.read_csv",
    ("calculus", "write_csv"): "calculus.write_csv",
    ("variational", "functional_gradient"): "variational.gradient",
    ("variational", "eval_J_delta"): "variational.eval",
    ("variational", "eval_J_nabla"): "variational.eval",
    ("variational", "el_residual_1"): "variational.residual",
    ("variational", "el_residual_2"): "variational.residual",
    ("variational", "iso_residual"): "variational.residual",
    ("variational", "natural_bc_residual_a"): "variational.residual",
    ("variational", "natural_bc_residual_b"): "variational.residual",
    ("solver", "solve"): "solver.solve",
    ("solver", "solve_isoperimetric"): "solver.solve_isoperimetric",
    ("solver", "consistency_solve"): "solver.consistency_solve",
    ("cli", "main"): "cli.main",
    ("cli", "parse_problem_text"): "cli.parse_problem_text",
    ("cli", "run_verify_cases"): "cli.run_verify_cases",
}
SPAN_NAMES = tuple(dict.fromkeys(LAYERS.values()))
_SOLVERS = ("solver.solve", "solver.solve_isoperimetric", "solver.consistency_solve")


class Tracer:
    def __init__(self, modules: dict, max_spans: int = 200_000):
        self.modules = modules  # short name ('expr', ...) -> module object
        self.max_spans = max_spans
        self.name_id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counters = dict(eval_points=0, read_bytes=0, write_bytes=0,
                             solver_gradient_evals=0, solver_iterations=0,
                             solver_reports=0, solver_converged=0)
        # kept spans, column-wise
        self.sp_name, self.sp_parent, self.sp_op = array("i"), array("i"), array("i")
        self.sp_start, self.sp_end = array("d"), array("d")
        self.dropped = 0
        self.op = -1
        self._stack: list[list] = []  # [name_id, start, child_seconds, span_index]
        self._eval_depth = 0
        self._solver_depth = 0
        self._saved: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, nid: int) -> list:
        idx = -1
        if len(self.sp_name) < self.max_spans:
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(self._stack[-1][3] if self._stack else -1)
            self.sp_op.append(self.op)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
        else:
            self.dropped += 1
        frame = [nid, 0.0, 0.0, idx]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        nid, start, child, idx = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.sp_start[idx] = start
            self.sp_end[idx] = end

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str):
        nid = self.name_id[layer]
        enter, exit_ = self._enter, self._exit

        if layer == "expr.eval_arrays":
            # eval_arrays recurses through its module global, i.e. through
            # this wrapper: only the outermost call is a span.
            def wrapper(e, t, y, v):
                if self._eval_depth:
                    return fn(e, t, y, v)
                self._eval_depth = 1
                self.counters["eval_points"] += max(np.size(t), np.size(y), np.size(v))
                frame = enter(nid)
                try:
                    return fn(e, t, y, v)
                finally:
                    exit_(frame)
                    self._eval_depth = 0

            return wrapper

        if layer in _SOLVERS:

            def wrapper(*args, **kwargs):
                frame = enter(nid)
                self._solver_depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                    self._solver_depth -= 1
                self._observe(layer, args, result)
                return result

            return wrapper

        counted = layer == "variational.gradient"

        def wrapper(*args, **kwargs):
            if counted and self._solver_depth:
                self.counters["solver_gradient_evals"] += 1
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            self._observe(layer, args, result)
            return result

        return wrapper

    def _observe(self, layer: str, args, result) -> None:
        """Counters read off a call's arguments and result, outside its span."""
        c = self.counters
        if layer == "calculus.read_csv":
            src = args[0]
            getvalue = getattr(src, "getvalue", None)
            # the CLI hands over an in-memory copy; the CSV text is ASCII
            c["read_bytes"] += len(getvalue()) if getvalue else _file_size(src)
        elif layer == "calculus.write_csv":
            c["write_bytes"] += _file_size(args[1])
        elif layer in ("solver.solve", "solver.solve_isoperimetric"):
            c["solver_reports"] += 1
            c["solver_iterations"] += int(result.iterations)
            c["solver_converged"] += bool(result.converged)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for (mod_name, attr), layer in LAYERS.items():
            mod = self.modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, layer))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return dict(
            calls={n: self.calls[i] for n, i in self.name_id.items()},
            self_ms={n: 1e3 * self.self_s[i] for n, i in self.name_id.items()},
            counters=dict(self.counters),
            spans_kept=len(self.sp_name),
            spans_dropped=self.dropped,
        )

    def write_spans(self, path) -> None:
        """CSV rows ``id,op,name,parent,start_s,end_s`` (perf_counter seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept={len(self.sp_name)} dropped={self.dropped}\n")
            fh.write("id,op,name,parent,start_s,end_s\n")
            for i in range(len(self.sp_name)):
                fh.write(
                    f"{i},{self.sp_op[i]},{SPAN_NAMES[self.sp_name[i]]},{self.sp_parent[i]},"
                    f"{self.sp_start[i]:.9f},{self.sp_end[i]:.9f}\n"
                )


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
