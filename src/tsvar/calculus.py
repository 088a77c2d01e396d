"""Forward/backward difference calculus for functions on a finite time scale.

On a finite scale every interior point is isolated, so the two derivatives
reduce to exact difference quotients,

    delta:  f'(t_i) = (f(t_{i+1}) - f(t_i)) / mu(t_i)       (all i < N-1)
    nabla:  f'(t_i) = (f(t_i) - f(t_{i-1})) / nu(t_i)       (all i > 0)

and the two integrals to exact weighted sums,

    delta:  sum of mu(t)*f(t) over points in [a, b)
    nabla:  sum of nu(t)*f(t) over points in (a, b].

Grid functions carry an index-range domain so partial definedness (for
example "defined only off the maximum point") is explicit and checkable.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .timescale import TimeScale, TimeScaleError

__all__ = [
    "GridFunction",
    "DomainMismatchError",
    "from_callable",
    "delta_derivative",
    "nabla_derivative",
    "second_delta",
    "second_nabla",
    "shift_sigma",
    "shift_rho",
    "delta_integral",
    "nabla_integral",
    "cumulative_delta",
    "cumulative_nabla",
    "write_csv",
    "read_csv",
]


class DomainMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class GridFunction:
    """Real values attached to (a contiguous index range of) a time scale."""

    scale: TimeScale
    values: np.ndarray
    domain: range = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.domain is None:
            object.__setattr__(self, "domain", range(0, len(self.scale)))
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        d = self.domain
        if d.step != 1 or d.start < 0 or d.stop > len(self.scale):
            raise DomainMismatchError(f"domain {d} is not an index range of the scale")
        if vals.ndim != 1 or vals.size != len(d):
            raise DomainMismatchError(
                f"got {vals.size} values for a domain of {len(d)} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def t(self) -> np.ndarray:
        """The points of the domain."""
        return self.scale.points[self.domain.start : self.domain.stop]

    def is_full(self) -> bool:
        return self.domain.start == 0 and self.domain.stop == len(self.scale)

    def value_at(self, t: float) -> float:
        i = self.scale.index_of(t)
        if i not in self.domain:
            raise DomainMismatchError(f"{t!r} is outside the function's domain")
        return float(self.values[i - self.domain.start])

    def restricted(self, domain: range) -> "GridFunction":
        if domain.start < self.domain.start or domain.stop > self.domain.stop:
            raise DomainMismatchError(f"{domain} is not contained in {self.domain}")
        lo = domain.start - self.domain.start
        return GridFunction(self.scale, self.values[lo : lo + len(domain)], domain)


def from_callable(ts: TimeScale, fn) -> GridFunction:
    """Sample a python callable on every point of the scale."""
    return GridFunction(ts, np.asarray([fn(t) for t in ts.points], dtype=float))


def _require_full(f: GridFunction, op: str):
    if not f.is_full():
        raise DomainMismatchError(f"{op} needs a function defined on the full scale")


def delta_derivative(f: GridFunction) -> GridFunction:
    """Forward difference quotient; defined off the maximum point."""
    d = f.domain
    if len(d) < 2:
        raise DomainMismatchError("need at least two points to differentiate")
    pts = f.scale.points[d.start : d.stop]
    quot = np.diff(f.values) / np.diff(pts)
    return GridFunction(f.scale, quot, range(d.start, d.stop - 1))


def nabla_derivative(f: GridFunction) -> GridFunction:
    """Backward difference quotient; defined off the minimum point."""
    d = f.domain
    if len(d) < 2:
        raise DomainMismatchError("need at least two points to differentiate")
    pts = f.scale.points[d.start : d.stop]
    quot = np.diff(f.values) / np.diff(pts)
    return GridFunction(f.scale, quot, range(d.start + 1, d.stop))


def second_delta(f: GridFunction) -> GridFunction:
    _require_full(f, "second_delta")
    return delta_derivative(delta_derivative(f))


def second_nabla(f: GridFunction) -> GridFunction:
    _require_full(f, "second_nabla")
    return nabla_derivative(nabla_derivative(f))


def shift_sigma(f: GridFunction) -> GridFunction:
    """f composed with the forward jump; clamps at the maximum."""
    _require_full(f, "shift_sigma")
    idx = np.minimum(np.arange(len(f.scale)) + 1, len(f.scale) - 1)
    return GridFunction(f.scale, f.values[idx])


def shift_rho(f: GridFunction) -> GridFunction:
    """f composed with the backward jump; clamps at the minimum."""
    _require_full(f, "shift_rho")
    idx = np.maximum(np.arange(len(f.scale)) - 1, 0)
    return GridFunction(f.scale, f.values[idx])


def _span_indices(f: GridFunction, a: float, b: float) -> tuple[int, int, float]:
    ia, ib = f.scale.index_of(a), f.scale.index_of(b)
    if ia <= ib:
        return ia, ib, 1.0
    return ib, ia, -1.0


def delta_integral(f: GridFunction, a: float, b: float) -> float:
    """Sum of mu(t)*f(t) over scale points in [a, b); antisymmetric in (a, b)."""
    lo, hi, sign = _span_indices(f, a, b)
    if lo < f.domain.start or hi > f.domain.stop:
        raise DomainMismatchError("integrand not defined on the whole interval")
    w = f.scale.mu_values[lo:hi]
    vals = f.values[lo - f.domain.start : hi - f.domain.start]
    return sign * float(np.dot(w, vals))


def nabla_integral(f: GridFunction, a: float, b: float) -> float:
    """Sum of nu(t)*f(t) over scale points in (a, b]; antisymmetric in (a, b)."""
    lo, hi, sign = _span_indices(f, a, b)
    if lo + 1 < f.domain.start or hi + 1 > f.domain.stop:
        raise DomainMismatchError("integrand not defined on the whole interval")
    w = f.scale.nu_values[lo + 1 : hi + 1]
    vals = f.values[lo + 1 - f.domain.start : hi + 1 - f.domain.start]
    return sign * float(np.dot(w, vals))


def cumulative_delta(f: GridFunction, a: float) -> GridFunction:
    """Running integral F(t) = integral from a to t of f, delta sense.

    Accepts integrands defined everywhere or everywhere but the maximum
    point (whose weight is zero anyway); the result lives on the full scale.
    """
    n = len(f.scale)
    if f.domain.start != 0 or f.domain.stop < n - 1:
        raise DomainMismatchError("cumulative_delta needs values on all of [a, b)")
    vals = f.values if f.is_full() else np.append(f.values, 0.0)
    ia = f.scale.index_of(a)
    prefix = np.concatenate([[0.0], np.cumsum(f.scale.mu_values * vals)])
    return GridFunction(f.scale, prefix[:-1] - prefix[ia])


def cumulative_nabla(f: GridFunction, a: float) -> GridFunction:
    """Running integral F(t) = integral from a to t of f, nabla sense."""
    n = len(f.scale)
    if f.domain.stop != n or f.domain.start > 1:
        raise DomainMismatchError("cumulative_nabla needs values on all of (a, b]")
    vals = f.values if f.is_full() else np.insert(f.values, 0, 0.0)
    ia = f.scale.index_of(a)
    prefix = np.cumsum(f.scale.nu_values * vals)
    return GridFunction(f.scale, prefix - prefix[ia])


_ROW = "%.17g,%.17g\n"
_BLOCK_ROWS = 1024


def _write_rows(fh, header: str, t, v) -> None:
    """Write ``header`` and one ``t,v`` row per point, 17 significant digits.

    Rows are formatted a block at a time by one ``%`` over a repeated row
    template, which gives the same bytes as formatting each row on its own.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    fh.write(header + "\n")
    for lo in range(0, t.size, _BLOCK_ROWS):
        block = np.column_stack((t[lo : lo + _BLOCK_ROWS], v[lo : lo + _BLOCK_ROWS]))
        fh.write((_ROW * len(block)) % tuple(block.ravel().tolist()))


def _is_path(x) -> bool:
    return isinstance(x, (str, bytes)) or hasattr(x, "__fspath__")


def write_csv(f: GridFunction, target) -> None:
    """Write the header ``t,value`` and then one ``t,value`` row per point.

    ``target`` is a path or an open text handle.  Numbers carry 17
    significant digits (``%.17g``), so ``read_csv`` gets back the same bits.
    """
    fh = open(target, "w", encoding="utf-8") if _is_path(target) else target
    try:
        _write_rows(fh, "t,value", f.t, f.values)
    finally:
        if fh is not target:
            fh.close()


def read_csv(source, scale: TimeScale | None = None) -> GridFunction:
    """Read a ``t,value`` CSV from a path or an open text handle.

    The first line is the header; its first two cells must be ``t`` and
    ``value``.  Every later line that is not blank or whitespace-only is a
    row of exactly two comma-separated decimal numbers; spaces and tabs
    around a cell and CRLF line endings are accepted.  Numbers are parsed
    with correct rounding, so a ``write_csv`` file reads back bit for bit;
    Python-only spellings such as ``1_0`` are rejected.  Malformed rows and
    non-finite values raise ``ValueError``; a file without rows, or with
    ``scale`` given and points that differ from it, raises ``TimeScaleError``.
    """
    fh = open(source, "r", encoding="utf-8") if _is_path(source) else source
    try:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "value"]:
            raise ValueError("expected CSV header 't,value'")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(
                itertools.filterfalse(str.isspace, fh),
                dtype=float,
                delimiter=",",
                comments=None,
                ndmin=2,
            )
    finally:
        if fh is not source:
            fh.close()
    if rows.size and rows.shape[1] != 2:
        raise ValueError(f"expected 2 cells per CSV row, found {rows.shape[1]}")
    rows = rows.reshape(-1, 2)  # a body without rows parses as shape (0, 1)
    # two separate buffers: later array work on them touched fewer fresh
    # pages than on views of one shared block
    pts, vals = rows[:, 0].copy(), rows[:, 1].copy()
    if scale is None:
        scale = TimeScale(pts)
    elif not np.array_equal(pts, scale.points):
        raise TimeScaleError("trajectory points do not match the problem's time scale")
    return GridFunction(scale, vals)
