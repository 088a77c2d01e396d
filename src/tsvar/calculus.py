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

import contextlib
import functools
import itertools
import os
import stat
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


_NUM = "%.17g"
_ROW = f"{_NUM},{_NUM}\n"
_BLOCK_ROWS = 1 << 14  # rows formatted and written at a time
_MIN_VECTOR_ROWS = 256  # ``%`` is about as fast below (crossover measured at 128-256)
_J0, _J1 = -240, 270  # 10^j for the decades of (1e-250, 1e250), with margin
_TIE = 2.0**-20  # a fraction within this of 1/2 is a possible tie, rounded by ``%``
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _split(a):
    """(high, low) with high + low == a exactly, each of at most 26 bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10(j: int) -> tuple[float, float]:
    """10^j = hi + lo with hi = fl(10^j) and lo = fl(10^j - hi), from exact
    integers: int / int is correctly rounded."""
    if j >= 0:
        hi = float(10**j)
        return hi, float(10**j - int(hi))
    den = 10**-j
    hi = 1 / den
    num, two = hi.as_integer_ratio()
    return hi, (two - num * den) / (den * two)


def _packed(texts, dtype) -> np.ndarray:
    """ASCII texts, each NUL-padded to one element of ``dtype``."""
    width = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(s.encode().ljust(width, b"\0") for s in texts), dtype)


@functools.cache
def _tables():
    """The lookup tables of ``_format_numbers``, built on first use from
    exact integers and strings.

    - By i = j - _J0: 10^j = hi + lo as a double-double, with hi split for
      Dekker's product; for the decade k = 16 - j, the count of digits
      before the point and the least count of digits printed (integer
      zeros stay); the text after the digits (the exponent in scientific
      notation).
    - By 2 * i + sign: the text before the digits (the sign, and in fixed
      notation below 1 "0." and zeros).
    - By a 3-digit group g: the count of its digits up to its last nonzero
      one.  By g + 1000 * (dot + 4 * kept): the first ``kept`` digits of g,
      with a point after digit ``dot`` (0: none), as 4 bytes.
    - By 18 * printed + point: the offsets into the latter for the six
      groups of D's 18 digits (a leading 0, then the 17) that print
      ``printed`` digits, ``point`` of them before the point.

    Texts are NUL-padded ASCII, 8 bytes each but the 4-byte groups.
    """
    hi, lo = np.array([_pow10(j) for j in range(_J0, _J1 + 1)]).T.copy()
    ks = 16 - np.arange(_J0, _J1 + 1)
    fixed = (ks >= -4) & (ks <= 16)
    point = np.where(fixed, np.where(ks < 0, 17, ks + 1), 1)
    least = np.where(fixed & (ks >= 0), ks + 1, 0)
    affix = _packed([f"{sign}0.{'0' * (-k - 1)}" if -4 <= k < 0 else sign
                     for k in ks.tolist() for sign in ("", "-")], np.uint64)
    exponent = _packed([f"e{k:+03d}" if not -4 <= k <= 16 else "" for k in ks.tolist()],
                       np.uint64)
    three = [f"{g:03d}" for g in range(1000)]
    last = np.array([len(s.rstrip("0")) for s in three])
    groups = _packed([s[:dot] + "." + s[dot:kept] if dot else s[:kept]
                      for kept in range(4) for dot in range(4) for s in three], np.uint32)
    printed, before = np.divmod(np.arange(18 * 18)[:, None], 18)
    c = np.arange(6)
    kept = np.clip(printed + 1 - 3 * c, 0, 3)
    dot = np.where((printed > before) & (before // 3 == c), before % 3 + 1, 0)
    offsets = 1000 * (dot + 4 * kept)
    return (hi, *_split(hi), lo), point, least, exponent, affix, last, groups, offsets


def _scaled(ax, i):
    """(D, off): |x| * 10^j = D + off for j = i + _J0, with D an integer and
    -1/2 <= off < 1/2, from an exact Dekker (1971) two-product against hi
    plus the product with lo; off is accurate to far below _TIE while the
    value is in [2^53, 2^63).  Below 2^53, D is only known to be below
    10^16."""
    hi, hi_h, hi_l, lo = (a[i] for a in _tables()[0])
    p = ax * hi
    ah, al = _split(ax)
    r = (((ah * hi_h - p) + ah * hi_l + al * hi_h) + al * hi_l) + ax * lo
    near = np.floor(r + 0.5)
    return p.astype(np.int64) + near.astype(np.int64), r - near


def _format_numbers(x) -> np.ndarray:
    """``_NUM % x`` for every element of the float array x, as the rows of a
    NUL-padded uint8 matrix with a NUL last column, for a separator.

    The 17 significant digits are D = round(|x| * 10^(16 - k)) in
    [10^16, 10^17), k the decade after rounding, laid out by the ``%g``
    rule: fixed notation for -4 <= k < 17 with the fraction's trailing
    zeros stripped, scientific otherwise with an exponent of at least 2
    digits.  Possible ties, nonzero |x| <= 1e-250 (subnormals among them)
    or >= 1e250, and non-finite values are formatted by ``%`` one at a time.
    """
    _, point, least, exponent, affix, last, groups, offsets = _tables()
    n = x.size
    ax = np.abs(x)
    zero = ax == 0.0
    slow = ~((ax > 1e-250) & (ax < 1e250) | zero)  # NaN compares False
    ax = np.where(slow | zero, 1.0, ax)
    i = (16 - _J0) - np.floor(np.log10(ax)).astype(np.int64)  # index of j = 16 - k
    D, off = _scaled(ax, i)
    # log10 may miss the decade, where |x| * 10^(16 - k) is in [10^16, 10^17),
    # by one.  Where D + off is so near 10^16 that the sign of off is in
    # doubt, either decade gives D = 10^16 at k once the carry is taken.
    low = (D < 10**16) | ((D == 10**16) & (off < 0))
    out = np.flatnonzero(low | (D >= 10**17))
    if out.size:
        i[out] += np.where(low[out], 1, -1)
        D[out], off[out] = _scaled(ax[out], i[out])
    carry = D == 10**17  # rounding to 17 digits carried into the next decade
    D[carry] = 10**16
    i[carry] -= 1
    slow |= (0.5 - np.abs(off) < _TIE) | (D < 10**16) | (D >= 10**17)
    D[slow] = 10**16

    # D as 18 digits, a leading 0 then the 17, in six 3-digit groups
    hi9 = (D // 10**9).astype(np.int32)
    lo9 = (D - hi9.astype(np.int64) * 10**9).astype(np.int32)
    g = np.empty((n, 6), np.int32)
    for c, part in ((0, hi9), (3, lo9)):
        g[:, c] = part // 10**6
        g[:, c + 1] = part // 1000 - 1000 * g[:, c]
        g[:, c + 2] = part - 1000 * (part // 1000)
    c_last = 5 - np.argmax(g[:, ::-1] != 0, axis=1)
    sig = 3 * c_last + last[g[np.arange(n), c_last]] - 1  # digits up to the last nonzero
    printed = np.maximum(sig, least[i])

    rows = np.empty((n, 5), np.uint64)  # sign and prefix, 6 digit groups, exponent
    rows[:, 0] = affix[2 * i + np.signbit(x)]
    digits = np.take(groups, g + np.take(offsets, 18 * printed + point[i], axis=0))
    rows[:, 1:4] = digits.view(np.uint64)
    rows[:, 4] = exponent[i]
    text = rows.view(np.uint8)
    text[:, 8] = 0  # the leading 0 of D
    text[zero, 9] = ord("0")
    for m in np.flatnonzero(slow).tolist():
        s = (_NUM % x[m]).encode()
        text[m, :-1] = 0
        text[m, : len(s)] = np.frombuffer(s, np.uint8)
    return text


def _write_rows(fh, header: str, t, v) -> None:
    """Write ``header`` and one ``t,v`` row per point to the text handle fh,
    byte for byte as ``_ROW % (t, v)`` per row would.

    This is the one CSV writer (``write_csv`` and the CLI's residual and
    trajectory files).  Rows go out in blocks of at most _BLOCK_ROWS, each
    written as soon as it is formatted, so memory stays flat.  A block of at
    least _MIN_VECTOR_ROWS rows is formatted by ``_format_numbers`` and its
    NUL padding deleted in one pass; a smaller one by one ``%`` over a
    repeated row template, the same template that formats the values
    ``_format_numbers`` leaves to ``%``.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    fh.write(header + "\n")
    for lo in range(0, t.size, _BLOCK_ROWS):
        block = np.column_stack((t[lo : lo + _BLOCK_ROWS], v[lo : lo + _BLOCK_ROWS])).ravel()
        if block.size < 2 * _MIN_VECTOR_ROWS:
            fh.write((_ROW * (block.size // 2)) % tuple(block.tolist()))
            continue
        text = _format_numbers(block)
        text[0::2, -1] = ord(",")
        text[1::2, -1] = ord("\n")
        fh.write(text.tobytes().translate(None, b"\0").decode("ascii"))


def _is_path(x) -> bool:
    return isinstance(x, (str, bytes)) or hasattr(x, "__fspath__")


def write_csv(f: GridFunction, target) -> None:
    """Write the header ``t,value`` and then one ``t,value`` row per point.

    ``target`` is a path or an open text handle.  Every number is written
    as ``"%.17g" % value`` would write it, byte for byte, so ``read_csv``
    gets back the same bits.  Large files are formatted in vectorised
    blocks; the rare values those cannot settle exactly (possible rounding
    ties, nonzero magnitudes outside (1e-250, 1e250), non-finite values)
    go through ``%`` one at a time (see ``_write_rows``).
    """
    fh = open(target, "w", encoding="utf-8") if _is_path(target) else target
    try:
        _write_rows(fh, "t,value", f.t, f.values)
    finally:
        if fh is not target:
            fh.close()


def _loadtxt(body, skiprows: int = 0) -> np.ndarray:
    """Rows of comma-separated cells from a path (a ``str``) or an iterable
    of lines, by numpy's tokenizer and correctly rounded float conversion."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(body, skiprows=skiprows, encoding="utf-8", dtype=float,
                          delimiter=",", comments=None, ndmin=2)


# suffixes whose files numpy's DataSource opens through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _reopenable(source, fh) -> str | None:
    """The absolute path of ``source`` if numpy may open it again by name
    and read what fh reads: a regular file (not a pipe, which cannot be
    read twice) without a compression suffix."""
    path = os.path.abspath(os.fsdecode(source))
    if path.endswith(_COMPRESSED) or not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return None
    return path


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

    Both readers are ``np.loadtxt``.  A path to a regular file is checked
    for its header on an open handle, and then its body is parsed by
    numpy's chunked C reader, which runs only when handed a ``str`` path.
    That reader rejects whitespace-only lines, so if it raises, the body is
    read again from the still-open handle, line by line with blank and
    whitespace-only lines filtered out; every error comes from this
    fallback.  Open handles, pipes and names ending in a compression suffix
    go to the filtered read directly.  numpy only ever sees an absolute
    local path: its DataSource would fetch a relative ``scheme://...`` path
    as a URL.
    """
    fh = open(source, "r", encoding="utf-8") if _is_path(source) else source
    try:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "value"]:
            raise ValueError("expected CSV header 't,value'")
        rows = None
        if fh is not source and (path := _reopenable(source, fh)):
            with contextlib.suppress(ValueError, OSError):  # the line filter decides
                rows = _loadtxt(path, skiprows=1)
        if rows is None:
            rows = _loadtxt(itertools.filterfalse(str.isspace, fh))
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
