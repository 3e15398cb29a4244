"""Sample files and result files: the one module that knows their formats.

CSV (``write_csv``: sample files, ``weights.csv``, ``pushforward.csv``,
``surface_*.csv``): a header row, then one row per entry of the 1-D columns,
an integer column as ``%d`` and any other as ``%.17g`` of its float64 value
(a bit-exact round trip), comma separated, LF line endings. Sample files
have the header ``x1,...,xd``; any prefix is accepted when reading. JSON
(``write_json``: ``meta.json``, ``result.json``, ``comparison.json``): keys
sorted, indent 1, a trailing newline, numpy scalars and arrays as their
``tolist()``.

Rows are formatted CSV_BLOCK_ROWS at a time. A block of fewer than
VECTOR_MIN_ROWS rows is formatted by ``%``, row by row. A larger block is
formatted by numpy with no loop over its rows, and with the same bytes:

- A float64 ``x = M 2^k`` (M < 2^53) that is normal and whose decimal
  exponent E lies in [-11, 16] (the window) has the 17 significant digits
  ``N = round-half-even(x 10^s) = round-half-even(M 5^s 2^(k+s))`` for
  ``s = 16 - E`` (Gay 1990, the correctly rounded conversion ``%`` does).
  ``M 5^s < 2^53 5^27 < 2^116`` is formed exactly in two uint64 words from
  32-bit limbs, and the shift by ``k + s`` keeps the floor and the exact
  remainder, so N is rounded exactly. E is taken as ``floor(log10|x|)``,
  which can be one off next to a power of ten; it is right exactly when
  the floor of ``x 10^s`` has 17 digits, and N then has 17 digits too
  unless it rounds up to 10^17. As E is at most one too large, and then
  only just below a power of ten, ``x 10^s`` exceeds 9.9e15 > 2^53, so a
  right shift is at most 62 (``2^116 / 2^53 = 2^63``); as E is at most one
  too small, a left shift leaves a value below 10^18. The digits come from
  repeated division by 10 of N's high 9 and low 8 digits; trailing zeros
  of the fraction are dropped, and the point with them. -4 <= E <= 16 is
  written in fixed form and a smaller E as ``d.ddde-XX``, as ``%g`` does. ``+-0.0`` is written ``0``
  and ``-0``. Every other value is formatted by ``%``, one element at a
  time: subnormals, infinities, NaN, exponents outside the window, and
  values whose N does not have 17 digits, such as the double just
  below 0.1, whose log10 rounds to -1.
- An integer column is written by the same division loop, with as many
  digits as the largest magnitude of the block needs.
- Each field is written NUL-padded into one (rows, width) uint8 array,
  with the commas and LFs between fields, and the NULs are then deleted
  (``bytes.translate``).

On two or more CPUs of a platform that can fork, a file of at least
2 * POOL_BLOCKS_PER_WORKER blocks has its blocks formatted in worker
processes, one per POOL_BLOCKS_PER_WORKER blocks and at most one per CPU
this process may run on, and written in block order, so its bytes are the
same as when it is formatted in process. Of the benchmark's files only a
binning solve's ``weights.csv`` on the mixture problem (~600k rows) is that
large. A block's text is larger than a pipe holds, so a worker starts its
next block only once the writer reads its last one (``core.ordered_map``):
memory holds about two blocks' text per worker, never the whole file's.
"""

import csv
import itertools
import json
import os
from functools import cache, partial

import numpy as np

from .core import SampleSet, as_points, ordered_map, pool_size

CSV_BLOCK_ROWS = 8192
POOL_BLOCKS_PER_WORKER = 4  # blocks per worker process, below which a worker costs more than it saves
VECTOR_MIN_ROWS = 256  # rows of a block below which "%" is about as fast as numpy


class OutputDirError(ValueError):
    """An output directory path names an existing file or lies under one."""


# "%.17g" in numpy (the module docstring): the window of decimal exponents,
# the field width (a sign, 22 characters of digits, zeros and a point, then
# "e-XX") and the 5^s of every s = 16 - E of the window
_E_MIN, _E_MAX = -11, 16
_FLOAT_WIDTH = 27
_POW5 = np.array([5**s for s in range(_E_MAX - _E_MIN + 1)], dtype=np.uint64)
_ONE, _TEN, _HALF_WORD = np.uint64(1), np.uint64(10), np.uint64(32)
_LOW_WORD = np.uint64(2**32 - 1)
_TEN8, _TEN16, _TEN17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_TEN32 = np.uint32(10)


@cache
def _float_templates():
    """Three (28 * 17, _FLOAT_WIDTH) uint8 tables, one row for each decimal
    exponent E of the window and each index ``last`` (0 to 16, from the left)
    of the last nonzero of the 17 digits, at row ``(E - _E_MIN) * 17 + last``:
    the fixed characters of the field ("0.", the zeros after it, the point,
    "e-XX"), and 0/1 masks of where digit i goes, at 5 + i (``before``, up to
    the point) or at 6 + i (``after``). A digit past the point and past
    ``last`` is a trailing zero and goes nowhere."""
    exponent = np.repeat(np.arange(_E_MIN, _E_MAX + 1), 17)[:, None]
    last = np.tile(np.arange(17), _E_MAX - _E_MIN + 1)[:, None]
    scientific = exponent < -4
    small = ~scientific & (exponent < 0)  # 0.000ddd: every digit after the point
    point = np.where(scientific, 0, np.where(small, -1, exponent))  # the last digit before it
    digit = np.arange(17)
    kept = digit <= np.maximum(last, point)
    before = np.zeros((len(last), _FLOAT_WIDTH), np.uint8)
    after = np.zeros_like(before)
    before[:, 5:22] = kept & (digit <= point)
    after[:, 6:23] = kept & (digit > point)
    col = np.arange(_FLOAT_WIDTH)
    fixed = np.where(~small & (last > point) & (col == 6 + point), ord("."), 0)
    fixed = np.where(small & (col == 1), ord("0"), fixed)
    fixed = np.where(small & (col == 2), ord("."), fixed)
    fixed = np.where(small & (col >= 3) & (col < 2 - exponent), ord("0"), fixed)
    tens, ones = np.divmod(-exponent, 10)
    suffix = np.hstack([np.full_like(tens, ord("e")), np.full_like(tens, ord("-")),
                        tens + ord("0"), ones + ord("0")])
    fixed[:, 23:] = np.where(scientific, suffix, 0)
    return fixed.astype(np.uint8), before, after


def _scaled(m, k, s):
    """(floor, round-half-even) of ``M 5^s 2^(k+s)`` for the uint64 array m
    of M < 2^53 and the int64 arrays k and s (0 <= s <= 27), exactly, where
    the value is below 2^64 and the right shift ``-(k+s)`` is at most 63
    (the module docstring)."""
    f = _POW5[s]
    m_hi, m_lo = m >> _HALF_WORD, m & _LOW_WORD
    f_hi, f_lo = f >> _HALF_WORD, f & _LOW_WORD
    lo = m_lo * f_lo
    mid = m_hi * f_lo + m_lo * f_hi  # < 2^53 + 2^63
    low = lo + (mid << _HALF_WORD)
    high = m_hi * f_hi + (mid >> _HALF_WORD) + (low < lo)
    shift = -(k + s)
    right = np.maximum(shift, 0).view(np.uint64)
    left = np.maximum(-shift, 0).view(np.uint64)
    floor = ((low >> right) | ((high << (np.uint64(63) - right)) << _ONE)) << left
    unit = _ONE << right
    rest = low & (unit - _ONE)  # the bits shifted out, over unit
    # up if rest / unit > 1/2, or = 1/2 and floor is odd (no bits: rest = 0 < unit)
    up = ((rest << _ONE) + (floor & _ONE)) > unit
    return floor, floor + up


def _float_chars(x):
    """The (len(x), _FLOAT_WIDTH) uint8 array of ``"%.17g" % v`` for each v
    of the float64 array ``x``, NUL-padded (the module docstring)."""
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    zero = (bits << _ONE) == 0
    normal = np.flatnonzero((biased != 0) & (biased != 0x7FF))
    exponent = np.floor(np.log10(np.abs(x[normal]))).astype(np.int64)
    inside = (exponent >= _E_MIN) & (exponent <= _E_MAX)
    rows, s = normal[inside], _E_MAX - exponent[inside]
    m = (bits[rows] & np.uint64(2**52 - 1)) | np.uint64(2**52)
    k = biased[rows].view(np.int64) - 1075
    floor, n = _scaled(m, k, s)
    # where log10 was one off, N has 16 or 18 digits: "%" takes the value
    good = (floor >= _TEN16) & (n < _TEN17)
    rows, n, exponent = rows[good], n[good], _E_MAX - s[good]
    # the digits of N's low 8 and high 9 in uint32: row j holds digit j from
    # the right of each low half, then of each high half
    high = n // _TEN8
    halves = np.concatenate([n - high * _TEN8, high]).astype(np.uint32)
    digits = np.empty((9, 2 * rows.size), np.uint8)
    for j in range(9):
        quotient = halves // _TEN32
        digits[j] = halves - quotient * _TEN32
        halves = quotient
    digits += ord("0")
    placed = np.zeros((rows.size, _FLOAT_WIDTH), np.uint8)  # digit i (from the left) at 5 + i
    placed[:, 5:14] = digits[8::-1, rows.size:].T
    placed[:, 14:22] = digits[7::-1, :rows.size].T
    last = np.full(rows.size, 16)  # the index of the last nonzero digit
    ends_in_zero = np.flatnonzero(placed[:, 21] == ord("0"))
    last[ends_in_zero] = 16 - np.argmax(placed[ends_in_zero, 21:4:-1] != ord("0"), axis=1)
    key = (exponent - _E_MIN) * 17 + last
    fixed, before, after = _float_templates()
    text = fixed.take(key, axis=0)
    text += before.take(key, axis=0) * placed
    placed[:, 6:] = placed[:, 5:-1]  # digit i at 6 + i
    placed[:, 5] = 0
    text += after.take(key, axis=0) * placed
    if rows.size == x.size:
        out = text
    else:
        out = np.zeros((x.size, _FLOAT_WIDTH), np.uint8)
        out[rows] = text
        out[zero, 5] = ord("0")
    out[:, 0] = (bits >> np.uint64(63)) * ord("-")
    others = np.ones(x.size, bool)
    others[rows] = False
    others[zero] = False
    others = np.flatnonzero(others)
    if others.size:
        percent = b"".join(("%.17g" % v).encode().ljust(_FLOAT_WIDTH, b"\0") for v in x[others].tolist())
        out[others] = np.frombuffer(percent, np.uint8).reshape(-1, _FLOAT_WIDTH)
    return out


def _int_chars(v):
    """The (len(v), width) uint8 array of ``"%d" % i`` for each i of the
    integer array ``v``, NUL-padded."""
    if v.dtype.kind == "u":
        sign, n = np.zeros(v.size, np.uint8), v.astype(np.uint64)
    else:
        v = v.astype(np.int64)
        sign, n = v < 0, v.view(np.uint64)
        n = np.where(sign, ~n + _ONE, n)  # |v|, also of -2^63
    width = len(str(int(n.max())))
    out = np.empty((v.size, width + 1), np.uint8)
    out[:, 0] = sign * ord("-")
    for j in range(width, 0, -1):
        quotient = n // _TEN
        # the last digit always, a leading zero never
        out[:, j] = ((n - quotient * _TEN) + ord("0")) * ((n != 0) | (j == width))
        n = quotient
    return out


def _format_rows(fmt, block):
    """The bytes of the rows of ``block``, a list of equal-length 1-D arrays,
    as the ``%`` format ``fmt`` of one row ("%d" or "%.17g" per column, comma
    separated, LF ended) prints them; each "%.17g" column as float64."""
    specs = fmt[:-1].split(",")
    block = [c if spec == "%d" else np.asarray(c, dtype=np.float64) for spec, c in zip(specs, block)]
    if len(block[0]) < VECTOR_MIN_ROWS:
        return "".join(map(fmt.__mod__, zip(*[c.tolist() for c in block]))).encode()
    # the integer fields first, for their widths; each float field is made
    # only once its place is ready, so one is held at a time
    fields = [_int_chars(c) if spec == "%d" else None for spec, c in zip(specs, block)]
    widths = [_FLOAT_WIDTH if f is None else f.shape[1] for f in fields]
    text = np.empty((len(block[0]), sum(widths) + len(widths)), np.uint8)
    start = 0
    for c, field, width in zip(block, fields, widths):
        text[:, start:start + width] = _float_chars(c) if field is None else field
        text[:, start + width] = ord(",")
        start += width + 1
    text[:, -1] = ord("\n")
    raw = text.tobytes()
    del text
    return raw.translate(None, b"\0")


def write_csv(path, header, columns):
    """Write ``header`` and then one row per entry of the 1-D arrays ``columns``,
    formatted CSV_BLOCK_ROWS rows at a time, in worker processes where the
    module docstring says."""
    n = len(columns[0])
    fmt = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\n"
    blocks = [[c[start:start + CSV_BLOCK_ROWS] for c in columns]
              for start in range(0, n, CSV_BLOCK_ROWS)]
    workers = pool_size(len(blocks), POOL_BLOCKS_PER_WORKER)
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(ordered_map(partial(_format_rows, fmt), blocks, workers))


def _tolist(value):
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_text(payload):
    """The JSON text of ``payload`` as every result file holds it."""
    return json.dumps(payload, sort_keys=True, indent=1, default=_tolist) + "\n"


def write_json(path, payload):
    with open(path, "w") as f:
        f.write(json_text(payload))


def check_output_dir(path):
    """Raise OutputDirError unless ``path`` is a directory or can be made one."""
    head = os.path.abspath(path)
    while not os.path.exists(head):  # the nearest existing ancestor
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise OutputDirError(f"{head} exists and is not a directory")


def make_output_dir(path):
    """Create the directory ``path`` and its parents unless they exist."""
    check_output_dir(path)
    os.makedirs(path, exist_ok=True)


def save_samples(path, samples, prefix="x"):
    """Write a sample set to CSV with header ``<prefix>1..<prefix>d``."""
    pts = as_points(samples)
    write_csv(path, [f"{prefix}{k + 1}" for k in range(pts.shape[1])], list(pts.T))


def load_samples(path):
    """Read a sample set from CSV; dimension comes from the header. A value
    that is not a finite float is an error naming its file and line."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        dim = len(header)
        if dim == 0:
            raise ValueError(f"{path}: empty header row")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no samples")
    points = np.array(rows)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():  # float() takes nan, inf and 1e400; only then is the line looked up
        with open(path, newline="") as f:  # the header is nonempty record 0
            records = ((n, row) for n, row in enumerate(csv.reader(f), start=1) if row)
            lineno, row = next(itertools.islice(records, int(bad.argmax()) + 1, None))
        value = next(v for v in row if not np.isfinite(float(v)))
        raise ValueError(f"{path}:{lineno}: expected a finite number, got {value!r}")
    return SampleSet(points)


def load_pairs(param_csv, data_csv):
    """Read row-aligned (parameter, data) sample files.

    Row i of the parameter file and row i of the data file describe the same
    model evaluation. Both files must have the same number of rows.
    """
    params = load_samples(param_csv)
    data = load_samples(data_csv)
    if params.n != data.n:
        raise ValueError(
            f"row-count mismatch: {param_csv} has {params.n} rows, "
            f"{data_csv} has {data.n}"
        )
    return params, data
