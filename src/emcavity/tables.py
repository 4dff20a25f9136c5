"""Numeric CSV tables: the one reader of sample sets and traces, and the
byte-exact writers of spectrum ("%.17e") and trace ("%r") cells.

Reading takes a numeric body in bulk with `np.loadtxt` and falls back to
a row-by-row pass that names the first bad row.  Writing computes every
cell's decimal digits exactly in float64 and lays them out with array
operations; a cell it cannot decide with certainty goes through `%`.
"""

from __future__ import annotations

import csv
import io
import os
import stat
import warnings
from contextlib import contextmanager
from functools import cache

import numpy as np

from .errors import DataError

# numpy opens a str path by name and decompresses these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@contextmanager
def open_table(path):
    """A seekable UTF-8 text handle on the CSV at `path`: the file itself
    when it is a regular file, otherwise (a pipe, a FIFO, /dev/stdin) its
    text read once into memory, since it cannot be read twice.  An open,
    read or decode failure is DataError("cannot read path: ...")."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                yield fh
            else:
                yield io.StringIO(fh.read(), newline="")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_table(path, fh, columns=None, skip=0) -> np.ndarray:
    """Parse the UTF-8 numeric CSV body of `fh` (from open_table(path)) in
    bulk into an (n, k) float array of the k cells read in each row.

    With `columns` (sample sets) the stripped header must equal it, and
    each row is one record of exactly that many cells, all but the first
    `skip` read; without (traces) any header passes and the first three
    cells of each row are read.  Every cell read must be finite.  Blank
    rows are skipped; a bad row raises DataError("path:line: ...").

    The skipped cells are held as one-byte placeholders, so with `skip`
    the result is a view whose rows lie skip + 8k bytes apart and are not
    8-byte aligned.

    A regular file's body is read by loadtxt from its absolute path, in C
    chunks, after the header's lines; an absolute path never parses as a
    URL.  Compressed suffixes, which loadtxt would decompress, and the
    in-memory copy of any other input are read through the handle.
    """
    ncols = len(columns) if columns else 3
    row = [("skip", "S1", (skip,)), ("cells", float, (ncols - skip,))]
    reader = csv.reader(fh)
    header = next(reader, None)
    if columns and (header is None or [c.strip() for c in header] != columns):
        raise DataError(f"{path}: expected header {','.join(columns)}")
    if header is None:
        raise DataError(f"{path}: empty file")
    name = os.path.abspath(os.fsdecode(path))
    by_path = not isinstance(fh, io.StringIO) and not name.endswith(_COMPRESSED)
    try:
        with warnings.catch_warnings():  # a header-only file is reported below
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(name if by_path else fh,
                             skiprows=reader.line_num if by_path else 0, encoding="utf-8",
                             delimiter=",", comments=None, quotechar='"', dtype=row,
                             ndmin=1, usecols=None if columns else range(ncols))["cells"]
        ok = np.isfinite(arr).all()
    except (ValueError, OSError):  # UnicodeDecodeError too: the pass below re-raises it
        ok = False
    if not ok:  # name the first bad row, or read the rows loadtxt refuses
        fh.seek(0)
        arr = _parse_rows(path, csv.reader(fh), ncols, skip, exact=bool(columns))
    if not len(arr):
        raise DataError(f"{path}: no data rows")
    return arr


def data_rows(reader):
    """(file line, cells) of each row after the header that is not blank:
    the rows read_table keeps.  A row's line is the one it starts on."""
    next(reader, None)
    start = reader.line_num + 1
    for row in reader:
        if any(c.strip() for c in row):
            yield start, row
        start = reader.line_num + 1


def row_line(fh, row: int) -> int:
    """The file line of data row `row` (0-based) of the table in `fh`."""
    fh.seek(0)
    return [n for n, _ in data_rows(csv.reader(fh))][row]


def _parse_rows(path, reader, ncols, skip, exact):
    """Row-by-row csv.reader + float parse that raises at the first bad row."""
    rows = []
    for lineno, row in data_rows(reader):
        if len(row) != ncols and (exact or len(row) < ncols):
            got = "" if exact else f", got {len(row)}"
            raise DataError(f"{path}:{lineno}: expected {ncols} columns{got}")
        try:
            values = [float(c) for c in row[skip:ncols]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(values).all():
            raise DataError(f"{path}:{lineno}: non-finite sample")
        rows.append(values)
    return np.asarray(rows)


def write_table(path, header: bytes, table, cells, line_end: bytes):
    """Write `header`, then the rows of the 2-D float table formatted by
    `cells` (format_e17 or format_repr), 2048 rows at a time: the
    formatter's temporaries then stay in cache."""
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(table), 2048):
            fh.write(cells(table[start : start + 2048], line_end))


_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
# rows (hi, hi's Dekker halves, lo) of 10**k, k = 17 - E for the decades E
# of [1e-250, 1e250]; hi + lo is good to ~2**-106
_POW10_K0 = -233
_POW10 = np.full((502, 4), np.nan)


def _split(a):
    """Dekker's split of a into two halves of 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _pow10(k):
    """The columns hi, hi's halves and lo of 10**k; a row is built on first use."""
    for j in range(k.min(), k.max() + 1):
        if np.isnan(_POW10[j - _POW10_K0, 0]):
            num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
            hi = num / den  # int true division rounds correctly
            m, d = hi.as_integer_ratio()
            _POW10[j - _POW10_K0] = (hi, *_split(hi), (num * d - m * den) / (den * d))
    return _POW10.take(k - _POW10_K0, axis=0).T


def _exact_digits(x):
    """The 18-digit value y = |x| 10**(17 - E), E = floor(log10|x|), of
    each float of the flat array x, for |x| in [1e-250, 1e250].

    Returns (E, q, frac, hi, lo, regular): y = q + frac with q = floor(y)
    an int64 and 0 <= frac < 1; hi + lo is 10**(17 - E).  y is Dekker's
    exact product of |x| and hi, plus |x| lo, good to ~1e-13; it is exact
    where lo = 0.  Next to a power of ten log10 may miss the decade, and
    then q lies outside [1e17, 1e18).  Cells outside the range (0, nan,
    inf and the extremes, `regular` False) are computed as x = 1.
    """
    with np.errstate(all="ignore"):
        a = np.abs(x)
        regular = (a >= 1e-250) & (a <= 1e250)
        a[~regular] = 1.0
        e10 = np.floor(np.log10(a)).astype(np.int64)
        hi, h1, h2, lo = _pow10(17 - e10)
        p = a * hi  # an integer, as y > 1e16 > 2**53
        a1, a2 = _split(a)
        c = ((((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo  # y - p
        floor_c = np.floor(c)
        # y ~ 1e19 where log10 is a decade low, too large for int64
        q = np.minimum(p, 2e18).astype(np.int64) + floor_c.astype(np.int64)
    return e10, q, c - floor_c, hi, lo, regular


def _put_digits(buf, q):
    """Write the 18 decimal digits of each q in [0, 1e18) into the rows of
    buf, an (n, 18) byte array whose rows are contiguous."""
    pairs = np.empty((9, len(q)), dtype=np.intp)  # q's 18 digits, two at a time
    for j in range(8, 0, -1):
        rest = q // 100
        pairs[j] = q - rest * 100
        q = rest
    pairs[0] = q
    buf.view(np.uint16)[:] = _DIGIT_PAIRS.take(pairs).T


def _put_exponent(buf, col, e10):
    """Write the sign and three digits of each exponent e10 (|e10| < 256)
    into the bytes col to col + 3 of buf's rows, which hold "+000"; returns
    |e10|."""
    e_abs = np.abs(e10).astype(np.uint8)
    tens = e_abs // 10
    buf[:, col] = np.where(e10 < 0, ord("-"), ord("+"))
    buf[:, col + 1] += tens // 10
    buf[:, col + 2] += tens % 10
    buf[:, col + 3] += e_abs - tens * 10
    return e_abs


def _slots(cell: bytes, n, ncol, line_end):
    """(buf, keep) for an (n, ncol) table: one byte row per cell, the
    template `cell` and then its end, "," or, at the end of a table row,
    line_end; keep marks the bytes written, all but the padding of ","."""
    sep = b",".ljust(len(line_end), b"\0")
    row = (cell + sep) * (ncol - 1) + cell + line_end
    kept = (b"\1" * (len(cell) + 1) + b"\0" * (len(sep) - 1)) * (ncol - 1)
    kept += b"\1" * (len(cell) + len(line_end))
    shape = (n * ncol, len(row) // ncol)
    return (np.frombuffer(bytearray(row) * n, dtype=np.uint8).reshape(shape),
            np.frombuffer(bytearray(kept) * n, dtype=bool).reshape(shape))


def _emit(buf, keep, x, fallback, fmt, width):
    """The kept bytes of the slots from _slots, whose cells are `width`
    bytes wide, with each fallback cell written as `fmt % x` instead."""
    for i in np.flatnonzero(fallback).tolist():
        cell = np.frombuffer((fmt % float(x[i])).encode(), dtype=np.uint8)
        buf[i, : cell.size] = cell
        keep[i, :width] = np.arange(width) < cell.size
    return buf[keep]


# format_e17 writes each cell as "%.17e" does, in a 25-byte slot: sign,
# 18 digits with the point after the first, "e", exponent sign and three
# exponent digits.  The sign and the exponent's hundreds are dropped where
# "%.17e" has none.
_E17_CELL = b"-0.00000000000000000e+000"
_NAN, _INF = (np.frombuffer(word, dtype=np.uint8) for word in (b"nan", b"inf"))


def format_e17(table, line_end=b"\n"):
    """The bytes of `"%.17e" % x` for each float of the 2-D table, comma
    separated, each row ended by line_end (one or two bytes).

    The 18 digits are y rounded half to even (see _exact_digits).  A cell
    goes through "%" instead where y's error could decide the rounding,
    where log10 missed the decade or the rounding carries into the next
    one, and where |x| lies outside [1e-250, 1e250].
    """
    n, ncol = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    e10, q, frac, _, lo, regular = _exact_digits(x)
    fallback = (q < 10**17) | ((np.abs(frac - 0.5) <= 1e-9) & (lo != 0))
    q += (frac > 0.5) | ((frac == 0.5) & (q & 1 == 1))
    fallback |= ~regular | (q >= 10**18)
    fallback &= np.isfinite(x) & (x != 0)
    q[x == 0] = 0
    buf, keep = _slots(_E17_CELL, n, ncol, line_end)
    _put_digits(buf[:, 2:20], q)
    buf[:, 1] = buf[:, 2]
    buf[:, 2] = ord(".")
    e_abs = _put_exponent(buf, 21, e10)
    keep[:, 0] = np.signbit(x) & ~np.isnan(x)
    keep[:, 22] = e_abs >= 100
    special = np.flatnonzero(~np.isfinite(x))
    buf[special, 1:4] = np.where(np.isnan(x[special])[:, None], _NAN, _INF)
    keep[special, 4 : len(_E17_CELL)] = False
    return _emit(buf, keep, x, fallback, "%.17e", len(_E17_CELL))


# format_repr builds each cell from a 25-byte source slot: 17 significant
# digits and a "0" (bytes 0-17), ".", "e", the exponent sign, three
# exponent digits and "-".  A layout lists the source bytes of one form of
# repr's output, and each cell gathers those of its own.
_REPR_SRC = b"000000000000000000.e+000-"
_ZERO, _POINT, _E, _MINUS = 17, 18, 19, 24
_SCALES = np.array([10, 100, 1000])  # y / s has 17, 16 and 15 digits
_REPR_CELL = 24  # the longest cell, "-1.2345678901234567e-100"


@cache
def _repr_layouts(ends: int):
    """(source, keep), (748, 24 + ends) arrays for cells ended by `ends`
    bytes: row 2 layout + negative lists the source bytes of a cell and its
    end, and which of them are kept.  Layout (E + 4) * 17 + nd - 1 is the
    positional form of nd significant digits in the decade E, -4 <= E <=
    15; 340 + 2 (nd - 1) + (|E| >= 100) the exponent form."""
    layouts = []
    for e10 in range(-4, 16):
        for nd in range(1, 18):
            digits = list(range(nd))
            if e10 < 0:  # 0.000ddd
                layouts.append([_ZERO, _POINT] + [_ZERO] * (-e10 - 1) + digits)
            elif nd <= e10 + 1:  # ddd00.0
                layouts.append(digits + [_ZERO] * (e10 + 1 - nd) + [_POINT, _ZERO])
            else:  # dd.ddd
                layouts.append(digits[: e10 + 1] + [_POINT] + digits[e10 + 1 :])
    for nd in range(1, 18):
        for wide in (False, True):  # d.ddde-05 or d.ddde-100
            mantissa = [0] + ([_POINT] + list(range(1, nd)) if nd > 1 else [])
            layouts.append(mantissa + [_E, _E + 1] + [_E + 2] * wide + [_E + 3, _E + 4])
    end = list(range(len(_REPR_SRC), len(_REPR_SRC) + ends))  # after the source bytes
    pad = [_REPR_CELL - 1 - len(lay) for lay in layouts]
    source = [[_MINUS, *lay] + [0] * k + end for lay, k in zip(layouts, pad)]
    keep = [[neg] + [True] * len(lay) + [False] * k + [True] + [False] * (ends - 1)
            for lay, k in zip(layouts, pad) for neg in (False, True)]
    return np.repeat(np.array(source, dtype=np.intp), 2, axis=0), np.array(keep)


def format_repr(table, line_end=b"\r\n"):
    """The bytes of `"%r" % x` for each float of the 2-D table, comma
    separated, each row ended by line_end (one or two bytes).

    repr prints the fewest significant digits, 17 at most, that read back
    as x, and of those the nearest to x.  The nearest decimal of n digits
    is y / 10**(18 - n) rounded, and it reads back as x when it lies within
    half an ulp of x.  At most one decimal of 15 digits or fewer lies in
    that interval, so the first of n = 15, 16, 17 whose decimal does, with
    trailing zeros dropped, is repr's.  A cell goes through "%r" instead
    where y's error could decide a rounding or a comparison with the half
    ulp, where x is a power of two (its interval is lopsided), where log10
    missed the decade, and where |x| lies outside [1e-250, 1e250] or is
    not finite.
    """
    n, ncol = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    e10, q, frac, hi, _, regular = _exact_digits(x)
    mantissa, e2 = np.frexp(np.where(regular, np.abs(x), 1.0))
    half_ulp = np.ldexp(hi, e2 - 54)  # in units of y
    fallback = ~regular | (mantissa == 0.5) | (q < 10**17) | (q >= 10**18)
    # y mod s and y's distance to the nearest multiple of s, s = 10**(18 - n)
    rests = [(q % s) + frac for s in _SCALES.tolist()]
    near = [np.minimum(r, s - r) for r, s in zip(rests, _SCALES.tolist())]
    for d in near:
        fallback |= np.abs(d - half_ulp) < 1e-6
    # 17 digits always read back; y within half an ulp of a multiple of
    # 1000 is so of one of 100
    k = (near[1] < half_ulp).astype(np.intp) + (near[2] < half_ulp)
    s = _SCALES.take(k)
    rest = (q % s) + frac
    fallback |= np.abs(rest - s / 2) < 1e-6  # a tie, rounded half to even or not
    digits = (q // s + (rest > s / 2)) * (s // 10)  # repr's digits, padded to 17
    carry = digits == 10**17  # 9.99...95 rounded up to 10.0
    digits[carry] = 10**16
    digits[fallback] = 0
    e10 += carry
    src, _ = _slots(_REPR_SRC, n, ncol, line_end)
    _put_digits(src[:, :18], digits * 10)
    e_abs = _put_exponent(src, _E + 1, e10)
    # nd significant digits: drop the trailing zeros
    nd = 17 - np.argmax(src[:, 16::-1] != ord("0"), axis=1)
    positional = (e10 >= -4) & (e10 <= 15)
    layout = np.where(positional, (e10 + 4) * 17 + nd - 1, 340 + 2 * (nd - 1) + (e_abs >= 100))
    layout = 2 * layout + np.signbit(x)
    layout[fallback] = 0
    source, kept = _repr_layouts(len(line_end))
    index = source.take(layout, axis=0)
    index += np.arange(0, src.size, src.shape[1])[:, None]
    buf = src.ravel().take(index)
    keep = kept.take(layout, axis=0)
    keep.reshape(n, ncol, -1)[:, -1, _REPR_CELL:] = True  # all of line_end
    return _emit(buf, keep, x, fallback, "%r", _REPR_CELL)
