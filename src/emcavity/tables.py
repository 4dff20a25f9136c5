"""Numeric CSV tables: the one reader of sample sets and traces, and the
one writer of every table, its float cells byte-exact "%.17e".

Reading takes a numeric body in bulk with `np.loadtxt`, the one parser of
a cell; where it refuses the body, a walk over the rows reads them in
blocks and names the first row it refuses, and `read_table` alone turns a
data row into `path:line`.
Writing computes every float cell's decimal digits exactly in float64
and lays them out with array operations; an undecided cell goes through `%`.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import stat
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import DataError
from .params import RULE, in_range

# numpy opens a str path by name and decompresses these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


@contextmanager
def read_table(path, columns=None, skip=0):
    """Yield the UTF-8 numeric CSV body at `path` as an (n, k) float array
    of the k cells read in each row.

    With `columns` (sample sets) the stripped header must equal it, and
    each row is one record of exactly that many cells, all but the first
    `skip` read; without (traces) any header passes and the first three
    cells of each row are read.  Every cell read must obey `in_range` of
    params.py; blank rows are skipped.  The skipped cells are one-byte
    placeholders: with `skip` the rows lie skip + 8k bytes apart, not
    8-byte aligned.  A pipe or FIFO is read once, into memory.

    The one place that names the file in a message: a DataError raised in
    the block, by the parse or by the caller's checks of the records, is
    raised again as "path:line: ..." where its `row` names a 0-based data
    row, else as "path: ...".  A failure to open, read, decode or split
    the text is DataError("cannot read path: ...")."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else io.StringIO(fh.read(), newline="")
            try:
                yield _parse(path, text, columns, skip)
            except DataError as exc:
                line = "" if exc.row is None else f":{_line(text, exc.row)}"
                raise DataError(f"{path}{line}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse(path, fh, columns, skip) -> np.ndarray:
    """read_table's array from `fh`, the text of `path`, or its DataError.
    loadtxt reads a regular file's body in C chunks from its absolute path
    (never a URL), other text through `fh`.  Where it refuses the body,
    `_walk` reads the lines again, with 4-byte placeholders that hold any
    text, and names the row at fault."""
    ncols = len(columns) if columns else 3
    usecols = None if columns else range(ncols)

    def load(source, placeholder="U1", skiprows=0):
        row = [("skip", placeholder, (skip,)), ("cells", float, (ncols - skip,))]
        return _loadtxt(source, row, usecols, skiprows)["cells"]

    reader = csv.reader(fh)
    header = next(reader, None)
    if columns and (header is None or [c.strip() for c in header] != columns):
        raise DataError(f"expected header {','.join(columns)}")
    if header is None:
        raise DataError("empty file")
    names = [c.strip() for c in header] + [f"column {k + 1}" for k in range(len(header), ncols)]
    name = os.path.abspath(os.fsdecode(path))
    by_path = not isinstance(fh, io.StringIO) and not name.endswith(_COMPRESSED)
    try:
        arr = load(name if by_path else fh, "S1", reader.line_num if by_path else 0)
    except (ValueError, OSError):  # UnicodeDecodeError too: readlines re-raises it
        fh.seek(0)
        arr = _walk(fh.readlines(), load, names, ncols, skip, bool(columns))
    else:
        if fault := _range_fault(arr, names[skip:]):
            raise DataError(fault[1], row=fault[0])
    if not len(arr):
        raise DataError("no data rows")
    return arr


def _range_fault(arr, names):
    """(row, message) of the first cell outside the magnitude rule, or None."""
    for start in range(0, len(arr), _RANGE_BLOCK):
        ok = in_range(arr[start : start + _RANGE_BLOCK])
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            return start + int(i), f"{names[j]}: expected {RULE}, got {float(arr[start + i, j])!r}"


def _loadtxt(source, dtype, usecols, skiprows=0):
    """np.loadtxt of CSV text, as every read here calls it."""
    with warnings.catch_warnings():  # a header-only file is reported by _parse
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, dtype=dtype, usecols=usecols, skiprows=skiprows, encoding="utf-8",
                          delimiter=",", comments=None, quotechar='"', ndmin=1)


def _data_rows(lines):
    """(first line, last line, cells) of each row of the table `lines`
    after the header that is not blank (all cells empty or whitespace).
    Where no line holds a quote, csv reads a line as a row of the cells
    between its commas."""
    if not any('"' in line for line in lines):
        for n, line in enumerate(lines[1:], 2):
            cells = line.rstrip("\r\n").split(",")
            if "".join(cells).strip():
                yield n, n, cells
        return
    reader = csv.reader(lines)
    next(reader, None)
    start = reader.line_num + 1
    for row in reader:
        if "".join(row).strip():
            yield start, reader.line_num, row
        start = reader.line_num + 1


def _line(fh, row: int) -> int:
    """The file line of data row `row` (0-based) of the table in `fh`."""
    fh.seek(0)
    return next(itertools.islice(_data_rows(fh.readlines()), row, None))[0]


_WALK_BLOCK = 1024  # data rows that _walk reads with one load
_RANGE_BLOCK = 4096  # rows per in_range pass: a whole set's |v| and masks would match the parse in size


def _walk(lines, load, names, ncols, skip, exact):
    """The cells that `load` reads from the data rows of the table `lines`,
    a block of rows at a time; DataError(..., row=k) at the first data row
    k that is short (long too, if `exact`) or whose cells `load` refuses
    or reads outside the magnitude rule (`names` names each cell).
    A block is checked one row at a time only where it fails."""

    def read(rows):
        """(cells, None) of `rows`, or (None, what is wrong with them); for one row, its message."""
        for _, _, cells in rows:
            if len(cells) != ncols and (exact or len(cells) < ncols):
                return None, f"expected {ncols} columns" + ("" if exact else f", got {len(cells)}")
        text = [line for first, last, _ in rows for line in lines[first - 1 : last]]
        try:
            arr = load(text)
        except ValueError as exc:  # name the first cell loadtxt refuses in a lone row
            for j, cell in enumerate(rows[0][2][skip:ncols] if len(rows) == 1 else (), skip):
                try:
                    _loadtxt(text, float, [j])
                except ValueError:
                    return None, f"could not convert string to float: {cell!r}"
            return None, str(exc)
        fault = _range_fault(arr, names[skip:])
        return arr, fault and fault[1]

    blocks, rows, start = [], _data_rows(lines), 0
    while block := list(itertools.islice(rows, _WALK_BLOCK)):
        arr, reason = read(block)
        if reason:
            for k, row in enumerate(block, start):
                if message := read([row])[1]:
                    raise DataError(message, row=k)
            raise DataError(reason)
        blocks.append(arr)
        start += len(block)
    return np.concatenate(blocks) if blocks else np.empty((0, ncols - skip))


_WRITE_BLOCK = 2048  # rows per block: the formatter's temporaries then stay in cache
_FLAG_CELLS = np.frombuffer(b"falsetrue ", dtype=np.uint8).reshape(2, 5)


def write_table(path, header, columns):
    """Write the CSV of `columns`, equal-length 1-D arrays, under the
    column names `header`.  A bool column is written true/false, any other
    as the format_e17 cells of its floats, NaN as an empty cell.  Rows go
    out a block at a time, each laid into one slot buffer."""
    flags = [j for j, c in enumerate(columns) if c.dtype == bool]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), _WRITE_BLOCK):
            block = np.column_stack([c[start : start + _WRITE_BLOCK] for c in columns])
            slots, keep = format_e17(block)
            keep[np.isnan(block), :-1] = False
            for j in flags:
                true = block[:, j].astype(np.intp)
                slots[:, j, :5] = _FLAG_CELLS[true]
                keep[:, j, :-1] = np.arange(len(_E17_CELL)) < 5 - true[:, None]
            fh.write(slots[keep])
            del slots, keep  # before the next block's are made: the peak is one block's


_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)


def _split(a):
    """Dekker's split of a into two halves of 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _pow10_row(k):
    """(hi, hi's Dekker halves, lo) of 10**k; hi + lo is good to ~2**-106."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    m, d = hi.as_integer_ratio()
    return hi, *_split(hi), (num * d - m * den) / (den * d)


# the rows of 10**k, k = 17 - E for the decades E of [1e-250, 1e250] and
# the decade below, where log10 may land
_POW10_K0 = -233
_POW10 = np.array([_pow10_row(k) for k in range(_POW10_K0, _POW10_K0 + 502)])


def _exact_digits(x):
    """The 18-digit value y = |x| 10**(17 - E), E = floor(log10|x|), of
    each float of the flat array x, for |x| in [1e-250, 1e250].

    Returns (E, q, frac, inexact, regular): y = q + frac with q = floor(y)
    an int64 and 0 <= frac < 1.  y is Dekker's exact product of |x| and
    the high part of 10**(17 - E) in double-double, plus |x| times its low
    part lo, good to ~1e-13; it is exact where lo = 0 (`inexact` False).
    Next to a power of ten log10 may miss the decade, and then q lies
    outside [1e17, 1e18).
    Cells outside the range (0, nan, inf and the extremes, `regular`
    False) are computed as x = 1.
    """
    with np.errstate(all="ignore"):
        a = np.abs(x)
        regular = (a >= 1e-250) & (a <= 1e250)
        a[~regular] = 1.0
        e10 = np.floor(np.log10(a)).astype(np.int64)
        hi, h1, h2, lo = _POW10.take(17 - e10 - _POW10_K0, axis=0).T
        p = a * hi  # an integer, as y > 1e16 > 2**53
        a1, a2 = _split(a)
        c = ((((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2) + a * lo  # y - p
        floor_c = np.floor(c)
        # y ~ 1e19 where log10 is a decade low, too large for int64
        q = np.minimum(p, 2e18).astype(np.int64) + floor_c.astype(np.int64)
    return e10, q, c - floor_c, lo != 0, regular


def _put_digits(buf, q):
    """Write the 18 decimal digits of each q in [0, 1e18) into the rows of
    buf, an (n, 18) byte array whose rows are contiguous."""
    pairs = buf.view(np.uint16)  # q's 18 digits, two at a time
    for j in range(8, 0, -1):
        rest = q // 100
        pairs[:, j] = _DIGIT_PAIRS.take(q - rest * 100)
        q = rest
    pairs[:, 0] = _DIGIT_PAIRS.take(q)


# format_e17 writes each cell as "%.17e" does, in a 26-byte slot: sign,
# 18 digits with the point after the first, "e", exponent sign, three
# exponent digits, then "," or, at the end of a row, a line feed.  The
# sign and the exponent's hundreds are dropped where "%.17e" has none.
_E17_CELL = b"-0.00000000000000000e+000"
_NAN, _INF = (np.frombuffer(word, dtype=np.uint8) for word in (b"nan", b"inf"))


def format_e17(table):
    """`"%.17e" % x` of each float of the 2-D (n, k) table as (slots, keep):
    the (n, k, 26) byte slots of the cells, each then "," or a row's line
    feed, and the mask of their bytes; slots[keep] is the table's CSV body.

    The 18 digits are y rounded half to even (see _exact_digits).  A cell
    goes through "%" instead where y's error could decide the rounding,
    where log10 missed the decade or the rounding carries into the next
    one, and where |x| lies outside [1e-250, 1e250].
    """
    n, ncol = table.shape
    x = np.ascontiguousarray(table, dtype=float).ravel()
    e10, q, frac, inexact, regular = _exact_digits(x)
    fallback = (q < 10**17) | ((np.abs(frac - 0.5) <= 1e-9) & inexact)
    q += (frac > 0.5) | ((frac == 0.5) & (q & 1 == 1))
    fallback |= ~regular | (q >= 10**18)
    fallback &= np.isfinite(x) & (x != 0)
    q[x == 0] = 0
    width = len(_E17_CELL)
    row = (_E17_CELL + b",") * (ncol - 1) + _E17_CELL + b"\n"
    buf = np.frombuffer(bytearray(row) * n, dtype=np.uint8).reshape(n * ncol, width + 1)
    keep = np.ones(buf.shape, dtype=bool)  # the bytes written
    _put_digits(buf[:, 2:20], q)
    buf[:, 1] = buf[:, 2]
    buf[:, 2] = ord(".")
    e_abs = np.abs(e10).astype(np.uint8)  # |E| < 256, into "+000"
    tens = e_abs // 10
    buf[:, 21] = np.where(e10 < 0, ord("-"), ord("+"))
    buf[:, 22] += tens // 10
    buf[:, 23] += tens % 10
    buf[:, 24] += e_abs - tens * 10
    keep[:, 0] = np.signbit(x) & ~np.isnan(x)
    keep[:, 22] = e_abs >= 100
    special = np.flatnonzero(~np.isfinite(x))
    buf[special, 1:4] = np.where(np.isnan(x[special])[:, None], _NAN, _INF)
    keep[special, 4:width] = False
    for i in np.flatnonzero(fallback).tolist():
        cell = np.frombuffer(b"%.17e" % float(x[i]), dtype=np.uint8)
        buf[i, : cell.size] = cell
        keep[i, :width] = np.arange(width) < cell.size
    return buf.reshape(n, ncol, width + 1), keep.reshape(n, ncol, width + 1)
