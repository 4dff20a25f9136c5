"""The one cell writer, format_e17, against `"%.17e" % x` byte for byte,
traces in the format it replaced, which read back the same, and the one
cell reader, np.loadtxt: blank rows cost a second loadtxt call, the row
walk only names the row that loadtxt refuses, a block of rows at a time,
and read_table alone turns that row into its line."""

import contextlib
import math
import os
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emcavity import tables
from emcavity.cli import main
from emcavity.device import load_surface_csv, load_volume_csv
from emcavity.errors import DataError
from emcavity.fitting import (
    ReflectionModelParams,
    load_trace,
    reflection_model,
    save_trace,
    synthesize_trace,
)
from emcavity.tables import format_e17, write_table


def percent_table(table):
    return "".join(",".join("%.17e" % x for x in row) + "\n" for row in table.tolist()).encode()


def exact_ties(rng, size):
    """(x, E): odd k in [2**18 5**E, 10 2**18 5**E) puts x = k 2**(E - 18) in
    the decade E and makes 2 x 10**(17 - E) = k 5**(17 - E) odd, so "%.17e"
    rounds an exact tie.  For E >= -5, 10**(17 - E) is a double and the
    kernel rounds the tie itself; below, "%" does."""
    xs, decades = [], []
    for e10 in range(-9, 14):
        lo, hi = ((2**18 * 5**e10, 10 * 2**18 * 5**e10) if e10 >= 0
                  else (-(-(2**18) // 5**-e10), -(-10 * 2**18 // 5**-e10)))
        k = rng.integers(lo, hi, size) | 1
        k = k[k < hi].tolist()
        xs += [math.ldexp(j, e10 - 18) for j in k]
        decades += [e10] * len(k)
    return np.array(xs), decades


class TestFormatTable:
    """format_e17 against "%.17e" % x, byte for byte."""

    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, xs, ncol):
        table = np.array(xs * ncol).reshape(-1, ncol)
        assert format_e17(table).tobytes() == percent_table(table)

    def test_powers_and_neighbours(self):
        # powers of ten, and powers of two, whose ulp halves below them
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)]
                          + [2.0**k for k in range(-1074, 1024)])
        x = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
        table = np.concatenate([x, -x]).reshape(-1, 2)
        assert format_e17(table).tobytes() == percent_table(table)

    def test_exact_ties(self):
        x, decades = exact_ties(np.random.default_rng(18), 300)
        for v, e10 in zip(x.tolist(), decades):
            n, d = v.as_integer_ratio()
            num, den = n * 10 ** max(-e10, 0), d * 10 ** max(e10, 0)
            assert den <= num < 10 * den  # v lies in the decade e10
            twice = 2 * n * 10 ** (17 - e10)
            assert twice % d == 0 and twice // d % 2 == 1  # 18 digits end in a half
        assert len(x) > 5000
        table = np.stack([x, -x], axis=1)
        assert format_e17(table).tobytes() == percent_table(table)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(18).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        table = x.reshape(-1, 5)
        assert format_e17(table).tobytes() == percent_table(table)

    def test_special_values(self):
        x = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
             1.7976931348623157e308, 1e-250, 1e250, np.nextafter(1e-243, -np.inf), 0.5, 1.0, 1e17]
        table = np.array(x).reshape(-1, 5)
        assert format_e17(table).tobytes() == percent_table(table)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_cells_read_back_bit_exact(self, xs):
        # 17 significant digits name one float: each cell reads back as the
        # float it was written from, -0.0 and subnormals included
        x = np.array(xs + [-0.0, 5e-324, -2.225073858507201e-308])
        cells = format_e17(x.reshape(-1, 1)).tobytes().split(b"\n")[:-1]
        assert np.array([float(c) for c in cells]).tobytes() == x.tobytes()


def test_write_table(tmp_path):
    # the header, then every row as format_e17 writes it, across the
    # writer's 2048-row blocks
    table = np.random.default_rng(18).standard_normal((5000, 3)) * 1e9
    path = tmp_path / "table.csv"
    write_table(path, b"a,b,c\n", table)
    assert path.read_bytes() == b"a,b,c\n" + percent_table(table)
    assert np.loadtxt(path, delimiter=",", skiprows=1).tobytes() == table.tobytes()


def old_trace_bytes(trace):
    """A trace as earlier versions wrote it: repr cells, CRLF line ends."""
    rows = zip(trace.f_hz.tolist(), trace.re.tolist(), trace.im.tolist())
    return ("f_hz,re,im\r\n" + "".join("%r,%r,%r\r\n" % row for row in rows)).encode()


def test_old_format_trace_reads_the_same(tmp_path):
    # the same trace in the old format and in this one: the same floats and
    # the same fit, byte for byte
    truth = ReflectionModelParams(amplitude=0.2, tau=6e-8, phi=0.8, omega_c=2 * np.pi * 10.29184e9,
                                  kappa_in=2 * np.pi * 0.41e6, kappa_ex=2 * np.pi * 1.45e6, delta=0.0)
    f = np.linspace(10.27184e9, 10.31184e9, 201)
    trace = synthesize_trace(lambda w: reflection_model(w, truth), f, snr_db=40.0, seed=7)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_bytes(old_trace_bytes(trace))
    save_trace(trace, new)
    assert b"\r\n" in old.read_bytes() and b"\r" not in new.read_bytes()
    for path in (old, new):
        back = load_trace(path)
        for want, got in zip((trace.f_hz, trace.re, trace.im), (back.f_hz, back.re, back.im)):
            assert got.tobytes() == want.tobytes()
        assert main(["fit", "reflect", "--in", str(path), "--out", f"{path}.json"]) == 0
    assert (tmp_path / "old.csv.json").read_bytes() == (tmp_path / "new.csv.json").read_bytes()


VOLUME_HEADER = "x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m"
SURFACE_HEADER = ("x_m,y_m,z_m,a_m2,nx,ny,nz,qx_m,qy_m,qz_m,"
                  "ex_vpm,ey_vpm,ez_vpm,dx_cpm2,dy_cpm2,dz_cpm2,eps1_rel,eps2_rel")
# the rows _data_rows calls blank: whitespace-only, comma-only, one empty quoted cell
BLANK_ROWS = {"spaces": "   ", "commas": ",,,,,,,,,,,", "quotes": '""'}
READERS = {"volume": load_volume_csv, "surface": load_surface_csv, "trace": load_trace}


def clean_lines(kind):
    """A valid table of `kind`, as a header line and 8 row lines of "%.17g"
    cells (unit normals, positive weights and areas, rising frequencies)."""
    rng = np.random.default_rng(28)
    if kind == "trace":
        return "f_hz,re,im", [f"{i + 1},{x!r},{y!r}" for i, (x, y) in enumerate(rng.normal(size=(8, 2)).tolist())]
    header = VOLUME_HEADER if kind == "volume" else SURFACE_HEADER
    cells = rng.uniform(0.5, 1.5, (8, header.count(",") + 1))
    if kind == "surface":
        cells[:, 4:7] = 0.0, 0.0, -1.0
    return header, [",".join("%.17g" % x for x in row) for row in cells]


def table_bytes(header, rows):
    return ("\n".join([header, *rows]) + "\n").encode()


def with_cell(row, column, cell):
    """The row line with its cell `column` replaced by `cell`."""
    cells = row.split(",")
    cells[column] = cell
    return ",".join(cells)


def loaded(kind, path):
    """What the loader of `kind` read from `path`, as bytes."""
    record = READERS[kind](path)
    return b"".join(np.ascontiguousarray(getattr(record, f.name)).tobytes() for f in fields(record))


def through_pipe(data: bytes, read):
    """read("/dev/fd/N") on the read end of a pipe that a writer thread
    fills and closes, as a shell's <(cat file) passes it; the thread lets
    data larger than the pipe's buffer through."""
    r, w = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)  # a writer still blocked gets EPIPE
        writer.join()


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@needs_dev_fd
class TestOneReader:
    """np.loadtxt turns every cell into a float.  A blank row costs one more
    loadtxt call over the lines without it, and the row walk only names the
    first row loadtxt refuses."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("blank", sorted(BLANK_ROWS))
    @pytest.mark.parametrize("where", [4, 8])  # after the fourth row, after the last
    def test_blank_rows_read_as_the_clean_file(self, tmp_path, monkeypatch, kind, blank, where):
        # the row walk is never reached: the data come from loadtxt alone
        header, rows = clean_lines(kind)
        (tmp_path / "clean.csv").write_bytes(table_bytes(header, rows))
        want = loaded(kind, tmp_path / "clean.csv")
        data = table_bytes(header, [*rows[:where], BLANK_ROWS[blank], *rows[where:]])
        path = tmp_path / "blank.csv"
        path.write_bytes(data)

        def walk(*args):
            raise AssertionError("the row walk ran")

        monkeypatch.setattr(tables, "_refuse", walk)
        assert loaded(kind, path) == want
        assert through_pipe(data, lambda p: loaded(kind, p)) == want

    @pytest.mark.parametrize("kind", ["volume", "trace"])
    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"])  # float() reads both: 10.0, 12.0
    @pytest.mark.parametrize("blank", [None, "spaces", "commas", "quotes"])
    def test_cells_loadtxt_refuses_name_their_line(self, tmp_path, kind, cell, blank):
        # data row 6, at line 7, or line 8 below a blank row at line 4
        header, rows = clean_lines(kind)
        rows[5] = with_cell(rows[5], -1, cell)
        if blank:
            rows.insert(2, BLANK_ROWS[blank])
        data = table_bytes(header, rows)
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        message = f"{8 if blank else 7}: could not convert string to float: {cell!r}"
        with pytest.raises(DataError) as info:
            READERS[kind](path)
        assert str(info.value) == f"{path}:{message}"
        with pytest.raises(DataError) as info:
            through_pipe(data, READERS[kind])
        assert str(info.value).split(":", 1)[1] == message

    def test_a_refusal_with_no_row_to_blame_names_the_file(self, tmp_path, monkeypatch):
        # where the row walk finds no row, the file is refused all the same,
        # with loadtxt's own message
        header, rows = clean_lines("trace")
        rows[5] = with_cell(rows[5], 1, "1_0")
        path = tmp_path / "trace.csv"
        path.write_bytes(table_bytes(header, [*rows, BLANK_ROWS["spaces"]]))
        monkeypatch.setattr(tables, "_data_rows", lambda lines: iter(()))
        with pytest.raises(DataError) as info:
            load_trace(path)
        assert str(info.value).startswith(f"{path}: could not convert string '1_0' to float64")

    @pytest.mark.parametrize("blank", [None, *sorted(BLANK_ROWS)])
    def test_padded_cells_and_non_numeric_positions_still_read(self, tmp_path, blank):
        # " 1.5 " is 1.5, and x_m, y_m, z_m are counted but never parsed
        header, rows = clean_lines("volume")
        want = rows[3].split(",")[3]
        rows[3] = ",".join(["x", "\u20ac", '""', f" {want} ", *rows[3].split(",")[4:]])
        if blank:
            rows.insert(5, BLANK_ROWS[blank])
        path = tmp_path / "vol.csv"
        path.write_bytes(table_bytes(header, rows))
        assert load_volume_csv(path).weight[3] == float(want)

    @pytest.mark.parametrize("kind, column, cell, message", [
        ("volume", 3, "-1e-20", "weight must be finite and > 0, got -1e-20"),
        ("surface", 3, "0", "area must be finite and > 0, got 0.0"),
        ("surface", 6, "-0.5", "normals must be unit vectors"),
    ])
    def test_bound_violation_names_its_line(self, tmp_path, kind, column, cell, message):
        # the line map of the row walk, blank rows counted: data row 6 is
        # at line 9 below two blank rows
        header, rows = clean_lines(kind)
        rows[5] = with_cell(rows[5], column, cell)
        rows[1:1] = [BLANK_ROWS["spaces"], BLANK_ROWS["quotes"]]
        data = table_bytes(header, rows)
        path = tmp_path / "set.csv"
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            READERS[kind](path)
        assert str(info.value) == f"{path}:9: {message}"
        with pytest.raises(DataError) as info:
            through_pipe(data, READERS[kind])
        assert str(info.value).split(":", 2)[1:] == ["9", f" {message}"]

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_a_non_finite_last_row_is_found_in_the_array(self, tmp_path, monkeypatch, kind):
        # loadtxt reads the body, so the row comes from the array: the row
        # walk never runs, and the line map names the line below a blank row
        header, rows = clean_lines(kind)
        rows[-1] = with_cell(rows[-1], -1, "nan")
        rows.insert(2, BLANK_ROWS["spaces"])
        data = table_bytes(header, rows)
        path = tmp_path / "set.csv"
        path.write_bytes(data)

        def walk(*args):
            raise AssertionError("the row walk ran")

        monkeypatch.setattr(tables, "_refuse", walk)
        with pytest.raises(DataError) as info:
            READERS[kind](path)
        assert str(info.value) == f"{path}:10: non-finite sample"
        with pytest.raises(DataError) as info:
            through_pipe(data, READERS[kind])
        assert str(info.value).split(":", 1)[1] == "10: non-finite sample"

    def test_the_row_walk_reads_whole_blocks_up_to_the_bad_one(self, tmp_path, monkeypatch):
        # a bad last cell of a 10000-row trace: two reads of the whole body,
        # one per block, one per row of the last block, one per cell of the row
        n = 10_000
        path = tmp_path / "trace.csv"
        path.write_text("f_hz,re,im\n" + "".join(f"{i},0.1,0.2\n" for i in range(n - 1)) + f"{n},0.1,x\n")
        calls = []
        loadtxt = tables._loadtxt

        def counted(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(tables, "_loadtxt", counted)
        with pytest.raises(DataError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}:{n + 1}: could not convert string to float: 'x'"
        assert len(calls) <= 2 + -(-n // tables._WALK_BLOCK) + tables._WALK_BLOCK + 3

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_the_block_size_does_not_move_the_row_named(self, tmp_path, monkeypatch, block):
        # the first fault is named wherever the block edges fall, with a
        # later fault behind it, and below a blank row and a two-line row
        monkeypatch.setattr(tables, "_WALK_BLOCK", block)
        path = tmp_path / "trace.csv"
        faults = {
            3: ("3,0.1", "expected 3 columns, got 2"),
            4: ("4,x,0.2", "could not convert string to float: 'x'"),
            6: ("6,0.1,inf", "non-finite sample"),
            7: ("7,1_0,nan", "could not convert string to float: '1_0'"),
        }
        for i, (row, reason) in faults.items():
            for later in ("19,0.1", "19,nan,0"):
                rows = [f"{k},0.1,0.2" for k in range(19)] + [later]
                rows[i] = row
                for above in ([], [",,,", '0.5,0.1,0.2,"a', 'b"']):
                    path.write_text("".join(f"{line}\n" for line in ["f_hz,re,im", rows[0], *above, *rows[1:]]))
                    with pytest.raises(DataError) as info:
                        load_trace(path)
                    assert str(info.value) == f"{path}:{i + 2 + len(above)}: {reason}"


@pytest.mark.parametrize("data", [
    # a quoted fourth cell past csv's field limit, and a blank row that
    # sends the read to the csv walk
    "f_hz,re,im\n" + "".join(f"{i},0.1,0.2\n" for i in range(1, 9)) + f'9,0.1,0.2,"{"a" * 200_000}"\n   \n',
    # a header cell past the limit over a clean body
    f'"{"f" * 200_000}",re,im\n' + "".join(f"{i},0.1,0.2\n" for i in range(1, 10)),
], ids=["quoted_cell", "header_cell"])
@needs_dev_fd
def test_an_oversized_cell_is_a_data_error(tmp_path, capsys, data):
    path, out = tmp_path / "trace.csv", str(tmp_path / "fit.json")
    path.write_text(data, encoding="utf-8")
    capsys.readouterr()
    assert main(["fit", "reflect", "--in", str(path), "--out", out]) == 2
    want = "field larger than field limit (131072)\n"
    assert capsys.readouterr().err == f"data error: cannot read {path}: {want}"
    pipes = []

    def fit(pipe):
        pipes.append(pipe)
        return main(["fit", "reflect", "--in", pipe, "--out", out])

    assert through_pipe(data.encode(), fit) == 2
    assert capsys.readouterr().err == f"data error: cannot read {pipes[0]}: {want}"
