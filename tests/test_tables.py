"""The one cell writer, format_e17, against `"%.17e" % x` byte for byte,
and traces in the format it replaced, which read back the same."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emcavity.cli import main
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
