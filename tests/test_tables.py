"""The trace cell writer against `"%r" % x`, byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emcavity.tables import format_e17, format_repr


def repr_table(table, line_end="\r\n"):
    return "".join(",".join("%r" % x for x in row) + line_end for row in table.tolist()).encode()


def neighbours(x):
    """x with the floats one ulp below and above it, both signs."""
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def significant_digits(x):
    mantissa = repr(x).split("e")[0].replace("-", "").replace(".", "")
    return len(mantissa.strip("0"))


class TestFormatRepr:
    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, xs, ncol):
        table = np.array(xs * ncol).reshape(-1, ncol)
        assert format_repr(table).tobytes() == repr_table(table)

    def test_powers_of_ten_and_two(self):
        powers = [float(f"1e{k}") for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)]
        table = neighbours(np.array(powers)).reshape(-1, 2)
        assert format_repr(table).tobytes() == repr_table(table)

    def test_layout_boundaries(self):
        # the last positional cells and the first exponent ones on each side
        edges = np.array([1e-05, 0.0001, 1e16, 9999999999999998.0, 1e-100, 1e100, 0.5, 1.0])
        table = neighbours(edges).reshape(-1, 1)
        assert format_repr(table).tobytes() == repr_table(table)
        assert b"1e-05" in format_repr(table).tobytes()
        assert b"9999999999999998.0" in format_repr(table).tobytes()

    def test_shortest_digit_counts(self):
        # 15, 16 and 17 digits are each the first width to read back
        rng = np.random.default_rng(19)
        xs = rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)
        short = [float(f"{x:.{nd - 1}e}") for nd in (1, 15, 16) for x in xs[:200].tolist()]
        cells = np.concatenate([xs, short])
        counts = {significant_digits(x) for x in cells.tolist()}
        assert {1, 15, 16, 17} <= counts
        table = cells.reshape(-1, 3)
        assert format_repr(table).tobytes() == repr_table(table)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(19).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
        table = x.reshape(-1, 5)
        assert format_repr(table).tobytes() == repr_table(table)

    def test_special_values_and_line_ends(self):
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1])
        table = x.reshape(-1, 4)
        assert format_repr(table).tobytes() == repr_table(table)
        assert format_repr(table, b"\n").tobytes() == repr_table(table, "\n")
        assert format_e17(table, b"\r\n").tobytes() == "".join(
            ",".join("%.17e" % v for v in row) + "\r\n" for row in table.tolist()
        ).encode()
