"""Design integrals: effective mass, capacitance, moving-boundary coupling."""

import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emcavity import device
from emcavity.constants import EPSILON_0, TWO_PI
from emcavity.device import (
    ResonatorLumped,
    SurfaceSampleSet,
    VolumeSampleSet,
    _rowdot,
    capacitance_from_energy,
    coupling_rate_moving_boundary,
    effective_mass,
    fractional_capacitance_derivative,
    lc_frequency,
    load_surface_csv,
    load_volume_csv,
    max_displacement,
    participation_ratio,
)
from emcavity.errors import DataError, DomainError, NumericalError
from emcavity.params import RULE

from conftest import reference_table, traced_peak


def rigid_block(n=100, rho=2329.0, volume=1e-15):
    """Uniform density, uniform unit displacement: m_eff must equal M."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.5, n)
    w *= volume / w.sum()
    return VolumeSampleSet(
        weight=w,
        eps_rel=np.ones(n),
        e_field=np.zeros((n, 3)),
        rho=np.full(n, rho),
        q=np.tile([0.0, 0.0, 1.0e-9], (n, 1)),
    )


def sine_string(n=10**4, length=1e-3, rho=2329.0, cross_section=1e-12):
    """Doubly clamped string fundamental: m_eff = M/2 at the antinode."""
    x = (np.arange(n) + 0.5) * length / n
    return VolumeSampleSet(
        weight=np.full(n, length / n * cross_section),
        eps_rel=np.ones(n),
        e_field=np.zeros((n, 3)),
        rho=np.full(n, rho),
        q=np.stack([0 * x, np.sin(np.pi * x / length), 0 * x], axis=1),
    )


def parallel_plate(gap=100e-9, area=1e-8, volts=1.0, n=50, q_amp=1e-9):
    """Vacuum-gap capacitor sampled through the gap; top plate is movable."""
    z = (np.arange(n) + 0.5) * gap / n
    vol = VolumeSampleSet(
        weight=np.full(n, area * gap / n),
        eps_rel=np.ones(n),
        e_field=np.stack([0 * z, 0 * z, np.full(n, volts / gap)], axis=1),
        rho=np.ones(n),
        q=np.tile([0.0, 0.0, q_amp], (n, 1)),
    )
    # conductor on the +normal side, vacuum gap on the other; displacement
    # toward the gap increases C
    surf = SurfaceSampleSet(
        area=np.array([area]),
        normal=np.array([[0.0, 0.0, -1.0]]),
        q=np.array([[0.0, 0.0, -q_amp]]),
        e_field=np.array([[0.0, 0.0, volts / gap]]),
        d_field=np.array([[0.0, 0.0, EPSILON_0 * volts / gap]]),
        eps1_rel=np.array([1e12]),
        eps2_rel=np.array([1.0]),
    )
    return vol, surf


def dwda_lumped(eta: float, omega_c: float, c_m: float, dc_da: float) -> float:
    """Lumped-circuit route: d omega_c / d alpha = -(omega_c/2) eta (1/C_m) dC_m/dalpha."""
    if c_m <= 0:
        raise DomainError("C_m must be positive")
    return -(omega_c / 2.0) * eta * dc_da / c_m


class TestEffectiveMass:
    def test_rigid_mode_equals_total_mass(self):
        vol = rigid_block()
        total = float(np.sum(vol.weight * vol.rho))
        assert effective_mass(vol) == pytest.approx(total, rel=1e-12)

    def test_sine_string_half_mass(self):
        vol = sine_string()
        total = float(np.sum(vol.weight * vol.rho))
        assert effective_mass(vol) == pytest.approx(total / 2.0, rel=1e-6)

    def test_normalization_is_antinode(self):
        vol = sine_string(n=1001)
        assert max_displacement(vol) == pytest.approx(1.0, rel=1e-5)

    def test_zero_mode_rejected(self):
        vol = rigid_block()
        bad = VolumeSampleSet(
            weight=vol.weight,
            eps_rel=vol.eps_rel,
            e_field=vol.e_field,
            rho=vol.rho,
            q=np.zeros_like(vol.q),
        )
        with pytest.raises(DomainError):
            max_displacement(bad)


class TestCapacitance:
    def test_parallel_plate(self):
        gap, area = 100e-9, 1e-8
        vol, _ = parallel_plate(gap=gap, area=area)
        assert capacitance_from_energy(vol) == pytest.approx(
            EPSILON_0 * area / gap, rel=1e-12
        )

    def test_voltage_invariance(self):
        gap, area, volts = 100e-9, 1e-8, 3.7
        vol, _ = parallel_plate(gap=gap, area=area, volts=volts)
        assert capacitance_from_energy(vol, volts) == pytest.approx(
            EPSILON_0 * area / gap, rel=1e-12
        )

    def test_out_of_range_is_numerical_error(self):
        # called directly: V^2 overflows, V^2 underflows to 0, E / V^2
        # overflows; and inputs within the magnitude rule: E / V^2
        # overflows, E / V^2 underflows to 0, E overflows, no field energy
        vol, _ = parallel_plate()
        field, big = np.where(vol.e_field != 0, 1.0, 0.0), np.full(50, 1e100)
        for edit, volts in [({}, 1e200), ({}, 1e-200), ({}, 1e-162),
                            ({"e_field": 1e100 * field}, 1e-100), ({"e_field": 1e-100 * field}, 1e100),
                            ({"e_field": 1e100 * field, "weight": big, "eps_rel": big}, 1.0),
                            ({"e_field": 0 * vol.e_field}, 1.0)]:
            with pytest.raises(NumericalError, match="^C_m is not a positive finite float at "):
                capacitance_from_energy(replace(vol, **edit), volts)

    def test_participation_ratio_design_points(self):
        assert participation_ratio(1.78e-15, 10.97e-15) == pytest.approx(0.1396, rel=4e-3)
        assert participation_ratio(1.51e-15, 10.97e-15) == pytest.approx(0.1210, rel=4e-3)

    @pytest.mark.parametrize("c_m, c_s, message", [
        (0.0, 1e-14, "C_m must be positive"),
        (1e-15, -1e-15, "C_s must be non-negative"),
    ])
    def test_participation_ratio_refuses_a_bad_capacitance(self, c_m, c_s, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            participation_ratio(c_m, c_s)

    def test_lc_frequency(self):
        r = ResonatorLumped(inductance=2e-9, stray_capacitance=10e-15)
        c_m = 2e-15
        expected = 1.0 / np.sqrt(2e-9 * 12e-15)
        assert lc_frequency(r, c_m) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c_m", [0.0, -1e-15])
    def test_lc_frequency_refuses_no_total_capacitance(self, c_m):
        with pytest.raises(DomainError, match="^total capacitance must be positive$"):
            lc_frequency(ResonatorLumped(inductance=2e-9, stray_capacitance=0.0), c_m)

    @pytest.mark.parametrize("inductance, c_s, c_m, product", [
        (1e60, 1e-14, 8.8541878188e258, "inf"),  # overflows: omega_c would be 0
        (1e-100, 0.0, 8.8541878188e-252, "0"),  # underflows: omega_c would be inf
    ], ids=["overflow", "underflow"])
    def test_lc_frequency_outside_the_float_range(self, inductance, c_s, c_m, product):
        # L (C_s + C_m) leaves the float range from inputs within the
        # magnitude rule: omega_c is refused by name, with no warning
        r = ResonatorLumped(inductance=inductance, stray_capacitance=c_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^omega_c is not a positive finite float at "
                                                     rf"L \(C_s \+ C_m\) = {product} s\^2$"):
                lc_frequency(r, c_m)


class TestMovingBoundary:
    def test_plate_derivative_is_inverse_gap(self):
        gap = 100e-9
        vol, surf = parallel_plate(gap=gap)
        frac = fractional_capacitance_derivative([surf], vol)
        assert frac == pytest.approx(1.0 / gap, rel=1e-9)

    def test_against_finite_difference_oracle(self):
        gap = 100e-9
        vol, surf = parallel_plate(gap=gap)
        frac = fractional_capacitance_derivative([surf], vol)
        h = 1e-4 * gap
        c0 = capacitance_from_energy(vol)
        vol2, _ = parallel_plate(gap=gap - h)
        fd = (capacitance_from_energy(vol2) - c0) / (h * c0)
        assert frac == pytest.approx(fd, rel=0.01)

    def test_normal_flip_invariance(self):
        vol, surf = parallel_plate()
        flipped = SurfaceSampleSet(
            area=surf.area,
            normal=-surf.normal,
            q=surf.q,
            e_field=surf.e_field,
            d_field=surf.d_field,
            eps1_rel=surf.eps2_rel,
            eps2_rel=surf.eps1_rel,
        )
        a = fractional_capacitance_derivative([surf], vol)
        b = fractional_capacitance_derivative([flipped], vol)
        assert a == b

    def test_g0_sign_and_lumped_consistency(self):
        gap = 100e-9
        vol, surf = parallel_plate(gap=gap)
        eta, omega_c, x_zpf = 0.14, TWO_PI * 10e9, 3.25e-14
        g0 = coupling_rate_moving_boundary([surf], vol, eta, omega_c, x_zpf)
        # plate moving into the gap raises C, lowers omega_c: g0 < 0
        assert g0 < 0
        c_m = capacitance_from_energy(vol)
        dc_da = c_m / gap
        expected = x_zpf * dwda_lumped(eta, omega_c, c_m, dc_da)
        assert g0 == pytest.approx(expected, rel=1e-9)

    def test_split_surface_additivity(self):
        vol, surf = parallel_plate()
        halves = [
            SurfaceSampleSet(
                area=surf.area / 2.0,
                normal=surf.normal,
                q=surf.q,
                e_field=surf.e_field,
                d_field=surf.d_field,
                eps1_rel=surf.eps1_rel,
                eps2_rel=surf.eps2_rel,
            )
        ] * 2
        assert fractional_capacitance_derivative(halves, vol) == pytest.approx(
            fractional_capacitance_derivative([surf], vol), rel=1e-12
        )

    def test_out_of_range_is_numerical_error(self):
        # inputs within the magnitude rule: a surface sum that overflows,
        # and a field energy that overflows to inf and would give a ratio of 0
        vol, surf = parallel_plate()
        big = np.full(50, 1e100)
        for v, s in [(vol, replace(surf, area=np.array([1e100]), d_field=np.array([[0.0, 0.0, 1e100]]))),
                     (replace(vol, weight=big, eps_rel=big, e_field=np.where(vol.e_field != 0, 1e100, 0.0)), surf)]:
            with pytest.raises(NumericalError, match=r"^\(1/C_m\) dC_m/dalpha is not a finite float$"):
                fractional_capacitance_derivative([s], v)

    def test_zero_field_energy_is_refused(self):
        vol, surf = parallel_plate()
        with pytest.raises(DomainError, match="^degenerate field: zero stored energy$"):
            fractional_capacitance_derivative([surf], replace(vol, e_field=0.0 * vol.e_field))


class TestLoaders:
    def test_volume_round_trip(self, tmp_path):
        vol = sine_string(n=20)
        path = tmp_path / "vol.csv"
        cols = np.hstack(
            [
                np.zeros((len(vol.weight), 3)),  # x_m, y_m, z_m
                vol.weight[:, None],
                vol.eps_rel[:, None],
                vol.e_field,
                vol.rho[:, None],
                vol.q,
            ]
        )
        header = "x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m"
        np.savetxt(path, cols, delimiter=",", header=header, comments="")
        back = load_volume_csv(path)
        assert np.allclose(back.q, vol.q)
        assert np.allclose(back.weight, vol.weight)

    def test_surface_round_trip(self, tmp_path):
        _, surf = parallel_plate()
        path = tmp_path / "surf.csv"
        cols = np.hstack(
            [
                np.zeros((len(surf.area), 3)),  # x_m, y_m, z_m
                surf.area[:, None],
                surf.normal,
                surf.q,
                surf.e_field,
                surf.d_field,
                surf.eps1_rel[:, None],
                surf.eps2_rel[:, None],
            ]
        )
        header = (
            "x_m,y_m,z_m,a_m2,nx,ny,nz,qx_m,qy_m,qz_m,"
            "ex_vpm,ey_vpm,ez_vpm,dx_cpm2,dy_cpm2,dz_cpm2,eps1_rel,eps2_rel"
        )
        np.savetxt(path, cols, delimiter=",", header=header, comments="")
        back = load_surface_csv(path)
        assert np.allclose(back.normal, surf.normal)
        assert np.allclose(back.d_field, surf.d_field)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            load_volume_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad_row.csv"
        header = "x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m"
        good = ",".join(["1.0"] * 12)
        path.write_text(header + "\n" + good + "\n" + "1.0,bad" + "\n")
        with pytest.raises(DataError, match=":3"):
            load_volume_csv(path)


VOLUME_HEADER = "x_m,y_m,z_m,w_m3,eps_rel,ex_vpm,ey_vpm,ez_vpm,rho_kgpm3,qx_m,qy_m,qz_m"
SURFACE_HEADER = (
    "x_m,y_m,z_m,a_m2,nx,ny,nz,qx_m,qy_m,qz_m,"
    "ex_vpm,ey_vpm,ez_vpm,dx_cpm2,dy_cpm2,dz_cpm2,eps1_rel,eps2_rel"
)
# the documented file columns of each field, written out independently of
# the field metadata the loaders read; columns 0-2 (x_m, y_m, z_m) are not
VOLUME_LAYOUT = {"weight": 3, "eps_rel": 4, "e_field": slice(5, 8), "rho": 8, "q": slice(9, 12)}
SURFACE_LAYOUT = {"area": 3, "normal": slice(4, 7), "q": slice(7, 10),
                  "e_field": slice(10, 13), "d_field": slice(13, 16), "eps1_rel": 16,
                  "eps2_rel": 17}


@pytest.mark.parametrize(
    "header, layout, load",
    [(VOLUME_HEADER, VOLUME_LAYOUT, load_volume_csv), (SURFACE_HEADER, SURFACE_LAYOUT, load_surface_csv)],
    ids=["volume", "surface"],
)
def test_each_field_reads_its_own_columns(tmp_path, header, layout, load):
    # cell (i, j) is 100 i + j, so a field read from the wrong column or row
    # shows; the normals are a fixed unit vector with distinct components
    ncols = len(header.split(","))
    table = 100.0 * np.arange(1, 6)[:, None] + np.arange(ncols)
    if "normal" in layout:
        table[:, layout["normal"]] = [0.48, 0.6, 0.64]
    path = tmp_path / "samples.csv"
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))
    loaded = load(path)
    assert list(layout) == [f.name for f in fields(loaded)]
    for name, cols in layout.items():
        assert np.array_equal(getattr(loaded, name), table[:, cols]), name


class TestSampleChecks:
    """Sample records check themselves on construction: input data, so a
    DataError naming the field."""

    def test_bad_values_name_the_field(self):
        vol = rigid_block(n=4)
        for edit, message in [
            ({"weight": np.array([1e-18, 0.0, 1e-18, 1e-18])}, "weight must be finite and > 0, got 0.0"),
            ({"e_field": np.full((4, 3), np.inf)}, "e_field must be finite, got inf"),
            ({"rho": np.ones(3)}, "sample arrays must share one non-zero length; rho has 3"),
        ]:
            with pytest.raises(DataError) as info:
                replace(vol, **edit)
            assert str(info.value) == message
        with pytest.raises(DataError, match="^sample arrays must share one non-zero length; weight has 0$"):
            VolumeSampleSet(*(np.empty(0) for _ in fields(VolumeSampleSet)))

    def test_surface_normals_must_be_unit(self):
        _, surf = parallel_plate()
        with pytest.raises(DataError, match="^normals must be unit vectors$"):
            replace(surf, normal=2.0 * surf.normal)
        with pytest.raises(DataError, match="^area must be finite and > 0, got -1e-08$"):
            replace(surf, area=-surf.area)


ROW_A = ",".join(["1.5"] * 12)
ROW_B = "0.1,0.2,0.3,1e-18,11.7,1e5,2e5,3e5,2329,1e-9,2e-9,3e-9"


def volume_array(v: VolumeSampleSet) -> np.ndarray:
    """The loaded set back in file column order, from w_m3 on."""
    return np.hstack([v.weight[:, None], v.eps_rel[:, None], v.e_field, v.rho[:, None], v.q])


class TestLoaderDiagnostics:
    """Every accepted file and every message is pinned: bad rows name
    `path:line` (header = line 1), blank rows are skipped."""

    @pytest.mark.parametrize(
        "body, message",
        [
            (f"{ROW_A}\n1.0,bad\n", "{path}:3: expected 12 columns"),
            (f"{ROW_A}\n{ROW_A},7\n", "{path}:3: expected 12 columns"),
            (f"{ROW_A}\n{ROW_A[4:]}\n", "{path}:3: expected 12 columns"),
            # every row long by one cell: consistent widths, still refused
            (f"{ROW_A},7\n" * 2, "{path}:2: expected 12 columns"),
            # every row short by one cell: consistent widths, still refused
            ("1,2,3,4,5,6,7,8,9,10,11\n" * 2, "{path}:2: expected 12 columns"),
            (f"{ROW_A},\n", "{path}:2: expected 12 columns"),
            (f"{ROW_A}\n{ROW_B}\n1,2,3,4,5,6,7,8,9,x,11,12\n",
             "{path}:4: could not convert string to float: 'x'"),
            # the first read column, w_m3, is parsed like every later one
            (f"{ROW_A}\n1,2,3,x,5,6,7,8,9,10,11,12\n", "{path}:3: could not convert string to float: 'x'"),
            # float() syntax that loadtxt refuses
            (f"{ROW_A.replace('1.5', '1_5e-1')}\n{ROW_B}\n", "{path}:2: could not convert string to float: '1_5e-1'"),
            (f"{ROW_A}\n1,2,3,nan,5,6,7,8,9,10,11,12\n", f"{{path}}:3: w_m3: expected {RULE}, got nan"),
            (f"{ROW_A}\n1,2,3,4,5,6,7,8,9,10,11,inf\n", f"{{path}}:3: qz_m: expected {RULE}, got inf"),
            (f"{ROW_A}\n1,2,3,4,5,6,7,8,9,10,11,1e200\n", f"{{path}}:3: qz_m: expected {RULE}, got 1e+200"),
            (f"{ROW_A}\n1,2,3,4,5,6,7,8,9,1e-101,11,12\n", f"{{path}}:3: qx_m: expected {RULE}, got 1e-101"),
            (f"{ROW_A}\n# comment\n{ROW_B}\n", "{path}:3: expected 12 columns"),
            (f"{ROW_A}\n\n  \n1,2\n", "{path}:5: expected 12 columns"),
            ("", "{path}: no data rows"),
            ("\n\n", "{path}: no data rows"),
            ("  \n", "{path}: no data rows"),
        ],
    )
    def test_volume_errors(self, tmp_path, body, message):
        path = tmp_path / "vol.csv"
        path.write_text(f"{VOLUME_HEADER}\n{body}", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file warns nothing
            with pytest.raises(DataError) as info:
                load_volume_csv(path)
        assert type(info.value) is DataError
        assert str(info.value) == message.format(path=path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vol.csv"
        path.write_text("")
        with pytest.raises(DataError) as info:
            load_volume_csv(path)
        assert str(info.value) == f"{path}: expected header {VOLUME_HEADER}"

    def test_surface_short_row(self, tmp_path):
        path = tmp_path / "surf.csv"
        header = (
            "x_m,y_m,z_m,a_m2,nx,ny,nz,qx_m,qy_m,qz_m,"
            "ex_vpm,ey_vpm,ez_vpm,dx_cpm2,dy_cpm2,dz_cpm2,eps1_rel,eps2_rel"
        )
        path.write_text(f"{header}\n{','.join(['1'] * 18)}\n{','.join(['1'] * 17)}\n")
        with pytest.raises(DataError) as info:
            load_surface_csv(path)
        assert str(info.value) == f"{path}:3: expected 18 columns"

    def test_non_finite_cell_fails_in_the_sample_set(self, tmp_path):
        # the same rule, and message, as a non-finite trace cell
        path = tmp_path / "vol.csv"
        path.write_text(f"{VOLUME_HEADER}\n{ROW_A}\n1,2,3,4,5,6,7,8,9,nan,11,12\n")
        with pytest.raises(DataError) as info:
            load_volume_csv(path)
        assert str(info.value) == f"{path}:3: qx_m: expected {RULE}, got nan"

    @pytest.mark.parametrize(
        "text",
        [
            f"{VOLUME_HEADER}\n{ROW_A}\n   \n{ROW_B}\n",  # whitespace-only line
            f"{VOLUME_HEADER}\n{ROW_A}\n\n{ROW_B}\n\n\n",  # blank lines
            f"{VOLUME_HEADER}\n{ROW_A}\n{',' * 11}\n{ROW_B}\n",  # empty-cell row
            f"{VOLUME_HEADER}\r\n{ROW_A}\r\n{ROW_B}\r\n",  # CRLF
            f"{VOLUME_HEADER}\n{ROW_A}\n{ROW_B}",  # no final newline
            f"{VOLUME_HEADER}\n\"1.5\",{ROW_A[4:]}\n{ROW_B}\n",  # quoted number
            f"{VOLUME_HEADER}\n{ROW_A.replace(',', ' , ')}\n{ROW_B}\n",  # padded cells
            f" {VOLUME_HEADER.replace(',', ' , ')}\n{ROW_A}\n{ROW_B}\n",  # padded header
            # x_m, y_m, z_m are counted but never parsed
            f"{VOLUME_HEADER}\nx,nan,3,{ROW_A[12:]}\n{ROW_B}\n",
            f"{VOLUME_HEADER}\n\"1,2\",inf,,{ROW_A[12:]}\n{ROW_B}\n",
            # a non-Latin-1 position cell makes the bulk pass hand over to the retry
            f"{VOLUME_HEADER}\n{ROW_A}\n1.23456789012345678e-05,\u20ac,\"\",{ROW_B[12:]}\n",
        ],
    )
    def test_accepted_variants(self, tmp_path, text):
        path = tmp_path / "vol.csv"
        path.write_text(text, newline="", encoding="utf-8")
        want = reference_table(path, start=3)
        assert want.shape == (2, 9)
        assert volume_array(load_volume_csv(path)).tobytes() == want.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# the cells the magnitude rule lets in
RULED = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))
CELL_STYLES = st.sampled_from(["{!r}", "{:.17e}", "{:.6g}", " {!r} ", '"{!r}"'])


@st.composite
def volume_csv_text(draw):
    """A volume CSV with random cells within the magnitude rule (positive
    weights), cell styles, blank and whitespace-only lines and line ends."""
    lines = [VOLUME_HEADER]
    for _ in range(draw(st.integers(1, 12))):
        cells = [draw(RULED) for _ in range(12)]
        cells[3] = draw(st.floats(1e-100, 1e100))
        lines.append(",".join(draw(CELL_STYLES).format(c) for c in cells))
        lines += draw(st.lists(st.sampled_from(["", "  "]), max_size=1))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


@given(text=volume_csv_text())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_volume_loader_matches_reference_parser(tmp_path, text):
    path = tmp_path / "vol.csv"
    path.write_text(text, newline="")
    assert volume_array(load_volume_csv(path)).tobytes() == reference_table(path)[:, 3:].tobytes()


@st.composite
def column_pairs(draw):
    """Two finite (n, 3) arrays, contiguous or cut from the float columns
    of an S1-prefixed structured array as read_table returns them: views
    whose rows are not 8-byte aligned.  The second may be the first."""
    n = draw(st.integers(1, 40))
    values = draw(arrays(float, (n, 6), elements=FINITE))
    if draw(st.booleans()):
        skip = draw(st.integers(1, 3))
        table = np.zeros(n, [("skip", "S1", (skip,)), ("cells", float, (6,))])["cells"]
        table[:] = values
        assert not table.flags.aligned
    else:
        table = values
    a = table[:, :3]
    return a, a if draw(st.booleans()) else table[:, 3:]


@given(pair=column_pairs(), block=st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_rowdot_is_the_axis_sum_bit_for_bit(pair, block):
    a, b = pair
    with mock.patch.object(device, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
        assert _rowdot(a, b).tobytes() == np.sum(a * b, axis=1).tobytes()


@given(pair=column_pairs())
@settings(max_examples=200, deadline=None)
def test_max_displacement_is_the_largest_norm(pair):
    q, e_field = pair
    with np.errstate(over="ignore", under="ignore"):
        want = np.max(np.linalg.norm(q, axis=1))
    assume(want > 0)  # |Q|^2 may underflow to 0, a degenerate mode both ways
    n = len(q)
    v = VolumeSampleSet(weight=np.ones(n), eps_rel=np.ones(n), e_field=e_field, rho=np.ones(n), q=q)
    assert v.q is q  # the set holds the view, not a copy
    with np.errstate(over="ignore"):
        assert np.float64(max_displacement(v)).tobytes() == want.tobytes()


def test_g0_integrals_read_each_volume_column_once():
    # mass, capacitance and the moving-boundary integral share one |Q|^2
    # and one eps |E|^2 pass over the volume set
    vol, surf = parallel_plate()
    calls = []

    def counted(a, b):
        calls.append(a)
        return _rowdot(a, b)

    with mock.patch.object(device, "_rowdot", counted):
        effective_mass(vol)
        capacitance_from_energy(vol, 1.0)
        coupling_rate_moving_boundary([surf], vol, 0.5, TWO_PI * 5e9, 1e-15)
    assert sum(a is vol.q for a in calls) == 1
    assert sum(a is vol.e_field for a in calls) == 1


def plate_sample_csvs(tmp_path, n):
    """(volume, surface): an n-row parallel-plate volume set, half gap and
    half moving plate, and its n / 10-row plate face, with full-length
    cells."""
    rng = np.random.default_rng(5)
    gap, thick, area, e_gap, q_amp = 2e-7, 1e-7, 1e-8, 5e6, 1e-9
    half = n // 2
    vol = np.zeros((n, 12))
    vol[:, :3] = rng.uniform(0.0, 1e-4, (n, 3))
    vol[:, 3] = rng.uniform(0.5, 1.5, n) * area * (gap + thick) / n
    vol[:half, 4], vol[half:, 4] = 1.0, 1e12
    vol[:half, 7] = e_gap
    vol[half:, 8], vol[half:, 11] = 2329.0, -q_amp
    m = n // 10
    surf = np.zeros((m, 18))
    surf[:, :3] = rng.uniform(0.0, 1e-4, (m, 3))
    surf[:, 3] = rng.uniform(0.5, 1.5, m) * area / m
    surf[:, 6], surf[:, 9], surf[:, 12], surf[:, 15] = -1.0, -q_amp, e_gap, EPSILON_0 * e_gap
    surf[:, 16], surf[:, 17] = 1e12, 1.0
    paths = tmp_path / "vol.csv", tmp_path / "surf.csv"
    for path, table, header in zip(paths, (vol, surf), (VOLUME_HEADER, SURFACE_HEADER)):
        np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return paths


def test_g0_memory_per_row(tmp_path):
    # the parse keeps one-byte placeholders for x_m,y_m,z_m, and the
    # integrals hold one column at a time: 110 B per row measured; 8-byte
    # placeholders and (n, 3) products take it to 151 B
    n = 20_000
    volume, surface = plate_sample_csvs(tmp_path, n)

    def g0():
        vol, surf = load_volume_csv(volume), load_surface_csv(surface)
        effective_mass(vol)
        capacitance_from_energy(vol, 1.0)
        coupling_rate_moving_boundary([surf], vol, 0.5, TWO_PI * 5e9, 1e-15)

    assert traced_peak(g0) / n < 130.0
