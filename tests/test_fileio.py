"""CSV wire formats: bit-exact round trips and line-numbered rejection."""

import io

import numpy as np
import pytest

from superdir import (
    CouplingMatrix,
    DataError,
    FieldSampleSet,
    WaveCoefficientSet,
    read_coefficients,
    read_config,
    read_coupling,
    read_field_samples,
    write_coefficients,
    write_coupling,
    write_field_samples,
)
from superdir import fileio
from superdir.fileio import SWEEP_HEADER, sweep_rows_to_csv, write_sweep_rows
from superdir.sweep import SweepRow


def _round_trip(write, read, payload):
    buffer = io.StringIO()
    write(buffer, payload)
    return buffer.getvalue(), read(io.StringIO(buffer.getvalue()))


def _random_field(rng, rows=9):
    directions = np.column_stack(
        (rng.uniform(0.0, np.pi, rows), rng.uniform(0.0, 2.0 * np.pi, rows))
    )
    eth = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    eph = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    return FieldSampleSet.from_components(directions, eth, eph)


# ---- far-field samples -------------------------------------------------------


def test_field_round_trip_preserves_every_double():
    rng = np.random.default_rng(80)
    original = _random_field(rng)
    text, restored = _round_trip(write_field_samples, read_field_samples, original)
    assert text.splitlines()[0] == "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"
    # complex samples cross the boundary without any unit conversion: bit exact
    np.testing.assert_array_equal(restored.etheta, original.etheta)
    np.testing.assert_array_equal(restored.ephi, original.ephi)
    # angles go through radians -> degrees -> radians, so allow rounding there
    np.testing.assert_allclose(restored.directions, original.directions, rtol=1e-15, atol=1e-18)


def test_field_angles_are_written_in_degrees():
    field = FieldSampleSet.from_components(
        np.array([[np.pi / 2, np.pi]]), [1.0 + 0j], [0.0 + 0j]
    )
    buffer = io.StringIO()
    write_field_samples(buffer, field)
    row = buffer.getvalue().splitlines()[1].split(",")
    assert float(row[0]) == 90.0
    assert float(row[1]) == 180.0


def test_field_boundary_angles_are_accepted():
    text = (
        "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"
        "0,0,1,0,0,0\n"
        "180,360,0,0,1,0\n"
    )
    field = read_field_samples(io.StringIO(text))
    assert field.directions[0, 0] == 0.0
    assert field.directions[1, 0] == pytest.approx(np.pi)


@pytest.mark.parametrize("theta", ["-0.5", "180.001"])
def test_field_theta_out_of_range_is_rejected(theta):
    text = (
        "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"
        f"{theta},0,1,0,0,0\n"
    )
    with pytest.raises(DataError, match=r"line 2.*outside"):
        read_field_samples(io.StringIO(text))


def test_field_bad_header_names_line_one():
    with pytest.raises(DataError, match="line 1"):
        read_field_samples(io.StringIO("theta,phi,a,b,c,d\n0,0,1,0,0,0\n"))


def test_field_empty_file_is_rejected():
    with pytest.raises(DataError, match="empty"):
        read_field_samples(io.StringIO(""))


def test_field_header_without_rows_is_rejected():
    with pytest.raises(DataError, match="no sample rows"):
        read_field_samples(io.StringIO("theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"))


def test_field_non_numeric_cell_names_its_line_and_column():
    text = (
        "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"
        "10,0,1,0,0,0\n"
        "20,0,oops,0,0,0\n"
    )
    with pytest.raises(DataError, match=r"line 3.*re_etheta.*oops"):
        read_field_samples(io.StringIO(text))


def test_field_wrong_width_names_its_line():
    text = "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n10,0,1,0,0\n"
    with pytest.raises(DataError, match=r"line 2.*5 fields, expected 6"):
        read_field_samples(io.StringIO(text))


def test_field_blank_lines_are_ignored():
    text = (
        "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"
        "\n"
        "10,0,1,0,0,0\n"
        "\n"
        "20,0,0,0,1,0\n"
    )
    field = read_field_samples(io.StringIO(text))
    assert field.directions.shape == (2, 2)


FIELD_HEADER_LINE = "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"


def _row_route(monkeypatch):
    """Send every field read through the row parser."""
    monkeypatch.setattr(fileio, "_field_table", lambda lines: None)


def _spy_vectorized_route(monkeypatch):
    """Record what the vectorized parse returned for each read."""
    seen = []
    original = fileio._field_table
    monkeypatch.setattr(fileio, "_field_table", lambda lines: seen.append(original(lines)) or seen[-1])
    return seen


def test_field_vectorized_and_row_reads_agree_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(84)
    text = _round_trip(write_field_samples, read_field_samples, _random_field(rng, rows=500))[0]
    seen = _spy_vectorized_route(monkeypatch)
    fast = read_field_samples(io.StringIO(text))
    assert seen[0] is not None
    _row_route(monkeypatch)
    slow = read_field_samples(io.StringIO(text))
    assert fast.directions.tobytes() == slow.directions.tobytes()
    assert fast.values.tobytes() == slow.values.tobytes()


@pytest.mark.parametrize(
    "body, plain",
    [
        ('"10",0,"1",0,0,0\n20,0,0,0,1,0\n', "10,0,1,0,0,0\n20,0,0,0,1,0\n"),  # quoted cells
        ("1_0,0,1,0,0,0\n20,0,0,0,1_0.5,0\n", "10,0,1,0,0,0\n20,0,0,0,10.5,0\n"),  # separators
    ],
)
def test_field_cells_float_accepts_fall_back_to_the_same_doubles(body, plain, tmp_path, monkeypatch):
    paths = [tmp_path / "fallback.csv", tmp_path / "plain.csv"]
    for path, rows in zip(paths, (body, plain)):
        path.write_bytes((FIELD_HEADER_LINE + rows).encode())
    seen = _spy_vectorized_route(monkeypatch)
    fallback, expected = (read_field_samples(path) for path in paths)
    assert seen[0] is None and seen[1] is not None
    assert fallback.directions.tobytes() == expected.directions.tobytes()
    assert fallback.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_field_files_with_any_line_ending_read_the_same_doubles(ending, tmp_path, monkeypatch):
    rows = ["10,0,1,0,0,0", "20,0,0,0,1,0"]
    path = tmp_path / "field.csv"
    path.write_bytes(ending.join([FIELD_HEADER_LINE.strip(), *rows, ""]).encode())
    expected = read_field_samples(io.StringIO(FIELD_HEADER_LINE + "\n".join(rows) + "\n"))
    fast = read_field_samples(path)
    _row_route(monkeypatch)
    for field in (fast, read_field_samples(path)):
        assert field.directions.tobytes() == expected.directions.tobytes()
        assert field.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "line 2: field file has no sample rows"),
        ("\n\n", "line 2: field file has no sample rows"),
        ("10,0,1,0,0,0\n   \n", "line 3: field row has 1 fields, expected 6"),
        ("10,0,1,0,0\n", "line 2: field row has 5 fields, expected 6"),
        ("10,0,1,0,0,0\n20,0,1,0,0,0,\n", "line 3: field row has 7 fields, expected 6"),
        ("10,0,1,0,0,0\n20,0,oops,0,0,0\n", "line 3: column 're_etheta' is not a number: 'oops'"),
        ("10,0,1,,0,0\n", "line 2: column 'im_etheta' is not a number: ''"),
        ("-0.5,0,1,0,0,0\n", "line 2: theta_deg -0.5 outside [0, 180]"),
        ("10,0,1,0,0,0\nnan,0,1,0,0,0\n", "line 3: theta_deg nan outside [0, 180]"),
        ("10,0,1,0,0,0\n20,nan,1,0,0,0\n", "line 3: column 'phi_deg' is not finite: 'nan'"),
        ("10,0,1,0,0,0\n20,0,1,-inf,0,0\n", "line 3: column 'im_etheta' is not finite: '-inf'"),
        ("10,0,1,0,0,inf\n", "line 2: column 'im_ephi' is not finite: 'inf'"),
        # the first bad line wins, whatever comes after it
        ("180.5,0,oops,0,0,0\n10,0\n", "line 2: theta_deg 180.5 outside [0, 180]"),
    ],
)
def test_field_rejections_fall_back_to_the_exact_row_error(body, message, monkeypatch):
    seen = _spy_vectorized_route(monkeypatch)
    with pytest.raises(DataError) as info:
        read_field_samples(io.StringIO(FIELD_HEADER_LINE + body))
    assert str(info.value) == message
    assert seen == [None]


@pytest.mark.parametrize("route", ["vectorized", "row"])
def test_field_repeated_direction_names_its_line_and_the_line_it_repeats(route, monkeypatch):
    if route == "row":
        _row_route(monkeypatch)
    # 10 and 1e1 degrees are one radian value; line 3 is blank
    body = "10,0,1,0,0,0\n\n20,0,1,0,0,0\n1e1,0,0,1,0,0\n20,0,0,0,1,0\n"
    with pytest.raises(DataError) as info:
        read_field_samples(io.StringIO(FIELD_HEADER_LINE + body))
    assert str(info.value) == "line 5: direction repeats line 2"


# ---- coupling matrices --------------------------------------------------------


def test_coupling_round_trip_is_bit_exact():
    rng = np.random.default_rng(81)
    values = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    text, restored = _round_trip(
        write_coupling, read_coupling, CouplingMatrix.prescribed(values)
    )
    assert text.splitlines()[0] == "row,col,re,im"
    assert len(text.splitlines()) == 1 + 9  # header + every entry
    np.testing.assert_array_equal(restored.values, values)
    assert restored.source == "prescribed"


def test_coupling_entries_may_arrive_in_any_order():
    text = (
        "row,col,re,im\n"
        "2,2,4,0\n"
        "1,2,2,0\n"
        "2,1,3,0\n"
        "1,1,1,0\n"
    )
    restored = read_coupling(io.StringIO(text))
    np.testing.assert_array_equal(restored.values, [[1, 2], [3, 4]])


def test_coupling_duplicate_entry_is_rejected():
    text = "row,col,re,im\n1,1,1,0\n1,1,2,0\n"
    with pytest.raises(DataError, match=r"line 3: duplicate"):
        read_coupling(io.StringIO(text))


def test_coupling_incomplete_matrix_is_rejected():
    text = "row,col,re,im\n1,1,1,0\n1,2,2,0\n2,1,3,0\n"
    with pytest.raises(DataError, match="3 entries.*needs 4"):
        read_coupling(io.StringIO(text))


def test_coupling_zero_based_indices_are_rejected():
    text = "row,col,re,im\n0,1,1,0\n"
    with pytest.raises(DataError, match=r"line 2.*>= 1"):
        read_coupling(io.StringIO(text))


def test_coupling_non_integer_index_is_rejected():
    text = "row,col,re,im\n1.5,1,1,0\n"
    with pytest.raises(DataError, match=r"line 2.*row.*not an integer"):
        read_coupling(io.StringIO(text))


@pytest.mark.parametrize("cells, column", [("nan,0", "re"), ("0,inf", "im")])
def test_coupling_non_finite_value_names_its_line(cells, column):
    text = f"row,col,re,im\n1,1,1,0\n1,2,{cells}\n2,1,0,0\n2,2,1,0\n"
    with pytest.raises(DataError, match=rf"line 3: column '{column}' is not finite"):
        read_coupling(io.StringIO(text))


# ---- wave coefficients ---------------------------------------------------------


def test_coefficient_round_trip_is_bit_exact():
    rng = np.random.default_rng(82)
    coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    original = WaveCoefficientSet(coefficients=coeffs, truncation=3, residual=0.125)
    text, restored = _round_trip(write_coefficients, read_coefficients, original)
    assert text.splitlines()[0] == "s,m,n,re,im"
    np.testing.assert_array_equal(restored.coefficients, coeffs)
    assert restored.truncation == 3
    assert restored.residual == 0.0  # the residual does not cross the file boundary


def test_coefficient_rows_start_with_the_lowest_azimuthal_modes():
    original = WaveCoefficientSet(
        coefficients=np.arange(1, 7, dtype=complex), truncation=1, residual=0.0
    )
    buffer = io.StringIO()
    write_coefficients(buffer, original)
    body = [line.split(",")[:3] for line in buffer.getvalue().splitlines()[1:]]
    assert body == [
        ["1", "-1", "1"],
        ["2", "-1", "1"],
        ["1", "0", "1"],
        ["2", "0", "1"],
        ["1", "1", "1"],
        ["2", "1", "1"],
    ]


def test_coefficient_out_of_order_rows_are_rejected():
    original = WaveCoefficientSet(
        coefficients=np.ones(6, dtype=complex), truncation=1, residual=0.0
    )
    buffer = io.StringIO()
    write_coefficients(buffer, original)
    lines = buffer.getvalue().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(DataError, match=r"line 2.*out of order"):
        read_coefficients(io.StringIO("\n".join(lines) + "\n"))


def test_coefficient_partial_mode_set_is_rejected():
    original = WaveCoefficientSet(
        coefficients=np.ones(6, dtype=complex), truncation=1, residual=0.0
    )
    buffer = io.StringIO()
    write_coefficients(buffer, original)
    lines = buffer.getvalue().splitlines()[:-1]  # drop the final mode
    with pytest.raises(DataError, match="complete mode set"):
        read_coefficients(io.StringIO("\n".join(lines) + "\n"))


def test_coefficient_empty_body_is_rejected():
    with pytest.raises(DataError, match="no entries"):
        read_coefficients(io.StringIO("s,m,n,re,im\n"))


def test_coefficient_non_finite_value_names_its_line():
    text = "s,m,n,re,im\n1,-1,1,1,0\n2,-1,1,0,nan\n1,0,1,0,0\n2,0,1,0,0\n1,1,1,0,0\n2,1,1,0,0\n"
    with pytest.raises(DataError, match=r"line 3: column 'im' is not finite: 'nan'"):
        read_coefficients(io.StringIO(text))


# ---- sweep output ---------------------------------------------------------------


def test_sweep_rows_render_under_the_fixed_header():
    rows = [
        SweepRow(0.05, 3.9736, 2.5, 3.9, 3.1, 42.0),
        SweepRow(0.5, 2.0, 2.0, 2.0, 2.0, 1.0),
    ]
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert lines[0] == "spacing,dmax,d_traditional,d_coupled,gain,cond_z"
    assert len(lines) == 3
    assert lines[2].split(",")[0] == "0.5"


def test_sweep_values_round_trip_through_their_decimal_rendering():
    row = SweepRow(1 / 3, np.pi, 2 / 7, 1e-17, 9.87654321987654321e5, 1e16)
    text = sweep_rows_to_csv([row])
    rendered = text.splitlines()[1].split(",")
    assert [float(cell) for cell in rendered] == [
        row.spacing,
        row.dmax,
        row.d_traditional,
        row.d_coupled,
        row.gain,
        row.condition_number,
    ]


def test_sweep_writer_accepts_file_targets(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_rows(path, [SweepRow(0.1, 1, 1, 1, 1, 1)])
    assert path.read_text().splitlines()[0] == "spacing,dmax,d_traditional,d_coupled,gain,cond_z"


# ---- configuration -----------------------------------------------------------


def test_config_parses_keys_comments_and_blanks():
    text = (
        "# sweep setup\n"
        "\n"
        "antennas = 4\n"
        "pattern = half-wave   # trailing comment\n"
        "spacing = 0.05:0.5:10\n"
        "efficiency=0.96\n"
    )
    assert read_config(io.StringIO(text)) == {
        "antennas": "4",
        "pattern": "half-wave",
        "spacing": "0.05:0.5:10",
        "efficiency": "0.96",
    }


def test_config_value_may_contain_equals_sign():
    assert read_config(io.StringIO("note = a=b\n")) == {"note": "a=b"}


def test_config_duplicate_key_is_rejected():
    with pytest.raises(DataError, match=r"line 3: duplicate key 'antennas'"):
        read_config(io.StringIO("antennas = 2\n# note\nantennas = 3\n"))


def test_config_line_without_equals_is_rejected():
    with pytest.raises(DataError, match=r"line 2"):
        read_config(io.StringIO("antennas = 2\njust some words\n"))


def test_config_empty_key_is_rejected():
    with pytest.raises(DataError, match=r"line 1: empty key"):
        read_config(io.StringIO("= 3\n"))


def test_config_empty_file_is_empty_mapping():
    assert read_config(io.StringIO("")) == {}


def test_config_reads_from_a_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("antennas = 3\n")
    assert read_config(path) == {"antennas": "3"}
