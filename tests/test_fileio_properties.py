"""Property tests of the CSV readers: field, coupling and coefficient files.

Field files: both read routes agree and written values read back. Coupling
and coefficient files: written values read back, and a value cell that is
not a number is reported with its line.
"""

import csv
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superdir import (  # noqa: E402
    CouplingMatrix,
    DataError,
    FieldSampleSet,
    WaveCoefficientSet,
    mode_count,
    read_coefficients,
    read_coupling,
    read_field_samples,
    write_coefficients,
    write_coupling,
    write_field_samples,
)
from superdir import fileio  # noqa: E402

# same examples on every run, no example database, and a bounded run time
BOUNDED = settings(derandomize=True, database=None, max_examples=150, deadline=2000)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
THETA_DEG = st.floats(min_value=0.0, max_value=180.0)
COMPLEX = st.builds(complex, FINITE, FINITE)
# ways a finite double may be spelled in a well-formed cell
SPELLINGS = (repr, lambda x: format(x, ".17g"), lambda x: format(x, ".6e"), lambda x: format(x, "G"))


@st.composite
def field_csv_lines(draw):
    """Lines of a well-formed field CSV: the header, then 1-12 rows of six finite cells."""
    rows = draw(st.lists(st.tuples(THETA_DEG, *[FINITE] * 5), min_size=1, max_size=12))
    lines = [",".join(fileio.FIELD_HEADER) + "\n"]
    for row in rows:
        cells = [draw(st.sampled_from(SPELLINGS))(value) for value in row]
        lines.append(",".join(cells) + "\n")
    return lines


@BOUNDED
@given(field_csv_lines())
def test_vectorized_and_row_routes_read_the_same_doubles(lines):
    table = fileio._field_table(lines)
    assert table is not None
    reader = csv.reader(lines)
    next(reader)
    rows = fileio._field_rows(reader)
    assert table.shape == rows.shape
    assert table.tobytes() == rows.tobytes()


@BOUNDED
@given(
    st.lists(
        st.tuples(st.integers(0, 180), st.integers(-720, 720)), min_size=1, max_size=12, unique=True
    ).flatmap(
        lambda directions: st.tuples(
            st.just(directions),
            st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                     min_size=2 * len(directions), max_size=2 * len(directions)),
        )
    )
)
def test_written_field_values_read_back_bit_for_bit(case):
    directions, values = case
    samples = FieldSampleSet(directions=np.radians(directions), values=np.array(values, dtype=complex))
    buffer = io.StringIO()
    write_field_samples(buffer, samples)
    back = read_field_samples(io.StringIO(buffer.getvalue()))
    assert back.values.tobytes() == samples.values.tobytes()


def _written(write, value):
    buffer = io.StringIO()
    write(buffer, value)
    return buffer.getvalue()


@st.composite
def coupling_cases(draw):
    """A finite complex square matrix of size 1-5 and an order for its entry rows."""
    size = draw(st.integers(1, 5))
    entries = draw(st.lists(COMPLEX, min_size=size * size, max_size=size * size))
    return np.array(entries).reshape(size, size), draw(st.permutations(range(size * size)))


@BOUNDED
@given(coupling_cases())
def test_written_coupling_reads_back_bit_for_bit_in_any_row_order(case):
    values, order = case
    header, *rows = _written(write_coupling, CouplingMatrix.prescribed(values)).splitlines(keepends=True)
    for lines in (rows, [rows[i] for i in order]):
        back = read_coupling(io.StringIO(header + "".join(lines)))
        assert back.values.tobytes() == values.tobytes()


@BOUNDED
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(COMPLEX, min_size=mode_count(n), max_size=mode_count(n)))
    )
)
def test_written_coefficients_read_back_bit_for_bit(case):
    truncation, values = case
    written = WaveCoefficientSet(coefficients=np.array(values), truncation=truncation, residual=0.0)
    back = read_coefficients(io.StringIO(_written(write_coefficients, written)))
    assert back.truncation == truncation
    assert back.coefficients.tobytes() == written.coefficients.tobytes()


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# cell texts that float() rejects, without control characters that end a CSV record
NON_NUMBERS = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6).filter(_not_a_number)
_FILES = {
    "coupling": (_written(write_coupling, CouplingMatrix.prescribed(np.arange(9.0).reshape(3, 3) * (1 - 0.5j))),
                 read_coupling),
    "coefficients": (_written(write_coefficients, WaveCoefficientSet(np.arange(16) * (0.5 + 1j), 2, 0.0)),
                     read_coefficients),
}


@pytest.mark.parametrize("kind", sorted(_FILES))
@BOUNDED
@given(data=st.data())
def test_a_value_cell_that_is_not_a_number_names_its_line(kind, data):
    text, read = _FILES[kind]
    rows = list(csv.reader(io.StringIO(text)))
    line = data.draw(st.integers(2, len(rows)), label="line")  # line 1 is the header
    column = data.draw(st.sampled_from(["re", "im"]), label="column")
    cell = data.draw(NON_NUMBERS, label="cell")
    rows[line - 1][rows[0].index(column)] = cell
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    with pytest.raises(DataError) as info:
        read(io.StringIO(out.getvalue()))
    assert str(info.value) == f"line {line}: column {column!r} is not a number: {cell!r}"
