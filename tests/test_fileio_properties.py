"""Property tests of the field CSV format: both read routes and the write/read round trip."""

import csv
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from superdir import FieldSampleSet, read_field_samples, write_field_samples  # noqa: E402
from superdir import fileio  # noqa: E402

# same examples on every run, no example database, and a bounded run time
BOUNDED = settings(derandomize=True, database=None, max_examples=150, deadline=2000)

FINITE = st.floats(allow_nan=False, allow_infinity=False)
THETA_DEG = st.floats(min_value=0.0, max_value=180.0)
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
