"""CSV wire formats and the key-value configuration format.

All numeric fields are written with 17 significant digits so that parsing an
emitted file reproduces the original doubles bit for bit. Angles cross the
file boundary in degrees and are converted to radians on read. Malformed
input raises DataError naming the offending 1-based line number.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager

import numpy as np

from .coupling import CouplingMatrix
from .errors import DataError, DomainError
from .swe import FieldSampleSet, WaveCoefficientSet, index_list, mode_count

FIELD_HEADER = ["theta_deg", "phi_deg", "re_etheta", "im_etheta", "re_ephi", "im_ephi"]
COUPLING_HEADER = ["row", "col", "re", "im"]
COEFFICIENT_HEADER = ["s", "m", "n", "re", "im"]
IMPEDANCE_HEADER = ["row", "col", "value"]
EXCITATION_HEADER = ["element", "re", "im"]
SWEEP_HEADER = ["spacing", "dmax", "d_traditional", "d_coupled", "gain", "cond_z"]


def _fmt(value: float) -> str:
    """Round-trip-safe decimal rendering of a double."""
    return format(float(value), ".17g")


@contextmanager
def _open_for_read(source):
    if hasattr(source, "read"):
        yield source
    else:
        with open(source, "r", newline="") as handle:
            yield handle


def _write_rows(target, header, rows):
    """Write the header line, then each row of string cells, as CSV to a path or handle."""
    if not hasattr(target, "write"):
        with open(target, "w", newline="") as handle:
            return _write_rows(handle, header, rows)
    writer = csv.writer(target, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _parse_float(text, line_no, column, finite=True):
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"line {line_no}: column {column!r} is not a number: {text!r}") from exc
    if finite and not math.isfinite(value):
        raise DataError(f"line {line_no}: column {column!r} is not finite: {text!r}")
    return value


def _parse_int(text, line_no, column):
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"line {line_no}: column {column!r} is not an integer: {text!r}") from exc


def _check_header(row, expected, what):
    if row is None:
        raise DataError(f"line 1: empty {what} file")
    if [c.strip() for c in row] != expected:
        raise DataError(
            f"line 1: bad {what} header {','.join(row)!r}; expected {','.join(expected)!r}"
        )


def _rows(reader, expected_width, what):
    line_no = 1
    for row in reader:
        line_no += 1
        if not row:
            continue
        if len(row) != expected_width:
            raise DataError(
                f"line {line_no}: {what} row has {len(row)} fields, expected {expected_width}"
            )
        yield line_no, row


# ---- far-field sample sets ---------------------------------------------


def write_field_samples(target, samples: FieldSampleSet) -> None:
    """Write a FieldSampleSet as CSV with angles in degrees."""
    degrees = np.degrees(samples.directions)
    _write_rows(target, FIELD_HEADER, (
        [_fmt(th), _fmt(ph), _fmt(e_th.real), _fmt(e_th.imag), _fmt(e_ph.real), _fmt(e_ph.imag)]
        for (th, ph), e_th, e_ph in zip(degrees, samples.etheta, samples.ephi)
    ))


def _field_table(lines):
    """(P, 6) table of a field CSV in one vectorized parse, or None.

    None means the file is not plainly well formed (no rows, a quoted or
    non-ASCII cell, a ragged row, a non-finite cell, theta out of range,
    ...); the row parser then decides what it holds.
    """
    if not any(line.strip() for line in lines[1:]):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", skiprows=1, comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 6 or not np.all(np.isfinite(table)):
        return None
    if not np.all((table[:, 0] >= 0.0) & (table[:, 0] <= 180.0)):
        return None
    return table


def _field_rows(reader):
    """(P, 6) table of the field rows after the header, one row at a time.

    Accepts whatever float() accepts, if finite, and raises the DataError
    of the first bad line.
    """
    table = []
    for line_no, row in _rows(reader, 6, "field"):
        th = _parse_float(row[0], line_no, "theta_deg", finite=False)  # range-checked below
        ph = _parse_float(row[1], line_no, "phi_deg")
        if not 0.0 <= th <= 180.0:
            raise DataError(f"line {line_no}: theta_deg {th!r} outside [0, 180]")
        table.append([th, ph] + [_parse_float(row[k], line_no, FIELD_HEADER[k]) for k in range(2, 6)])
    if not table:
        raise DataError("line 2: field file has no sample rows")
    return np.array(table)


def read_field_samples(source) -> FieldSampleSet:
    """Read a far-field CSV back into a FieldSampleSet (radians internally).

    Well-formed files are parsed in one vectorized pass; a file that pass
    rejects is re-read row by row, which names the bad line or accepts the
    cells float() takes (quoted, with digit separators) to the same doubles.
    """
    with _open_for_read(source) as handle:
        lines = handle.readlines()
    reader = csv.reader(lines)
    _check_header(next(reader, None), FIELD_HEADER, "field")
    table = _field_table(lines)
    if table is None:
        table = _field_rows(reader)
    # columns re_etheta, im_etheta, re_ephi, im_ephi are the interleaved values
    values = np.ascontiguousarray(table[:, 2:]).view(complex).reshape(-1)
    directions = np.radians(table[:, :2])
    try:
        return FieldSampleSet(directions=directions, values=values)
    except DomainError:  # a repeated direction: name its line and the line it repeats
        first = {}
        line_numbers = (line_no for line_no, _ in _rows(csv.reader(lines[1:]), 6, "field"))
        for line_no, key in zip(line_numbers, (directions[:, 0] + 1j * directions[:, 1]).tolist()):
            if first.setdefault(key, line_no) != line_no:
                raise DataError(f"line {line_no}: direction repeats line {first[key]}") from None
        raise


# ---- coupling matrices ---------------------------------------------------


def write_coupling(target, matrix: CouplingMatrix) -> None:
    """Write a coupling matrix as row,col,re,im triplets (1-based indices)."""
    _write_rows(target, COUPLING_HEADER, (
        [str(r + 1), str(c + 1), _fmt(v.real), _fmt(v.imag)]
        for (r, c), v in np.ndenumerate(matrix.values)
    ))


def read_coupling(source) -> CouplingMatrix:
    """Read a coupling CSV; every (row, col) entry must appear exactly once."""
    with _open_for_read(source) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), COUPLING_HEADER, "coupling")
        entries = {}
        for line_no, row in _rows(reader, 4, "coupling"):
            r = _parse_int(row[0], line_no, "row")
            c = _parse_int(row[1], line_no, "col")
            if r < 1 or c < 1:
                raise DataError(f"line {line_no}: indices must be >= 1")
            if (r, c) in entries:
                raise DataError(f"line {line_no}: duplicate entry for ({r}, {c})")
            entries[(r, c)] = complex(
                _parse_float(row[2], line_no, "re"), _parse_float(row[3], line_no, "im")
            )
    if not entries:
        raise DataError("line 2: coupling file has no entries")
    size = max(max(r, c) for r, c in entries)
    if len(entries) != size * size:
        raise DataError(
            f"coupling file holds {len(entries)} entries; a {size}x{size} matrix needs {size * size}"
        )
    values = np.empty((size, size), dtype=complex)
    for (r, c), v in entries.items():
        values[r - 1, c - 1] = v
    return CouplingMatrix(values=values, source="prescribed")


# ---- impedance matrices and excitations -----------------------------------


def write_impedance(target, matrix) -> None:
    """Write an ImpedanceMatrix as row,col,value triplets (1-based indices)."""
    _write_rows(target, IMPEDANCE_HEADER, (
        [str(r + 1), str(c + 1), _fmt(v)] for (r, c), v in np.ndenumerate(matrix.values)
    ))


def write_excitation(target, excitation) -> None:
    """Write port excitations as element,re,im rows (1-based elements)."""
    _write_rows(target, EXCITATION_HEADER, (
        [str(i), _fmt(b.real), _fmt(b.imag)] for i, b in enumerate(excitation, start=1)
    ))


# ---- spherical wave coefficients -----------------------------------------


def write_coefficients(target, coefficients: WaveCoefficientSet) -> None:
    """Write mode coefficients as s,m,n,re,im rows in flattened mode order."""
    _write_rows(target, COEFFICIENT_HEADER, (
        [str(idx.s), str(idx.m), str(idx.n), _fmt(q.real), _fmt(q.imag)]
        for idx, q in zip(index_list(coefficients.truncation), coefficients.coefficients)
    ))


def read_coefficients(source) -> WaveCoefficientSet:
    """Read a coefficient CSV; rows must follow the flattened mode order.

    The fit residual is not stored in the file, so the returned set carries
    residual 0.0.
    """
    with _open_for_read(source) as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), COEFFICIENT_HEADER, "coefficient")
        rows = list(_rows(reader, 5, "coefficient"))
    if not rows:
        raise DataError("line 2: coefficient file has no entries")
    # infer the truncation order from the row count
    count = len(rows)
    trunc = 1
    while mode_count(trunc) < count:
        trunc += 1
    if mode_count(trunc) != count:
        raise DataError(f"{count} coefficient rows do not form a complete mode set")
    coeffs = np.empty(count, dtype=complex)
    for pos, (expected, (line_no, row)) in enumerate(zip(index_list(trunc), rows)):
        s = _parse_int(row[0], line_no, "s")
        m = _parse_int(row[1], line_no, "m")
        n = _parse_int(row[2], line_no, "n")
        if (s, m, n) != (expected.s, expected.m, expected.n):
            raise DataError(
                f"line {line_no}: mode ({s},{m},{n}) out of order; "
                f"expected ({expected.s},{expected.m},{expected.n})"
            )
        coeffs[pos] = complex(
            _parse_float(row[3], line_no, "re"), _parse_float(row[4], line_no, "im")
        )
    return WaveCoefficientSet(coefficients=coeffs, truncation=trunc, residual=0.0)


# ---- sweep results --------------------------------------------------------


def write_sweep_rows(target, rows) -> None:
    """Write sweep rows under the fixed sweep header."""
    _write_rows(target, SWEEP_HEADER, (
        [_fmt(r.spacing), _fmt(r.dmax), _fmt(r.d_traditional), _fmt(r.d_coupled), _fmt(r.gain),
         _fmt(r.condition_number)]
        for r in rows
    ))


def sweep_rows_to_csv(rows) -> str:
    """Render sweep rows as one CSV string (used for byte-stable output)."""
    buffer = io.StringIO()
    write_sweep_rows(buffer, rows)
    return buffer.getvalue()


# ---- configuration files ---------------------------------------------------


def read_config(source) -> dict:
    """Parse a flat key = value file with # comments.

    Returns the raw string mapping; callers validate keys and values. Blank
    lines are ignored, inline comments are stripped, duplicate keys are
    rejected.
    """
    out = {}
    with _open_for_read(source) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise DataError(f"line {line_no}: empty key")
            if key in out:
                raise DataError(f"line {line_no}: duplicate key {key!r}")
            out[key] = value
    return out
