"""Command line interface.

Angles cross this boundary in degrees, spacings in wavelengths (or meters
via --spacing-m, converted at the stated frequency). Exit codes are stable:
0 success, 1 usage error, 2 malformed or inconsistent data, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing

from . import fileio
from .arraymodel import ANALYTIC_KINDS, ArrayGeometry, ElementPattern
from .beamform import loss_resistance
from .coupling import ElementFieldLibrary, default_truncation, fixture_testbed
from .errors import (
    NUMERICAL_FAILURES,
    DataError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    InsufficientSamplingError,
    SuperdirError,
)
from .radiation import DEFAULT_NODES, SphereQuadrature, impedance_matrix
from .swe import _equiangular_rows, fit_wave_coefficients, truncation_degree
from .sweep import SweepSpec, evaluate_point, parse_coupling_source, run_sweep

SPEED_OF_LIGHT = 299792458.0
DEFAULT_FREQUENCY = 845e6  # Hz; used only to convert meter-denominated inputs


class UsageError(SuperdirError, ValueError):
    """Bad command line or configuration input."""


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code (1 instead of 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt4(value: float) -> str:
    return format(float(value), ".4g")


def _dbi(value: float) -> str:
    if value <= 0.0 or not math.isfinite(value):
        return "-inf"
    return _fmt4(10.0 * math.log10(value))


def _resolve_spacing(args) -> float:
    """Spacing in wavelengths from --spacing or --spacing-m/--frequency."""
    if getattr(args, "spacing_m", None) is not None:
        if args.frequency <= 0.0:
            raise UsageError("--frequency must be positive")
        return args.spacing_m * args.frequency / SPEED_OF_LIGHT
    if args.spacing is None:
        raise UsageError("one of --spacing or --spacing-m is required")
    return args.spacing


def _add_spacing_flags(parser, required=True, spacing_help="element spacing in wavelengths"):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--spacing", type=float, help=spacing_help)
    group.add_argument("--spacing-m", type=float, help="element spacing in meters (see --frequency)")
    parser.add_argument(
        "--frequency",
        type=float,
        default=DEFAULT_FREQUENCY,
        help="frequency in Hz used only to convert meter-denominated inputs (default 845 MHz)",
    )


def _add_geometry_flags(parser):
    parser.add_argument("--antennas", type=int, required=True, help="number of array elements")
    _add_spacing_flags(parser)


def _add_pattern_flag(parser):
    parser.add_argument(
        "--pattern",
        choices=ANALYTIC_KINDS,
        default="isotropic",
        help="common element pattern (default isotropic)",
    )


def _add_quadrature_flags(parser):
    parser.add_argument("--quadrature-theta", type=int, default=DEFAULT_NODES[0], help="polar quadrature nodes")
    parser.add_argument("--quadrature-phi", type=int, default=DEFAULT_NODES[1], help="azimuth quadrature nodes")


def _quadrature(args) -> SphereQuadrature:
    return SphereQuadrature.gauss_legendre(args.quadrature_theta, args.quadrature_phi)


# ---- impedance -------------------------------------------------------------


def _cmd_impedance(args) -> int:
    geometry = ArrayGeometry(args.antennas, _resolve_spacing(args))
    pattern = ElementPattern.from_kind(args.pattern)
    matrix = impedance_matrix(
        geometry, pattern, _quadrature(args), loading=args.loading, certified=args.certified
    )
    fileio.write_impedance(args.output or sys.stdout, matrix)
    print(f"cond(Z) = {_fmt4(matrix.condition_number)}", file=sys.stderr)
    return 0


# ---- beamform ---------------------------------------------------------------


def _cmd_beamform(args) -> int:
    geometry = ArrayGeometry(args.antennas, _resolve_spacing(args))
    pattern = ElementPattern.from_kind(args.pattern)
    if not math.isfinite(args.phi0):  # the message sweep gives for its --phi0
        raise DomainError("phi0_deg must be finite")
    coupling = parse_coupling_source(
        args.coupling,
        geometry.element_count,
        geometry=geometry,
        pattern=pattern,
        truncation=args.truncation,
    )
    row, excitation = evaluate_point(
        geometry, pattern, _quadrature(args), coupling, math.radians(args.theta0),
        math.radians(args.phi0), args.efficiency, loading=args.loading,
    )

    print(f"antennas        {geometry.element_count}")
    print(f"spacing         {_fmt4(geometry.spacing)} wavelengths")
    print(f"pattern         {args.pattern}")
    print(f"direction       theta0={_fmt4(args.theta0)} deg  phi0={_fmt4(args.phi0)} deg")
    print(f"cond(Z)         {_fmt4(row.condition_number)}")
    print(f"D_max           {_fmt4(row.dmax)}  ({_dbi(row.dmax)} dBi)")
    print(f"D_traditional   {_fmt4(row.d_traditional)}  ({_dbi(row.d_traditional)} dBi)")
    print(f"D_coupled       {_fmt4(row.d_coupled)}  ({_dbi(row.d_coupled)} dBi)")
    print(f"gain            {_fmt4(row.gain)}  ({_dbi(row.gain)} dBi)  at efficiency {_fmt4(args.efficiency)}")
    print(f"r_loss          {_fmt4(loss_resistance(args.efficiency))}")
    print("port excitation (unit radiated power):")
    for i, b in enumerate(excitation, start=1):
        mag = abs(b)
        ph = math.degrees(math.atan2(b.imag, b.real))
        print(f"  {i:2d}  {_fmt4(b.real):>12} {_fmt4(b.imag):>12}j   |b|={_fmt4(mag)}  arg={_fmt4(ph)} deg")
    if args.output:
        fileio.write_excitation(args.output, excitation)
        print(f"excitation written to {args.output}", file=sys.stderr)
    return 0


# ---- sweep ------------------------------------------------------------------


def _parse_spacing_range(text: str):
    parts = text.split(":")
    if len(parts) == 1:
        try:
            start = float(parts[0])
        except ValueError as exc:
            raise UsageError(f"bad --spacing value {text!r}") from exc
        return start, start, 1
    if len(parts) != 3:
        raise UsageError(f"--spacing expects start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--spacing expects start:stop:steps, got {text!r}") from exc
    return start, stop, steps


# Config keys are the SweepSpec fields, two of them under shorter names; the
# sweep flags store into the field names themselves (argparse dest=).
_SPEC_TYPES = typing.get_type_hints(SweepSpec)
_RENAMED = {"pattern_kind": "pattern", "coupling_source": "coupling"}
_CONFIG_FIELDS = {_RENAMED.get(name, name): name for name in _SPEC_TYPES}


def _spec_from_config_and_flags(args) -> SweepSpec:
    values = {}
    if args.config:
        raw = fileio.read_config(args.config)
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, text in raw.items():
            name = _CONFIG_FIELDS[key]
            try:
                values[name] = _SPEC_TYPES[name](text)
            except ValueError as exc:
                raise UsageError(f"config key {key!r}: bad value {text!r}") from exc
    for name in _SPEC_TYPES:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if args.spacing is not None:
        start, stop, steps = _parse_spacing_range(args.spacing)
        values.update(spacing_start=start, spacing_stop=stop, spacing_steps=steps)
    if "antennas" not in values:
        raise UsageError("antennas must be given via --antennas or the config file")
    return SweepSpec(**values)


def _cmd_sweep(args) -> int:
    spec = _spec_from_config_and_flags(args)
    rows = run_sweep(spec)
    fileio.write_sweep_rows(args.output or sys.stdout, rows)
    flagged = [row for row in rows if row.note]
    for row in flagged:
        print(f"flagged spacing {_fmt4(row.spacing)}: {row.note}", file=sys.stderr)
    return 0


# ---- swe fit ----------------------------------------------------------------


def _resolve_truncation(args, element_count=None) -> int:
    """N from --truncation, else --radius, else (given an element count) the spacing."""
    if args.truncation is not None:
        return args.truncation
    if args.radius is not None:
        return truncation_degree(args.radius)
    if element_count is None:
        raise UsageError("one of --truncation or --radius is required")
    if args.spacing is None and args.spacing_m is None:
        raise UsageError("one of --truncation, --radius, --spacing or --spacing-m is required")
    return default_truncation(ArrayGeometry(element_count, _resolve_spacing(args)))


def _cmd_swe_fit(args) -> int:
    samples = fileio.read_field_samples(args.input)
    trunc = _resolve_truncation(args)
    coeffs = fit_wave_coefficients(samples, trunc)
    fileio.write_coefficients(args.output or sys.stdout, coeffs)
    print(
        f"truncation N = {trunc}, relative residual = {coeffs.residual:.3e}",
        file=sys.stderr,
    )
    return 0


# ---- coupling estimate / synth ----------------------------------------------


def _cmd_coupling_estimate(args) -> int:
    if len(args.isolated) != len(args.active):
        raise UsageError(
            f"{len(args.isolated)} isolated files vs {len(args.active)} active files"
        )
    isolated = [fileio.read_field_samples(path) for path in args.isolated]
    active = [fileio.read_field_samples(path) for path in args.active]
    library = ElementFieldLibrary(isolated=isolated, active=active)
    trunc = _resolve_truncation(args, library.element_count)
    estimate = library.estimate(trunc)
    fileio.write_coupling(args.output or sys.stdout, estimate)
    print(
        f"truncation N = {trunc}, estimation residual = {estimate.estimation_residual:.3e}",
        file=sys.stderr,
    )
    return 0


def _cmd_coupling_synth(args) -> int:
    geometry = ArrayGeometry(args.antennas, _resolve_spacing(args))
    pattern = ElementPattern.from_kind(args.pattern)
    trunc, fixture, isolated, active = fixture_testbed(
        geometry, pattern, args.gamma, args.beta, args.truncation
    )
    os.makedirs(args.output_dir, exist_ok=True)
    for i, (iso, act) in enumerate(zip(isolated, active), start=1):
        fileio.write_field_samples(os.path.join(args.output_dir, f"isolated_{i}.csv"), iso)
        fileio.write_field_samples(os.path.join(args.output_dir, f"active_{i}.csv"), act)
    fileio.write_coupling(os.path.join(args.output_dir, "coupling_true.csv"), fixture)
    theta_rows, columns = _equiangular_rows(isolated[0].directions)
    print(
        f"wrote {2 * len(isolated) + 1} files to {args.output_dir} (grid {theta_rows.size}x{columns}, N = {trunc})",
        file=sys.stderr,
    )
    return 0


# ---- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="superdir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_imp = sub.add_parser("impedance", help="emit the normalized impedance matrix")
    _add_geometry_flags(p_imp)
    _add_pattern_flag(p_imp)
    _add_quadrature_flags(p_imp)
    p_imp.add_argument("--loading", type=float, default=0.0, help="diagonal loading delta >= 0")
    p_imp.add_argument("--certified", action="store_true", help="refinement-check the quadrature")
    p_imp.add_argument("--output", help="CSV destination (default stdout)")
    p_imp.set_defaults(handler=_cmd_impedance)

    p_bf = sub.add_parser("beamform", help="optimal excitation for one configuration")
    _add_geometry_flags(p_bf)
    _add_pattern_flag(p_bf)
    _add_quadrature_flags(p_bf)
    p_bf.add_argument("--theta0", type=float, default=0.0, help="steering polar angle in degrees")
    p_bf.add_argument("--phi0", type=float, default=0.0, help="steering azimuth in degrees")
    p_bf.add_argument("--coupling", default="identity", help="identity | file:<path> | synthetic:gamma=<g>,beta=<b>")
    p_bf.add_argument(
        "--truncation",
        type=int,
        default=0,
        help="expansion order for synthetic coupling estimation (0 = automatic)",
    )
    p_bf.add_argument("--efficiency", type=float, default=1.0, help="per-element efficiency in (0, 1]")
    p_bf.add_argument("--loading", type=float, default=0.0, help="diagonal loading delta >= 0")
    p_bf.add_argument("--output", help="write the excitation as CSV")
    p_bf.set_defaults(handler=_cmd_beamform)

    p_sw = sub.add_parser("sweep", help="sweep spacing and emit CSV")
    p_sw.add_argument("--config", help="key = value configuration file")
    p_sw.add_argument("--antennas", type=int)
    p_sw.add_argument("--pattern", dest="pattern_kind", choices=ANALYTIC_KINDS)
    p_sw.add_argument("--spacing", help="start:stop:steps in wavelengths")
    p_sw.add_argument("--theta0", dest="theta0_deg", metavar="THETA0", type=float,
                      help="steering polar angle in degrees")
    p_sw.add_argument("--phi0", dest="phi0_deg", metavar="PHI0", type=float,
                      help="steering azimuth in degrees")
    p_sw.add_argument("--efficiency", type=float)
    p_sw.add_argument("--coupling", dest="coupling_source", metavar="COUPLING",
                      help="identity | file:<path> | synthetic:gamma=<g>,beta=<b>")
    p_sw.add_argument("--quadrature-theta", type=int)
    p_sw.add_argument("--quadrature-phi", type=int)
    p_sw.add_argument(
        "--truncation",
        type=int,
        help="expansion order for synthetic coupling estimation (0 = automatic)",
    )
    p_sw.add_argument("--output", help="CSV destination (default stdout)")
    p_sw.set_defaults(handler=_cmd_sweep)

    p_swe = sub.add_parser("swe", help="spherical wave expansion tools")
    swe_sub = p_swe.add_subparsers(dest="swe_command", required=True, parser_class=_Parser)
    p_fit = swe_sub.add_parser("fit", help="fit mode coefficients to a field CSV")
    p_fit.add_argument("--input", required=True, help="field sample CSV")
    p_fit.add_argument("--truncation", type=int, help="expansion order N")
    p_fit.add_argument("--radius", type=float, help="enclosing radius in wavelengths (sets N)")
    p_fit.add_argument("--output", help="coefficient CSV destination (default stdout)")
    p_fit.set_defaults(handler=_cmd_swe_fit)

    p_cp = sub.add_parser("coupling", help="coupling matrix tools")
    cp_sub = p_cp.add_subparsers(dest="coupling_command", required=True, parser_class=_Parser)

    p_est = cp_sub.add_parser("estimate", help="estimate C from field CSVs")
    p_est.add_argument("--isolated", nargs="+", required=True, help="isolated element field CSVs")
    p_est.add_argument("--active", nargs="+", required=True, help="active element field CSVs")
    p_est.add_argument("--truncation", type=int, help="expansion order N")
    p_est.add_argument("--radius", type=float, help="enclosing radius in wavelengths (sets N)")
    _add_spacing_flags(p_est, required=False, spacing_help="element spacing in wavelengths (sets N)")
    p_est.add_argument("--output", help="coupling CSV destination (default stdout)")
    p_est.set_defaults(handler=_cmd_coupling_estimate)

    p_syn = cp_sub.add_parser("synth", help="synthesize a coupled-field testbed")
    _add_geometry_flags(p_syn)
    _add_pattern_flag(p_syn)
    p_syn.add_argument("--gamma", type=float, required=True, help="fixture decay in (0, 1)")
    p_syn.add_argument("--beta", type=float, required=True, help="fixture phase progression")
    p_syn.add_argument("--truncation", type=int, help="expansion order for the sample grid")
    p_syn.add_argument("--output-dir", required=True, help="directory for the generated CSVs")
    p_syn.set_defaults(handler=_cmd_coupling_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"superdir: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InsufficientSamplingError, DimensionError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"superdir: data error: {exc}", file=sys.stderr)
        return 2
    except (*NUMERICAL_FAILURES, DegenerateInputError) as exc:
        print(f"superdir: numerical error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"superdir: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
