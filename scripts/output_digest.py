"""Print sha256 digests of superdir's user-visible outputs over a fixed case list.

Run it on two checkouts and diff the output to show that a refactor left
every output byte-identical:

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py > digests.txt

Digested groups, one line each: spacing-sweep CSVs (identity, file and
synthetic coupling), ``superdir beamform`` stdout, ``superdir sweep --help``,
gain-optimal excitations, ``radiation.directivity`` values, error messages,
ill-conditioning warnings, and, through the CLI alone: ``superdir impedance``
CSVs, ``beamform --output`` files and ``--loading`` runs, ``sweep --output``
files, ``coupling synth`` files, ``coupling estimate`` CSVs on that testbed,
``swe fit`` CSVs, ``swe fit`` and ``coupling estimate`` on seeded noisy fields
at random directions (the dense fit: well-sampled, clustered in one cap, and
rank-deficient) and the ``--help`` of every command; and, through both, the
error of each bad angle and non-finite scalar, and of each bad count or
index (``count_errors``). Uses only the public API and
the CLI; every CLI group also records exit codes and stderr, with the
scratch directory's path replaced by ``<work>``.

Each synthetic-coupling sweep runs twice in a row, and the script exits
non-zero if the second (warm) run's CSV differs from the first: the
spherical-wave grid caches must never hand back stale results. The rerun
adds nothing to the printed digests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import sys
import tempfile
import warnings

import numpy as np

import superdir
from superdir.cli import main as cli_main

PATTERNS = ("isotropic", "hertzian-dipole", "half-wave-dipole")
SPACINGS = dict(spacing_start=0.03, spacing_stop=0.6, spacing_steps=12)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _floats(values) -> bytes:
    return np.ascontiguousarray(np.asarray(values, dtype=complex)).tobytes()


def _run_cli(argv, workdir=None):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return text.replace(workdir, "<work>") if workdir else text


def _files(paths) -> list:
    """Name and bytes of each file, sorted by name; missing files read as absent."""
    parts = []
    for path in sorted(paths):
        parts.append(os.path.basename(path))
        if os.path.exists(path):
            with open(path, "rb") as handle:
                parts.append(handle.read())
        else:
            parts.append("absent")
    return parts


def _outcome(call) -> str:
    """Type and text of the error ``call()`` raises, or "no error"."""
    try:
        call()
    except Exception as exc:  # the digest records whichever error is raised
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _synth(workdir, name, *flags):
    """Run ``coupling synth`` into workdir/name; returns (output dir, digest parts)."""
    out_dir = os.path.join(workdir, name)
    run = _run_cli(["coupling", "synth", *flags, "--output-dir", out_dir], workdir)
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)] if os.path.isdir(out_dir) else []
    return out_dir, [run, *_files(files)]


def _sweep_csv(**fields) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rows = superdir.run_sweep(superdir.SweepSpec(**fields), threads=1)
        except superdir.SuperdirError as exc:  # a pattern null at the steering angle
            return f"{type(exc).__name__}: {exc}"
    return superdir.sweep_rows_to_csv(rows)


def _coupling(rng, m):
    perturbation = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return superdir.CouplingMatrix.prescribed(np.eye(m) + 0.35 * perturbation / np.sqrt(m))


def _setup(m, spacing, pattern_kind, theta0=0.0, phi0=0.0):
    geometry = superdir.ArrayGeometry(m, spacing)
    pattern = superdir.ElementPattern.from_kind(pattern_kind)
    z = superdir.impedance_matrix(geometry, pattern)
    e = superdir.steering_vector(geometry, pattern, theta0, phi0)
    return geometry, pattern, z, e


def sweeps(workdir):
    rng = np.random.default_rng(7)
    coupling_path = os.path.join(workdir, "coupling.csv")
    superdir.write_coupling(coupling_path, _coupling(rng, 4))
    cases = []
    for m, kind, (theta0, phi0), eff in itertools.product(
        (2, 4, 8, 12), PATTERNS, ((0.0, 0.0), (45.0, 0.0), (90.0, 30.0)), (1.0, 0.8)
    ):
        cases.append(dict(antennas=m, pattern_kind=kind, theta0_deg=theta0, phi0_deg=phi0,
                          efficiency=eff))
    for kind, theta0 in itertools.product(PATTERNS, (0.0, 60.0)):
        cases.append(dict(antennas=4, pattern_kind=kind, theta0_deg=theta0, phi0_deg=30.0,
                          efficiency=0.8, coupling_source=f"file:{coupling_path}"))
    for m, kind, theta0 in itertools.product((2, 4), PATTERNS, (0.0, 60.0)):
        cases.append(dict(antennas=m, pattern_kind=kind, theta0_deg=theta0, efficiency=0.8,
                          coupling_source="synthetic:gamma=0.3,beta=1.1", spacing_start=0.05,
                          spacing_stop=0.6, spacing_steps=6))
    csvs = []
    for case in cases:
        csvs.append(_sweep_csv(**{**SPACINGS, **case}))
        # a synthetic rerun hits every grid cache the first run filled; it must not differ
        synthetic = case.get("coupling_source", "").startswith("synthetic:")
        if synthetic and _sweep_csv(**{**SPACINGS, **case}) != csvs[-1]:
            sys.exit(f"sweeps: a warm rerun of {case} differs from its cold run")
    return f"{len(csvs)} csvs", _digest(csvs)


def beamform_stdout(workdir):
    outputs = []
    for m, spacing, kind, theta0, coupling, eff in (
        (4, 0.1, "isotropic", 0, "identity", 1.0),
        (4, 0.1, "half-wave-dipole", 0, "identity", 0.8),
        (8, 0.05, "isotropic", 0, "identity", 0.9),
        (4, 0.2, "half-wave-dipole", 30, "synthetic:gamma=0.3,beta=1.1", 0.8),
        (3, 0.15, "hertzian-dipole", 60, "synthetic:gamma=0.2,beta=0.7", 1.0),
    ):
        outputs.append(_run_cli([
            "beamform", "--antennas", str(m), "--spacing", str(spacing), "--pattern", kind,
            "--theta0", str(theta0), "--coupling", coupling, "--efficiency", str(eff),
        ]))
    return f"{len(outputs)} runs", _digest(outputs)


def sweep_help(workdir):
    return "1 run", _digest([_run_cli(["sweep", "--help"])])


def gain_optimal(workdir):
    rng = np.random.default_rng(11)
    parts = []
    for m, spacing, kind in ((2, 0.1, "isotropic"), (4, 0.15, "half-wave-dipole"),
                             (6, 0.08, "hertzian-dipole")):
        _, _, z, e = _setup(m, spacing, kind, theta0=0.3)
        c = _coupling(rng, m)
        for eta in (1.0, 0.9, 0.5):
            sol = superdir.gain_optimal_beamforming(z, c, e, eta)
            parts += [_floats(sol.excitation), repr(sol.directivity), repr(sol.loss_resistance)]
            parts.append(repr(superdir.gain(z, c, e, sol.excitation, eta)))
        for sol in (superdir.optimal_beamforming(z, e), superdir.coupled_beamforming(z, c, e)):
            parts += [_floats(sol.excitation), repr(sol.directivity), repr(sol.condition_number)]
            parts.append(repr(superdir.coupled_directivity(z, c, e, sol.excitation)))
    return f"{len(parts)} values", _digest(parts)


def radiation_directivity(workdir):
    rng = np.random.default_rng(5)
    parts = []
    for m, spacing, kind in ((2, 0.3, "isotropic"), (5, 0.1, "half-wave-dipole"),
                             (8, 0.2, "hertzian-dipole")):
        geometry, pattern, z, _ = _setup(m, spacing, kind)
        for _ in range(5):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            theta0, phi0 = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
            parts.append(repr(superdir.directivity(geometry, pattern, z, a, theta0, phi0)))
    return f"{len(parts)} values", _digest(parts)


def errors(workdir):
    geometry, pattern, z, e = _setup(2, 0.3, "isotropic")
    null = superdir.steering_vector(
        geometry, superdir.ElementPattern.from_kind("hertzian-dipole"), np.pi / 2, 0.0
    )
    negative = dataclasses.replace(z, values=-z.values)
    singular = dataclasses.replace(z, values=np.ones((2, 2)), condition_number=np.inf)
    ident = superdir.CouplingMatrix.identity(2)
    zero_c = superdir.CouplingMatrix.prescribed(np.zeros((2, 2)))
    calls = (
        lambda: superdir.optimal_beamforming(z, null),
        lambda: superdir.coupled_beamforming(z, ident, null),
        lambda: superdir.gain_optimal_beamforming(z, ident, null, 0.5),
        lambda: superdir.optimal_beamforming(singular, e),
        lambda: superdir.optimal_beamforming(negative, e),
        lambda: superdir.coupled_beamforming(negative, ident, e),
        lambda: superdir.coupled_beamforming(z, zero_c, e),
        lambda: superdir.coupled_directivity(negative, ident, e, [1.0, 0.5]),
        lambda: superdir.coupled_directivity(z, ident, e, [0.0, 0.0]),
        lambda: superdir.coupled_directivity(z, ident, e, [1.0]),
        lambda: superdir.gain(negative, ident, e, [1.0, 0.5], 1.0),
        lambda: superdir.gain(z, ident, e, [1.0, 0.5], 0.0),
        lambda: superdir.gain(z, ident, e, [0.0, 0.0], 0.5),
        lambda: superdir.directivity(geometry, pattern, negative, [1.0, 0.5], 0.5, 0.5),
        lambda: superdir.directivity(geometry, pattern, z, [0.0, 0.0], 0.5, 0.5),
        lambda: superdir.directivity(geometry, pattern, z, [1.0], 0.5, 0.5),
    )
    parts = [_outcome(call) for call in calls]
    return f"{len(parts)} calls", _digest(parts)


def ill_conditioning_warnings(workdir):
    _, _, z, e = _setup(12, 0.05, "isotropic")
    ident = superdir.CouplingMatrix.identity(12)
    parts = []
    for call in (
        lambda: superdir.optimal_beamforming(z, e),
        lambda: superdir.coupled_beamforming(z, ident, e),
        lambda: superdir.gain_optimal_beamforming(z, ident, e, 1.0),
    ):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            call()
        for w in record:
            parts.append(f"{w.category.__name__}: {w.message} @ {os.path.basename(w.filename)}")
    return f"{len(parts)} warnings", _digest(parts)


def impedance_csv(workdir):
    target = os.path.join(workdir, "z.csv")
    parts = []
    for flags in (
        ["--antennas", "3", "--spacing", "0.2"],
        ["--antennas", "4", "--spacing", "0.1", "--pattern", "half-wave-dipole", "--loading", "0.01"],
        ["--antennas", "2", "--spacing-m", "0.05", "--pattern", "hertzian-dipole", "--certified",
         "--quadrature-theta", "32", "--quadrature-phi", "64"],
        ["--antennas", "4", "--spacing", "0.5", "--certified", "--quadrature-theta", "4",
         "--quadrature-phi", "8"],
        ["--antennas", "2", "--spacing", "0.1", "--loading", "-1"],
    ):
        parts.append(_run_cli(["impedance", *flags], workdir))
    parts.append(_run_cli(["impedance", "--antennas", "5", "--spacing", "0.12", "--pattern",
                           "half-wave-dipole", "--output", target], workdir))
    parts += _files([target])
    return f"{len(parts)} parts", _digest(parts)


def beamform_files(workdir):
    testbed, _ = _synth(workdir, "bf", "--antennas", "3", "--spacing", "0.2", "--gamma", "0.3",
                        "--beta", "1.1")
    truth = os.path.join(testbed, "coupling_true.csv")
    target = os.path.join(workdir, "b.csv")
    parts = []
    for flags in (
        ["--antennas", "4", "--spacing", "0.15", "--pattern", "half-wave-dipole", "--theta0", "20",
         "--output", target],
        ["--antennas", "6", "--spacing", "0.05", "--loading", "0.001", "--efficiency", "0.7",
         "--output", target],
        ["--antennas", "3", "--spacing", "0.2", "--theta0", "40", "--phi0", "15",
         "--coupling", f"file:{truth}", "--loading", "0.01", "--output", target],
        ["--antennas", "3", "--spacing", "0.2", "--coupling", "synthetic:gamma=0.3,beta=1.1",
         "--truncation", "8", "--output", target],
        ["--antennas", "2", "--spacing", "0.1", "--theta0", "200", "--output", target],
        ["--antennas", "2", "--spacing", "0.1", "--pattern", "hertzian-dipole", "--theta0", "90",
         "--output", target],
    ):
        if os.path.exists(target):
            os.remove(target)
        parts.append(_run_cli(["beamform", *flags], workdir))
        parts += _files([target])
    return f"{len(parts)} parts", _digest(parts)


def sweep_files(workdir):
    singular = os.path.join(workdir, "ones.csv")
    with open(singular, "w") as handle:
        handle.write("row,col,re,im\n1,1,1,0\n1,2,1,0\n2,1,1,0\n2,2,1,0\n")
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w") as handle:
        handle.write("antennas = 4\npattern = half-wave-dipole\ntheta0_deg = 30\nefficiency = 0.9\n")
    target = os.path.join(workdir, "s.csv")
    parts = []
    for flags in (
        ["--antennas", "3", "--spacing", "0.05:0.4:5", "--pattern", "hertzian-dipole"],
        ["--antennas", "2", "--spacing", "0.2:0.3:2", "--coupling", f"file:{singular}"],
        ["--config", config, "--spacing", "0.1:0.3:3"],
        ["--antennas", "3", "--spacing", "0.1:0.3:3", "--coupling", "synthetic:gamma=0.3,beta=1.1",
         "--truncation", "9"],
        ["--antennas", "12", "--spacing", "0.02:0.05:2"],
    ):
        if os.path.exists(target):
            os.remove(target)
        parts.append(_run_cli(["sweep", *flags, "--output", target], workdir))
        parts += _files([target])
    return f"{len(parts)} parts", _digest(parts)


def coupling_synth(workdir):
    parts = []
    for name, flags in (
        ("s1", ["--antennas", "3", "--spacing", "0.2", "--gamma", "0.3", "--beta", "1.1"]),
        ("s2", ["--antennas", "2", "--spacing-m", "0.07", "--pattern", "half-wave-dipole",
                "--gamma", "0.5", "--beta", "-0.4", "--truncation", "6"]),
        ("s3", ["--antennas", "2", "--spacing", "0.2", "--gamma", "0.3", "--beta", "1",
                "--truncation", "0"]),
        ("s4", ["--antennas", "2", "--spacing", "0.2", "--gamma", "1.5", "--beta", "1"]),
    ):
        parts += _synth(workdir, name, *flags)[1]
    return f"{len(parts)} parts", _digest(parts)


def coupling_estimate(workdir):
    testbed, parts = _synth(workdir, "est", "--antennas", "3", "--spacing", "0.2", "--gamma",
                            "0.3", "--beta", "1.1", "--pattern", "hertzian-dipole")
    isolated = [os.path.join(testbed, f"isolated_{i}.csv") for i in (1, 2, 3)]
    active = [os.path.join(testbed, f"active_{i}.csv") for i in (1, 2, 3)]
    target = os.path.join(workdir, "c.csv")
    fields = ["--isolated", *isolated, "--active", *active]
    for flags in (
        ["--truncation", "8"],
        ["--spacing", "0.2"],
        ["--spacing-m", "0.07", "--frequency", "900e6"],
        ["--radius", "0.4", "--output", target],
        [],
        ["--truncation", "1"],
    ):
        parts.append(_run_cli(["coupling", "estimate", *fields, *flags], workdir))
    parts.append(_run_cli(["coupling", "estimate", "--isolated", *isolated, "--active",
                           *active[:2], "--truncation", "8"], workdir))
    parts += _files([target])
    return f"{len(parts)} parts", _digest(parts)


def swe_fit(workdir):
    testbed, parts = _synth(workdir, "fit", "--antennas", "2", "--spacing", "0.25", "--gamma",
                            "0.4", "--beta", "0.3", "--pattern", "half-wave-dipole")
    target = os.path.join(workdir, "q.csv")
    for flags in (
        ["--input", os.path.join(testbed, "isolated_2.csv"), "--truncation", "5"],
        ["--input", os.path.join(testbed, "active_1.csv"), "--radius", "0.3", "--output", target],
        ["--input", os.path.join(testbed, "active_2.csv")],
        ["--input", os.path.join(testbed, "missing.csv"), "--truncation", "3"],
    ):
        parts.append(_run_cli(["swe", "fit", *flags], workdir))
    parts += _files([target])
    return f"{len(parts)} parts", _digest(parts)


def _random_field_files(workdir, name, rng, directions):
    """Noisy isolated and active fields of a 3-element Hertzian-dipole testbed, as CSV paths."""
    geometry = superdir.ArrayGeometry(3, 0.2)
    isolated = superdir.isolated_fields_synthetic(
        geometry, superdir.ElementPattern.from_kind("hertzian-dipole"), directions
    )
    active = superdir.synthesize_coupled_fields(isolated, superdir.coupling_fixture(3, 0.3, 1.1))
    paths = []
    for kind, fields in (("isolated", isolated), ("active", active)):
        for i, field in enumerate(fields, start=1):
            noise = rng.standard_normal(field.values.size) + 1j * rng.standard_normal(field.values.size)
            scale = 1e-6 * np.max(np.abs(field.values))
            paths.append(os.path.join(workdir, f"{name}_{kind}_{i}.csv"))
            superdir.write_field_samples(
                paths[-1], superdir.FieldSampleSet(directions, field.values + scale * noise)
            )
    return paths[:3], paths[3:]


def dense_fit(workdir):
    rng = np.random.default_rng(17)
    sphere = np.column_stack((np.arccos(rng.uniform(-1.0, 1.0, 600)),
                              rng.uniform(0.0, 2.0 * np.pi, 600)))
    cap = np.column_stack((np.arccos(rng.uniform(np.cos(0.7), 1.0, 300)),
                           rng.uniform(0.0, 2.0 * np.pi, 300)))
    isolated, active = _random_field_files(workdir, "sphere", rng, sphere)
    cap_isolated, _ = _random_field_files(workdir, "cap", rng, cap)
    q_file, c_file = os.path.join(workdir, "dense_q.csv"), os.path.join(workdir, "dense_c.csv")
    parts = []
    for command in (
        ["swe", "fit", "--input", isolated[1], "--truncation", "6"],
        ["swe", "fit", "--input", active[2], "--radius", "0.3", "--output", q_file],
        ["coupling", "estimate", "--isolated", *isolated, "--active", *active, "--truncation", "8"],
        ["coupling", "estimate", "--isolated", *isolated, "--active", *active, "--spacing", "0.2",
         "--output", c_file],
        # clustered in one cap: full rank at N = 4 (cond about 1e6), rank-deficient at N = 12
        ["swe", "fit", "--input", cap_isolated[0], "--truncation", "4"],
        ["swe", "fit", "--input", cap_isolated[0], "--truncation", "12"],
    ):
        parts.append(_run_cli(command, workdir))
    parts += _files([q_file, c_file])
    return f"{len(parts)} parts", _digest(parts)


def input_errors(workdir):
    geometry = superdir.ArrayGeometry(2, 0.3)
    sampled = superdir.ElementPattern.sampled(
        np.linspace(0.0, np.pi, 5), np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
        np.ones((5, 8)),
    )
    patterns = [superdir.ElementPattern.from_kind(kind) for kind in PATTERNS] + [sampled]
    takers = [pattern.evaluate for pattern in patterns] + [pattern.polarized for pattern in patterns]
    takers += [
        lambda t, p: superdir.evaluate_array_pattern(geometry, patterns[0], [1.0, 0.5], t, p),
        lambda t, p: superdir.active_element_pattern(
            geometry, patterns[2], superdir.CouplingMatrix.identity(2), 1, t, p),
        lambda t, p: superdir.eval_spherical_wave_function(superdir.SweIndex(1, 1, 1), t, p),
        lambda t, p: superdir.steering_vector(geometry, patterns[0], t, p),
        lambda t, p: superdir.basis_matrix(np.array([[0.5, 0.0], [t, p]]), 2),
    ]
    bad_angles = ((np.nan, 0.0), (-0.1, 0.0), (0.5, np.nan), (0.5, np.inf), (0.5, -np.inf))
    parts = [_outcome(lambda: taker(t, p)) for taker in takers for t, p in bad_angles]
    for bad in (np.inf, np.nan, -1.0):
        parts += [
            _outcome(lambda: superdir.impedance_matrix(geometry, patterns[0], loading=bad)),
            _outcome(lambda: superdir.SweepSpec(antennas=2, spacing_stop=bad)),
            _outcome(lambda: superdir.coupling_fixture(2, 0.3, bad)),
        ]
    for flags in (
        ["impedance", "--antennas", "2", "--spacing", "0.1", "--loading", "inf"],
        ["beamform", "--antennas", "2", "--spacing", "0.1", "--loading", "inf"],
        ["sweep", "--antennas", "2", "--spacing", "0.1:inf:2"],
        ["sweep", "--antennas", "2", "--spacing", "0.1:nan:2"],
        ["sweep", "--antennas", "2", "--spacing", "inf"],
        ["sweep", "--antennas", "2", "--spacing", "0.1:0.2:2", "--coupling",
         "synthetic:gamma=0.3,beta=inf"],
        ["coupling", "synth", "--antennas", "2", "--spacing", "0.2", "--gamma", "0.3", "--beta",
         "nan", "--output-dir", os.path.join(workdir, "nan-beta")],
    ):
        parts.append(_run_cli(flags, workdir))
    return f"{len(parts)} parts", _digest(parts)


def count_errors(workdir):
    geometry = superdir.ArrayGeometry(4, 0.2)
    isotropic = superdir.ElementPattern.from_kind("isotropic")
    fixture = superdir.coupling_fixture(4, 0.3, 1.0)
    sites = [
        lambda v: superdir.ArrayGeometry(v, 0.2),
        superdir.CouplingMatrix.identity,
        lambda v: superdir.coupling_fixture(v, 0.3, 1.0),
        lambda v: superdir.SphereQuadrature(theta=[np.pi / 2], theta_weights=[2.0], phi_count=v),
        lambda v: superdir.SphereQuadrature.gauss_legendre(v, 8),
        lambda v: superdir.SphereQuadrature.gauss_legendre(4, v),
        superdir.mode_count,
        lambda v: superdir.SweIndex(1, 0, v),
        lambda v: superdir.SweIndex(1, v, 4),
        lambda v: superdir.active_element_pattern(geometry, isotropic, fixture, v, 0.5, 0.3),
    ]
    sites += [lambda v, name=name: superdir.SweepSpec(**{"antennas": 2, name: v})
              for name in ("antennas", "spacing_steps", "quadrature_theta", "quadrature_phi",
                           "truncation")]
    parts = [_outcome(lambda: site(bad)) for site in sites
             for bad in (2.5, np.nan, np.inf, -np.inf, "3", -5, -1, 0, 4.0, 5)]
    field = os.path.join(workdir, "count_field.csv")
    superdir.write_field_samples(field, superdir.reconstruct_field(
        superdir.WaveCoefficientSet(np.ones(6, dtype=complex), 1, 0.0), superdir.default_fit_grid(1)))
    for command in (["swe", "fit", "--input", field],
                    ["coupling", "estimate", "--isolated", field, "--active", field]):
        for truncation in ("0", "-1"):
            parts.append(_run_cli([*command, "--truncation", truncation], workdir))
    return f"{len(parts)} parts", _digest(parts)


def help_texts(workdir):
    commands = ([], ["impedance"], ["beamform"], ["sweep"], ["swe"], ["swe", "fit"], ["coupling"],
                ["coupling", "estimate"], ["coupling", "synth"])
    parts = [_run_cli([*command, "--help"]) for command in commands]
    return f"{len(parts)} runs", _digest(parts)


def main() -> int:
    os.environ["COLUMNS"] = "80"  # argparse wraps --help text to the terminal width
    with tempfile.TemporaryDirectory() as workdir:
        for group in (sweeps, beamform_stdout, sweep_help, gain_optimal, radiation_directivity,
                      errors, ill_conditioning_warnings, impedance_csv, beamform_files,
                      sweep_files, coupling_synth, coupling_estimate, swe_fit, dense_fit,
                      help_texts, input_errors, count_errors):
            what, digest = group(workdir)
            print(f"{group.__name__:26s} {digest}  ({what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
