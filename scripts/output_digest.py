"""Print sha256 digests of superdir's user-visible outputs over a fixed case list.

Run it on two checkouts and diff the output to show that a refactor left
every output byte-identical:

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py > digests.txt

Digested groups, one line each: spacing-sweep CSVs (identity, file and
synthetic coupling), ``superdir beamform`` stdout, ``superdir sweep --help``,
gain-optimal excitations, ``radiation.directivity`` values, error messages,
and ill-conditioning warnings. Uses only the public API and the CLI.
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


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


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
    csvs = [_sweep_csv(**{**SPACINGS, **case}) for case in cases]
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
    parts = []
    for call in calls:
        try:
            call()
            parts.append("no error")
        except Exception as exc:  # the digest records whichever error is raised
            parts.append(f"{type(exc).__name__}: {exc}")
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


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for group in (sweeps, beamform_stdout, sweep_help, gain_optimal, radiation_directivity,
                      errors, ill_conditioning_warnings):
            what, digest = group(workdir)
            print(f"{group.__name__:26s} {digest}  ({what})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
