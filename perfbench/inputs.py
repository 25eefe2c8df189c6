"""Seeded inputs for the benchmark workloads.

Everything the program receives is made here from the workload seed: the
per-operation spacing jitter of the sweeps, and the irregular direction set,
noise and field files of the coupling estimate. The fields are synthesized
from the physics directly (NumPy only, no superdir code), so the program sees
data it did not produce.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np


class SweepSettings(NamedTuple):
    """One operation of a sweep workload: a run_sweep per (element count, pattern)."""

    element_counts: tuple
    patterns: tuple
    start: float
    stop: float
    steps: int
    coupling: str


SWEEP_SETTINGS = {
    "sweep-identity": SweepSettings(
        (4, 8, 12), ("isotropic", "half-wave-dipole"), 0.05, 0.5, 100, "identity"),
    "sweep-synthetic": SweepSettings(
        (4,), ("half-wave-dipole",), 0.05, 0.5, 10, "synthetic:gamma=0.3,beta=1.1"),
}
SWEEP_EFFICIENCY = 0.96

# Jitter of each sweep endpoint, as a share of the grid step. It keeps every
# spacing of one operation distinct from every other operation's, and it is
# small enough that no point of sweep-synthetic changes its SWE truncation N,
# so each operation does the same amount of work.
_JITTER_SHARE = 0.01

# estimate-cli: the coupling fixture c_mn = GAMMA^|m-n| exp(-j BETA |m-n|).
ESTIMATE_ELEMENTS = 8
ESTIMATE_SPACING = 0.3
ESTIMATE_DIRECTIONS = 2400
ESTIMATE_NOISE = 1e-6
FIXTURE_GAMMA = 0.3
FIXTURE_BETA = 1.1

FIELD_HEADER = "theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n"


def sweep_jitter(workload: str, seed: int, op_index: int) -> tuple:
    """(spacing_start, spacing_stop) of one operation of a sweep workload."""
    settings = SWEEP_SETTINGS[workload]
    step = (settings.stop - settings.start) / (settings.steps - 1)
    rng = np.random.default_rng([seed, op_index])
    shift = rng.uniform(-_JITTER_SHARE, _JITTER_SHARE, size=2) * step
    return settings.start + float(shift[0]), settings.stop + float(shift[1])


def fixture_coupling(count: int = ESTIMATE_ELEMENTS) -> np.ndarray:
    """The known coupling matrix the estimate must recover."""
    sep = np.abs(np.subtract.outer(np.arange(count), np.arange(count)))
    return FIXTURE_GAMMA**sep * np.exp(-1j * FIXTURE_BETA * sep)


def _dipole_field(theta, phi):
    """Far field of an x-directed half-wave dipole: (E_theta, E_phi).

    The field points along the transverse part of the dipole axis, with the
    magnitude cos(pi/2 cos psi) / sin psi, psi being the angle to the axis.
    """
    a_theta = np.cos(theta) * np.cos(phi)
    a_phi = -np.sin(phi)
    sin2 = a_theta**2 + a_phi**2  # sin^2 psi
    cospsi = np.sin(theta) * np.cos(phi)
    scale = np.cos(0.5 * np.pi * cospsi) / sin2
    return scale * a_theta, scale * a_phi


def _format_rows(theta_deg, phi_deg, e_theta, e_phi) -> str:
    cols = (theta_deg, phi_deg, e_theta.real, e_theta.imag, e_phi.real, e_phi.imag)
    lines = [",".join(format(float(v), ".17g") for v in row) for row in zip(*cols)]
    return FIELD_HEADER + "\n".join(lines) + "\n"


def write_estimate_inputs(seed: int, directory: str) -> tuple:
    """Write isolated/active field CSVs; returns (isolated paths, active paths).

    Directions are uniform random on the sphere (no equiangular structure).
    Each file carries complex Gaussian noise of ESTIMATE_NOISE times its RMS
    value.
    """
    rng = np.random.default_rng([seed, 1_000_003])
    count = ESTIMATE_DIRECTIONS
    theta_deg = np.degrees(np.arccos(rng.uniform(-1.0, 1.0, count)))
    phi_deg = rng.uniform(0.0, 360.0, count)
    # the program parses the 17-digit degrees and converts with np.radians,
    # so the fields are evaluated at exactly the angles it will see
    theta = np.radians(theta_deg)
    phi = np.radians(phi_deg)
    e0_theta, e0_phi = _dipole_field(theta, phi)
    z = ESTIMATE_SPACING * np.arange(ESTIMATE_ELEMENTS)
    shift = np.exp(1j * 2.0 * np.pi * np.outer(np.cos(theta), z))  # (P, M)
    iso_theta, iso_phi = e0_theta[:, None] * shift, e0_phi[:, None] * shift
    coupling = fixture_coupling()
    act_theta, act_phi = iso_theta @ coupling, iso_phi @ coupling
    paths = {"isolated": [], "active": []}
    for kind, (f_theta, f_phi) in (("isolated", (iso_theta, iso_phi)), ("active", (act_theta, act_phi))):
        for m in range(ESTIMATE_ELEMENTS):
            e_theta, e_phi = f_theta[:, m].copy(), f_phi[:, m].copy()
            rms = math.sqrt((np.sum(np.abs(e_theta) ** 2) + np.sum(np.abs(e_phi) ** 2)) / (2 * count))
            for comp in (e_theta, e_phi):
                comp += ESTIMATE_NOISE * rms * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
            path = os.path.join(directory, f"{kind}_{m + 1}.csv")
            with open(path, "w", newline="") as handle:
                handle.write(_format_rows(theta_deg, phi_deg, e_theta, e_phi))
            paths[kind].append(path)
    return paths["isolated"], paths["active"]
