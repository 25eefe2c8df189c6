"""Command line behavior: exit codes, output text, files, determinism."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superdir import (
    FieldSampleSet,
    WaveCoefficientSet,
    coupling_fixture,
    read_coefficients,
    read_coupling,
    reconstruct_field,
    write_coupling,
    write_field_samples,
)
from superdir import cli
from superdir.cli import main
from superdir.errors import NUMERICAL_FAILURES, DegenerateInputError
from superdir.swe import default_fit_grid

ENDFIRE_PAIR = ["--antennas", "2", "--spacing", "0.1", "--theta0", "0"]


def _line_value(text, label):
    match = re.search(rf"^{label}\s+(\S+)", text, re.MULTILINE)
    assert match is not None, f"no {label!r} line in:\n{text}"
    return float(match.group(1))


# ---- exit codes ----------------------------------------------------------------


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_unknown_subcommand_exits_one(capsys):
    assert main(["polish"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert main(["beamform", "--spacing", "0.1"]) == 1


def test_domain_error_exits_one(capsys):
    assert main(["beamform", "--antennas", "0", "--spacing", "0.1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_input_file_exits_two(capsys):
    code = main(["swe", "fit", "--input", "no/such/file.csv", "--truncation", "2"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_malformed_field_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi\n10,0,oops,0,0,0\n")
    assert main(["swe", "fit", "--input", str(bad), "--truncation", "2"]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["swe", "fit", "--input", "f.csv"],
    ["coupling", "estimate", "--isolated", "f.csv", "--active", "f.csv"],
])
def test_a_repeated_direction_exits_two_naming_both_lines(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    field = reconstruct_field(WaveCoefficientSet(np.ones(6, dtype=complex), 1, 0.0), default_fit_grid(1))
    write_field_samples("f.csv", field)
    lines = Path("f.csv").read_text().splitlines(keepends=True)
    Path("f.csv").write_text("".join(lines + [lines[3]]))  # line 4 again, as the last line
    assert main([*command, "--truncation", "1"]) == 2
    assert capsys.readouterr() == (
        "", f"superdir: data error: line {len(lines) + 1}: direction repeats line 4\n")


def test_coupling_size_mismatch_exits_two(tmp_path, capsys):
    path = tmp_path / "c3.csv"
    write_coupling(path, coupling_fixture(3, 0.2, 0.5))
    code = main(
        ["beamform", "--antennas", "2", "--spacing", "0.1", "--coupling", f"file:{path}"]
    )
    assert code == 2


def test_singular_coupling_exits_three(tmp_path, capsys):
    path = tmp_path / "ones.csv"
    path.write_text("row,col,re,im\n1,1,1,0\n1,2,1,0\n2,1,1,0\n2,2,1,0\n")
    code = main(
        ["beamform", "--antennas", "2", "--spacing", "0.1", "--coupling", f"file:{path}"]
    )
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("failure", (*NUMERICAL_FAILURES, DegenerateInputError),
                         ids=lambda cls: cls.__name__)
def test_each_numerical_failure_exits_three(failure, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise failure("forced failure")

    monkeypatch.setattr(cli, "evaluate_point", fail)
    assert main(["beamform", "--antennas", "2", "--spacing", "0.1"]) == 3
    assert capsys.readouterr() == ("", "superdir: numerical error: forced failure\n")


def test_fit_without_truncation_or_radius_exits_one(tmp_path, capsys):
    field = tmp_path / "f.csv"
    write_field_samples(
        field,
        reconstruct_field(
            WaveCoefficientSet(np.ones(6, dtype=complex), truncation=1, residual=0.0),
            default_fit_grid(1),
        ),
    )
    assert main(["swe", "fit", "--input", str(field)]) == 1
    assert "--truncation or --radius" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["swe", "fit", "--input", "f.csv"],
    ["coupling", "estimate", "--isolated", "f.csv", "--active", "f.csv"],
])
def test_a_zero_truncation_exits_one_with_the_library_message(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_field_samples(
        "f.csv",
        reconstruct_field(
            WaveCoefficientSet(np.ones(6, dtype=complex), truncation=1, residual=0.0),
            default_fit_grid(1),
        ),
    )
    assert main([*command, "--truncation", "0"]) == 1
    assert capsys.readouterr() == ("", "superdir: error: truncation order must be >= 1\n")


def test_estimate_with_mismatched_file_counts_exits_one(tmp_path, capsys):
    field = tmp_path / "f.csv"
    write_field_samples(
        field,
        reconstruct_field(
            WaveCoefficientSet(np.ones(6, dtype=complex), truncation=1, residual=0.0),
            default_fit_grid(1),
        ),
    )
    code = main(
        [
            "coupling",
            "estimate",
            "--isolated", str(field), str(field),
            "--active", str(field),
            "--truncation", "1",
        ]
    )
    assert code == 1


# ---- impedance -----------------------------------------------------------------


def test_impedance_emits_the_closed_form_entries(capsys):
    assert main(["impedance", "--antennas", "2", "--spacing", "0.25"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 5
    entries = {tuple(line.split(",")[:2]): complex(line.split(",", 2)[2]) for line in lines[1:]}
    assert entries[("1", "1")] == pytest.approx(1.0, abs=1e-12)
    assert entries[("1", "2")] == pytest.approx(2.0 / np.pi, abs=1e-10)
    assert "cond(Z)" in err


# ---- beamform -------------------------------------------------------------------


def test_single_element_beamform_is_trivial(capsys):
    assert main(["beamform", "--antennas", "1", "--spacing", "0.25"]) == 0
    out = capsys.readouterr().out
    assert _line_value(out, "D_max") == pytest.approx(1.0, abs=1e-3)
    assert "|b|=1" in out


def test_beamform_reports_the_compact_endfire_pair(capsys):
    assert main(["beamform", *ENDFIRE_PAIR]) == 0
    out = capsys.readouterr().out
    # the 0.1-wavelength pair beats the half-wavelength pair's 2.0 by far
    kd = 2.0 * np.pi * 0.1
    s = np.sinc(kd / np.pi)
    expected = 2.0 * (1.0 - s * np.cos(kd)) / (1.0 - s * s)
    assert _line_value(out, "D_max") == pytest.approx(expected, abs=2e-3)
    # cond(Z) = (1 + s) / (1 - s) with s = sinc(kd): about 30 here, 1 at d = 0.5
    assert _line_value(out, "cond\\(Z\\)") == pytest.approx((1 + s) / (1 - s), rel=1e-3)


def test_beamform_with_synthetic_coupling_recovers_the_optimum(capsys):
    args = [
        "beamform", *ENDFIRE_PAIR,
        "--coupling", "synthetic:gamma=0.3,beta=1.1",
        "--truncation", "8",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    d_max = _line_value(out, "D_max")
    d_trad = _line_value(out, "D_traditional")
    d_coup = _line_value(out, "D_coupled")
    assert d_coup == pytest.approx(d_max, rel=1e-3)
    assert d_trad < d_coup
    assert _line_value(out, "gain") == pytest.approx(d_coup, rel=1e-3)  # efficiency 1


def test_beamform_efficiency_shows_up_in_gain_and_loss(capsys):
    assert main(["beamform", *ENDFIRE_PAIR, "--efficiency", "0.5"]) == 0
    out = capsys.readouterr().out
    assert _line_value(out, "gain") < _line_value(out, "D_coupled")
    assert _line_value(out, "r_loss") == pytest.approx(1.0, abs=1e-9)


def test_beamform_writes_the_excitation_file(tmp_path, capsys):
    target = tmp_path / "b.csv"
    args = ["beamform", "--antennas", "2", "--spacing", "0.5", "--theta0", "90",
            "--output", str(target)]
    assert main(args) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "element,re,im"
    values = [complex(float(l.split(",")[1]), float(l.split(",")[2])) for l in lines[1:]]
    np.testing.assert_allclose(values, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-10)


def test_spacing_in_meters_converts_at_the_default_frequency(capsys):
    assert main(["beamform", "--antennas", "2", "--spacing-m", "0.1"]) == 0
    out = capsys.readouterr().out
    match = re.search(r"spacing\s+(\S+) wavelengths", out)
    assert float(match.group(1)) == pytest.approx(0.1 * 845e6 / 299792458.0, rel=1e-3)


def test_spacing_flags_are_mutually_exclusive(capsys):
    code = main(["beamform", "--antennas", "2", "--spacing", "0.1", "--spacing-m", "0.1"])
    assert code == 1


@pytest.mark.parametrize("command", [["beamform", "--spacing", "0.1"],
                                     ["sweep", "--spacing", "0.1:0.2:2"]])
def test_dipole_broadside_needs_phi0_90(command, capsys):
    # the dipoles lie along x, so theta0 = 90 at phi0 = 0 is their own null
    args = command + ["--antennas", "4", "--pattern", "half-wave-dipole", "--theta0", "90"]
    assert main(args + ["--phi0", "90"]) == 0
    capsys.readouterr()
    assert main(args + ["--phi0", "0"]) == 3
    assert "steering vector is zero" in capsys.readouterr().err


# ---- sweep ----------------------------------------------------------------------


def test_sweep_single_point_to_stdout(capsys):
    args = ["sweep", "--antennas", "2", "--spacing", "0.5:0.5:1", "--theta0", "90"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "spacing,dmax,d_traditional,d_coupled,gain,cond_z"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[1]) == pytest.approx(2.0, abs=1e-9)


def test_sweep_writes_the_output_file(tmp_path, capsys):
    target = tmp_path / "s.csv"
    args = ["sweep", "--antennas", "2", "--spacing", "0.2:0.4:3", "--output", str(target)]
    assert main(args) == 0
    assert capsys.readouterr().out == ""
    assert len(target.read_text().splitlines()) == 4


def test_sweep_flags_singular_points_on_stderr_but_exits_zero(tmp_path, capsys):
    path = tmp_path / "ones.csv"
    write_coupling(path, coupling_fixture(2, gamma=0.999999999, beta=0.0))
    path.write_text("row,col,re,im\n1,1,1,0\n1,2,1,0\n2,1,1,0\n2,2,1,0\n")
    args = ["sweep", "--antennas", "2", "--spacing", "0.2:0.3:2",
            "--coupling", f"file:{path}"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.count("nan") >= 2
    assert "flagged spacing" in err


def test_sweep_config_file_drives_the_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# broadside pair\n"
        "antennas = 2\n"
        "pattern = isotropic\n"
        "spacing_start = 0.5\n"
        "spacing_stop = 0.5\n"
        "spacing_steps = 1\n"
        "theta0_deg = 90\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(2.0, abs=1e-9)


def test_a_one_step_config_needs_no_stop(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("antennas = 4\nspacing_start = 0.6\nspacing_steps = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr()
    assert main(["sweep", "--antennas", "4", "--spacing", "0.6"]) == 0
    assert capsys.readouterr() == from_config
    assert from_config.err == "" and len(from_config.out.splitlines()) == 2


def test_sweep_flags_override_the_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "antennas = 2\nspacing_start = 0.5\nspacing_stop = 0.5\nspacing_steps = 1\n"
        "theta0_deg = 90\n"
    )
    assert main(["sweep", "--config", str(cfg), "--antennas", "3"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(3.0, abs=1e-9)  # broadside optimum is M


@pytest.mark.parametrize(
    "key, text, flag, field, from_file, from_flag",
    [
        ("phi0_deg", "30", ["--phi0", "45"], "phi0_deg", 30.0, 45.0),
        ("efficiency", "0.8", ["--efficiency", "0.5"], "efficiency", 0.8, 0.5),
        ("coupling", "synthetic:gamma=0.3,beta=1.1", ["--coupling", "identity"],
         "coupling_source", "synthetic:gamma=0.3,beta=1.1", "identity"),
        ("quadrature_theta", "32", ["--quadrature-theta", "48"], "quadrature_theta", 32, 48),
        ("quadrature_phi", "64", ["--quadrature-phi", "96"], "quadrature_phi", 64, 96),
        ("truncation", "9", ["--truncation", "11"], "truncation", 9, 11),
    ],
)
def test_sweep_config_key_and_its_flag_reach_the_spec(
    tmp_path, capsys, monkeypatch, key, text, flag, field, from_file, from_flag
):
    specs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"antennas = 2\n{key} = {text}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), *flag]) == 0
    got = [getattr(spec, field) for spec in specs]
    assert got == [from_file, from_flag]
    assert [type(value) for value in got] == [type(from_file)] * 2


def test_sweep_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("antennas = 2\nwavelength = 0.3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "wavelength" in capsys.readouterr().err


def test_sweep_without_antennas_anywhere_exits_one(capsys):
    assert main(["sweep", "--spacing", "0.1:0.2:2"]) == 1


def test_sweep_output_is_identical_from_run_to_run(tmp_path, capsys):
    args = ["sweep", "--antennas", "2", "--spacing", "0.1:0.4:4",
            "--coupling", "synthetic:gamma=0.2,beta=0.7", "--truncation", "8"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == serial


# ---- swe fit --------------------------------------------------------------------


def test_fit_round_trips_a_band_limited_field(tmp_path, capsys):
    rng = np.random.default_rng(90)
    coeffs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    original = WaveCoefficientSet(coefficients=coeffs, truncation=3, residual=0.0)
    field_path = tmp_path / "field.csv"
    write_field_samples(field_path, reconstruct_field(original, default_fit_grid(3)))
    out_path = tmp_path / "coeffs.csv"
    args = ["swe", "fit", "--input", str(field_path), "--truncation", "3",
            "--output", str(out_path)]
    assert main(args) == 0
    assert "relative residual" in capsys.readouterr().err
    restored = read_coefficients(out_path)
    np.testing.assert_allclose(restored.coefficients, coeffs, atol=1e-9)


def test_fit_radius_flag_sets_the_truncation(tmp_path, capsys):
    original = WaveCoefficientSet(np.ones(6, dtype=complex), truncation=1, residual=0.0)
    field_path = tmp_path / "field.csv"
    write_field_samples(field_path, reconstruct_field(original, default_fit_grid(12)))
    assert main(["swe", "fit", "--input", str(field_path), "--radius", "0.25"]) == 0
    assert "N = 12" in capsys.readouterr().err  # ceil(2 pi 0.25) + 10


# ---- coupling synth + estimate ----------------------------------------------------


def test_synth_then_estimate_recovers_the_true_coupling(tmp_path, capsys):
    workdir = tmp_path / "testbed"
    synth = ["coupling", "synth", "--antennas", "2", "--spacing", "0.2",
             "--pattern", "hertzian-dipole", "--gamma", "0.3", "--beta", "1.1",
             "--truncation", "8", "--output-dir", str(workdir)]
    assert main(synth) == 0
    assert "wrote 5 files" in capsys.readouterr().err

    out_path = tmp_path / "estimate.csv"
    estimate = ["coupling", "estimate",
                "--isolated", str(workdir / "isolated_1.csv"), str(workdir / "isolated_2.csv"),
                "--active", str(workdir / "active_1.csv"), str(workdir / "active_2.csv"),
                "--truncation", "8", "--output", str(out_path)]
    assert main(estimate) == 0
    err = capsys.readouterr().err
    assert "estimation residual" in err
    residual = float(re.search(r"estimation residual = (\S+)", err).group(1))
    assert residual < 1e-9

    truth = read_coupling(workdir / "coupling_true.csv")
    found = read_coupling(out_path)
    np.testing.assert_allclose(found.values, truth.values, atol=1e-8)


def test_estimate_can_take_the_spacing_instead_of_a_truncation(tmp_path, capsys):
    workdir = tmp_path / "testbed"
    synth = ["coupling", "synth", "--antennas", "2", "--spacing", "0.2",
             "--gamma", "0.25", "--beta", "0.8", "--output-dir", str(workdir)]
    assert main(synth) == 0
    capsys.readouterr()
    estimate = ["coupling", "estimate",
                "--isolated", str(workdir / "isolated_1.csv"), str(workdir / "isolated_2.csv"),
                "--active", str(workdir / "active_1.csv"), str(workdir / "active_2.csv"),
                "--spacing", "0.2", "--output", str(tmp_path / "c.csv")]
    assert main(estimate) == 0
    assert "N = 13" in capsys.readouterr().err  # radius 0.35 -> ceil(2 pi 0.35) + 10
    found = read_coupling(tmp_path / "c.csv")
    np.testing.assert_allclose(found.values, coupling_fixture(2, 0.25, 0.8).values, atol=1e-8)


def test_coupling_commands_never_load_scipy_linalg(tmp_path):
    import superdir

    script = """
import sys
import superdir.cli

loaded = ["scipy.linalg" in sys.modules]
workdir = sys.argv[1]
assert superdir.cli.main(["coupling", "synth", "--antennas", "2", "--spacing", "0.2",
                          "--gamma", "0.3", "--beta", "1.1", "--truncation", "8",
                          "--output-dir", workdir]) == 0
assert superdir.cli.main(["coupling", "estimate",
                          "--isolated", workdir + "/isolated_1.csv", workdir + "/isolated_2.csv",
                          "--active", workdir + "/active_1.csv", workdir + "/active_2.csv",
                          "--truncation", "8", "--output", workdir + "/c.csv"]) == 0
loaded.append("scipy.linalg" in sys.modules)
print(loaded)
"""
    paths = (str(Path(superdir.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False]"


def test_no_command_needs_scipy(tmp_path):
    import superdir

    script = """
import sys

sys.modules["scipy"] = None  # any import of scipy or a scipy submodule now raises ImportError
import superdir.cli

work = sys.argv[1]
runs = [
    ["coupling", "synth", "--antennas", "2", "--spacing", "0.2", "--gamma", "0.3", "--beta", "1.1",
     "--truncation", "8", "--output-dir", work],
    ["coupling", "estimate", "--isolated", work + "/isolated_1.csv", work + "/isolated_2.csv",
     "--active", work + "/active_1.csv", work + "/active_2.csv", "--truncation", "8",
     "--output", work + "/c.csv"],
    ["swe", "fit", "--input", work + "/isolated_1.csv", "--truncation", "8",
     "--output", work + "/q.csv"],
    ["impedance", "--antennas", "3", "--spacing", "0.1", "--output", work + "/z.csv"],
    ["beamform", "--antennas", "3", "--spacing", "0.1"],
    ["beamform", "--antennas", "3", "--spacing", "0.1", "--loading", "0.01"],
    ["beamform", "--antennas", "3", "--spacing", "0.1", "--efficiency", "0.9"],
    ["sweep", "--antennas", "3", "--spacing", "0.05:0.4:4"],
    ["sweep", "--antennas", "2", "--spacing", "0.1:0.3:3", "--pattern", "half-wave-dipole",
     "--coupling", "synthetic:gamma=0.3,beta=1.1", "--truncation", "8"],
    ["sweep", "--antennas", "2", "--spacing", "0.1:0.3:3",
     "--coupling", "file:" + work + "/coupling_true.csv"],
]
print([superdir.cli.main(argv) for argv in runs])
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    paths = (str(Path(superdir.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == [str([0] * 10), "['scipy']"], result.stderr


def test_synth_then_estimate_fits_the_read_back_grid_by_order(tmp_path, capsys, monkeypatch):
    from superdir import swe

    def refuse(*args, **kwargs):
        raise AssertionError("dense basis built for an equiangular field file")

    workdir = tmp_path / "testbed"
    synth = ["coupling", "synth", "--antennas", "3", "--spacing", "0.15",
             "--pattern", "half-wave-dipole", "--gamma", "0.3", "--beta", "1.1",
             "--output-dir", str(workdir)]
    assert main(synth) == 0
    assert "N = 13" in capsys.readouterr().err  # radius 0.4 -> ceil(2 pi 0.4) + 10
    monkeypatch.setattr(swe, "_real_basis_matrix", refuse)
    estimate = ["coupling", "estimate",
                "--isolated", *(str(workdir / f"isolated_{i}.csv") for i in (1, 2, 3)),
                "--active", *(str(workdir / f"active_{i}.csv") for i in (1, 2, 3)),
                "--spacing", "0.15", "--output", str(tmp_path / "c.csv")]
    assert main(estimate) == 0
    assert "N = 13" in capsys.readouterr().err
    found = read_coupling(tmp_path / "c.csv")
    np.testing.assert_allclose(found.values, coupling_fixture(3, 0.3, 1.1).values, atol=1e-8)


def test_estimate_on_random_directions_builds_the_dense_basis_once(tmp_path, capsys, monkeypatch):
    from superdir import ArrayGeometry, ElementPattern, read_field_samples, swe
    from superdir.coupling import (
        build_coefficient_set,
        estimate_coupling,
        isolated_fields_synthetic,
        synthesize_coupled_fields,
    )

    rng = np.random.default_rng(12)
    count = 600
    directions = np.column_stack(
        (np.arccos(rng.uniform(-1.0, 1.0, count)), rng.uniform(0.0, 2.0 * np.pi, count))
    )
    geometry = ArrayGeometry(3, 0.2)
    isolated = isolated_fields_synthetic(geometry, ElementPattern.half_wave_dipole(), directions)
    active = synthesize_coupled_fields(isolated, coupling_fixture(3, 0.3, 1.1))
    paths = {}
    for kind, fields in (("isolated", isolated), ("active", active)):
        paths[kind] = [str(tmp_path / f"{kind}_{i}.csv") for i in range(1, 4)]
        for path, field in zip(paths[kind], fields):
            write_field_samples(path, field)

    original = swe._real_basis_matrix
    calls = []
    monkeypatch.setattr(swe, "_real_basis_matrix", lambda *a, **k: calls.append(1) or original(*a, **k))
    estimate = ["coupling", "estimate", "--isolated", *paths["isolated"],
                "--active", *paths["active"], "--truncation", "8",
                "--output", str(tmp_path / "c.csv")]
    assert main(estimate) == 0
    assert len(calls) == 1

    iso = [read_field_samples(path) for path in paths["isolated"]]
    act = [read_field_samples(path) for path in paths["active"]]
    separate = estimate_coupling(build_coefficient_set(iso, 8), build_coefficient_set(act, 8))
    found = read_coupling(tmp_path / "c.csv")
    scale = np.max(np.abs(separate.values))
    assert np.max(np.abs(found.values - separate.values)) <= 1e-12 * scale


def test_estimate_enters_each_estimation_layer_exactly_once(tmp_path, capsys, monkeypatch):
    # layer wrappers replace a function by identity in every superdir module
    # namespace, so the estimate must reach these two through module globals
    from superdir import coupling

    workdir = tmp_path / "testbed"
    assert main(["coupling", "synth", "--antennas", "3", "--spacing", "0.15",
                 "--gamma", "0.3", "--beta", "1.1", "--truncation", "8",
                 "--output-dir", str(workdir)]) == 0
    calls = []
    for name in ("build_coefficient_set", "estimate_coupling"):
        original = getattr(coupling, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "superdir" or module_name.startswith("superdir."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    assert main(["coupling", "estimate",
                 "--isolated", *(str(workdir / f"isolated_{i}.csv") for i in (1, 2, 3)),
                 "--active", *(str(workdir / f"active_{i}.csv") for i in (1, 2, 3)),
                 "--truncation", "8", "--output", str(tmp_path / "c.csv")]) == 0
    assert calls == ["build_coefficient_set", "estimate_coupling"]


# ---- one pipeline per output ------------------------------------------------------


def test_beamform_output_file_is_the_excitation_writer_bytes(tmp_path, capsys):
    from superdir import ArrayGeometry, CouplingMatrix, ElementPattern
    from superdir.fileio import write_excitation
    from superdir.radiation import SphereQuadrature
    from superdir.sweep import evaluate_point

    target = tmp_path / "b.csv"
    assert main(["beamform", "--antennas", "3", "--spacing", "0.15", "--pattern",
                 "half-wave-dipole", "--theta0", "30", "--phi0", "40", "--efficiency", "0.8",
                 "--loading", "0.001", "--output", str(target)]) == 0
    assert capsys.readouterr().err == f"excitation written to {target}\n"
    _, excitation = evaluate_point(
        ArrayGeometry(3, 0.15), ElementPattern.half_wave_dipole(),
        SphereQuadrature.gauss_legendre(64, 128), CouplingMatrix.identity(3),
        np.radians(30.0), np.radians(40.0), 0.8, loading=0.001,
    )
    buffer = io.StringIO()
    write_excitation(buffer, excitation)
    assert target.read_bytes() == buffer.getvalue().encode()
    assert buffer.getvalue().startswith("element,re,im\n1,")


@pytest.mark.parametrize("coupling", ["identity", "synthetic:gamma=0.3,beta=1.1"])
def test_beamform_figures_are_the_one_point_sweep_row(coupling, capsys):
    common = ["--antennas", "4", "--pattern", "hertzian-dipole", "--theta0", "60",
              "--phi0", "90", "--efficiency", "0.7", "--coupling", coupling, "--truncation", "8"]
    assert main(["beamform", "--spacing", "0.12", *common]) == 0
    out = capsys.readouterr().out
    assert main(["sweep", "--spacing", "0.12:0.12:1", *common]) == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    columns = {"D_max": 1, "D_traditional": 2, "D_coupled": 3, "gain": 4, "cond(Z)": 5}
    for label, column in columns.items():
        line = next(line for line in out.splitlines() if line.startswith(label + " "))
        assert line.split()[1] == format(float(cells[column]), ".4g")


def test_impedance_csv_is_the_impedance_writer_bytes(tmp_path, capsys):
    from superdir import ArrayGeometry, ElementPattern, impedance_matrix
    from superdir.fileio import write_impedance

    flags = ["--antennas", "3", "--spacing", "0.2", "--loading", "0.01"]
    assert main(["impedance", *flags]) == 0
    stdout = capsys.readouterr().out
    assert main(["impedance", *flags, "--output", str(tmp_path / "z.csv")]) == 0
    buffer = io.StringIO()
    write_impedance(buffer, impedance_matrix(ArrayGeometry(3, 0.2), ElementPattern.isotropic(),
                                             loading=0.01))
    assert stdout == buffer.getvalue() == (tmp_path / "z.csv").read_text()


# ---- non-finite input ---------------------------------------------------------------


def test_beamform_nan_theta_exits_one(capsys):
    assert main(["beamform", "--antennas", "2", "--spacing", "0.2", "--theta0", "nan"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "superdir: error: theta must lie in [0, pi]\n"


@pytest.mark.parametrize("flags, message", [
    (["beamform", "--antennas", "2", "--spacing", "inf"], "spacing must be finite"),
    (["beamform", "--antennas", "2", "--spacing-m", "0.1", "--frequency", "inf"],
     "spacing must be finite"),
    (["beamform", "--antennas", "2", "--spacing", "nan"], "spacing must be positive"),
    (["swe", "fit", "--input", "field.csv", "--radius", "nan"], "enclosing radius must be >= 0"),
    (["swe", "fit", "--input", "field.csv", "--radius", "inf"], "enclosing radius must be finite"),
])
def test_non_finite_lengths_exit_one(flags, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    field = reconstruct_field(WaveCoefficientSet(np.ones(6, dtype=complex), 1, 0.0), default_fit_grid(1))
    write_field_samples(tmp_path / "field.csv", field)
    assert main(flags) == 1
    assert capsys.readouterr().err == f"superdir: error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["impedance", "--antennas", "2", "--spacing", "0.1", "--loading", "inf"],
     "diagonal loading must be finite"),
    (["beamform", "--antennas", "2", "--spacing", "0.1", "--loading", "inf"],
     "diagonal loading must be finite"),
    (["impedance", "--antennas", "2", "--spacing", "0.1", "--loading", "nan"],
     "diagonal loading must be >= 0"),
    (["sweep", "--antennas", "2", "--spacing", "0.1:inf:2"], "spacing_stop must be finite"),
    (["sweep", "--antennas", "2", "--spacing", "inf:inf:2"], "spacing_start must be finite"),
    (["sweep", "--antennas", "2", "--spacing", "0.1:nan:2"], "spacing_stop must be finite"),
    (["sweep", "--antennas", "2", "--spacing", "inf"], "spacing must be finite"),
    (["sweep", "--config", "nan_stop.cfg"], "spacing_stop must be finite"),
    (["sweep", "--antennas", "2", "--spacing", "0.1:0.2:2", "--phi0", "nan"],
     "phi0_deg must be finite"),
    (["sweep", "--config", "nan_phi0.cfg"], "phi0_deg must be finite"),
    (["beamform", "--antennas", "4", "--spacing", "0.2", "--phi0", "nan"], "phi0_deg must be finite"),
    (["beamform", "--antennas", "4", "--spacing", "0.2", "--phi0", "inf"], "phi0_deg must be finite"),
    (["sweep", "--antennas", "2", "--spacing", "0.1:0.2:2", "--coupling",
      "synthetic:gamma=0.3,beta=inf"], "beta must be finite"),
    (["beamform", "--antennas", "2", "--spacing", "0.1", "--coupling",
      "synthetic:gamma=0.3,beta=nan"], "beta must be finite"),
    (["coupling", "synth", "--antennas", "2", "--spacing", "0.2", "--gamma", "0.3", "--beta",
      "inf", "--output-dir", "testbed"], "beta must be finite"),
])
def test_non_finite_scalars_exit_one_naming_the_value(flags, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan_stop.cfg").write_text("antennas = 2\nspacing_stop = nan\n")
    (tmp_path / "nan_phi0.cfg").write_text("antennas = 2\nphi0_deg = nan\n")
    assert main(flags) == 1
    assert capsys.readouterr() == ("", f"superdir: error: {message}\n")
    assert not (tmp_path / "testbed").exists()


@pytest.mark.parametrize("command", [["beamform", "--spacing", "0.2"],
                                     ["sweep", "--spacing", "0.2:0.3:2"]])
def test_nan_coupling_entry_exits_two(command, tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("row,col,re,im\n1,1,1,0\n1,2,nan,0\n2,1,0,0\n2,2,1,0\n")
    assert main([*command, "--antennas", "2", "--coupling", f"file:{path}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "superdir: data error: line 3: column 're' is not finite: 'nan'\n"


def _field_file_with(tmp_path, directions, line, column, text):
    """Write a field CSV on ``directions``, then set one cell of one line to ``text``."""
    rng = np.random.default_rng(4)
    values = rng.standard_normal((len(directions), 2)) + 1j * rng.standard_normal((len(directions), 2))
    path = tmp_path / "field.csv"
    write_field_samples(path, FieldSampleSet.from_components(directions, values[:, 0], values[:, 1]))
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = text
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("grid", ["equiangular", "random"])
def test_fit_with_nan_phi_exits_two_naming_the_line(grid, tmp_path, capsys):
    if grid == "equiangular":
        directions = default_fit_grid(3)
    else:
        rng = np.random.default_rng(5)
        directions = np.column_stack((np.arccos(rng.uniform(-1.0, 1.0, 200)),
                                      rng.uniform(0.0, 2.0 * np.pi, 200)))
    path = _field_file_with(tmp_path, directions, 7, 1, "nan")
    assert main(["swe", "fit", "--input", str(path), "--truncation", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "superdir: data error: line 7: column 'phi_deg' is not finite: 'nan'\n"


def test_fit_with_an_infinite_field_value_exits_two_naming_the_line(tmp_path, capsys):
    path = _field_file_with(tmp_path, default_fit_grid(3), 9, 4, "inf")
    assert main(["swe", "fit", "--input", str(path), "--truncation", "3"]) == 2
    assert capsys.readouterr().err == (
        "superdir: data error: line 9: column 're_ephi' is not finite: 'inf'\n"
    )
