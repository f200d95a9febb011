import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ybcawo4 import cli, csvio, dynamics, fitting, spectra
from ybcawo4.errors import ValidationError
from ybcawo4.params import GROUND_MULTIPLICITIES, default_params
from test_golden import write_inputs


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def run_process(*argv):
    """The CLI in a fresh interpreter, bounded in time; numpy warnings, which
    bypass capsys under pytest, then reach the captured stderr."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "ybcawo4.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)


class TestParseConfig:
    def test_empty_config_gives_tabulated_defaults(self):
        config = cli.parse_config()
        defaults = default_params()
        assert config.params == defaults
        assert config.params.a_ground.perpendicular == 3.08187
        assert config.params.g_excited.parallel == -1.446

    def test_sign_flipped_hyperfine_leaves_spectrum_unchanged(self):
        flipped = cli.parse_config(overrides=["ground.A_perp_GHz=-3.08187"])
        from ybcawo4 import spinham
        from ybcawo4.params import Manifold
        e_default = spinham.eigensystem(default_params(), Manifold.GROUND).energies
        e_flipped = spinham.eigensystem(flipped.params, Manifold.GROUND).energies
        assert np.allclose(e_default, e_flipped, atol=1e-9)

    def test_out_of_range_value_rejected_with_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("system.concentration_ppm = -1\n")
        with pytest.raises(ValidationError) as err:
            cli.parse_config(path)
        assert "concentration_ppm" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            cli.parse_config(overrides=["system.volume_l=2"])
        assert "system.volume_l" in str(err.value)

    def test_syntax_error_reports_line_number(self, tmp_path):
        path = tmp_path / "syntax.cfg"
        path.write_text("# comment\nground.g_par 1.05\n")
        with pytest.raises(ValidationError) as err:
            cli.parse_config(path)
        assert ":2:" in str(err.value)

    def test_file_and_inline_overrides_compose(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("ground.g_par = 1.10  # tweak\n\nsystem.g_n = 0.99\n")
        config = cli.parse_config(path, overrides=["ground.g_par=1.20"])
        assert config.params.g_ground.parallel == 1.20
        assert config.params.g_n == 0.99


class TestSubcommands:
    def test_levels_outputs(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path / "run", "levels") == 0
        printed = capsys.readouterr().out
        assert "3.081870" in printed
        assert (tmp_path / "run" / "levels.csv").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "levels"
        assert "levels.csv" in manifest["outputs"]

    def test_spectrum_round_trips_through_reader(self, tmp_path):
        out = tmp_path / "spec"
        assert run_cli("--out", out, "spectrum", "--pol", "sigma") == 0
        data = csvio.read_measurement_csv(out / "spectrum.csv", "spectrum")
        assert data["detuning_GHz"].size == 2001
        assert np.all(np.diff(data["detuning_GHz"]) > 0)

    def test_sweep_long_round_trips(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("--out", out, "sweep", "--steps", "3",
                       "--grid=-3,4,200") == 0
        table = csvio.read_measurement_csv(out / "sweep_long.csv", "sweep")
        assert np.unique(table["field_mT"]).size == 3
        wide = (out / "sweep.csv").read_text().splitlines()[0]
        assert wide.startswith("detuning_GHz,B_0mT,")

    def test_epr_and_rosette(self, tmp_path):
        out = tmp_path / "epr"
        assert run_cli("--out", out, "epr", "--b-min", "50",
                       "--b-max", "800") == 0
        rows = (out / "epr.csv").read_text().splitlines()
        assert rows[0] == "field_mT,pair,weight"
        assert len(rows) > 1
        out2 = tmp_path / "ros"
        assert run_cli("--out", out2, "rosette", "--plane", "a-b",
                       "--angle-steps", "3", "--b-min", "100",
                       "--b-max", "300") == 0
        assert (out2 / "rosette.csv").read_text().splitlines()[0] == \
            "angle_deg,field_mT,pair,weight"

    def test_rules_csv_format(self, tmp_path, capsys):
        out = tmp_path / "rules"
        assert run_cli("--out", out, "rules") == 0
        lines = (out / "rules.csv").read_text().splitlines()
        assert lines[0] == "ground_level,excited_level,ED,MD"
        assert len(lines) == 10
        assert "unobserved" in capsys.readouterr().out

    def test_gfactor_jmix(self, tmp_path, capsys):
        out = tmp_path / "gf"
        assert run_cli("--out", out, "gfactor", "--coeffs", "0.700,0.714",
                       "--consistency", "-1.44", "--j", "2.5") == 0
        printed = capsys.readouterr().out
        assert "1.42" in printed

    @pytest.mark.parametrize("extra, printed_perp, csv_perp", [
        (["--j", "2.5"], "1.916254", "1.91625395893"),
        (["--family", "G78"], "2.330972", None),
    ])
    def test_gfactor_prints_the_g_perp_magnitude(self, tmp_path, capsys, extra,
                                                 printed_perp, csv_perp):
        out = tmp_path / "gf"
        assert run_cli("--out", out, "gfactor", "--coeffs", "0.7,0.714",
                       *extra) == 0
        assert f"g_perpendicular = {printed_perp}" in capsys.readouterr().out
        rows = (out / "gfactor.csv").read_text().splitlines()
        perp = rows[2].split(",")
        assert perp[0] == "g_perpendicular" and float(perp[1]) > 0
        if csv_perp is not None:
            assert perp[1] == csv_perp

    def test_budget_inversion(self, tmp_path, capsys):
        out = tmp_path / "budget"
        assert run_cli("--out", out, "budget", "--mode", "spin",
                       "--t2", "0.15") == 0
        printed = capsys.readouterr().out
        assert "13.33" in printed
        payload = json.loads((out / "budget.json").read_text())
        assert payload["t2_s"] == pytest.approx(0.15)

    def test_pump_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "pump"
        assert run_cli("--out", out, "pump", "--duration", "0.05") == 0
        table = (out / "pump.csv").read_text().splitlines()
        assert table[0] == "t_s,n1g,n2g,n3g,n4g,n1e,n2e,n3e,n4e"

    def test_dynamics_curve(self, tmp_path):
        out = tmp_path / "dyn"
        assert run_cli("--out", out, "dynamics", "--steps", "6") == 0
        assert (out / "t2_curve.csv").exists()
        assert (out / "rates.csv").exists()

    def test_one_step_dynamics_labels_its_one_temperature(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path / "dyn", "dynamics", "--steps", "1") == 0
        printed = capsys.readouterr().out
        assert printed.startswith("T2(0.05 K) = 0.1504 s ... T2(0.05 K) = 0.1504 s")

    def test_manifest_lists_every_output(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli("--out", out, "spectrum") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        produced = sorted(p.name for p in out.iterdir()
                          if p.name != "manifest.json")
        assert manifest["outputs"] == produced

    def test_manifest_config_holds_every_key_with_overrides(self, tmp_path):
        out = tmp_path / "m"
        assert run_cli("--out", out, "--set", "excited.g_par=-1.5",
                       "--set", "system.sites_per_cell=2", "levels") == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        defaults = default_params()
        assert config["preset"] == "yb171-cawo4"
        assert config["excited"] == {"g_par": -1.5, "g_perp": 1.293,
                                     "A_par_GHz": -2.87, "A_perp_GHz": 2.72}
        assert config["ground"]["A_perp_GHz"] == defaults.a_ground.perpendicular
        assert config["system"]["sites_per_cell"] == 2
        assert config["system"]["g_n"] == defaults.g_n
        keys = {f"{section}.{name}" for section in ("ground", "excited", "system")
                for name in config[section]}
        assert keys == set(cli._CONFIG_KEYS)
        assert set(config) == {"preset", "ground", "excited", "system"}

    def test_validation_error_exit_code(self, tmp_path, capsys):
        code = run_cli("--out", tmp_path / "x", "--set",
                       "system.concentration_ppm=-5", "levels")
        assert code == 1
        assert "concentration" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        data = tmp_path / "bad_decay.csv"
        csvio.write_rows(data, ["tau_s", "intensity"],
                         [[t, 1.0 + t] for t in np.linspace(0, 1, 8)])
        code = run_cli("--out", tmp_path / "y", "fit", "--model", "decay",
                       "--data", data)
        assert code == 2

    def test_levels_with_negative_ground_a_perp(self, tmp_path, capsys):
        # singlet+ then lies below singlet-; the clock splitting is |gap|
        assert run_cli("--out", tmp_path, "--set", "ground.A_perp_GHz=-3.08187",
                       "levels") == 0
        assert capsys.readouterr().out.startswith(
            "ground clock splitting |1>g-|4>g: 3.081870 GHz")


class TestOneInputPerQuantity:
    """The optical linewidth and T1 come from the parameters alone, and
    removed inputs are rejected by name."""

    def test_spectrum_drawn_at_the_set_linewidth(self, tmp_path, capsys):
        out = tmp_path / "wide"
        assert run_cli("--out", out, "--set", "system.fwhm_optical_MHz=400",
                       "spectrum") == 0
        assert capsys.readouterr().out.startswith("5 resolvable peaks")
        data = csvio.read_measurement_csv(out / "spectrum.csv", "spectrum")
        lines = spectra.transition_catalog(default_params())
        expected = sum(spectra.synthesize_spectrum(
            [ln for ln in lines if ln.isotope == isotope], 400.0,
            data["detuning_GHz"]).absorption for isotope in ("171Yb", "I0"))
        assert np.allclose(data["absorption"], expected, rtol=1e-11, atol=0.0)

    def test_optical_budget_uses_the_set_t1(self, tmp_path):
        out = tmp_path / "budget"
        assert run_cli("--out", out, "--set", "system.T1_optical_s=1e-3",
                       "budget", "--mode", "optical") == 0
        payload = json.loads((out / "budget.json").read_text())
        # no spin channels: T2 = 2 T1
        assert payload["t2_s"] == pytest.approx(2e-3, rel=1e-12)

    @pytest.mark.parametrize("argv", [["spectrum", "--fwhm-mhz", "400"],
                                      ["budget", "--t1", "1e-3"],
                                      ["levels", "--seed", "7"],
                                      ["fit", "--model", "decay", "--data",
                                       "decay.csv", "--kind", "spin"]])
    def test_removed_options_exit_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--out", tmp_path / "x", *argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_key_is_unknown(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "--set",
                       "system.optical_center_THz=308", "levels") == 1
        assert "unknown configuration key" in capsys.readouterr().err


# One command per output that a configuration key can reach.
_KEY_PROBES = (["levels", "--field", "10,20,30"], ["spectrum"], ["dynamics"],
               ["budget", "--mode", "optical"])


def _probe_csvs(out_root, settings) -> dict:
    """CSV bytes written by every probe command under the --set settings."""
    found = {}
    for k, argv in enumerate(_KEY_PROBES):
        out = out_root / str(k)
        assert run_cli("--out", out, *settings, *argv) == 0
        found.update({(k, p.name): p.read_bytes() for p in out.glob("*.csv")})
    return found


@pytest.fixture(scope="module")
def default_probe_csvs(tmp_path_factory):
    return _probe_csvs(tmp_path_factory.mktemp("defaults"), ())


@pytest.mark.parametrize("key", sorted(cli._CONFIG_KEYS))
def test_every_configuration_key_moves_an_output(key, tmp_path,
                                                 default_probe_csvs):
    section, name = key.split(".")
    value = cli.RunConfig(default_params()).resolved()[section][name]
    raw = str(value + 1) if isinstance(value, int) else repr(value * 1.01)
    assert _probe_csvs(tmp_path, ("--set", f"{key}={raw}")) != default_probe_csvs


class TestLevelLayoutCheck:
    """A hyperfine override that reorders the zero-field groups of a
    manifold is rejected by name wherever that level-group layout is used."""

    BAD = ("--set", "ground.A_par_GHz=10", "--set", "ground.A_perp_GHz=1")
    BAD_EXCITED = ("--set", "excited.A_par_GHz=10", "--set", "excited.A_perp_GHz=1")

    def _recovery_csv(self, tmp_path):
        delays = np.geomspace(1e3, 5e5, 10)
        energies = dynamics.ground_group_energies(default_params())
        truth = np.array([0.14, 0.95, 3e4, 0.04, 3.5e4, 0.01, 2.5e4])
        curves = fitting.recovery_profiles(delays, truth, energies,
                                           GROUND_MULTIPLICITIES)
        data = tmp_path / "recovery.csv"
        csvio.write_rows(data, ["delay_s", "n1g", "n23g", "n4g"],
                         [[d, *row] for d, row in
                          zip(delays, curves.reshape(3, -1).T)])
        return data

    @pytest.mark.parametrize("command", [["pump", "--duration", "0.01"],
                                         ["dynamics", "--steps", "3"],
                                         ["fit", "--model", "recovery"],
                                         ["spectrum", "--pol", "sigma"],
                                         ["sweep", "--steps", "3", "--pol", "pi"]])
    def test_reordered_ground_layout_exits_1(self, tmp_path, capsys, command):
        if command[0] == "fit":
            command = command + ["--data", str(self._recovery_csv(tmp_path))]
        out = tmp_path / "run"
        assert run_cli(*self.BAD, "--out", out, *command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error ({command[0]}): the ground hyperfine "
                              "tensor gives zero-field multiplicities (1, 1, 2)")
        assert "('1', '23', '4') needs (1, 2, 1)" in err

    @pytest.mark.parametrize("command", [["pump", "--duration", "0.01"],
                                         ["spectrum", "--pol", "sigma"],
                                         ["sweep", "--steps", "3", "--pol", "pi"]])
    def test_reordered_excited_layout_exits_1(self, tmp_path, capsys, command):
        assert run_cli(*self.BAD_EXCITED, "--out", tmp_path / "run", *command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error ({command[0]}): the excited hyperfine "
                              "tensor gives zero-field multiplicities (1, 1, 2)")
        assert "('12', '3', '4') needs (2, 1, 1)" in err

    @pytest.mark.parametrize("command", [["dynamics", "--steps", "3"],
                                         ["spectrum"]])
    def test_commands_without_the_excited_layout_still_run(self, tmp_path, command):
        # dynamics reads the ground layout only; uniform weights use no table
        assert run_cli(*self.BAD_EXCITED, "--out", tmp_path / "run", *command) == 0

    def test_larger_a_perp_still_runs(self, tmp_path):
        assert run_cli("--set", "ground.A_perp_GHz=2.5", "--out", tmp_path / "p",
                       "pump", "--duration", "0.01") == 0


class TestNegativeNumberListOptions:
    """A comma list whose first entry is negative is a value in both forms."""

    CASES = [
        (["gfactor"], "--jmix-targets", "-1.446,1.293", "gfactor.csv"),
        (["spectrum"], "--grid", "-3,4,201", "spectrum.csv"),
        (["levels"], "--field", "-10,0,5", "levels.csv"),
        (["sweep", "--steps", "3", "--grid=-3,4,120"], "--axis", "-1,0,0",
         "sweep_long.csv"),
    ]

    @pytest.mark.parametrize("command,option,value,product", CASES,
                             ids=[c[1] for c in CASES])
    def test_space_and_equals_forms_agree(self, tmp_path, command, option,
                                          value, product):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert run_cli("--out", spaced, *command, option, value) == 0
        assert run_cli("--out", joined, *command, f"{option}={value}") == 0
        assert (spaced / product).read_bytes() == (joined / product).read_bytes()


class TestMalformedOptionValues:
    """A malformed value exits 1 with a named error line, not a traceback."""

    CASES = [
        (["spectrum", "--grid=-3,4,2.5"],
         "error (spectrum): --grid must be min,max,points with integer points, "
         "got '-3,4,2.5'"),
        (["spectrum", "--grid", "-3,4"],
         "error (spectrum): --grid must be min,max,points with integer points, "
         "got '-3,4'"),
        (["levels", "--field", "a,b,c"],
         "error (levels): --field must be bx,by,bz in mT, got 'a,b,c'"),
        (["levels", "--field", "1,2"],
         "error (levels): --field must be bx,by,bz in mT, got '1,2'"),
        (["sweep", "--axis", "x,y,z"],
         "error (sweep): --axis must be a, b, c or three components, not all "
         "zero, got 'x,y,z'"),
        (["sweep", "--axis", "0,0,0"],
         "error (sweep): --axis must be a, b, c or three components, not all "
         "zero, got '0,0,0'"),
        (["gfactor", "--coeffs", "0.7"],
         "error (gfactor): --coeffs must be A,B, got '0.7'"),
        (["gfactor", "--coeffs", "0.7,b"],
         "error (gfactor): --coeffs must be A,B, got '0.7,b'"),
        (["gfactor", "--jmix-targets", "1.2"],
         "error (gfactor): --jmix-targets must be G_PAR,G_PERP, got '1.2'"),
        (["rosette", "--angle-stop", "inf"],
         "error (rosette): --angle-stop must be finite"),
        (["rosette", "--angle-start", "nan"],
         "error (rosette): --angle-start must be finite"),
        (["rosette", "--angle-steps", "-1"],
         "error (rosette): --angle-steps must be at least 2"),
        (["sweep", "--steps", "-1"], "error (sweep): --steps must be at least 2"),
        (["dynamics", "--steps", "0"],
         "error (dynamics): --steps must be at least 1"),
        (["dynamics", "--steps", "-1"],
         "error (dynamics): --steps must be at least 1"),
        (["pump", "--max-rows", "0"], "error (pump): --max-rows must be at least 1"),
        (["gfactor", "--jmix-targets", "1.2,1.3,1.4"],
         "error (gfactor): --jmix-targets must be G_PAR,G_PERP, got '1.2,1.3,1.4'"),
    ]

    @pytest.mark.parametrize("argv,line", CASES, ids=[" ".join(c[0]) for c in CASES])
    def test_named_error(self, tmp_path, capsys, argv, line):
        assert run_cli("--out", tmp_path / "bad", *argv) == 1
        assert capsys.readouterr().err == line + "\n"

    def test_gfactor_without_a_mode_is_a_named_error(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path / "o", "gfactor") == 1
        assert capsys.readouterr().err == (
            "error (gfactor): gfactor needs --coeffs, --consistency or "
            "--jmix-targets\n")

    EPR_CASES = [
        (["epr", "--freq-ghz", "nan"], "frequency must be finite"),
        (["rosette", "--freq-ghz", "nan"], "frequency must be finite"),
        (["epr", "--b-max", "inf"], "field range must be finite"),
        (["epr", "--theta", "nan"], "angles must be finite"),
    ]

    @pytest.mark.parametrize("argv,message", EPR_CASES,
                             ids=[" ".join(c[0]) for c in EPR_CASES])
    def test_non_finite_epr_input(self, tmp_path, capsys, argv, message):
        assert run_cli("--out", tmp_path / "bad", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error ({argv[0]}): ") and message in err

    def test_infinite_angle_range_prints_no_warning(self, tmp_path):
        done = run_process("--out", tmp_path / "bad", "rosette", "--angle-stop", "inf")
        assert done.returncode == 1
        assert done.stderr == "error (rosette): --angle-stop must be finite\n"

    def test_nan_pump_temperature_exits_promptly(self, tmp_path):
        # NaN used to pass the temperature checks and hang the integrator
        done = run_process("--out", tmp_path / "bad", "pump", "--temperature", "nan")
        assert done.returncode == 1
        assert done.stderr == "error (pump): temperature must be positive\n"

    NON_FINITE_CASES = [
        (["dynamics", "--t-min", "-inf"], 1, "--t-min"),
        (["dynamics", "--t-max", "inf"], 1, "--t-max"),
        (["sweep", "--b-start", "-inf"], 1, "--b-start"),
        (["sweep", "--b-stop", "inf"], 1, "--b-stop"),
        (["pump", "--duration", "inf"], 1, "duration"),
        (["pump", "--temperature", "inf"], 1, "temperature"),
        (["gfactor", "--jmix-targets", "0,50"], 2, "--jmix-targets"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,code,name", NON_FINITE_CASES,
                             ids=[" ".join(c[0]) for c in NON_FINITE_CASES])
    def test_out_of_reach_input_is_named_without_warnings(self, tmp_path, capsys,
                                                          argv, code, name):
        assert run_cli("--out", tmp_path / "bad", *argv) == code
        err = capsys.readouterr().err
        assert err.startswith(("error", "numerical failure")) and name in err
        assert "Traceback" not in err

    # Inputs that used to hang, raise ZeroDivisionError or exit 0 with NaN
    # in their outputs; each now exits 1 promptly with its input named.
    DOMAIN_CASES = [
        (["--set", "system.T1_optical_s=nan", "pump"], "system.T1_optical_s"),
        (["--set", "system.T1_optical_s=inf", "budget", "--mode", "optical"],
         "system.T1_optical_s"),
        (["budget", "--mode", "optical", "--t2", "inf"], "t2"),
        (["budget", "--mode", "optical", "--t2", "0.001"], "radiative limit"),
        (["--set", "system.unit_cell_volume_nm3=0", "dynamics"],
         "system.unit_cell_volume_nm3"),
        (["--set", "system.unit_cell_volume_nm3=-1", "dynamics"],
         "system.unit_cell_volume_nm3"),
        (["--set", "system.fwhm_optical_MHz=nan", "spectrum"],
         "system.fwhm_optical_MHz"),
        (["--set", "system.fwhm_spin_kHz=nan", "dynamics"], "system.fwhm_spin_kHz"),
        (["sweep", "--steps", "3", "--fwhm-171-mhz", "nan"], "fwhm_171_mhz"),
        (["budget", "--t2", "nan"], "t2"),
        (["gfactor", "--consistency", "nan"], "g_parallel"),
        (["spectrum", "--grid", "0,inf,100"], "grid"),
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,name", DOMAIN_CASES,
                             ids=[" ".join(c[0]) for c in DOMAIN_CASES])
    def test_out_of_domain_input_exits_1_by_name(self, tmp_path, capsys, argv, name):
        started = time.perf_counter()
        assert _fuzz_run(tmp_path / "bad", argv, seconds=5) == 1
        assert time.perf_counter() - started < 5.0
        err = capsys.readouterr().err
        command = next(a for a in argv if a in cli._SUBCOMMANDS)
        assert err.startswith(f"error ({command}): ") and name in err

    def test_set_range_error_names_the_key(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "--set", "system.concentration_ppm=nan",
                       "levels") == 1
        assert capsys.readouterr().err == (
            "error (levels): system.concentration_ppm: concentration_ppm must "
            "lie in (0, 1e6), got nan\n")

    def test_set_tensor_error_names_the_key(self):
        with pytest.raises(ValidationError,
                           match="^excited.g_perp: tensor components must be finite$"):
            cli.parse_config(overrides=["excited.g_perp=inf"])

    def test_missing_data_file_is_a_named_error(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path / "fit", "fit", "--model", "sweep",
                       "--data", tmp_path / "missing.csv", "--axis", "a") == 1
        err = capsys.readouterr().err
        assert err.startswith("error (fit): ") and "missing.csv" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run_cli("--out", tmp_path / name,
                           "spectrum", "--pol", "sigma") == 0
        for filename in ("spectrum.csv", "lines.csv"):
            assert (tmp_path / "a" / filename).read_bytes() == \
                (tmp_path / "b" / filename).read_bytes()


# The small fit inputs of the golden commands, a spectrum, and copies of one
# file per schema with a nan cell in the first column, and with a nan and
# with an inf cell in the last: {model: (file, first column, last column)}.
_FIT_FILES = {"gaussian": ("spectrum.csv", "detuning_GHz", "absorption"),
              "decay": ("decay.csv", "tau_s", "intensity"),
              "recovery": ("recovery.csv", "delay_s", "n4g"),
              "sweep": ("sweep_a.csv", "field_mT", "absorption")}
_FIT_SWEEP = ["--model", "sweep", "--data", "{inputs}/sweep_a.csv", "--axis", "a"]


def _copy_with_cell(path: Path, column: str, value: str) -> None:
    """A copy of a measurement CSV whose cell in row 3 of column is value."""
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(cells)
    path.with_name(f"{path.stem}_{column}_{value}.csv").write_text(
        "\n".join(lines) + "\n")


# fit inputs rejected by name with exit 1: (argv, the error message)
_FIT_REJECTS = [
    (_FIT_SWEEP + ["--scale-init", "0"], "--scale-init must be positive"),
    (_FIT_SWEEP + ["--scale-init", "-5"], "--scale-init must be positive"),
    (_FIT_SWEEP + ["--scale-init", "nan"], "--scale-init must be positive"),
    (_FIT_SWEEP + ["--scale-init", "inf"], "--scale-init must be finite"),
    (["--model", "decay", "--data", "{inputs}/decay_tau_s_nan.csv"],
     "decay_tau_s_nan.csv:3: non-finite value in column 'tau_s'"),
    (["--model", "decay", "--data", "{inputs}/decay_intensity_nan.csv"],
     "decay_intensity_nan.csv:3: non-finite value in column 'intensity'"),
    (["--model", "decay", "--data", "{inputs}/decay_intensity_inf.csv"],
     "decay_intensity_inf.csv:3: non-finite value in column 'intensity'"),
    (["--model", "recovery", "--data", "{inputs}/recovery_delay_s_nan.csv"],
     "recovery_delay_s_nan.csv:3: non-finite value in column 'delay_s'"),
]


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fit-inputs")
    write_inputs(directory)
    x = np.linspace(-1.0, 1.0, 41)
    csvio.write_rows(directory / "spectrum.csv", ["detuning_GHz", "absorption"],
                     zip(x, fitting.gaussian_profile(x, 0.1, 0.2, 1.0, 0.0)))
    for name, first, last in _FIT_FILES.values():
        _copy_with_cell(directory / name, first, "nan")
        _copy_with_cell(directory / name, last, "inf")
        _copy_with_cell(directory / name, last, "nan")
    return directory


class TestMeasurementReader:
    def test_decay_csv_read(self, tmp_path):
        path = tmp_path / "decay.csv"
        csvio.write_rows(path, ["tau_s", "intensity"],
                         [[0.0, 1.0], [0.1, 0.8], [0.2, 0.6], [0.3, 0.5]])
        data = csvio.read_measurement_csv(path, "decay")
        assert data["tau_s"].size == 4

    def test_shuffled_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        csvio.write_rows(path, ["detuning_GHz", "absorption"],
                         [[0.0, 1.0], [2.0, 0.5], [1.0, 0.7]])
        with pytest.raises(ValidationError) as err:
            csvio.read_measurement_csv(path, "spectrum")
        assert "non-monotonic" in str(err.value)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("tau_s\n0.0\n0.1\n")
        with pytest.raises(ValidationError) as err:
            csvio.read_measurement_csv(path, "decay")
        assert "intensity" in str(err.value)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("tau_s,intensity\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(ValidationError) as err:
            csvio.read_measurement_csv(path, "decay")
        assert ":3:" in str(err.value)

    def test_extra_column_warns_but_reads(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text("tau_s,intensity,comment\n0.0,1.0,5\n0.1,0.9,5\n")
        with pytest.warns(UserWarning):
            data = csvio.read_measurement_csv(path, "decay")
        assert data["intensity"].size == 2

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError):
            csvio.read_measurement_csv(path, "echo")


class TestFitSubcommand:
    def test_gaussian_fit_from_csv(self, tmp_path, capsys):
        x = np.linspace(-1.0, 1.0, 101)
        y = fitting.gaussian_profile(x, 0.1, 0.2, 1.0, 0.0)
        data = tmp_path / "line.csv"
        csvio.write_rows(data, ["detuning_GHz", "absorption"], zip(x, y))
        out = tmp_path / "fit"
        assert run_cli("--out", out, "fit", "--model", "gaussian",
                       "--data", data) == 0
        printed = capsys.readouterr().out
        assert "fwhm" in printed
        rows = (out / "fit.csv").read_text().splitlines()
        fwhm_row = [r for r in rows if r.startswith("fwhm")][0]
        assert float(fwhm_row.split(",")[1]) == pytest.approx(0.2, abs=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(data) in manifest["inputs"]

    def test_decay_fit_from_csv(self, tmp_path):
        tau = np.linspace(0.0, 0.5, 16)
        data = tmp_path / "decay.csv"
        csvio.write_rows(data, ["tau_s", "intensity"],
                         zip(tau, fitting.echo_decay_profile(tau, 1.0, 0.15)))
        out = tmp_path / "fit"
        assert run_cli("--out", out, "fit", "--model", "decay",
                       "--data", data) == 0
        rows = (out / "fit.csv").read_text().splitlines()
        t2_row = [r for r in rows if r.startswith("t2")][0]
        assert float(t2_row.split(",")[1]) == pytest.approx(0.15, rel=1e-6)

    def test_recovery_fit_from_csv(self, tmp_path):
        delays = np.geomspace(1e3, 5e5, 10)
        energies = dynamics.ground_group_energies(default_params())
        truth = np.array([0.14, 0.95, 3e4, 0.04, 3.5e4, 0.01, 2.5e4])
        stacked = fitting.recovery_profiles(delays, truth, energies, (1, 2, 1))
        curves = stacked.reshape(3, -1).T
        data = tmp_path / "recovery.csv"
        csvio.write_rows(data, ["delay_s", "n1g", "n23g", "n4g"],
                         [[d, *row] for d, row in zip(delays, curves)])
        out = tmp_path / "fit"
        assert run_cli("--out", out, "fit", "--model", "recovery",
                       "--data", data) == 0
        rows = (out / "fit.csv").read_text().splitlines()
        teq_row = [r for r in rows if r.startswith("t_eq")][0]
        assert float(teq_row.split(",")[1]) == pytest.approx(0.14, rel=0.01)

    def test_sweep_fit_from_csv(self, tmp_path):
        params = default_params("field-sweep-fit")
        currents = np.linspace(1.0, 9.0, 9)
        grid = (-4.0, 4.5, 220)
        perp = fitting.simulate_current_sweep(params, (1, 0, 0), currents,
                                              166.20, grid)
        para = fitting.simulate_current_sweep(params, (0, 0, 1), currents,
                                              143.64, grid)
        paths = []
        for name, sweep in (("perp", perp), ("para", para)):
            path = tmp_path / f"{name}.csv"
            csvio.write_sweep_long(path, sweep.currents_a, sweep.detuning_ghz,
                                   sweep.absorption)
            paths.append(path)
        out = tmp_path / "fit"
        assert run_cli("--out", out, "fit", "--model", "sweep",
                       "--data", paths[0], "--data", paths[1],
                       "--axis", "a", "--axis", "c",
                       "--scale-init", "160.0") == 0
        rows = {r.split(",")[0]: float(r.split(",")[1])
                for r in (out / "fit.csv").read_text().splitlines()[1:]}
        assert rows["g_e_perpendicular"] == pytest.approx(1.361, abs=0.002)
        assert rows["scale_0"] == pytest.approx(166.20, rel=1e-3)
        assert rows["scale_1"] == pytest.approx(143.64, rel=1e-3)

    def test_unconverged_sweep_fit_names_its_flags(self, tmp_path, capsys):
        # a single sweep perpendicular to c never probes g_parallel
        sweep = fitting.simulate_current_sweep(
            default_params("field-sweep-fit"), (1, 0, 0),
            np.linspace(1.0, 9.0, 5), 166.20, (-4.0, 4.5, 120))
        path = tmp_path / "perp.csv"
        csvio.write_sweep_long(path, sweep.currents_a, sweep.detuning_ghz,
                               sweep.absorption)
        out = tmp_path / "fit"
        assert run_cli("--out", out, "fit", "--model", "sweep", "--data", path,
                       "--axis", "a") == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure (fit): fit did not converge (singular "
                       "jacobian; g_e_parallel unidentifiable)\n")
        assert not (out / "fit.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv,message", _FIT_REJECTS,
                             ids=[" ".join(c[0]) for c in _FIT_REJECTS])
    def test_bad_input_exits_1_naming_it(self, fit_inputs, tmp_path, capfd,
                                         argv, message):
        # capfd: LAPACK writes its complaints to file descriptor 2
        argv = [arg.replace("{inputs}", str(fit_inputs)) for arg in argv]
        assert run_cli("--out", tmp_path, "fit", *argv) == 1
        err = capfd.readouterr().err
        assert err.startswith("error (fit): ") and err.count("\n") == 1, err
        assert message in err


# --- fuzz: every numeric input at the edges of its domain -------------------

# Small sizes for every command, so that no case allocates much; a fuzzed
# option given after these overrides them.
_FUZZ_BASE = {
    "levels": [], "spectrum": ["--grid=-3,4,101"],
    "sweep": ["--steps", "3", "--grid=-4.5,5,60"], "epr": [],
    "rosette": ["--angle-steps", "3"], "rules": [],
    "gfactor": ["--consistency", "1"], "dynamics": ["--steps", "3"],
    "budget": [], "pump": ["--duration", "0.01", "--max-rows", "5"],
}
# A valid value of each comma-list option; one entry at a time is fuzzed.
_FUZZ_LISTS = {
    ("levels", "--field"): "0,0,0", ("spectrum", "--field"): "0,0,0",
    ("spectrum", "--grid"): "-3,4,101", ("sweep", "--grid"): "-4.5,5,60",
    ("sweep", "--axis"): "1,0,0", ("gfactor", "--coeffs"): "0.7,0.714",
    ("gfactor", "--jmix-targets"): "-1.446,1.293",
}
# Options whose error names the quantity they set rather than the option.
_FUZZ_QUANTITY = {"--freq-ghz": "frequency", "--theta": "angles",
                  "--phi": "angles", "--b-min": "field range",
                  "--b-max": "field range", "--t-min": "temperature grid",
                  "--t-max": "temperature grid"}
_FUZZ_FLOATS = ("0", "-1", "1", "nan", "inf", "-inf")
_FUZZ_COUNTS = ("0", "-1", "1")
_FUZZ_SECONDS = 10
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def _fuzz_option_cases():
    """(argv, names): every numeric and comma-list option of every subcommand
    but fit, from cli._SUBCOMMANDS, at each edge value; an exit-1 error must
    contain one of the names."""
    cases = []
    for command, base in _FUZZ_BASE.items():
        variants = [[command]]
        if command == "budget":
            variants.append([command, "--mode", "optical"])
        _, _, options = cli._SUBCOMMANDS[command]
        for option, check, keywords in options:
            kind = keywords.get("type")
            if kind is int:
                values = _FUZZ_COUNTS
            elif kind is float:
                values = _FUZZ_FLOATS
            elif check is not None:
                valid = _FUZZ_LISTS[(command, option)].split(",")
                values = [",".join(valid[:k] + [v] + valid[k + 1:])
                          for k in range(len(valid)) for v in _FUZZ_FLOATS]
            else:
                continue
            names = (option, option[2:], option[2:].replace("-", "_"),
                     keywords.get("metavar", option).lower(),
                     _FUZZ_QUANTITY.get(option, option))
            cases += [(variant + base + [f"{option}={value}"], names)
                      for variant in variants for value in values]
    return cases


def _fuzz_fit_cases():
    """(argv, names) of fit: --scale-init at each edge value on one sweep,
    and each schema with a nan and with an inf cell."""
    cases = [(_FIT_SWEEP + [f"--scale-init={value}"], ("--scale-init",))
             for value in _FUZZ_FLOATS]
    for model, (name, first, last) in _FIT_FILES.items():
        axis = ["--axis", "a"] if model == "sweep" else []
        for column, value in ((first, "nan"), (last, "inf")):
            data = f"{{inputs}}/{Path(name).stem}_{column}_{value}.csv"
            cases.append((["--model", model, "--data", data, *axis], (column,)))
    return cases


def _fuzz_set_cases():
    cases = []
    for key in sorted(cli._CONFIG_KEYS):
        section, name = key.split(".")
        names = (key, f"{section} hyperfine tensor") if "A_" in name else (key,)
        probes = list(_KEY_PROBES)
        if key == "system.T1_optical_s":
            probes.append(["pump"] + _FUZZ_BASE["pump"])
        for value in ("0", "-1", "nan", "inf"):
            cases.append(([["--set", f"{key}={value}", *argv] for argv in probes],
                          names))
    return cases


def _fuzz_run(out, argv, seconds=_FUZZ_SECONDS):
    """Exit code of one in-process CLI call, bounded by an alarm; an
    exception that escapes main fails the test with its traceback."""
    def expire(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return cli.main(["--out", str(out), *argv])
    except SystemExit as exit_info:    # argparse rejects a value with 2
        return exit_info.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _check_fuzz_outcome(out, argv, names, capture):
    code = _fuzz_run(out, argv)
    stdout, stderr = capture.readouterr()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert not _NAN.search(stdout), (argv, stdout)
        for path in out.iterdir():
            assert not _NAN.search(path.read_text()), (argv, path.name)
    elif code == 1:
        assert any(name in stderr for name in names), (argv, stderr)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFuzz:
    """Every numeric input at 0, -1, 1, nan and +-inf (counts at 0, -1 and
    1), and a nan and an inf cell in each measurement schema: each call
    exits 0, 1 or 2 promptly without a traceback or a numpy warning; an
    exit-0 call writes no nan, and an exit-1 call names its option, --set
    key or column."""

    OPTION_CASES = _fuzz_option_cases()
    SET_CASES = _fuzz_set_cases()
    FIT_CASES = _fuzz_fit_cases()

    @pytest.mark.parametrize("argv,names", OPTION_CASES,
                             ids=[" ".join(c[0]) for c in OPTION_CASES])
    def test_option(self, tmp_path, capsys, argv, names):
        _check_fuzz_outcome(tmp_path, argv, names, capsys)

    @pytest.mark.parametrize("runs,names", SET_CASES,
                             ids=[" ".join(c[0][0][:2]) for c in SET_CASES])
    def test_set_key(self, tmp_path, capsys, runs, names):
        for k, argv in enumerate(runs):
            _check_fuzz_outcome(tmp_path / str(k), argv, names, capsys)

    @pytest.mark.parametrize("argv,names", FIT_CASES,
                             ids=[" ".join(c[0]) for c in FIT_CASES])
    def test_fit(self, fit_inputs, tmp_path, capfd, argv, names):
        # capfd: LAPACK writes its complaints to file descriptor 2
        argv = ["fit"] + [arg.replace("{inputs}", str(fit_inputs)) for arg in argv]
        _check_fuzz_outcome(tmp_path, argv, names, capfd)
