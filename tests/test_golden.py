"""The byte-identity contract: default CLI outputs stay what they were.

Each command below runs in-process through cli.main.  Its exit code and
stdout must equal the recorded ones exactly, and its output files (all but
manifest.json) must match the recorded fingerprints of
perfbench/workloads.fingerprint_dir (relative 1e-9 plus 1e-12 of a table's
largest value, so the numpy/LAPACK builds of the CI matrix agree).  The fit
inputs are generated here, and their fingerprints are recorded too.

tests/golden/outputs.json is written by tests/golden/record.py.  Re-record
only for an intended output change, and name every entry that moved.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ybcawo4 import cli, csvio, dynamics, fitting
from ybcawo4.params import GROUND_MULTIPLICITIES, default_params

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# "{inputs}" stands for the directory that write_inputs filled
COMMANDS = [
    ["levels"],
    ["levels", "--field", "10,20,30"],
    ["spectrum"],
    ["spectrum", "--pol", "sigma", "--field", "12.5,-7,30"],
    ["spectrum", "--pol", "pi", "--field=0,0,50"],
    ["sweep"],
    ["sweep", "--steps", "101", "--mixed-weights", "--pol", "sigma"],
    ["sweep", "--axis", "0.95,0,0.31", "--b-stop", "213.7"],
    ["epr"],
    ["rosette"],
    ["rosette", "--plane", "a-b"],
    ["rules"],
    ["gfactor", "--coeffs", "0.700,0.714"],
    ["gfactor", "--jmix-targets", "-1.446,1.293"],
    ["dynamics"],
    ["dynamics", "--mode", "optical"],
    ["budget"],
    ["budget", "--t2", "0.15"],
    ["budget", "--mode", "optical"],
    ["budget", "--mode", "optical", "--t2", "0.00075"],
    ["pump"],
    ["pump", "--temperature", "0.1234"],
    ["fit", "--model", "decay", "--data", "{inputs}/decay.csv"],
    ["fit", "--model", "recovery", "--data", "{inputs}/recovery.csv"],
    ["fit", "--model", "sweep", "--data", "{inputs}/sweep_a.csv", "--axis", "a",
     "--data", "{inputs}/sweep_c.csv", "--axis", "c"],
]


def _ripple(shape, amplitude):
    """A fixed pattern in place of measurement noise, so that the fits have
    finite uncertainties and no random generator enters the inputs."""
    return amplitude * np.sin(2.4 * np.arange(np.prod(shape))).reshape(shape)


def write_inputs(directory: Path) -> None:
    """The measurement CSVs of the three fit commands."""
    tau = np.linspace(0.0, 0.5, 16)
    decay = fitting.echo_decay_profile(tau, 1.0, 0.15) + _ripple(tau.shape, 0.01)
    csvio.write_rows(directory / "decay.csv", ["tau_s", "intensity"],
                     zip(tau, decay))

    delays = np.geomspace(1e3, 5e5, 10)
    truth = np.array([0.14, 0.95, 3e4, 0.04, 3.5e4, 0.01, 2.5e4])
    curves = fitting.recovery_profiles(
        delays, truth, dynamics.ground_group_energies(default_params()),
        GROUND_MULTIPLICITIES).reshape(3, -1).T
    curves = curves + _ripple(curves.shape, 0.002)
    csvio.write_rows(directory / "recovery.csv", ["delay_s", "n1g", "n23g", "n4g"],
                     [[d, *row] for d, row in zip(delays, curves)])

    params = default_params("field-sweep-fit")
    currents = np.linspace(1.0, 9.0, 7)
    for name, axis, scale in (("a", (1, 0, 0), 166.20), ("c", (0, 0, 1), 143.64)):
        sweep = fitting.simulate_current_sweep(params, axis, currents, scale,
                                               (-4.0, 4.5, 160))
        absorption = sweep.absorption + _ripple(
            sweep.absorption.shape, 0.02 * sweep.absorption.max())
        csvio.write_sweep_long(directory / f"sweep_{name}.csv", sweep.currents_a,
                               sweep.detuning_ghz, absorption)


def key(argv) -> str:
    return " ".join(argv)


def run(argv, inputs: Path, out_dir: Path) -> dict:
    """Exit code, stdout and output fingerprints of one in-process CLI call."""
    argv = [arg.replace("{inputs}", str(inputs)) for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--out", str(out_dir)] + argv)
    return {"exit": code, "stdout": stdout.getvalue(),
            "outputs": workloads.fingerprint_dir(out_dir)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


def test_every_command_is_recorded(golden):
    assert sorted(golden["commands"]) == sorted(key(argv) for argv in COMMANDS)


def test_fit_inputs_match_the_recorded_ones(golden, inputs):
    reason = workloads.compare_outputs(workloads.fingerprint_dir(inputs),
                                       golden["inputs"])
    assert reason is None, reason


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_outputs_match_the_recorded_ones(golden, inputs, tmp_path, argv):
    got = run(argv, inputs, tmp_path / "out")
    ref = golden["commands"][key(argv)]
    assert got["exit"] == ref["exit"]
    assert got["stdout"] == ref["stdout"]
    reason = workloads.compare_outputs(got["outputs"], ref["outputs"])
    assert reason is None, reason
