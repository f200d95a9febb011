"""Seeded workloads of the ybcawo4 benchmark and the checks on their outputs.

A workload seed picks one of N_SLOTS input slots (seed mod N_SLOTS).  Slot 0
is the CLI defaults at the ROADMAP sizes; the other slots vary only the inputs
listed in README.md.  Every slot has recorded reference outputs in refs/
(see record_refs.py), so every integer seed is accepted and checked.

An operation is a list of CLI calls, each given as an argv without the global
`--out DIR`, which the caller prepends with a fresh directory per call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-map", "sweep-fit", "epr-rosette", "cli-mix")
N_SLOTS = 32
REFS_DIR = Path(__file__).resolve().parent / "refs"

# sweep-fit truth: the field-sweep-fit preset and its two coil scales (G/A)
G_E_TRUTH = (-1.451, 1.361)
SCALE_TRUTH = {"a": 166.20, "c": 143.64}
FIT_CURRENTS_A = np.linspace(0.5, 10.0, 13)
FIT_GRID = (-4.5, 5.0, 600)
FIT_NOISE = 0.02          # of the clean peak absorption
FIT_RECOVERY = 0.01       # relative, the bar of acceptance criterion 09

EPR_TOL_MT = 1e-3         # spectra.epr_resonance_fields' documented tol_mt
REL_TOL = 1e-9            # fingerprint tolerance: far below any physical change
ABS_TOL = 1e-12           # ... plus this share of the table's largest value


@dataclass
class Plan:
    workload: str
    slot: int
    calls: list           # [(name, argv without --out), ...]; one operation
    expect: dict          # what the output checks compare against


def slot_of(seed: int) -> int:
    return seed % N_SLOTS


def make_plan(workload: str, seed: int, work_dir: Path) -> Plan:
    """Seeded CLI calls of one operation; writes any input files to work_dir."""
    slot = slot_of(seed)
    rng = random.Random(f"{workload}:{slot}")
    expect: dict = {}
    if workload == "sweep-map":
        argv = ["sweep", "--steps", "101", "--mixed-weights", "--pol", "sigma"]
        if slot:
            theta = math.radians(rng.uniform(60.0, 90.0))
            argv += ["--axis", f"{math.sin(theta):.6f},0,{math.cos(theta):.6f}",
                     "--b-stop", f"{rng.uniform(150.0, 250.0):.3f}"]
        calls = [("sweep", argv)]
    elif workload == "sweep-fit":
        calls, expect = _sweep_fit_inputs(slot, rng, Path(work_dir))
    elif workload == "epr-rosette":
        argv = ["rosette", "--plane", "c-a", "--angle-steps", "19"]
        if slot:
            argv += ["--freq-ghz", f"{rng.uniform(9.0, 9.8):.4f}"]
        calls = [("rosette", argv)]
    elif workload == "cli-mix":
        field, temp = [], []
        if slot:
            # one token, so argparse does not read a leading minus as an option
            field = ["--field=" + ",".join(f"{rng.uniform(-50.0, 50.0):.3f}"
                                           for _ in range(3))]
            temp = ["--temperature", f"{rng.uniform(0.05, 0.2):.4f}"]
        calls = [("levels", ["levels"] + field),
                 ("spectrum", ["spectrum", "--pol", "sigma"] + field),
                 ("rules", ["rules"]),
                 ("gfactor", ["gfactor", "--coeffs", "0.700,0.714"]),
                 ("dynamics", ["dynamics"]),
                 ("budget", ["budget"]),
                 ("pump", ["pump"] + temp)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Plan(workload, slot, calls, expect)


def _sweep_fit_inputs(slot: int, rng: random.Random, work_dir: Path):
    """Two noisy long-form current sweeps (a and c axes) around a seeded truth."""
    from ybcawo4 import fitting
    from ybcawo4.params import default_params, g_tensor

    g_true = tuple(g * (1.0 + (rng.uniform(-0.01, 0.01) if slot else 0.0))
                   for g in G_E_TRUTH)
    params = replace(default_params("field-sweep-fit"), g_excited=g_tensor(*g_true))
    noise_rng = np.random.default_rng(slot)
    argv = ["fit", "--model", "sweep"]
    for axis_name, axis in (("a", (1.0, 0.0, 0.0)), ("c", (0.0, 0.0, 1.0))):
        clean = fitting.simulate_current_sweep(params, axis, FIT_CURRENTS_A,
                                               SCALE_TRUTH[axis_name], FIT_GRID)
        noisy = clean.absorption + noise_rng.normal(
            0.0, FIT_NOISE * clean.absorption.max(), clean.absorption.shape)
        path = work_dir / f"sweep_{axis_name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["field_mT", "detuning_GHz", "absorption"])
            for current, row in zip(FIT_CURRENTS_A, noisy):
                for detuning, value in zip(clean.detuning_ghz, row):
                    writer.writerow([f"{current:.12g}", f"{detuning:.12g}",
                                     f"{value:.12g}"])
        argv += ["--data", str(path), "--axis", axis_name]
    expect = {"g_e_parallel": g_true[0], "g_e_perpendicular": g_true[1],
              "scale_0": SCALE_TRUTH["a"], "scale_1": SCALE_TRUTH["c"]}
    return [("fit", argv)], expect


# --- output checks ----------------------------------------------------------

def load_refs(workload: str) -> dict | None:
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_op(plan: Plan, refs: dict | None, out_dirs) -> str | None:
    """None when every call of the operation wrote correct outputs, else why not."""
    for (name, argv), out_dir in zip(plan.calls, out_dirs):
        reason = _check_manifest(Path(out_dir), argv[0])
        if reason:
            return f"{name}: {reason}"
    if plan.workload == "sweep-fit":
        return _check_fit(plan, Path(out_dirs[0]))
    if refs is None:
        return f"no reference outputs for {plan.workload}"
    ref = refs["slots"].get(str(plan.slot))
    if ref is None or ref["argv"] != [argv for _, argv in plan.calls]:
        return f"no reference outputs for slot {plan.slot} with these arguments"
    if plan.workload == "epr-rosette":
        return _check_rosette(Path(out_dirs[0]) / "rosette.csv", ref["rosette"])
    for (name, _), out_dir, files in zip(plan.calls, out_dirs, ref["outputs"]):
        reason = compare_outputs(fingerprint_dir(Path(out_dir)), files)
        if reason:
            return f"{name}: {reason}"
    return None


def _check_manifest(out_dir: Path, command: str) -> str | None:
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, ValueError) as err:
        return f"no readable manifest ({err})"
    written = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    if manifest.get("command") != command or manifest.get("outputs") != written:
        return "manifest does not list the outputs written"
    return None


def _check_fit(plan: Plan, out_dir: Path) -> str | None:
    try:
        with (out_dir / "fit.csv").open(newline="") as handle:
            values = {row["name"]: float(row["value"]) for row in csv.DictReader(handle)}
    except (OSError, KeyError, ValueError) as err:
        return f"fit.csv unreadable ({err})"
    for name, truth in plan.expect.items():
        if name not in values:
            return f"fit.csv lacks {name}"
        if abs(values[name] / truth - 1.0) > FIT_RECOVERY:
            return f"{name} = {values[name]:.6g}, truth {truth:.6g}"
    return None


def read_rosette(path: Path) -> list:
    """[[angle, [[field_mT, pair, weight], ...]], ...] in file order."""
    table: dict = {}
    with Path(path).open(newline="") as handle:
        for row in csv.DictReader(handle):
            table.setdefault(float(row["angle_deg"]), []).append(
                [float(row["field_mT"]), row["pair"], float(row["weight"])])
    return [[angle, rows] for angle, rows in table.items()]


def _check_rosette(path: Path, ref: list) -> str | None:
    try:
        got = read_rosette(path)
    except (OSError, KeyError, ValueError) as err:
        return f"rosette.csv unreadable ({err})"
    if [a for a, _ in got] != [a for a, _ in ref]:
        return "rosette angles differ from the reference"
    for (angle, rows), (_, ref_rows) in zip(got, ref):
        rows = sorted(rows, key=lambda r: (r[1], r[0]))
        ref_rows = sorted(ref_rows, key=lambda r: (r[1], r[0]))
        if [r[1] for r in rows] != [r[1] for r in ref_rows]:
            return f"angle {angle:g}: pairs {[r[1] for r in rows]} differ"
        for (field, pair, weight), (ref_field, _, ref_weight) in zip(rows, ref_rows):
            if abs(field - ref_field) > EPR_TOL_MT:
                return f"angle {angle:g} pair {pair}: {field} mT vs {ref_field} mT"
            if abs(weight - ref_weight) > 1e-3 * max(abs(ref_weight), 1e-3):
                return f"angle {angle:g} pair {pair}: weight {weight} vs {ref_weight}"
    return None


# --- numeric fingerprints -----------------------------------------------------

def _round(values) -> list:
    return [float(f"{v:.13g}") for v in np.asarray(values, dtype=float).ravel()]


def _read_table(path: Path):
    """Header, float matrix (NaN where a cell is text) and a digest of the text."""
    with path.open(newline="") as handle:
        header = next(csv.reader(handle))
    digest = hashlib.sha256("\x1f".join(header).encode())
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        with path.open(newline="") as handle:
            body = list(csv.reader(handle))[1:]
        values = np.full((len(body), len(header)), np.nan)
        for i, row in enumerate(body):
            for j, cell in enumerate(row):
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    digest.update(f"{i},{j},{cell}\x1e".encode())
    return header, values, digest.hexdigest()


def fingerprint_table(path: Path) -> dict:
    """Column sums (for a sweep map: the per-field sums), sums of up to 8 row
    blocks and 8 evenly spaced numeric cells of one CSV table."""
    header, values, text = _read_table(path)
    n, m = values.shape
    finite = np.abs(values[np.isfinite(values)])
    blocks = np.array_split(values, min(n, 8)) if n else []
    numeric = np.flatnonzero(~np.isnan(values))
    picks = numeric[np.linspace(0, numeric.size - 1, min(numeric.size, 8)).astype(int)]
    return {"header": header, "shape": [n, m], "text": text,
            "scale": float(finite.max()) if finite.size else 0.0,
            "col_sums": _round(np.nansum(values, axis=0)),
            "block_sums": _round([np.nansum(b) for b in blocks]),
            "cells": _round(values.ravel()[picks])}


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        for k, item in enumerate(node):
            yield from _leaves(item, f"{path}/{k}")
    else:
        yield path, node


def fingerprint_json(path: Path) -> dict:
    digest = hashlib.sha256()
    values = []
    for key, leaf in _leaves(json.loads(path.read_text())):
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            digest.update(f"{key}\x1e".encode())
            values.append(float(leaf))
        else:
            digest.update(f"{key}={leaf!r}\x1e".encode())
    finite = [abs(v) for v in values if math.isfinite(v)]
    return {"text": digest.hexdigest(), "scale": max(finite, default=0.0),
            "cells": _round(values)}


def fingerprint_dir(out_dir: Path) -> dict:
    """Fingerprint of every output file of one call except the manifest."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "manifest.json":
            continue
        out[path.name] = (fingerprint_json(path) if path.suffix == ".json"
                          else fingerprint_table(path))
    return out


def _close(got, ref, tol) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(ref) and math.isnan(got))
    return abs(got - ref) <= tol


def compare_outputs(got: dict, ref: dict) -> str | None:
    if sorted(got) != sorted(ref):
        return f"output files {sorted(got)} differ from {sorted(ref)}"
    for name, r in ref.items():
        g = got[name]
        if any(g.get(k) != r.get(k) for k in ("header", "shape", "text")):
            return f"{name}: layout or text cells differ"
        n_rows = r.get("shape", [1])[0]
        floor = ABS_TOL * r["scale"]
        for key, terms in (("col_sums", n_rows), ("block_sums", n_rows), ("cells", 1)):
            if key not in r:
                continue
            if len(g[key]) != len(r[key]):
                return f"{name}: {key} length differs"
            for got_v, ref_v in zip(g[key], r[key]):
                if not _close(got_v, ref_v, REL_TOL * abs(ref_v) + floor * terms):
                    return f"{name}: {key} {got_v!r} differs from {ref_v!r}"
    return None
