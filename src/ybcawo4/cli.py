"""Command-line front end: configuration ingestion, subcommand dispatch and
reproducible run manifests.

Configuration files are line-oriented `section.key = value` text; every
recognized key maps onto a spin-system parameter.  Each run writes its CSV
products plus a manifest.json recording the resolved configuration, input
digests and output list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, csvio, dynamics, fitting, grouptheory, spectra, spinham
from .errors import (DomainError, NumericalError, ValidationError, check_count,
                     check_finite, check_positive)
from .params import (GROUND_GROUPS, Manifold, PRESET_NAMES, SpinSystemParams,
                     a_tensor, default_params, g_tensor)

# config key -> (params attribute, tensor component or None for scalars)
_CONFIG_KEYS = {
    "ground.g_par": ("g_ground", "parallel"),
    "ground.g_perp": ("g_ground", "perpendicular"),
    "ground.A_par_GHz": ("a_ground", "parallel"),
    "ground.A_perp_GHz": ("a_ground", "perpendicular"),
    "excited.g_par": ("g_excited", "parallel"),
    "excited.g_perp": ("g_excited", "perpendicular"),
    "excited.A_par_GHz": ("a_excited", "parallel"),
    "excited.A_perp_GHz": ("a_excited", "perpendicular"),
    "system.g_n": ("g_n", None),
    "system.T1_optical_s": ("t1_optical_s", None),
    "system.fwhm_optical_MHz": ("fwhm_optical_mhz", None),
    "system.fwhm_spin_kHz": ("fwhm_spin_khz", None),
    "system.concentration_ppm": ("concentration_ppm", None),
    "system.unit_cell_volume_nm3": ("unit_cell_volume_nm3", None),
    "system.sites_per_cell": ("sites_per_cell", None),
}


@dataclass
class RunConfig:
    params: SpinSystemParams
    preset: str = "yb171-cawo4"
    out_dir: Path = Path("ybcawo4-out")
    input_files: list = field(default_factory=list)

    def resolved(self) -> dict:
        """Preset and every configuration key's value, by section."""
        out = {"preset": self.preset}
        for key, (attr, component) in _CONFIG_KEYS.items():
            section, name = key.split(".")
            value = getattr(self.params, attr)
            out.setdefault(section, {})[name] = (
                value if component is None else getattr(value, component))
        return out


def _apply_override(params: SpinSystemParams, key: str,
                    raw_value: str) -> SpinSystemParams:
    if key not in _CONFIG_KEYS:
        raise ValidationError(f"unknown configuration key {key!r}")
    attr, component = _CONFIG_KEYS[key]
    try:
        value = int(raw_value) if attr == "sites_per_cell" else float(raw_value)
    except ValueError:
        raise ValidationError(f"non-numeric value for {key!r}: {raw_value!r}") \
            from None
    try:
        if component is not None:
            tensor = getattr(params, attr)
            maker = g_tensor if tensor.unit == "dimensionless" else a_tensor
            parts = {"parallel": tensor.parallel, "perpendicular": tensor.perpendicular}
            parts[component] = value
            value = maker(parts["parallel"], parts["perpendicular"])
        return replace(params, **{attr: value})
    except ValidationError as err:
        raise ValidationError(f"{key}: {err}") from None


def parse_config(path: Path | None = None, overrides=(), preset: str = "yb171-cawo4",
                 out_dir: Path = Path("ybcawo4-out")) -> RunConfig:
    """Build the run configuration from a file plus inline overrides.

    The file format is one `section.key = value` per line; blank lines and
    `#` comments are ignored.  Range violations surface with the offending
    key named.
    """
    params = default_params(preset)
    input_files = []
    if path is not None:
        path = Path(path)
        input_files.append(path)
        for line_number, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValidationError(
                    f"{path}:{line_number}: expected 'section.key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            try:
                params = _apply_override(params, key, raw)
            except ValidationError as err:
                raise ValidationError(f"{path}:{line_number}: {err}") from None
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} must be key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        params = _apply_override(params, key, raw)
    return RunConfig(params=params, preset=preset, out_dir=Path(out_dir),
                     input_files=input_files)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(config: RunConfig, command: str, outputs, started: float) -> None:
    manifest = {
        "tool": "ybcawo4",
        "version": __version__,
        "command": command,
        "config": config.resolved(),
        "inputs": {str(p): _sha256(p) for p in config.input_files},
        "outputs": sorted(str(Path(p).name) for p in outputs),
        "duration_s": round(time.time() - started, 6),
    }
    with (config.out_dir / "manifest.json").open("w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _number_list(raw: str, option: str, form: str, kinds) -> list:
    """The comma-separated entries of an option value, entry k converted by
    kinds[k]; a wrong count or a bad or non-finite entry is named by option."""
    parts = raw.split(",")
    if len(parts) == len(kinds):
        try:
            values = [kind(part) for kind, part in zip(kinds, parts)]
        except ValueError:
            pass
        else:
            check_finite(option, *values)
            return values
    raise ValidationError(f"{option} must be {form}, got {raw!r}")


def _grid_from_arg(raw: str):
    return tuple(_number_list(raw, "--grid", "min,max,points with integer points",
                              (float, float, int)))


def _axis_from_arg(raw: str) -> np.ndarray:
    named = {"a": (1.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0), "c": (0.0, 0.0, 1.0)}
    if raw in named:
        return np.array(named[raw])
    form = "a, b, c or three components, not all zero"
    parts = _number_list(raw, "--axis", form, (float,) * 3)
    if not np.linalg.norm(parts):
        raise ValidationError(f"--axis must be {form}, got {raw!r}")
    return np.asarray(parts) / np.linalg.norm(parts)


def _field_from_arg(raw: str) -> np.ndarray:
    return np.asarray(_number_list(raw, "--field", "bx,by,bz in mT", (float,) * 3))


# --- subcommand implementations -------------------------------------------

def _cmd_levels(config: RunConfig, args) -> list[Path]:
    rows = []
    for manifold in Manifold:
        eig = spinham.eigensystem(config.params, manifold,
                                  _field_from_arg(args.field))
        for index in range(4):
            rows.append([manifold.value, index + 1, eig.energies[index]])
    out = config.out_dir / "levels.csv"
    csvio.write_rows(out, ["manifold", "level", "energy_GHz"], rows)
    zero_field = {g.label: g.energy_ghz
                  for g in spinham.zero_field_levels(config.params.a_ground)}
    clock = abs(zero_field["singlet+"] - zero_field["singlet-"])
    print(f"ground clock splitting |1>g-|4>g: {clock:.6f} GHz "
          "(first-order field-insensitive pair)")
    for row in rows:
        print(f"  {row[0]:8s} |{row[1]}>  {row[2]:+.6f} GHz")
    return [out]


def _cmd_spectrum(config: RunConfig, args) -> list[Path]:
    weights = None if args.pol == "uniform" else args.pol
    lines = spectra.transition_catalog(config.params, _field_from_arg(args.field),
                                       weights=weights)
    fwhm_mhz = config.params.fwhm_optical_mhz
    spectrum = spectra.synthesize_spectrum(
        [ln for ln in lines if ln.isotope == "171Yb"], fwhm_mhz,
        _grid_from_arg(args.grid))
    i0 = [ln for ln in lines if ln.isotope == "I0"]
    if i0:
        extra = spectra.synthesize_spectrum(i0, fwhm_mhz,
                                            _grid_from_arg(args.grid))
        spectrum = spectra.Spectrum(spectrum.detuning_ghz,
                                    spectrum.absorption + extra.absorption)
    out = config.out_dir / "spectrum.csv"
    csvio.write_spectrum(out, spectrum)
    clusters = spectra.label_line_clusters(lines, fwhm_mhz * 1e-3)
    line_rows = []
    for cluster in clusters:
        for ln in cluster.lines:
            line_rows.append([cluster.label, ln.isotope, ln.ground_index,
                              ln.excited_index, ln.detuning_ghz, ln.weight])
    lines_out = config.out_dir / "lines.csv"
    csvio.write_rows(lines_out, ["peak", "isotope", "ground_level",
                                 "excited_level", "detuning_GHz", "weight"],
                     line_rows)
    print(f"{len(clusters)} resolvable peaks: "
          + ", ".join(f"{c.label}@{c.center_ghz:+.4f} GHz" for c in clusters))
    return [out, lines_out]


def _cmd_sweep(config: RunConfig, args) -> list[Path]:
    check_finite("--b-start", args.b_start)
    check_finite("--b-stop", args.b_stop)
    check_count("--steps", args.steps, 2)
    fields = np.linspace(args.b_start, args.b_stop, args.steps)
    weights = None if args.pol == "uniform" else args.pol
    sweep = spectra.field_sweep_map(config.params, _axis_from_arg(args.axis),
                                    fields, _grid_from_arg(args.grid),
                                    weights=weights,
                                    mixed_weights=args.mixed_weights,
                                    fwhm_171_mhz=args.fwhm_171_mhz,
                                    fwhm_i0_mhz=args.fwhm_i0_mhz)
    out = config.out_dir / "sweep.csv"
    csvio.write_sweep_map(out, sweep)
    long_out = config.out_dir / "sweep_long.csv"
    csvio.write_sweep_long(long_out, sweep.field_values_mt, sweep.detuning_ghz,
                           sweep.absorption)
    print(f"sweep map: {args.steps} fields x {sweep.detuning_ghz.size} points")
    return [out, long_out]


def _cmd_epr(config: RunConfig, args) -> list[Path]:
    resonances = spectra.epr_resonance_fields(
        config.params, args.freq_ghz, args.theta, args.phi,
        b_range_mt=(args.b_min, args.b_max))
    out = config.out_dir / "epr.csv"
    csvio.write_rows(out, ["field_mT", "pair", "weight"],
                     [[r.field_mt, f"{r.pair[0]}-{r.pair[1]}", r.weight]
                      for r in resonances])
    for r in resonances:
        print(f"  {r.field_mt:9.3f} mT  pair {r.pair[0]}-{r.pair[1]}  "
              f"weight {r.weight:.4f}")
    if not resonances:
        print("  no resonances in range")
    return [out]


def _cmd_rosette(config: RunConfig, args) -> list[Path]:
    check_finite("--angle-start", args.angle_start)
    check_finite("--angle-stop", args.angle_stop)
    check_count("--angle-steps", args.angle_steps, 2)
    angles = np.linspace(args.angle_start, args.angle_stop, args.angle_steps)
    rosette = spectra.angular_rosette(config.params, args.plane, angles,
                                      args.freq_ghz,
                                      b_range_mt=(args.b_min, args.b_max))
    out = config.out_dir / "rosette.csv"
    csvio.write_rosette(out, rosette)
    print(f"rosette: {len(rosette)} angles in the {args.plane} plane")
    return [out]


def _cmd_rules(config: RunConfig, args) -> list[Path]:
    table = grouptheory.named_selection_table(args.assignment)
    print(grouptheory.format_selection_table(table))
    rows = []
    for g, e, (ed, md) in table.rows():
        rows.append([g, e, grouptheory._format_pols(ed),
                     grouptheory._format_pols(md)])
    out = config.out_dir / "rules.csv"
    csvio.write_rows(out, ["ground_level", "excited_level", "ED", "MD"], rows)
    missing = grouptheory.ed_predicted_unobserved(table)
    if missing:
        print("ED-predicted but unobserved: "
              + ", ".join(f"<{g}|-|{e}> {pol}" for g, e, pol in missing))
    return [out]


def _cmd_gfactor(config: RunConfig, args) -> list[Path]:
    rows = []
    if args.coeffs:
        a, b = _number_list(args.coeffs, "--coeffs", "A,B", (float, float))
        coeffs = grouptheory.DoubletCoefficients.normalized(
            a, b, j=args.j, family=args.family, order=args.order)
        g_par, g_perp = grouptheory.doublet_g_factors(coeffs)
        rows += [["g_parallel", g_par], ["g_perpendicular", g_perp]]
        print(f"g_parallel = {g_par:.6f}, g_perpendicular = {g_perp:.6f}")
    if args.consistency is not None:
        predicted = grouptheory.g_consistency_relation(args.j, args.family,
                                                       args.order,
                                                       args.consistency)
        rows.append(["g_perp_predicted", predicted])
        print(f"relation predicts |g_perp| = {predicted:.6f} "
              f"for g_parallel = {args.consistency}")
    if args.jmix_targets:
        t_par, t_perp = _number_list(args.jmix_targets, "--jmix-targets",
                                     "G_PAR,G_PERP", (float, float))
        try:
            coeffs = grouptheory.fit_j_mixing(t_par, t_perp)
        except NumericalError as err:
            raise NumericalError(f"--jmix-targets: {err}") from None
        rows += [["jmix_a", coeffs.a], ["jmix_b", coeffs.b],
                 ["jmix_c", coeffs.c], ["jmix_d", coeffs.d],
                 ["jmix_ratio", coeffs.mixing_ratio]]
        print(f"J-mixing fit: R = {coeffs.mixing_ratio:.6f} "
              f"(a, b, c, d) = ({coeffs.a:.4f}, {coeffs.b:.4f}, "
              f"{coeffs.c:.4f}, {coeffs.d:.4f})")
    if not rows:
        raise ValidationError("gfactor needs --coeffs, --consistency or "
                              "--jmix-targets")
    out = config.out_dir / "gfactor.csv"
    csvio.write_rows(out, ["name", "value"], rows)
    return [out]


def _cmd_dynamics(config: RunConfig, args) -> list[Path]:
    check_finite("--t-min", args.t_min)
    check_finite("--t-max", args.t_max)
    check_count("--steps", args.steps, 1)
    temperatures = np.linspace(args.t_min, args.t_max, args.steps)
    t2 = dynamics.t2_vs_temperature(config.params, temperatures, args.mode)
    out = config.out_dir / "t2_curve.csv"
    csvio.write_rows(out, ["temperature_K", "t2_s"], zip(temperatures, t2))
    rates = config.out_dir / "rates.csv"
    csvio.write_rows(
        rates, ["temperature_K", "slr_doublet_hz", "slr_upper_hz"],
        [[t, dynamics.slr_rate(t, dynamics.SLR_DOUBLET),
          dynamics.slr_rate(t, dynamics.SLR_UPPER)] for t in temperatures])
    print(f"T2({temperatures[0]:.2f} K) = {t2[0]:.4g} s ... "
          f"T2({temperatures[-1]:.2f} K) = {t2[-1]:.4g} s [{args.mode}]")
    return [out, rates]


def _cmd_budget(config: RunConfig, args) -> list[Path]:
    t1 = config.params.t1_optical_s
    rows = []
    if args.t2 is not None:
        if args.mode == "spin":
            rate = dynamics.spin_flipflop_from_t2(args.t2)
            rows.append(["inferred_clock_flipflop_s^-1", rate])
            print(f"measured T2 = {args.t2} s implies a clock-pair flip-flop "
                  f"rate R_ff = {rate:.4g} s^-1")
            budget = dynamics.coherence_budget_spin({(1, 4): rate})
        else:
            total = dynamics.optical_flipflop_from_t2(args.t2, t1)
            rows.append(["inferred_spin_decay_total_s^-1", total])
            print(f"measured T2 = {args.t2} s implies total spin decay "
                  f"{total:.4g} s^-1 on top of 1/(2 T1)")
            budget = dynamics.coherence_budget_optical(t1, {"inferred": total})
    elif args.mode == "optical":
        budget = dynamics.coherence_budget_optical(t1)
    else:
        budget = dynamics.coherence_budget_spin({})
    print(budget.describe())
    rows += [[name, rate] for name, rate in budget.channels.items()]
    rows.append(["gamma_h_Hz", budget.gamma_h_hz])
    rows.append(["t2_s", budget.t2_s if not budget.unbounded else np.inf])
    out = config.out_dir / "budget.csv"
    csvio.write_rows(out, ["name", "value"], rows)
    structured = config.out_dir / "budget.json"
    with structured.open("w") as handle:
        json.dump({"channels": {str(k): v for k, v in budget.channels.items()},
                   "gamma_h_Hz": budget.gamma_h_hz,
                   "t2_s": None if budget.unbounded else budget.t2_s,
                   "unbounded": budget.unbounded},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [out, structured]


def _cmd_pump(config: RunConfig, args) -> list[Path]:
    check_count("--max-rows", args.max_rows, 1)
    pump_config = dynamics.PumpConfig(duration_s=args.duration,
                                      temperature_k=args.temperature)
    result = dynamics.pump_simulation(pump_config, config.params)
    out = config.out_dir / "pump.csv"
    stride = max(1, result.times_s.size // args.max_rows)
    rows = [[t] + list(pops) for t, pops in
            zip(result.times_s[::stride], result.populations[::stride])]
    if result.times_s.size % stride != 1:
        rows.append([result.times_s[-1]] + list(result.populations[-1]))
    csvio.write_rows(out, ["t_s"] + list(dynamics.PUMP_LEVEL_NAMES), rows)
    print(f"final populations: n1g = {result.final()[0]:.5f} "
          f"(n2g+n3g = {result.final()[1] + result.final()[2]:.2e}, "
          f"n4g = {result.final()[3]:.2e})")
    return [out]


def _cmd_fit(config: RunConfig, args) -> list[Path]:
    outputs = []
    if args.model == "gaussian":
        data = csvio.read_measurement_csv(args.data[0], "spectrum")
        config.input_files.append(Path(args.data[0]))
        result = fitting.fit_gaussian_line(data["detuning_GHz"],
                                           data["absorption"])
    elif args.model == "decay":
        data = csvio.read_measurement_csv(args.data[0], "decay")
        config.input_files.append(Path(args.data[0]))
        result = fitting.fit_echo_decay(data["tau_s"], data["intensity"])
    elif args.model == "recovery":
        data = csvio.read_measurement_csv(args.data[0], "recovery")
        config.input_files.append(Path(args.data[0]))
        populations = np.column_stack([data[f"n{g}g"] for g in GROUND_GROUPS])
        result = fitting.fit_slr_recovery(
            data["delay_s"], populations,
            dynamics.ground_group_energies(config.params))
    elif args.model == "sweep":
        check_positive("--scale-init", args.scale_init)
        if len(args.data) != len(args.axis):
            raise ValidationError("pass one --axis per --data sweep file")
        sweeps = []
        for path, axis in zip(args.data, args.axis):
            table = csvio.read_measurement_csv(path, "sweep")
            config.input_files.append(Path(path))
            currents = np.unique(table["field_mT"])
            grid = np.unique(table["detuning_GHz"])
            if currents.size * grid.size != table["absorption"].size:
                raise ValidationError(
                    f"{path}: sweep blocks must share one detuning grid")
            block = table["absorption"].reshape(currents.size, grid.size)
            sweeps.append(fitting.SweepData(currents, _axis_from_arg(axis),
                                            grid, block))
        spec = fitting.FieldSweepFitSpec(
            scales_g_per_a=tuple(args.scale_init for _ in sweeps))
        result = fitting.fit_field_sweep(sweeps, spec, config.params)
    else:
        raise ValidationError(f"unknown fit model {args.model!r}")
    print(result.describe())
    if not result.converged:
        reason = "; ".join(result.flags) or "no flags raised"
        raise NumericalError(f"fit did not converge ({reason})")
    out = config.out_dir / "fit.csv"
    csvio.write_rows(out, ["name", "value", "uncertainty"],
                     [[n, v, u] for n, v, u in
                      zip(result.names, result.values, result.uncertainties)])
    outputs.append(out)
    return outputs


_SUBCOMMANDS = {
    "levels": _cmd_levels,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "epr": _cmd_epr,
    "rosette": _cmd_rosette,
    "rules": _cmd_rules,
    "gfactor": _cmd_gfactor,
    "dynamics": _cmd_dynamics,
    "budget": _cmd_budget,
    "pump": _cmd_pump,
    "fit": _cmd_fit,
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes a number list such as "-1.4,1.3", or "-inf",
    for a value.

    argparse reads any token that starts with "-" and is not one plain
    negative decimal as an option, so "--grid -3,4,201" or "--t-min -inf"
    would fail with "expected one argument".  No option of this parser
    looks like a number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d[\d.eE+,-]*|inf(inity)?|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ybcawo4",
        description="Energy levels, spectra, selection rules and coherence "
                    "budgets of the 171Yb3+:CaWO4 spin system")
    parser.add_argument("--config", type=Path, default=None,
                        help="section.key = value parameter file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="inline parameter override (repeatable)")
    parser.add_argument("--preset", default="yb171-cawo4", choices=PRESET_NAMES)
    parser.add_argument("--out", type=Path, default=Path("ybcawo4-out"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="energy levels and the clock splitting")
    p.add_argument("--field", default="0,0,0", help="static field bx,by,bz in mT")

    p = sub.add_parser("spectrum", help="zero-field or fixed-field spectrum")
    p.add_argument("--pol", default="uniform",
                   choices=("uniform", "sigma", "pi", "alpha"))
    p.add_argument("--field", default="0,0,0")
    p.add_argument("--grid", default="-3.2,4.2,2001")

    p = sub.add_parser("sweep", help="absorption map over a field sweep")
    p.add_argument("--axis", default="a")
    p.add_argument("--b-start", type=float, default=0.0)
    p.add_argument("--b-stop", type=float, default=200.0)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--pol", default="uniform",
                   choices=("uniform", "sigma", "pi", "alpha"))
    p.add_argument("--mixed-weights", action="store_true")
    p.add_argument("--grid", default="-4.5,5.0,1500")
    p.add_argument("--fwhm-171-mhz", type=float,
                   default=spectra.SWEEP_FWHM_171_MHZ)
    p.add_argument("--fwhm-i0-mhz", type=float, default=spectra.SWEEP_FWHM_I0_MHZ)

    p = sub.add_parser("epr", help="EPR resonance fields at one orientation")
    p.add_argument("--freq-ghz", type=float, default=9.4)
    p.add_argument("--theta", type=float, default=90.0,
                   help="angle from the c axis, degrees")
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--b-min", type=float, default=10.0)
    p.add_argument("--b-max", type=float, default=900.0)

    p = sub.add_parser("rosette", help="resonance fields versus rotation angle")
    p.add_argument("--plane", default="c-a", choices=("c-a", "a-b"))
    p.add_argument("--angle-start", type=float, default=0.0)
    p.add_argument("--angle-stop", type=float, default=180.0)
    p.add_argument("--angle-steps", type=int, default=19)
    p.add_argument("--freq-ghz", type=float, default=9.4)
    p.add_argument("--b-min", type=float, default=10.0)
    p.add_argument("--b-max", type=float, default=900.0)

    p = sub.add_parser("rules", help="hyperfine selection-rule tables")
    p.add_argument("--assignment", default=grouptheory.DEFAULT_ASSIGNMENT,
                   choices=sorted(grouptheory.ASSIGNMENTS))

    p = sub.add_parser("gfactor", help="doublet g factors and J mixing")
    p.add_argument("--coeffs", default=None, metavar="A,B")
    p.add_argument("--j", type=float, default=3.5, choices=(2.5, 3.5))
    p.add_argument("--family", default="G56")
    p.add_argument("--order", default="upper", choices=("upper", "lower"))
    p.add_argument("--consistency", type=float, default=None,
                   metavar="G_PARALLEL")
    p.add_argument("--jmix-targets", default=None, metavar="G_PAR,G_PERP")

    p = sub.add_parser("dynamics", help="predicted T2 versus temperature")
    p.add_argument("--mode", default="spin", choices=("spin", "optical"))
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=4.0)
    p.add_argument("--steps", type=int, default=40)

    p = sub.add_parser("budget", help="coherence budgets and their inversion")
    p.add_argument("--mode", default="spin", choices=("spin", "optical"))
    p.add_argument("--t2", type=float, default=None,
                   help="measured T2 in s: infer the flip-flop rate")

    p = sub.add_parser("pump", help="optical pumping population trajectories")
    p.add_argument("--duration", type=float, default=0.3)
    p.add_argument("--temperature", type=float, default=0.05)
    p.add_argument("--max-rows", type=int, default=400)

    p = sub.add_parser("fit", help="least-squares fits of measurement CSVs")
    p.add_argument("--model", required=True,
                   choices=("gaussian", "decay", "recovery", "sweep"))
    p.add_argument("--data", action="append", required=True,
                   help="input CSV (repeatable for sweep fits)")
    p.add_argument("--axis", action="append", default=[],
                   help="sweep axis per data file (sweep model)")
    p.add_argument("--scale-init", type=float, default=160.0,
                   help="starting current-to-field scale, G/A")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = parse_config(args.config, args.set, args.preset, args.out)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _SUBCOMMANDS[args.command](config, args)
        _write_manifest(config, args.command, outputs, started)
    except (ValidationError, DomainError) as err:
        print(f"error ({args.command}): {err}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure ({args.command}): {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
