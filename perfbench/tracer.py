"""Span tracer for the benchmark's traced run.

It wraps public functions of the ybcawo4 modules with setattr on their
modules, so calls made through the module attribute (which is how the CLI and
the library call each other) open a span.  A span is [name, start, end,
parent index, operation id, counts]; spans stay in memory, are written out
by dump(), and every per-layer metric is derived from them.  A hook whose
module or function no longer exists is skipped, and the metrics that need it
read null.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

perf_counter = time.perf_counter


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    name: str
    before: Callable | None = None   # (tracer, args, kwargs, counts) -> (args, kwargs)
    after: Callable | None = None    # (args, kwargs, result, counts) -> None


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _eigensystem_key(tracer, args, kwargs, counts):
    params, manifold = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "manifold")
    field = _arg(args, kwargs, 2, "b_mt", (0.0, 0.0, 0.0))
    nuclear = _arg(args, kwargs, 3, "include_nuclear_zeeman", True)
    counts["key"] = (f"{hash(params)}|{getattr(manifold, 'value', manifold)}|"
                     f"{[float(b) for b in field]}|{bool(nuclear)}")
    return args, kwargs


def _rows(args, kwargs, result, counts):
    counts["rows"] = len(result)


def _gaussian_cells(tracer, args, kwargs, counts):
    grid, centers = _arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 1, "centers")
    counts["cells"] = len(grid) * len(centers)
    return args, kwargs


def _roots(args, kwargs, result, counts):
    counts["roots"] = len(result)


def _trace_model(tracer, args, kwargs, counts):
    """Give least_squares a model whose every evaluation is a fitting.model span."""
    model_hook = Hook("", "", "fitting.model")
    if args:
        return (tracer.wrap(model_hook, args[0]),) + tuple(args[1:]), kwargs
    return args, {**kwargs, "model": tracer.wrap(model_hook, kwargs["model"])}


def _iterations(args, kwargs, result, counts):
    counts["iterations"] = result.iterations


def _steps(args, kwargs, result, counts):
    counts["steps"] = len(result.times_s) - 1


def _count_cells(tracer, args, kwargs, counts):
    counts["cells"] = 0

    def counted(rows):
        for row in rows:
            counts["cells"] += len(row)
            yield row

    if len(args) > 2:
        return tuple(args[:2]) + (counted(args[2]),) + tuple(args[3:]), kwargs
    return args, {**kwargs, "rows": counted(kwargs["rows"])}


def _written_bytes(args, kwargs, result, counts):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _read_bytes(tracer, args, kwargs, counts):
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))
    return args, kwargs


_GROUPTHEORY = ("named_selection_table", "format_selection_table",
                "ed_predicted_unobserved", "doublet_g_factors",
                "g_consistency_relation", "fit_j_mixing")
_CSV_WRITERS = ("write_spectrum", "write_sweep_map", "write_sweep_long",
                "write_rosette")

HOOKS = (
    Hook("ybcawo4.cli", "main", "cli.main"),
    Hook("ybcawo4.cli", "parse_config", "cli.parse_config"),
    Hook("ybcawo4.spinham", "eigensystem", "spinham.eigensystem",
         before=_eigensystem_key),
    Hook("ybcawo4.spinham", "manifold_energies", "spinham.manifold_energies",
         after=_rows),
    Hook("ybcawo4.spinham", "transition_magnetic_dipole",
         "spinham.transition_magnetic_dipole"),
    Hook("ybcawo4._kernels", "gaussian_profile", "kernels.gaussian_profile",
         before=_gaussian_cells),
    Hook("ybcawo4._kernels", "manifold_energies", "kernels.manifold_energies",
         after=_rows),
    Hook("ybcawo4.spectra", "field_sweep_map", "spectra.field_sweep_map"),
    Hook("ybcawo4.spectra", "transition_catalog", "spectra.transition_catalog"),
    Hook("ybcawo4.spectra", "synthesize_spectrum", "spectra.synthesize_spectrum"),
    Hook("ybcawo4.spectra", "epr_resonance_fields", "spectra.epr_resonance_fields",
         after=_roots),
    Hook("ybcawo4.fitting", "least_squares", "fitting.least_squares",
         before=_trace_model, after=_iterations),
    Hook("ybcawo4.dynamics", "pump_simulation", "dynamics.pump_simulation",
         after=_steps),
    Hook("ybcawo4.dynamics", "t2_vs_temperature", "dynamics.t2_vs_temperature"),
    *(Hook("ybcawo4.grouptheory", fn, f"grouptheory.{fn}") for fn in _GROUPTHEORY),
    Hook("ybcawo4.csvio", "write_rows", "csvio.write_rows",
         before=_count_cells, after=_written_bytes),
    *(Hook("ybcawo4.csvio", fn, f"csvio.{fn}") for fn in _CSV_WRITERS),
    Hook("ybcawo4.csvio", "read_measurement_csv", "csvio.read_measurement_csv",
         before=_read_bytes),
)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._origin = perf_counter()
        self._targets = []        # (module, attr, original, wrapper)
        self.present: set = set()
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                continue
            original = getattr(module, hook.attr, None)
            if callable(original):
                self._targets.append((module, hook.attr, original,
                                      self.wrap(hook, original)))
                self.present.add(hook.name)
        if "fitting.least_squares" in self.present:
            self.present.add("fitting.model")

    def wrap(self, hook: Hook, fn):
        tracer = self

        def traced(*args, **kwargs):
            counts = {} if hook.before or hook.after else None
            if hook.before:
                args, kwargs = hook.before(tracer, args, kwargs, counts)
            span = [hook.name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else None, tracer.op, counts]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if hook.after:
                hook.after(args, kwargs, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._targets:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._targets:
            setattr(module, attr, original)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.install()

    def end_op(self) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON line (times in s from tracer start)."""
        with gzip.open(path, "wt") as handle:
            for name, start, end, parent, op, counts in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - self._origin,
                    "end": end - self._origin, "parent": parent, "op": op,
                    "counts": counts}) + "\n")

    def layer_metrics(self) -> dict:
        """Median over traced operations of each per-operation layer metric."""
        by_op: dict = {}
        for index, span in enumerate(self.spans):
            by_op.setdefault(span[4], []).append(index)
        per_op = [_op_metrics(self.spans, indices) for indices in by_op.values()]
        out = {}
        for metric, needs in METRICS:
            if not per_op or not all(n in self.present for n in needs):
                out[metric] = None
            else:
                out[metric] = statistics.median(m[metric] for m in per_op)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _op_metrics(spans, indices) -> dict:
    """Layer metrics of one operation from its spans."""
    children: dict = {}
    for i in indices:
        if spans[i][3] is not None:
            children.setdefault(spans[i][3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def named(name):
        return [i for i in indices if spans[i][0] == name]

    def total(name):
        return sum(dur(i) for i in named(name))

    def self_time(name):
        return sum(dur(i) - sum(dur(c) for c in children.get(i, ())) for i in named(name))

    def counted(name, key):
        return sum(spans[i][5][key] for i in named(name))

    def outermost(prefix):
        return sum(dur(i) for i in indices if spans[i][0].startswith(prefix)
                   and not (spans[i][3] is not None
                            and spans[spans[i][3]][0].startswith(prefix)))

    def under(i, name):
        while spans[i][3] is not None:
            i = spans[i][3]
            if spans[i][0] == name:
                return True
        return False

    epr = "spectra.epr_resonance_fields"
    epr_rows = (sum(spans[i][5]["rows"] for i in named("spinham.manifold_energies")
                    if under(i, epr))
                + sum(1 for i in named("spinham.eigensystem") if under(i, epr)))
    eig_calls = len(named("spinham.eigensystem"))
    iterations = counted("fitting.least_squares", "iterations")
    evals = len(named("fitting.model"))
    return {
        "cli.main.self_s": self_time("cli.main"),
        "cli.parse_config.s": total("cli.parse_config"),
        "spinham.eigensystem.calls": eig_calls,
        "spinham.eigensystem.s": total("spinham.eigensystem"),
        "spinham.eigensystem.distinct_frac": _ratio(
            len({spans[i][5]["key"] for i in named("spinham.eigensystem")}), eig_calls),
        "spinham.manifold_energies.calls": len(named("spinham.manifold_energies")),
        "spinham.manifold_energies.rows": counted("spinham.manifold_energies", "rows"),
        "spinham.manifold_energies.s": total("spinham.manifold_energies"),
        "spinham.transition_magnetic_dipole.calls":
            len(named("spinham.transition_magnetic_dipole")),
        "spinham.transition_magnetic_dipole.s": total("spinham.transition_magnetic_dipole"),
        "kernels.gaussian_profile.calls": len(named("kernels.gaussian_profile")),
        "kernels.gaussian_profile.cells": counted("kernels.gaussian_profile", "cells"),
        "kernels.gaussian_profile.s": total("kernels.gaussian_profile"),
        "kernels.manifold_energies.calls": len(named("kernels.manifold_energies")),
        "kernels.manifold_energies.rows": counted("kernels.manifold_energies", "rows"),
        "kernels.manifold_energies.s": total("kernels.manifold_energies"),
        "spectra.field_sweep_map.s": total("spectra.field_sweep_map"),
        "spectra.field_sweep_map.self_s": self_time("spectra.field_sweep_map"),
        "spectra.transition_catalog.calls": len(named("spectra.transition_catalog")),
        "spectra.transition_catalog.s": total("spectra.transition_catalog"),
        "spectra.synthesize_spectrum.calls": len(named("spectra.synthesize_spectrum")),
        "spectra.synthesize_spectrum.s": total("spectra.synthesize_spectrum"),
        "spectra.epr_resonance_fields.calls": len(named(epr)),
        "spectra.epr_resonance_fields.s": total(epr),
        "spectra.epr_resonance_fields.self_s": self_time(epr),
        "spectra.epr.roots": counted(epr, "roots"),
        "spectra.epr.rows_per_root": _ratio(epr_rows, counted(epr, "roots")),
        "fitting.least_squares.s": total("fitting.least_squares"),
        "fitting.least_squares.self_s": self_time("fitting.least_squares"),
        "fitting.least_squares.iterations": iterations,
        "fitting.model.evals": evals,
        "fitting.model.s": total("fitting.model"),
        "fitting.model.evals_per_iter": _ratio(evals, iterations),
        "dynamics.pump_simulation.s": total("dynamics.pump_simulation"),
        "dynamics.pump_simulation.steps": counted("dynamics.pump_simulation", "steps"),
        "dynamics.t2_vs_temperature.s": total("dynamics.t2_vs_temperature"),
        "grouptheory.s": outermost("grouptheory."),
        "csvio.write.s": outermost("csvio.write"),
        "csvio.write.bytes": counted("csvio.write_rows", "bytes"),
        "csvio.write.cells": counted("csvio.write_rows", "cells"),
        "csvio.read.s": total("csvio.read_measurement_csv"),
        "csvio.read.bytes": counted("csvio.read_measurement_csv", "bytes"),
    }


# (metric, span names whose hooks it needs), in the order BENCHMARK.json lists them
_NEEDS = {
    "cli.main.self_s": ("cli.main",),
    "spectra.field_sweep_map.self_s": ("spectra.field_sweep_map",),
    "spectra.epr.roots": ("spectra.epr_resonance_fields",),
    "spectra.epr.rows_per_root": ("spectra.epr_resonance_fields",
                                  "spinham.manifold_energies", "spinham.eigensystem"),
    "fitting.model.evals_per_iter": ("fitting.least_squares",),
    "grouptheory.s": tuple(f"grouptheory.{fn}" for fn in _GROUPTHEORY),
    "csvio.write.s": ("csvio.write_rows",) + tuple(f"csvio.{fn}" for fn in _CSV_WRITERS),
    "csvio.write.bytes": ("csvio.write_rows",),
    "csvio.write.cells": ("csvio.write_rows",),
    "csvio.read.s": ("csvio.read_measurement_csv",),
    "csvio.read.bytes": ("csvio.read_measurement_csv",),
}
METRICS = tuple(
    (metric, _NEEDS.get(metric, (metric.rsplit(".", 1)[0],)))
    for metric in _op_metrics([], []))
