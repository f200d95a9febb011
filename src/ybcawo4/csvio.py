"""CSV readers/writers for every interchange format the tools emit.

All floats are written with repr-stable formatting so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .params import GROUND_GROUPS
from .spectra import Spectrum, SweepMap


FLOAT_FORMAT = "%.12g"   # every float cell, in both writers
_BLOCK_CELLS = 1 << 14   # cells per formatting pass of write_block


def _fmt(value) -> str:
    return FLOAT_FORMAT % float(value)


def write_rows(path, header, rows) -> None:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             for cell in row])


def write_block(path, header, block) -> None:
    """Write a 2-d float array under a header; the bytes equal write_rows'.

    Rows go out in chunks, each formatted by one %-operation with CRLF line
    ends (csv.writer's), which is far faster than formatting cell by cell.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[1] != len(header):
        raise ValidationError("block must be 2-d with one column per header name")
    row_format = ",".join([FLOAT_FORMAT] * block.shape[1]) + "\r\n"
    chunk = max(1, _BLOCK_CELLS // block.shape[1])
    with Path(path).open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, block.shape[0], chunk):
            rows = block[start:start + chunk]
            handle.write((row_format * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_spectrum(path, spectrum: Spectrum) -> None:
    write_block(path, ["detuning_GHz", "absorption"],
                np.column_stack([spectrum.detuning_ghz, spectrum.absorption]))


def _field_label(value_mt: float) -> str:
    return f"B_{value_mt:g}mT"


def write_sweep_map(path, sweep: SweepMap) -> None:
    header = ["detuning_GHz"] + [_field_label(b) for b in sweep.field_values_mt]
    write_block(path, header,
                np.column_stack([sweep.detuning_ghz, sweep.absorption.T]))


def write_sweep_long(path, field_values, detuning_ghz, absorption) -> None:
    """Long-form sweep table (field_mT, detuning_GHz, absorption) rows."""
    fields = np.asarray(field_values, dtype=float)
    detuning = np.asarray(detuning_ghz, dtype=float)
    absorption = np.asarray(absorption, dtype=float)
    if absorption.shape != (fields.size, detuning.size):
        raise ValidationError("absorption must have one row per field and one "
                              "column per detuning")
    write_block(path, ["field_mT", "detuning_GHz", "absorption"],
                np.column_stack([np.repeat(fields, detuning.size),
                                 np.tile(detuning, fields.size),
                                 absorption.ravel()]))


def write_rosette(path, rosette) -> None:
    rows = []
    for angle, resonances in rosette:
        for res in resonances:
            rows.append([angle, res.field_mt,
                         f"{res.pair[0]}-{res.pair[1]}", res.weight])
    write_rows(path, ["angle_deg", "field_mT", "pair", "weight"], rows)


SCHEMAS = {
    "spectrum": {"columns": ("detuning_GHz", "absorption"), "axis": "detuning_GHz"},
    "decay": {"columns": ("tau_s", "intensity"), "axis": "tau_s"},
    "recovery": {"columns": ("delay_s",) + tuple(f"n{g}g" for g in GROUND_GROUPS),
                 "axis": "delay_s"},
    "sweep": {"columns": ("field_mT", "detuning_GHz", "absorption"), "axis": None},
}


def _parse_rows(path, rows, columns, indices) -> np.ndarray:
    """Cell-by-cell parse of the body rows (the header is row 1); names the
    first row and column that do not hold a finite number."""
    values = []
    for row_number, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        for column, idx in zip(columns, indices):
            try:
                value = float(row[idx])
            except (ValueError, IndexError):
                raise ValidationError(
                    f"{path}:{row_number}: non-numeric value in "
                    f"column {column!r}") from None
            if not math.isfinite(value):
                raise ValidationError(
                    f"{path}:{row_number}: non-finite value in "
                    f"column {column!r}")
            values.append(value)
    return np.asarray(values, dtype=float).reshape(-1, len(columns))


def read_measurement_csv(path, schema: str) -> dict[str, np.ndarray]:
    """Validated numeric dataset for one of the documented schemas.

    The header must contain the schema's columns (extras are tolerated with
    a warning) and every cell a finite number; the primary axis must
    increase strictly.  For the long-form sweep schema the detuning must
    increase within each field block.  The body is parsed in one block; only
    a body that block parse rejects (a bad cell, a short row, a row of empty
    cells) or that holds a nan or inf is read again cell by cell, which
    skips blank rows and names the first bad row and column.
    """
    if schema not in SCHEMAS:
        raise ValidationError(f"unknown schema {schema!r}; "
                              f"choose from {sorted(SCHEMAS)}")
    spec = SCHEMAS[schema]
    columns = spec["columns"]
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as err:
        raise ValidationError(f"{path}: {err.strerror}") from None
    with handle:
        first = handle.readline()
        if not first:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([first]), [])]
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {missing}")
        extra = [c for c in header if c not in columns]
        if extra:
            warnings.warn(f"{path}: ignoring unknown column(s) {extra}",
                          stacklevel=2)
        indices = [header.index(c) for c in columns]
        body_start = handle.tell()
        try:
            with warnings.catch_warnings():
                # a body of blank rows is an empty dataset, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                block = np.loadtxt(handle, delimiter=",", comments=None,
                                   usecols=indices, ndmin=2)
        except ValueError:
            block = None
        if block is None or not np.isfinite(block).all():
            handle.seek(body_start)
            block = _parse_rows(path, csv.reader(handle), columns, indices)
    arrays = dict(zip(columns, np.ascontiguousarray(block.T)))
    axis = spec["axis"]
    if axis is not None:
        values = arrays[axis]
        if not np.all(np.diff(values) > 0):
            raise ValidationError(f"{path}: non-monotonic axis {axis!r}")
    if schema == "sweep" and arrays["field_mT"].size:
        if not np.all(np.diff(arrays["field_mT"]) >= 0):
            raise ValidationError(f"{path}: non-monotonic axis 'field_mT'")
        blocks = np.flatnonzero(np.diff(arrays["field_mT"]) != 0)
        starts = np.concatenate([[0], blocks + 1])
        ends = np.concatenate([blocks + 1, [arrays["field_mT"].size]])
        for lo, hi in zip(starts, ends):
            segment = arrays["detuning_GHz"][lo:hi]
            if not np.all(np.diff(segment) > 0):
                raise ValidationError(
                    f"{path}: non-monotonic axis 'detuning_GHz' within a "
                    "field block")
    return arrays
