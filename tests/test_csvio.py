import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ybcawo4 import csvio
from ybcawo4.errors import ValidationError
from ybcawo4.spectra import Spectrum, SweepMap

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
           1e-5, 1e-4, 123456789012.0, 1234567890123.0, 3.0, -7.0, 1.0 / 3.0,
           2.0 ** 60, 0.1 + 0.2, 1e300, -2.5e-308]


def test_block_bytes_equal_row_bytes_on_special_values(tmp_path):
    block = np.array(SPECIAL * 3).reshape(-1, 4)
    header = ["a", "b", "c", "d"]
    csvio.write_block(tmp_path / "block.csv", header, block)
    csvio.write_rows(tmp_path / "rows.csv", header, block.tolist())
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(block=hnp.arrays(np.float64,
                        st.tuples(st.integers(0, 12), st.integers(1, 5)),
                        elements=st.floats(width=64)))
def test_block_bytes_equal_row_bytes_on_any_floats(block):
    # NaN, +-inf, -0.0 and subnormals included, and tables of zero rows
    header = [f"c{k}" for k in range(block.shape[1])]
    with tempfile.TemporaryDirectory() as scratch:
        block_path, rows_path = Path(scratch) / "block.csv", Path(scratch) / "rows.csv"
        csvio.write_block(block_path, header, block)
        csvio.write_rows(rows_path, header, block.tolist())
        assert block_path.read_bytes() == rows_path.read_bytes()


def test_block_bytes_equal_row_bytes_across_chunks(tmp_path):
    rng = np.random.default_rng(0)
    rows = csvio._BLOCK_CELLS // 3 * 2 + 7   # three chunks of a 3-column table
    block = rng.normal(scale=1e3, size=(rows, 3))
    block[::97, 1] = np.round(block[::97, 1])  # floats holding integers
    header = ["field_mT", "detuning_GHz", "absorption"]
    csvio.write_block(tmp_path / "block.csv", header, block)
    csvio.write_rows(tmp_path / "rows.csv", header, block.tolist())
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_block_header_goes_through_csv_quoting(tmp_path):
    csvio.write_block(tmp_path / "q.csv", ["x", "a,b"], np.zeros((1, 2)))
    with (tmp_path / "q.csv").open(newline="") as handle:
        assert next(csv.reader(handle)) == ["x", "a,b"]


def test_block_shape_must_match_header(tmp_path):
    with pytest.raises(ValidationError):
        csvio.write_block(tmp_path / "bad.csv", ["a", "b"], np.zeros((2, 3)))


def test_sweep_writers_equal_row_by_row_tables(tmp_path):
    rng = np.random.default_rng(1)
    fields = np.array([-50.0, 0.0, 12.5, 200.0])
    grid = np.linspace(-4.5, 5.0, 37)
    absorption = rng.uniform(0.0, 2.0, size=(fields.size, grid.size))
    absorption[1, 3] = 0.0
    sweep = SweepMap(fields, np.array([1.0, 0.0, 0.0]), grid, absorption)

    csvio.write_sweep_map(tmp_path / "wide.csv", sweep)
    csvio.write_rows(tmp_path / "wide_ref.csv",
                     ["detuning_GHz"] + [f"B_{b:g}mT" for b in fields],
                     [[d] + list(absorption[:, k]) for k, d in enumerate(grid)])
    assert (tmp_path / "wide.csv").read_bytes() == \
        (tmp_path / "wide_ref.csv").read_bytes()

    csvio.write_sweep_long(tmp_path / "long.csv", fields, grid, absorption)
    csvio.write_rows(tmp_path / "long_ref.csv",
                     ["field_mT", "detuning_GHz", "absorption"],
                     [[b, d, absorption[k, j]] for k, b in enumerate(fields)
                      for j, d in enumerate(grid)])
    assert (tmp_path / "long.csv").read_bytes() == \
        (tmp_path / "long_ref.csv").read_bytes()

    spectrum = Spectrum(grid, absorption[0])
    csvio.write_spectrum(tmp_path / "spec.csv", spectrum)
    csvio.write_rows(tmp_path / "spec_ref.csv", ["detuning_GHz", "absorption"],
                     zip(grid, absorption[0]))
    assert (tmp_path / "spec.csv").read_bytes() == \
        (tmp_path / "spec_ref.csv").read_bytes()


def test_sweep_long_rejects_mismatched_block(tmp_path):
    with pytest.raises(ValidationError):
        csvio.write_sweep_long(tmp_path / "bad.csv", [1.0, 2.0], [0.0, 1.0, 2.0],
                               np.zeros((3, 2)))


def _cell_by_cell(path, columns):
    """Reference parse: float() of each named cell, blank rows skipped."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    index = [rows[0].index(c) for c in columns]
    body = [r for r in rows[1:] if any(cell.strip() for cell in r)]
    return {c: np.array([float(r[i]) for r in body]) for c, i in zip(columns, index)}


def test_reader_block_parse_equals_cell_parse(tmp_path):
    rng = np.random.default_rng(4)
    fields = np.repeat(np.linspace(0.5, 10.0, 5), 40)
    detuning = np.tile(np.linspace(-4.5, 5.0, 40), 5)
    values = rng.normal(0.0, 3.0, fields.size) * 10.0 ** rng.integers(-300, 300, fields.size)
    path = tmp_path / "sweep.csv"
    csvio.write_rows(path, ["field_mT", "detuning_GHz", "absorption"],
                     zip(fields, detuning, values))
    got = csvio.read_measurement_csv(path, "sweep")
    expected = _cell_by_cell(path, ("field_mT", "detuning_GHz", "absorption"))
    for column, array in expected.items():
        assert np.array_equal(got[column], array)


def test_reader_skips_blank_rows(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("tau_s,intensity\n\n0.0,1.0\n  \n,\n0.1,0.8\n\n")
    data = csvio.read_measurement_csv(path, "decay")
    assert np.array_equal(data["tau_s"], [0.0, 0.1])
    assert np.array_equal(data["intensity"], [1.0, 0.8])


def test_reader_names_row_after_blank_rows(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("tau_s,intensity\n0.0,1.0\n\n0.1,0.8\n0.2,x\n")
    with pytest.raises(ValidationError,
                       match=r"decay\.csv:5: non-numeric value in column 'intensity'"):
        csvio.read_measurement_csv(path, "decay")


def test_reader_names_short_row(tmp_path):
    path = tmp_path / "recovery.csv"
    path.write_text("delay_s,n1g,n23g,n4g\n1,0.9,0.05,0.05\n2,0.8\n")
    with pytest.raises(ValidationError,
                       match=r"recovery\.csv:3: non-numeric value in column 'n23g'"):
        csvio.read_measurement_csv(path, "recovery")


def test_reader_extra_column_warns_and_is_ignored(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("note,detuning_GHz,absorption\nfirst,-1.0,0.5\n,0.0,1.5\n")
    with pytest.warns(UserWarning, match=r"ignoring unknown column\(s\) \['note'\]"):
        data = csvio.read_measurement_csv(path, "spectrum")
    assert np.array_equal(data["detuning_GHz"], [-1.0, 0.0])
    assert np.array_equal(data["absorption"], [0.5, 1.5])


def test_reader_header_only_gives_empty_columns(tmp_path):
    path = tmp_path / "decay.csv"
    path.write_text("tau_s,intensity\n\n")
    data = csvio.read_measurement_csv(path, "decay")
    assert data["tau_s"].shape == (0,) and data["intensity"].shape == (0,)


def test_reader_empty_and_missing_files_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty file"):
        csvio.read_measurement_csv(empty, "decay")
    with pytest.raises(ValidationError, match="No such file"):
        csvio.read_measurement_csv(tmp_path / "absent.csv", "decay")
