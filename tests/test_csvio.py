import csv

import numpy as np
import pytest

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
