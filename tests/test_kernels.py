import numpy as np
import pytest

from ybcawo4 import _kernels, spinham
from ybcawo4.params import Manifold, SpinSystemParams, a_tensor, g_tensor


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    params = SpinSystemParams(
        a_ground=a_tensor(rng.uniform(-5, 5), rng.uniform(-5, 5)),
        g_ground=g_tensor(rng.uniform(-2, 2), rng.uniform(-4, 4)),
        g_n=rng.uniform(0, 2))
    fields = rng.uniform(-0.5, 0.5, size=(64, 3))
    return spinham.zeeman_operators(params, Manifold.GROUND), fields


def test_numpy_energy_kernel_is_sorted_and_traceless():
    (h0, zeeman), fields = _random_inputs(0)
    energies = _kernels.manifold_energies(h0, zeeman, fields)
    assert energies.shape == (64, 4)
    assert np.all(np.diff(energies, axis=1) >= -1e-12)
    assert np.allclose(energies.sum(axis=1), 0.0, atol=1e-10)


def test_gaussian_numpy_kernel_unit_area():
    grid = np.linspace(-10, 10, 20001)
    out = _kernels.gaussian_profile(grid, np.array([0.3]), np.array([2.0]), 0.185)
    assert np.trapezoid(out, grid) == pytest.approx(2.0, rel=1e-6)
