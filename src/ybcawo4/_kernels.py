"""Hot numeric kernels: batched 4x4 Hamiltonians, eigenvalues and Gaussian
line synthesis, all in numpy.

The Hamiltonian kernels take the raw operator pair of
spinham.zeeman_operators, H(B) = H0 + sum_a B_a Z_a; spinham.hamiltonians
and spinham.manifold_energies check the fields and call them, and no other
module does.  Energies in GHz, fields in tesla.
"""

import numpy as np


def hamiltonians(h0, zeeman, fields_t):
    """Stack (n, 4, 4) of H0 + sum_a B_a Z_a over the (n, 3) fields in tesla.

    h0 : (4, 4) zero-field Hamiltonian, GHz
    zeeman : (3, 4, 4) Zeeman operators Z_a = dH/dB_a, GHz/T
    """
    return h0 + (fields_t @ zeeman.reshape(3, 16)).reshape(-1, 4, 4)


def manifold_energies(h0, zeeman, fields_t):
    """Ascending eigenvalues (n, 4) of the manifold at each field row."""
    return np.linalg.eigvalsh(hamiltonians(h0, zeeman, fields_t))


def gaussian_profile(grid, centers, weights, fwhm):
    """Sum of unit-area Gaussians of common FWHM, scaled by per-line weights."""
    grid = np.asarray(grid, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    inv = 4.0 * np.log(2.0) / (fwhm * fwhm)
    amp = 2.0 / fwhm * np.sqrt(np.log(2.0) / np.pi)
    d = grid[None, :] - centers[:, None]
    return amp * (weights[:, None] * np.exp(-inv * d * d)).sum(axis=0)
