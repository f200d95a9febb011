"""Hot numeric kernels: batched 4x4 Hamiltonians, eigenvalues and Gaussian
line synthesis, all in numpy.

These take raw coefficients; spinham.hamiltonians and
spinham.manifold_energies turn spin-system parameters into them, and no
other module calls the builder.

Basis order everywhere: (up-Up, up-Dn, dn-Up, dn-Dn) where the first arrow
is the electron spin projection and the second the nuclear one, both along
the crystal c axis (z).  Energies in GHz, fields in tesla.
"""

import numpy as np


def build_hamiltonians(a_par, a_perp, ze_par, ze_perp, zn, fields_t):
    """Stack of 4x4 Hamiltonians, one per field row.

    a_par, a_perp : hyperfine components, GHz
    ze_par, ze_perp : g_par * mu_B/h and g_perp * mu_B/h, GHz/T
    zn : g_n * mu_n/h, GHz/T (0 drops the nuclear Zeeman term)
    fields_t : (n, 3) fields in tesla
    """
    fields_t = np.atleast_2d(np.asarray(fields_t, dtype=np.float64))
    n = fields_t.shape[0]
    bx, by, bz = fields_t[:, 0], fields_t[:, 1], fields_t[:, 2]
    h = np.zeros((n, 4, 4), dtype=np.complex128)
    gz = ze_par * bz
    nz = zn * bz
    h[:, 0, 0] = a_par / 4.0 + gz / 2.0 - nz / 2.0
    h[:, 1, 1] = -a_par / 4.0 + gz / 2.0 + nz / 2.0
    h[:, 2, 2] = -a_par / 4.0 - gz / 2.0 - nz / 2.0
    h[:, 3, 3] = a_par / 4.0 - gz / 2.0 + nz / 2.0
    # electron-nuclear flip-flop
    h[:, 1, 2] = a_perp / 2.0
    h[:, 2, 1] = a_perp / 2.0
    # transverse electron Zeeman (electron flip, nucleus spectator)
    et = ze_perp * (bx - 1j * by) / 2.0
    h[:, 0, 2] = et
    h[:, 2, 0] = np.conj(et)
    h[:, 1, 3] = et
    h[:, 3, 1] = np.conj(et)
    # transverse nuclear Zeeman (nucleus flip, electron spectator)
    nt = -zn * (bx - 1j * by) / 2.0
    h[:, 0, 1] = nt
    h[:, 1, 0] = np.conj(nt)
    h[:, 2, 3] = nt
    h[:, 3, 2] = np.conj(nt)
    return h


def manifold_energies(a_par, a_perp, ze_par, ze_perp, zn, fields_t):
    """Ascending eigenvalues (n, 4) of the manifold at each field row."""
    return np.linalg.eigvalsh(
        build_hamiltonians(a_par, a_perp, ze_par, ze_perp, zn, fields_t))


def gaussian_profile(grid, centers, weights, fwhm):
    """Sum of unit-area Gaussians of common FWHM, scaled by per-line weights."""
    grid = np.asarray(grid, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    inv = 4.0 * np.log(2.0) / (fwhm * fwhm)
    amp = 2.0 / fwhm * np.sqrt(np.log(2.0) / np.pi)
    d = grid[None, :] - centers[:, None]
    return amp * (weights[:, None] * np.exp(-inv * d * d)).sum(axis=0)
