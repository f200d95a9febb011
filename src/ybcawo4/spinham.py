"""Effective spin-1/2 Hamiltonian of one manifold and its exact eigensystem.

The Hamiltonian (energies in GHz, E/h convention) is

    H = A_perp (Sx Ix + Sy Iy) + A_par Sz Iz
        + (mu_B/h) (g_perp (Bx Sx + By Sy) + g_par Bz Sz)
        - (mu_n/h) g_n B . I

in the product basis (up-Up, up-Dn, dn-Up, dn-Dn); electron arrow first,
nuclear arrow second, z along the crystal c axis.  Fields are mT at the
API boundary and tesla internally.

Conventions fixed here and relied on elsewhere:
  * eigenvalues ascending; a degenerate block is ordered by descending Sz,
    then by descending Iz among states of equal Sz, so the zero-field doublet
    comes out as up-Up before dn-Dn;
  * eigenvector phase: largest-magnitude component real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import CONSTANTS
from .errors import DomainError, ValidationError
from .params import (EXCITED_GROUPS, EXCITED_MULTIPLICITIES, GROUND_GROUPS,
                     GROUND_MULTIPLICITIES, Manifold, SpinSystemParams,
                     UniaxialTensor)

_DEGENERACY_TOL_GHZ = 1e-7
# <Sz> values of a degenerate block closer than this count as equal, so Iz
# orders those states
_EQUAL_SZ_TOL = 1e-9


def spin_half_operators():
    """The three spin-1/2 operators as 2x2 complex matrices."""
    sx = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
    sz = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
    return sx, sy, sz


def _read_only(op: np.ndarray) -> np.ndarray:
    op.setflags(write=False)
    return op


_EYE2 = np.eye(2, dtype=complex)
# Electron (S) and nuclear (I) vector operators on the 4-dim product space.
S_OPS = tuple(_read_only(np.kron(o, _EYE2)) for o in spin_half_operators())
I_OPS = tuple(_read_only(np.kron(_EYE2, o)) for o in spin_half_operators())


_S_STACK = _read_only(np.stack(S_OPS))
_I_STACK = _read_only(np.stack(I_OPS))
# A_perp (Sx Ix + Sy Iy) and A_par Sz Iz per unit coupling
_FLIP_FLOP = _read_only(S_OPS[0] @ I_OPS[0] + S_OPS[1] @ I_OPS[1])
_AXIAL = _read_only(S_OPS[2] @ I_OPS[2])


def zeeman_operators(params: SpinSystemParams, manifold: Manifold):
    """The read-only pair (H0, Z) of the manifold's H(B) = H0 + sum_a B_a Z_a.

    H0 (4, 4) is the zero-field (hyperfine) Hamiltonian in GHz; Z (3, 4, 4)
    holds Z_a = dH/dB_a = (mu_B/h) g_a S_a - (mu_n/h) g_n I_a in GHz/T, with
    g_x = g_y = g_perp and g_z = g_par.  The only place the Zeeman term is
    written; params with g_n = 0 drop its nuclear part.
    """
    a = params.a(manifold)
    g = params.g(manifold)
    h0 = a.perpendicular * _FLIP_FLOP + a.parallel * _AXIAL
    ze = CONSTANTS.mu_b_ghz_per_t * np.array([g.perpendicular, g.perpendicular,
                                              g.parallel])
    zn = params.g_n * CONSTANTS.mu_n_ghz_per_t
    return _read_only(h0), _read_only(ze[:, None, None] * _S_STACK - zn * _I_STACK)


def _fields_t(fields_mt) -> np.ndarray:
    """An (n, 3) field stack in mT, checked, in tesla."""
    fields = np.asarray(fields_mt, dtype=float)
    if fields.ndim != 2 or fields.shape[1] != 3:
        raise ValidationError("fields must be an (n, 3) stack of 3-vectors")
    if not np.isfinite(fields).all():
        raise ValidationError("magnetic field components must be finite")
    return fields * 1e-3


def hamiltonians(params: SpinSystemParams, manifold: Manifold,
                 fields_mt) -> np.ndarray:
    """Stack (n, 4, 4) of Hermitian matrices in GHz over an (n, 3) field stack (mT).

    The one place that turns parameters into Hamiltonians: the operator pair
    of zeeman_operators through the raw-operator kernel.
    """
    return _kernels.hamiltonians(
        *zeeman_operators(params, manifold), _fields_t(fields_mt))


def field_derivative_operator(params: SpinSystemParams, manifold: Manifold,
                              direction) -> np.ndarray:
    """dH/dB = d . Z along a unit direction d, in GHz/T (== MHz/mT)."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return np.tensordot(d, zeeman_operators(params, manifold)[1], axes=1)


@dataclass(frozen=True)
class EigenSystem:
    """Energies (GHz, ascending) and eigenvector columns of one manifold."""

    energies: np.ndarray        # (4,)
    states: np.ndarray          # (4, 4); states[:, k] belongs to energies[k]

    def state(self, index: int) -> np.ndarray:
        """Eigenvector for the 1-based level index."""
        return self.states[:, index - 1]


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Give every eigenvector column its largest-magnitude component real and positive."""
    # hypot rounds like abs() of one complex scalar; np.abs of a complex
    # array may take a vectorised path that differs in the last bit
    magnitude = np.hypot(vectors.real, vectors.imag)
    anchor = np.argmax(magnitude, axis=-2)
    # the anchor component of every column, as one fancy index
    index = np.indices(anchor.shape, sparse=True)
    at = (*index[:-1], anchor, index[-1])
    out = vectors / (vectors[at] / magnitude[at])[..., None, :]
    # scrub the residual imaginary dust on the anchor component
    out[at] = out[at].real
    return out


def _runs(values, tol: float):
    """(start, stop) of each run of values within tol of the run's first value."""
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or abs(values[k] - values[start]) >= tol:
            yield start, k
            start = k


def _descending(block: np.ndarray, op: np.ndarray):
    """The expectation values of op, descending, and the block's columns
    rotated onto the basis that diagonalizes op within their span."""
    m = block.conj().T @ op @ block
    values, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    return values[::-1], block @ u[:, ::-1]


def _resolve_degeneracies(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rotate each degenerate subspace onto the basis diagonalizing Sz, then
    Iz within each run of equal <Sz>, both in descending order."""
    vecs = vectors.copy()
    for i, j in _runs(energies, _DEGENERACY_TOL_GHZ):
        if j - i > 1:
            sz, block = _descending(vecs[:, i:j], S_OPS[2])
            for p, q in _runs(sz, _EQUAL_SZ_TOL):
                if q - p > 1:
                    block[:, p:q] = _descending(block[:, p:q], I_OPS[2])[1]
            vecs[:, i:j] = block
    return vecs


def _eigh_stack(h: np.ndarray):
    """Energies (n, 4) and states (n, 4, 4) of a Hamiltonian stack, with the
    ordering and phase conventions of this module; one eigh over the stack."""
    energies, vectors = np.linalg.eigh(h)
    degenerate = np.any(np.diff(energies, axis=1) < _DEGENERACY_TOL_GHZ, axis=1)
    for row in np.flatnonzero(degenerate):
        vectors[row] = _resolve_degeneracies(energies[row], vectors[row])
    return energies, _fix_phases(vectors)


def eigensystems(params: SpinSystemParams, manifold: Manifold, fields_mt):
    """Energies (n, 4) and eigenvector columns (n, 4, 4) over a field stack (mT).

    states[r, :, k] belongs to energies[r, k]; every row follows the same
    conventions as eigensystem, which is the one-row case of this function.
    """
    return _eigh_stack(hamiltonians(params, manifold, fields_mt))


def eigensystem(params: SpinSystemParams, manifold: Manifold,
                b_mt=(0.0, 0.0, 0.0)) -> EigenSystem:
    b = np.asarray(b_mt, dtype=float)
    if b.shape != (3,):
        raise ValidationError("magnetic field must be a 3-vector")
    energies, states = eigensystems(params, manifold, b[None, :])
    return EigenSystem(energies=energies[0], states=states[0])


def manifold_energies(params: SpinSystemParams, manifold: Manifold,
                      fields_mt) -> np.ndarray:
    """Ascending energies (n, 4) over a batch of fields (mT); the inputs of
    hamiltonians, diagonalized by the eigvalsh kernel."""
    return _kernels.manifold_energies(
        *zeeman_operators(params, manifold), _fields_t(np.atleast_2d(fields_mt)))


@dataclass(frozen=True)
class LevelGroup:
    energy_ghz: float
    multiplicity: int
    label: str


def zero_field_levels(a: UniaxialTensor) -> list[LevelGroup]:
    """Analytic zero-field level groups of one manifold, ascending in energy.

    The flip-flop block splits into antisymmetric/symmetric combinations of
    up-Dn and dn-Up ("singlet-"/"singlet+"); up-Up and dn-Dn stay degenerate
    ("doublet").
    """
    if a.unit != "GHz":
        raise ValidationError("zero_field_levels expects the hyperfine tensor")
    ap, aq = a.parallel, a.perpendicular
    groups = [
        LevelGroup((-ap - 2.0 * aq) / 4.0, 1, "singlet-"),
        LevelGroup(ap / 4.0, 2, "doublet"),
        LevelGroup((-ap + 2.0 * aq) / 4.0, 1, "singlet+"),
    ]
    return sorted(groups, key=lambda g: g.energy_ghz)


def checked_zero_field_levels(params: SpinSystemParams,
                              manifold: Manifold) -> list[LevelGroup]:
    """zero_field_levels of one manifold, checked against its level layout.

    The layout (params.GROUND_GROUPS, params.EXCITED_GROUPS) fixes which
    levels form the zero-field doublet.  Raises DomainError, naming both,
    when the hyperfine tensor gives other multiplicities in ascending
    energy: whatever the layout lifts to levels would then treat two
    non-degenerate levels as the doublet.
    """
    groups, expected = ((GROUND_GROUPS, GROUND_MULTIPLICITIES)
                        if manifold is Manifold.GROUND
                        else (EXCITED_GROUPS, EXCITED_MULTIPLICITIES))
    levels = zero_field_levels(params.a(manifold))
    found = tuple(g.multiplicity for g in levels)
    if found != expected:
        raise DomainError(
            f"the {manifold.value} hyperfine tensor gives zero-field "
            f"multiplicities {found} in ascending energy, but the level "
            f"layout {groups} needs {expected}")
    return levels


def first_order_sensitivity(state, direction, params: SpinSystemParams,
                            manifold: Manifold) -> float:
    """<i| dH/dB |i> along a unit direction, in MHz/mT."""
    v = np.asarray(state, dtype=complex)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
        raise ValidationError("state must be normalized")
    op = field_derivative_operator(params, manifold, direction)
    return float(np.real(v.conj() @ op @ v))


def magnetic_dipole_operator(params: SpinSystemParams, manifold: Manifold,
                             bac_direction) -> np.ndarray:
    """-d . Z / mu_B for a unit ac field direction d, that is
    -(g-weighted d.S - (mu_n/mu_B) g_n d.I).

    Matrix elements are transition dipole amplitudes in units of mu_B.
    """
    return (field_derivative_operator(params, manifold, bac_direction)
            / -CONSTANTS.mu_b_ghz_per_t)


def transition_magnetic_dipole(state_i, state_j, bac_direction,
                               params: SpinSystemParams, manifold: Manifold) -> complex:
    """Transition amplitude <i|op|j> of the ac magnetic dipole, in mu_B units."""
    vi = np.asarray(state_i, dtype=complex)
    vj = np.asarray(state_j, dtype=complex)
    if np.allclose(vi, vj):
        raise ValidationError("transition dipole needs two distinct states")
    op = magnetic_dipole_operator(params, manifold, bac_direction)
    return complex(vi.conj() @ op @ vj)


def _sensitivities(params, manifold, eig: EigenSystem) -> np.ndarray:
    """(4, 3) array of per-level slopes <k|Z_a|k> along x, y, z in MHz/mT."""
    zeeman = zeeman_operators(params, manifold)[1]
    return np.einsum("ak,xab,bk->kx", eig.states.conj(), zeeman, eig.states).real


def find_clock_transitions(params: SpinSystemParams, pairs: str = "ground",
                           tol_mhz_per_mt: float = 1e-6):
    """Level pairs whose differential first-order field sensitivity vanishes
    at zero field.

    pairs: "ground" / "excited" for spin transitions inside one manifold,
    "optical" for (ground level, excited level) pairs.  A pair is flagged
    when the sensitivity difference is below tol along all three axes.
    """
    if pairs == "optical":
        eg = eigensystem(params, Manifold.GROUND)
        ee = eigensystem(params, Manifold.EXCITED)
        sg = _sensitivities(params, Manifold.GROUND, eg)
        se = _sensitivities(params, Manifold.EXCITED, ee)
        return [(i + 1, j + 1) for i in range(4) for j in range(4)
                if np.max(np.abs(sg[i] - se[j])) < tol_mhz_per_mt]
    manifold = Manifold.GROUND if pairs == "ground" else Manifold.EXCITED
    eig = eigensystem(params, manifold)
    s = _sensitivities(params, manifold, eig)
    return [(i + 1, j + 1) for i in range(4) for j in range(i + 1, 4)
            if np.max(np.abs(s[i] - s[j])) < tol_mhz_per_mt]
