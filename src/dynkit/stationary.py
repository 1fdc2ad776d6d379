"""Grid Hamiltonians, their spectra, and spectra extracted from time propagation.

Finite-difference stencils (forward/backward/central) and the spectral
position-momentum sandwich H = F^-1 diag(K(p)) F + diag(U(x)) are assembled
as dense matrices.  Band structures of lattice potentials come from
diagonalizing H(x, p + hbar k) on a single cell with periodic boundaries,
and eigenvalues can also be located as peaks of the Fourier-transformed
autocorrelation of a propagated state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import UniformGrid, _alt_signs, _fft
from .matfunc import _hermitian_solve
from .steps import step_count

FD_SCHEMES = ("forward", "backward", "central")


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = K(t, p) + U(t, x) through two real-valued callables.

    ``mass`` enters through K by convention; it is kept as metadata for
    diagnostics such as the Ehrenfest check m d<x>/dt = <p>.
    ``time_independent`` states that K and U ignore t, so split-operator
    stepping may evaluate them once and reuse their phases; it changes no
    result beyond rounding.
    """

    kinetic: Callable[[float, np.ndarray], np.ndarray]
    potential: Callable[[float, np.ndarray], np.ndarray]
    hbar: float = 1.0
    mass: float = 1.0
    time_independent: bool = False


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues and column eigenvectors (dx-weighted orthonormal)."""

    energies: np.ndarray
    states: np.ndarray


def _potential_values(potential, x):
    if callable(potential):
        u = np.asarray(potential(x), dtype=float)
    else:
        u = np.asarray(potential, dtype=float)
    if u.shape == ():
        u = np.full_like(x, float(u))
    if u.shape != x.shape:
        raise ValueError(f"potential shape {u.shape} does not match grid {x.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("potential is not finite on the grid")
    return u


def _stencil_terms(grid: UniformGrid, potential, scheme: str, mass: float):
    """(hbar^2 / (2 m dx^2), U on the grid) of a finite-difference stencil."""
    if scheme not in FD_SCHEMES:
        raise ValueError(f"scheme must be one of {FD_SCHEMES}, got {scheme!r}")
    return (grid.hbar ** 2 / (2.0 * mass * grid.dx ** 2),
            _potential_values(potential, grid.x))


def build_fd_hamiltonian(grid: UniformGrid, potential, scheme: str = "central",
                         mass: float = 1.0) -> np.ndarray:
    """Finite-difference Hamiltonian -hbar^2/(2m) d^2/dx^2 + U(x) on the grid.

    ``potential`` may be a callable U(x) or an array of values.  The central
    stencil with the boundary condition psi(x_-1) = psi(x_N) = 0 is hermitian;
    the forward/backward stencils (psi vanishing beyond the right/left edge)
    are triangular, so their eigenvalues sit on the stencil diagonal
    -hbar^2/(2 m dx^2) + U(x_k).  The matrix is real (float64).
    """
    c, u = _stencil_terms(grid, potential, scheme, mass)
    n = grid.n
    h = np.zeros((n, n))
    if scheme == "central":
        idx = np.arange(n)
        h[idx, idx] = 2.0 * c + u
        h[idx[:-1], idx[:-1] + 1] = -c
        h[idx[1:], idx[1:] - 1] = -c
    else:
        idx = np.arange(n)
        h[idx, idx] = -c + u
        step = 1 if scheme == "forward" else -1
        second = np.arange(n)[(idx + step >= 0) & (idx + step < n)]
        h[second, second + step] = 2.0 * c
        third = np.arange(n)[(idx + 2 * step >= 0) & (idx + 2 * step < n)]
        h[third, third + 2 * step] = -c
    return h


def triangular_fd_energies(grid: UniformGrid, potential, scheme: str,
                           mass: float = 1.0) -> np.ndarray:
    """Ascending eigenvalues of the forward or backward stencil, without its matrix.

    Both stencils are triangular, so their eigenvalues are the diagonal
    -hbar^2/(2 m dx^2) + U(x_k) of ``build_fd_hamiltonian``, bit for bit.
    """
    if scheme == "central":
        raise ValueError("the central stencil is not triangular")
    c, u = _stencil_terms(grid, potential, scheme, mass)
    return np.sort(-c + u)


def _circulant(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The n x n matrix c[(i - j) mod n] + diag(u), of c's dtype."""
    n = len(c)
    # row i is window n - 1 - i of the reversed c written twice
    rev = c[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([rev, rev[:-1]]), n)
    m = windows[::-1].copy()
    m[np.arange(n), np.arange(n)] += u
    return m


def build_spectral_hamiltonian(grid: UniformGrid, spec: HamiltonianSpec,
                               t: float = 0.0) -> np.ndarray:
    """Dense H = F^-1 diag(K(t, p)) F + diag(U(t, x)) via the sign-alternation bridge.

    The bridged kinetic block is circulant, H_kin[i, j] = c[(i - j) mod n]
    with c_d = (-1)^d ifft(K)_d, so one length-n transform builds it.  The
    grid momenta pair into exact negatives; where K gives each pair the same
    bits (p^2/2m does, as does an even polynomial evaluated by Horner's
    rule), c is real and so is H (float64).  Otherwise H is complex and
    hermitian to rounding, and its solve costs about three times as much.
    numpy's ``**`` above the square breaks the evenness: ``p**4`` differs
    between p and -p in the last bits, so write such a kinetic by Horner's
    rule or as products, ``(p * p) * (p * p)``.
    """
    grid.require_fft_bridge()
    n = grid.n
    kdiag = np.asarray(spec.kinetic(t, grid.p_fft), dtype=float)
    u = np.asarray(spec.potential(t, grid.x), dtype=float)
    c = _fft(kdiag.astype(complex), inverse=True)
    # p_fft[k] = -p_fft[n - k], so a K even to the bit makes c real
    if np.array_equal(kdiag[1:], kdiag[:0:-1]):
        c = c.real
    c *= _alt_signs(n)
    return _circulant(c, u)


def eigensolve(h: np.ndarray, dx: float = 1.0) -> SpectrumResult:
    """Full spectrum of a hermitian matrix, ascending, dx-weighted orthonormal vectors."""
    energies, states = _hermitian_solve(h, vectors=True, tol=1e-10)
    return SpectrumResult(energies=energies, states=states / np.sqrt(dx))


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a hermitian matrix, with no eigenvectors computed.

    The energies of ``eigensolve`` to rounding, at a fraction of its cost.
    """
    return _hermitian_solve(h, vectors=False, tol=1e-10)


def band_structure(cell_spec: HamiltonianSpec, lattice_constant: float,
                   n_cell_grid: int, quasimomenta: Sequence[float],
                   n_bands: int) -> np.ndarray:
    """Bloch bands E_n(k) of a potential periodic on [0, a).

    For each quasimomentum k the operator H(x, p + hbar k) is diagonalized on
    a single cell with periodic boundary conditions, using the cell's FFT
    momentum grid p_j = 2 pi hbar j / a directly (no sign alternation is
    needed for a genuinely periodic boundary).  The kinetic block
    F^-1 diag(K) F is the circulant c[(i - j) mod n] with c = ifft(K), built
    from one length-n transform per k as in ``build_spectral_hamiltonian``.
    Returns an array of shape (len(quasimomenta), n_bands) with the lowest
    bands in ascending order.
    """
    if not 0 < lattice_constant < np.inf:
        raise ValueError("lattice_constant must be positive and finite, "
                         f"got {lattice_constant!r}")
    if n_bands < 1 or n_cell_grid < 2:
        raise ValueError("need n_bands >= 1 and n_cell_grid >= 2")
    if n_bands > n_cell_grid:
        raise ValueError(f"n_bands={n_bands} exceeds n_cell_grid={n_cell_grid}")
    a = float(lattice_constant)
    n = int(n_cell_grid)
    hbar = cell_spec.hbar
    x = np.arange(n) * (a / n)
    p = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=a / n)
    u = np.asarray(cell_spec.potential(0.0, x), dtype=float)
    bands = np.empty((len(quasimomenta), n_bands))
    for i, k in enumerate(quasimomenta):
        kdiag = np.asarray(cell_spec.kinetic(0.0, p + hbar * k), dtype=float)
        h = _circulant(_fft(kdiag.astype(complex), inverse=True), u)
        bands[i, :] = _hermitian_solve(h, vectors=False, tol=1e-10)[:n_bands]
    return bands


def spectrum_via_propagation(psi0, spec: HamiltonianSpec, duration: float,
                             dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Spectral density from the autocorrelation of a split-operator propagation.

    Records a(t) = <psi(0)|psi(t)> on t_m = m dt over [0, T) and returns
    (energies, |inverse transform of a|).  Peaks sit at the eigenvalues
    present in psi0 with weights proportional to |c_n|^2, broadened to sinc
    lobes of width 2 pi hbar / T by the finite window.
    """
    # local import: tdse depends on this module
    from .tdse import SplitStepEngine

    n_steps = step_count(duration, dt)
    if n_steps < 2:
        raise ValueError("duration must be a positive integer multiple of dt")
    if n_steps % 2 != 0:
        raise ValueError("duration/dt must be even so the energy grid is centered")
    grid = psi0.grid
    hbar = spec.hbar
    auto = np.empty(n_steps, dtype=complex)
    ref = np.conj(psi0.values)
    auto[0] = np.sum(ref * psi0.values) * grid.dx
    engine = SplitStepEngine(grid, spec)
    for m, values in engine.run(psi0.values, 0.0, dt, n_steps - 1):
        auto[m] = np.sum(ref * values) * grid.dx
    total = n_steps * dt
    k = np.arange(n_steps)
    energies = (k - n_steps // 2) * (2.0 * np.pi * hbar / total)
    density = np.abs(n_steps * _fft(_alt_signs(n_steps) * auto, inverse=True))
    density = density * dt / np.sqrt(2.0 * np.pi * hbar)
    return energies, density


def find_spectral_peaks(energies: np.ndarray, density: np.ndarray,
                        rel_threshold: float = 0.05) -> np.ndarray:
    """Locations of local maxima above ``rel_threshold`` of the global maximum."""
    d = np.asarray(density)
    floor = rel_threshold * d.max()
    interior = np.arange(1, len(d) - 1)
    mask = (d[interior] > d[interior - 1]) & (d[interior] >= d[interior + 1]) \
        & (d[interior] > floor)
    return np.asarray(energies)[interior[mask]]
