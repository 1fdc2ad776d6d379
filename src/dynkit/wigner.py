"""Wigner phase-space representation and the two-surface Moyal propagator.

The density-matrix anti-diagonals rho(x - h t/2, x + h t/2) are resampled
without interpolation by giving the transform variable the spacing 2 dx/hbar,
so every half-shift lands exactly on a grid point.  Centers then live on a
half-spaced axis (2n points): even centers reuse the original grid, odd
centers use a half-shifted transform grid, which makes the map between
density matrices and Wigner arrays exactly invertible.

The two-electronic-state molecule model propagates a 2x2 matrix of Wigner
functions by a sandwich of position-space rotations T(x -/+ h theta/2) and a
kinetic shear applied in the axis conjugate to position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HermiticityError
from .grids import UniformGrid, fft_bridge, ifft_bridge
from .open_systems import DensityMatrix


@dataclass
class WignerFunction:
    """Real phase-space array W[x_index, p_index] with its axes."""

    values: np.ndarray
    x: np.ndarray
    p: np.ndarray
    hbar: float
    grid: UniformGrid | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.x), len(self.p)):
            raise ValueError("Wigner array shape does not match its axes")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def normalization(self) -> float:
        return float(self.values.sum() * self.dx * self.dp)


@dataclass
class TwoStateWigner:
    """Wigner matrix of a two-surface system: real diagonals, complex coherence.

    The (excited, ground) block is the conjugate of ``w_ge`` by hermiticity,
    so only one off-diagonal array is stored.
    """

    w_g: np.ndarray
    w_e: np.ndarray
    w_ge: np.ndarray
    x: np.ndarray
    p: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        self.w_g = np.asarray(self.w_g, dtype=float)
        self.w_e = np.asarray(self.w_e, dtype=float)
        self.w_ge = np.asarray(self.w_ge, dtype=complex)
        shape = (len(self.x), len(self.p))
        for block in (self.w_g, self.w_e, self.w_ge):
            if block.shape != shape:
                raise ValueError("Wigner blocks must match the axis shape")

    def total_weight(self) -> float:
        dx = self.x[1] - self.x[0]
        dp = self.p[1] - self.p[0]
        return float((self.w_g + self.w_e).sum() * dx * dp)


@dataclass(frozen=True)
class MoleculeSpec:
    """Two-surface molecule: K(p), adiabatic curves, dipole and laser pulse.

    The coupling is V_eg(x, t) = -dipole(x) * pulse(t).
    """

    kinetic: Callable[[np.ndarray], np.ndarray]
    v_ground: Callable[[np.ndarray], np.ndarray]
    v_excited: Callable[[np.ndarray], np.ndarray]
    dipole: Callable[[np.ndarray], np.ndarray]
    pulse: Callable[[float], float]
    hbar: float = 1.0


def _wigner_axes(grid: UniformGrid):
    n = grid.n
    dxw = grid.dx / 2.0
    x_w = (np.arange(2 * n) - n) * dxw
    dtheta = 2.0 * grid.dx / grid.hbar
    dp = 2.0 * np.pi / (n * dtheta)
    p_w = (np.arange(n) - n // 2) * dp
    return x_w, p_w, dtheta


#: Amplitudes gathered per block of centers: 128 centers at n = 1024.  It
#: bounds the transforms' working memory beside the (2n, n) result.
_BLOCK_AMPLITUDES = 1 << 17


def _center_blocks(n: int):
    """Yield (first center, bra, ket, valid) per block of centers on the half-spaced axis.

    Center c pairs bra c//2 - u with ket (c+1)//2 + u, u = m - n/2, so it
    is the anti-diagonal bra + ket = c of rho.  Blocks hold an even number
    of centers and start at an even one, so odd centers are rows 1::2.
    """
    u = np.arange(n) - n // 2
    size = 2 * max(1, _BLOCK_AMPLITUDES // (2 * n))
    for start in range(0, 2 * n, size):
        c = np.arange(start, min(start + size, 2 * n))[:, None]
        bra, ket = c // 2 - u, (c + 1) // 2 + u
        yield start, bra, ket, (bra >= 0) & (bra < n) & (ket >= 0) & (ket < n)


def wigner_from_density(rho: DensityMatrix) -> WignerFunction:
    """W(x, p) = (1/2 pi) int <x - h t/2| rho |x + h t/2> exp(i p t) dt.

    Returns a (2n, n) real array on the half-spaced position axis and the
    transform-conjugate momentum axis (spacing pi hbar / 2L).  A hermiticity
    violation (imaginary residue above 1e-8) is an error; smaller residues
    are discarded.
    """
    if rho.grid is None:
        raise ValueError("wigner_from_density needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    n = grid.n
    x_w, p_w, dtheta = _wigner_axes(grid)
    half_shift = np.exp(1j * np.pi * (np.arange(n) - n // 2) / n)
    out = np.empty((2 * n, n))
    residue = 0.0
    for start, bra, ket, valid in _center_blocks(n):
        f = np.zeros(bra.shape, dtype=complex)
        f[valid] = rho.values[bra[valid], ket[valid]]
        rows = n * ifft_bridge(f, axis=1) * (dtheta / (2.0 * np.pi))
        rows[1::2] *= half_shift
        residue = max(residue, float(np.max(np.abs(rows.imag))))
        out[start:start + len(rows)] = rows.real
    if residue > 1e-8:
        raise HermiticityError(
            f"Wigner transform imaginary residue {residue:.3e} exceeds 1e-8"
        )
    return WignerFunction(out, x_w, p_w, grid.hbar, grid=grid)


def density_from_wigner(w: WignerFunction,
                        grid: UniformGrid | None = None) -> DensityMatrix:
    """Exact inverse of :func:`wigner_from_density`."""
    grid = grid if grid is not None else w.grid
    if grid is None:
        raise ValueError("supply the UniformGrid the Wigner function came from")
    n = grid.n
    if w.values.shape != (2 * n, n):
        raise ValueError("Wigner array shape does not match the grid")
    dp = w.dp
    half_shift = np.exp(-1j * np.pi * (np.arange(n) - n // 2) / n)
    rho = np.zeros((n, n), dtype=complex)
    for start, bra, ket, valid in _center_blocks(n):
        rows = w.values[start:start + len(bra)].astype(complex)
        rows[1::2] *= half_shift
        f = fft_bridge(rows, axis=1) * dp
        rho[bra[valid], ket[valid]] = f[valid]
    return DensityMatrix(rho, grid)


def wigner_marginals(w: WignerFunction) -> tuple[np.ndarray, np.ndarray]:
    """(coordinate distribution, momentum distribution) by integrating out the other axis."""
    return w.values.sum(axis=1) * w.dp, w.values.sum(axis=0) * w.dx


def _sandwich_blocks(tl, blocks, tr):
    """2x2 matrix product T_left @ blocks @ T_right, all entries arrays."""
    (l11, l12), (l21, l22) = tl
    (b11, b12), (b21, b22) = blocks
    (r11, r12), (r21, r22) = tr
    m11 = l11 * b11 + l12 * b21
    m12 = l11 * b12 + l12 * b22
    m21 = l21 * b11 + l22 * b21
    m22 = l21 * b12 + l22 * b22
    return ((m11 * r11 + m12 * r21, m11 * r12 + m12 * r22),
            (m21 * r11 + m22 * r21, m21 * r12 + m22 * r22))


def _rotation_entries(spec: MoleculeSpec, q: np.ndarray, v_g: np.ndarray,
                      v_e: np.ndarray, t: float, dt: float):
    """Entries of T(q) = exp[-(i dt/hbar)(sigma_x V_eg + sigma_z (V_g - V_e)/2)].

    ``v_g`` and ``v_e`` are the surfaces already evaluated on q.
    """
    hbar = spec.hbar
    v_eg = -np.asarray(spec.dipole(q)) * spec.pulse(t)
    half_gap = 0.5 * (v_g - v_e)
    d = np.sqrt(v_eg ** 2 + half_gap ** 2)
    c = np.cos(d * dt / hbar)
    s = (dt / hbar) * np.sinc(d * dt / (hbar * np.pi))  # sin(D dt/hbar)/D
    ll = s * v_eg
    mm = s * half_gap
    return ((c - 1j * mm, -1j * ll), (-1j * ll, c + 1j * mm))


def _dagger(tmat):
    (a11, a12), (a21, a22) = tmat
    return ((np.conj(a11), np.conj(a21)), (np.conj(a12), np.conj(a22)))


def moyal_two_state_step(w2: TwoStateWigner, t: float, dt: float,
                         spec: MoleculeSpec,
                         symmetrize: bool = False) -> TwoStateWigner:
    """One step of the two-surface phase-space propagator.

    Transforms p -> theta, applies T(x - h theta/2) ... T(x + h theta/2)^H
    together with the mean-potential phase, transforms back, then applies the
    kinetic shear exp[(i dt/hbar)(K(p - h lambda/2) - K(p + h lambda/2))] in
    the axis conjugate to x.  First order in dt as displayed; ``symmetrize``
    splits the kinetic shear around the potential sandwich for a symmetric
    composition.

    The centered conjugate grids carry one unpaired Nyquist slot (the -max
    frequency has no +max partner); content there cannot respect the
    reflection symmetry that keeps the blocks hermitian, so it is projected
    out after each forward transform.
    """
    hbar = spec.hbar
    n_x, n_p = w2.w_g.shape
    if n_x % 4 or n_p % 4:
        raise ValueError("both Wigner axes must be divisible by 4")
    x = np.asarray(w2.x)
    p = np.asarray(w2.p)
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    tm = t + dt / 2.0

    theta = (np.arange(n_p) - n_p // 2) * (2.0 * np.pi / (n_p * dp))
    lam = (np.arange(n_x) - n_x // 2) * (2.0 * np.pi / (n_x * dx))

    x_minus = x[:, None] - 0.5 * hbar * theta[None, :]
    x_plus = x[:, None] + 0.5 * hbar * theta[None, :]
    p_minus = p[None, :] - 0.5 * hbar * lam[:, None]
    p_plus = p[None, :] + 0.5 * hbar * lam[:, None]
    shear = (1j * dt / hbar) * (np.asarray(spec.kinetic(p_minus))
                                - np.asarray(spec.kinetic(p_plus)))
    vg_minus, vg_plus = (np.asarray(spec.v_ground(q)) for q in (x_minus, x_plus))
    ve_minus, ve_plus = (np.asarray(spec.v_excited(q)) for q in (x_minus, x_plus))
    mean_phase = np.exp((0.5j * dt / hbar)
                        * (vg_plus - vg_minus + ve_plus - ve_minus))

    blocks = ((w2.w_g.astype(complex), w2.w_ge.astype(complex)),
              (np.conj(w2.w_ge), w2.w_e.astype(complex)))

    def drop_nyquist(b, axis):
        b = b.copy()
        if axis == 0:
            b[0, :] = 0.0
        else:
            b[:, 0] = 0.0
        return b

    def kinetic(blocks, shear):
        return tuple(tuple(ifft_bridge(
            shear * drop_nyquist(fft_bridge(b, axis=0), 0), axis=0)
            for b in row) for row in blocks)

    def potential(blocks):
        transformed = tuple(tuple(drop_nyquist(fft_bridge(b, axis=1), 1)
                                  for b in row) for row in blocks)
        tl = _rotation_entries(spec, x_minus, vg_minus, ve_minus, tm, dt)
        tr = _dagger(_rotation_entries(spec, x_plus, vg_plus, ve_plus, tm, dt))
        sandwiched = _sandwich_blocks(tl, transformed, tr)
        sandwiched = tuple(tuple(mean_phase * b for b in row)
                           for row in sandwiched)
        return tuple(tuple(ifft_bridge(b, axis=1) for b in row)
                     for row in sandwiched)

    if symmetrize:
        half_shear = np.exp(0.5 * shear)
        blocks = kinetic(blocks, half_shear)
        blocks = potential(blocks)
        blocks = kinetic(blocks, half_shear)
    else:
        blocks = potential(blocks)
        blocks = kinetic(blocks, np.exp(shear))

    (gg, ge), (eg, ee) = blocks
    residue = max(float(np.max(np.abs(gg.imag))), float(np.max(np.abs(ee.imag))),
                  float(np.max(np.abs(eg - np.conj(ge)))))
    if residue > 1e-8:
        raise HermiticityError(
            f"two-state Wigner structure residue {residue:.3e} exceeds 1e-8"
        )
    return TwoStateWigner(gg.real, ee.real, ge, w2.x, w2.p, hbar)
