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
from .grids import UniformGrid, _bridge
from .steps import require
from .tdse import WaveFunction, _two_level_rotation


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
    so only one off-diagonal array is stored.  The blocks are kept as given,
    without a copy: those of a ``moyal_two_state_step`` result are views.
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

    The coupling is V_eg(x, t) = -dipole(x) * pulse(t).  The Moyal step
    takes hbar from the stepped ``TwoStateWigner``.
    """

    kinetic: Callable[[np.ndarray], np.ndarray]
    v_ground: Callable[[np.ndarray], np.ndarray]
    v_excited: Callable[[np.ndarray], np.ndarray]
    dipole: Callable[[np.ndarray], np.ndarray]
    pulse: Callable[[float], float]


def _wigner_axes(grid: UniformGrid):
    n = grid.n
    dxw = grid.dx / 2.0
    x_w = (np.arange(2 * n) - n) * dxw
    dtheta = 2.0 * grid.dx / grid.hbar
    dp = 2.0 * np.pi / (n * dtheta)
    p_w = (np.arange(n) - n // 2) * dp
    return x_w, p_w, dtheta


#: Amplitudes gathered per block of centers: 32 centers at n = 1024.  It
#: bounds the transforms' working memory beside the (2n, n) result.
_BLOCK_AMPLITUDES = 1 << 15


def _block_rows(n: int) -> int:
    """Centers per block: even, so that every block starts at an even center."""
    return 2 * max(1, _BLOCK_AMPLITUDES // (2 * n))


def _center_blocks(n: int):
    """Yield (first center, bra, ket, valid) per block of centers on the half-spaced axis.

    Center c pairs bra c//2 - u with ket (c+1)//2 + u, u = m - n/2, so it
    is the anti-diagonal bra + ket = c of rho.  Blocks hold an even number
    of centers and start at an even one, so odd centers are rows 1::2.
    Every block is written into the same three arrays, so a block's arrays
    hold until the next block is drawn.
    """
    u = np.arange(n) - n // 2
    size = _block_rows(n)
    bras, kets = np.empty((2, size, n), dtype=np.int64)
    valids = np.empty((size, n), dtype=bool)
    for start in range(0, 2 * n, size):
        c = np.arange(start, min(start + size, 2 * n))[:, None]
        bra, ket, valid = bras[:len(c)], kets[:len(c)], valids[:len(c)]
        np.subtract(c // 2, u, out=bra)
        np.add((c + 1) // 2, u, out=ket)
        # 0 <= i < n as one unsigned compare: a negative i wraps above n
        np.less(bra.view(np.uint64), n, out=valid)
        valid &= ket.view(np.uint64) < n
        yield start, bra, ket, valid


def _wigner_rows(rho: DensityMatrix | WaveFunction):
    """Yield the real rows of W, one block of centers at a time, in center order.

    Each block is a view into a work block that the next block overwrites.
    A hermiticity violation raises ``HermiticityError`` after the last block.
    """
    grid = rho.grid
    grid.require_fft_bridge()
    n = grid.n
    if isinstance(rho, WaveFunction):
        psi = rho.values

        def gather(rows, spare, bra, ket):
            # clipped indices fill the entries off the matrix, zeroed later
            np.take(psi, bra, mode="clip", out=rows)
            np.take(psi, ket, mode="clip", out=spare)
            rows *= np.conj(spare, out=spare)
    else:
        flat = rho.values.ravel()  # a copy only for a matrix not in C order
        index = np.empty((_block_rows(n), n), dtype=np.int64)

        def gather(rows, spare, bra, ket):
            # flat entry bra n + ket, clipped like the wave-function gather
            at = index[:len(rows)]
            np.multiply(bra, n, out=at)
            at += ket
            np.take(flat, at, mode="clip", out=rows)
    dtheta = _wigner_axes(grid)[2]
    half_shift = np.exp(1j * np.pi * (np.arange(n) - n // 2) / n)
    scale = dtheta / (2.0 * np.pi)
    work, spares = np.empty((2, _block_rows(n), n), dtype=complex)
    residue = 0.0
    for _, bra, ket, valid in _center_blocks(n):
        rows, spare = work[:len(bra)], spares[:len(bra)]
        gather(rows, spare, bra, ket)
        np.copyto(rows, 0.0, where=~valid)
        # n ifft_bridge(rows) dtheta / 2 pi, each factor applied in place
        _bridge(rows, 1, inverse=True)
        np.multiply(rows, n, out=rows)
        np.multiply(rows, scale, out=rows)
        rows[1::2] *= half_shift
        imag = np.abs(rows.imag, out=spare.real)
        residue = np.maximum(residue, np.max(imag))  # keeps NaN
        yield rows.real
    if not residue <= 1e-8:  # also refuses a NaN residue
        raise HermiticityError(
            f"Wigner transform imaginary residue {residue:.3e} exceeds 1e-8"
        )


def wigner_from_density(rho: DensityMatrix | WaveFunction) -> WignerFunction:
    """W(x, p) = (1/2 pi) int <x - h t/2| rho |x + h t/2> exp(i p t) dt.

    Returns a (2n, n) real array on the half-spaced position axis and the
    transform-conjugate momentum axis (spacing pi hbar / 2L).  A hermiticity
    violation (imaginary residue above 1e-8) is an error; smaller residues
    are discarded.  A wave function psi is read as rho = |psi><psi| without
    forming that n x n matrix: each block multiplies psi[bra] by
    conj(psi)[ket], the entries of ``pure_state_density(psi)`` bit for bit.
    Each block of centers is gathered into one work block, and its bridged
    transform is taken there in place, so besides the result the transform
    holds two blocks of ``_BLOCK_AMPLITUDES`` amplitudes.
    """
    if rho.grid is None:
        raise ValueError("wigner_from_density needs a grid density matrix")
    grid = rho.grid
    out = np.empty((2 * grid.n, grid.n))
    start = 0
    for rows in _wigner_rows(rho):
        out[start:start + len(rows)] = rows
        start += len(rows)
    x_w, p_w, _ = _wigner_axes(grid)
    return WignerFunction(out, x_w, p_w, grid.hbar, grid=grid)


def density_from_wigner(w: WignerFunction,
                        grid: UniformGrid | None = None) -> DensityMatrix:
    """Exact inverse of :func:`wigner_from_density`."""
    # local import: runs that only build Wigner functions need no open_systems
    from .open_systems import DensityMatrix

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
        f = _bridge(rows, 1) * dp
        rho[bra[valid], ket[valid]] = f[valid]
    return DensityMatrix(rho, grid)


def wigner_marginals(w: WignerFunction) -> tuple[np.ndarray, np.ndarray]:
    """(coordinate distribution, momentum distribution) by integrating out the other axis."""
    return w.values.sum(axis=1) * w.dp, w.values.sum(axis=0) * w.dx


def _product(a, b):
    """2x2 matrix product a @ b of nested tuples, all entries arrays."""
    (a11, a12), (a21, a22) = a
    (b11, b12), (b21, b22) = b
    return ((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
            (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))


def _rotation_entries(spec: MoleculeSpec, q: np.ndarray, v_g: np.ndarray,
                      v_e: np.ndarray, t: float, dt: float, hbar: float):
    """Entries of T(q) = exp[-(i dt/hbar)(sigma_x V_eg + sigma_z (V_g - V_e)/2)].

    ``v_g`` and ``v_e`` are the surfaces already evaluated on q.
    """
    v_eg = -np.asarray(spec.dipole(q)) * spec.pulse(t)
    return _two_level_rotation(v_eg, 0.0, 0.5 * (v_g - v_e), dt, hbar)


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
    composition.  hbar (h) is the state's ``w2.hbar``.

    The centered conjugate grids carry one unpaired Nyquist slot (the -max
    frequency has no +max partner); content there cannot respect the
    reflection symmetry that keeps the blocks hermitian, so it is projected
    out after each forward transform.

    The returned ``w_g``, ``w_e`` (real parts) and ``w_ge`` are views into
    the step's one complex (2, 2, nx, np) array, so each returned state keeps
    64 bytes per phase-space point alive.  A caller that keeps snapshots
    should keep copies of the blocks it needs.
    """
    require("dt", dt)
    hbar = w2.hbar
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

    b = np.array([[w2.w_g, w2.w_ge], [np.conj(w2.w_ge), w2.w_e]], dtype=complex)

    # Each factor is the first operand: numpy's complex multiply is not
    # bitwise commutative, and this order keeps the per-block results.
    def kinetic(factor):
        _bridge(b, 2)
        b[:, :, 0] = 0.0
        np.multiply(factor, b, out=b)
        _bridge(b, 2, inverse=True)

    def potential():
        _bridge(b, 3)
        b[..., 0] = 0.0
        tl = _rotation_entries(spec, x_minus, vg_minus, ve_minus, tm, dt, hbar)
        tr = _dagger(_rotation_entries(spec, x_plus, vg_plus, ve_plus, tm, dt, hbar))
        (b[0, 0], b[0, 1]), (b[1, 0], b[1, 1]) = _product(_product(tl, b), tr)
        np.multiply(mean_phase, b, out=b)
        _bridge(b, 3, inverse=True)

    if symmetrize:
        half_shear = np.exp(0.5 * shear)
        kinetic(half_shear)
        potential()
        kinetic(half_shear)
    else:
        potential()
        kinetic(np.exp(shear))

    (gg, ge), (eg, ee) = b
    residue = np.max([np.max(np.abs(gg.imag)), np.max(np.abs(ee.imag)),
                      np.max(np.abs(eg - np.conj(ge)))])
    if not residue <= 1e-8:  # also refuses a NaN residue
        raise HermiticityError(
            f"two-state Wigner structure residue {residue:.3e} exceeds 1e-8"
        )
    return TwoStateWigner(gg.real, ee.real, ge, w2.x, w2.p, hbar)
