"""Uniform position/momentum grids and discrete bridges to the continuous Fourier transform.

The centered grid x_k = (k - n/2) dx together with the conjugate grid
p_k = (k - n/2) pi hbar / L turns the FFT into an approximation of the
continuous transform  g(p) = int f(x) exp(-i x p / hbar) dx  through a
sign-alternation trick valid when n is divisible by 4.  A fractional
Fourier transform (chirp factorization) removes the fixed-momentum-step
restriction.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .steps import require

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class UniformGrid:
    """Centered n-point position grid on [-L, L) with its induced momentum grid.

    The right endpoint +L is excluded: x runs from -L to L - dx in steps of
    dx = 2L/n.  The momentum grid p_k = (k - n/2) pi hbar / L satisfies
    dx * dp = 2 pi hbar / n exactly.
    """

    n: int
    half_width: float
    hbar: float
    dx: float
    x: np.ndarray
    p_fft: np.ndarray

    def require_fft_bridge(self) -> None:
        if self.n % 4 != 0:
            raise ValueError(
                f"grid size n={self.n} must be divisible by 4 for the "
                "sign-alternation FFT bridge"
            )


@dataclass(frozen=True)
class HamiltonianSpec:
    """H = K(t, p) + U(t, x) through two real-valued callables.

    A mass enters through K only.  ``time_independent`` (keyword only)
    states that K and U ignore t, so split-operator stepping may evaluate
    them once and reuse their phases; it changes no result beyond rounding.
    """

    kinetic: Callable[[float, np.ndarray], np.ndarray]
    potential: Callable[[float, np.ndarray], np.ndarray]
    hbar: float = 1.0
    _: KW_ONLY
    time_independent: bool = False


def make_grid(half_width: float, n: int, hbar: float = 1.0) -> UniformGrid:
    """Build a UniformGrid.

    Parameters
    ----------
    half_width : float
        L > 0; the grid covers [-L, L) with the right endpoint excluded.
    n : int
        Number of points; must be even and at least 4.
    hbar : float
        Action scale entering the transform kernel exp(-i x p / hbar).
    """
    require("half_width", half_width, above=0)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got n={n}")
    require("hbar", hbar, above=0)
    dx = 2.0 * half_width / n
    k = np.arange(n)
    x = (k - n // 2) * dx
    p = (k - n // 2) * (np.pi * hbar / half_width)
    return UniformGrid(n=int(n), half_width=float(half_width), hbar=float(hbar),
                       dx=dx, x=x, p_fft=p)


@dataclass
class SpectralSignal:
    """Complex samples over a UniformGrid, tagged position- or momentum-space.

    ``momenta`` carries the momentum axis when it differs from the grid's
    induced one (output of :func:`cft_forward_custom`); otherwise it defaults
    to ``grid.p_fft`` for momentum-space signals.
    """

    values: np.ndarray
    grid: UniformGrid
    space: str
    momenta: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"signal length {self.values.shape} does not match grid size {self.grid.n}"
            )
        if self.space not in (POSITION, MOMENTUM):
            raise ValueError(f"space must be '{POSITION}' or '{MOMENTUM}', got {self.space!r}")
        if self.momenta is None and self.space == MOMENTUM:
            self.momenta = self.grid.p_fft


@lru_cache(maxsize=64)
def _alt_signs(n: int) -> np.ndarray:
    """(-1)^k for k < n, shared read-only between callers."""
    s = 1.0 - 2.0 * (np.arange(n) % 2)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=None)
def _gufuncs():
    """numpy's pocketfft (fft, ifft) gufuncs, imported on first use so that
    importing dynkit loads no numpy.fft."""
    from numpy.fft import _pocketfft_umath
    return _pocketfft_umath.fft, _pocketfft_umath.ifft


def _fft(w, axis=-1, inverse=False):
    """FFT of the complex array ``w`` along ``axis``, or the inverse with its
    1/n, in place; returns ``w``.

    This is the one call of numpy's FFT in dynkit.  It is ``np.fft.fft`` or
    ``ifft`` bit for bit (the same gufunc, factor and axes) without their
    Python wrapper, which costs about as much as the transform itself at
    n = 256.  ``axes=`` is passed only for an axis other than the last,
    where it would cost a third of a microsecond more per call.
    """
    transform = _gufuncs()[inverse]
    fct = 1.0 / w.shape[axis] if inverse else 1.0
    if axis == -1 or axis == w.ndim - 1:
        return transform(w, fct, out=w)
    return transform(w, fct, axes=[(axis,), (), (axis,)], out=w)


def _bridge(w, axis, inverse=False):
    """(-1)^k FFT[(-1)^l w_l] along ``axis``, or the inverse, in place in the
    complex array ``w``, whose length n along ``axis`` has n % 4 == 0."""
    n = w.shape[axis]
    if n % 4 != 0:
        raise ValueError(f"axis length {n} must be divisible by 4 for the FFT bridge")
    # (-1)^k along axis, broadcast over the axes after it
    s = _alt_signs(n)[(slice(None),) + (None,) * (w.ndim - 1 - axis % w.ndim)]
    np.multiply(s, w, out=w)
    _fft(w, axis, inverse)
    return np.multiply(s, w, out=w)


def fft_bridge(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Kernel sum_l f_l exp(-2 pi i (k - n/2)(l - n/2)/n) via one FFT.

    Equals (-1)^k FFT[(-1)^l f_l] for n divisible by 4; no measure factor.
    Returns a fresh array; ``values`` is not changed.
    """
    return _bridge(np.array(values, dtype=complex), axis)


def ifft_bridge(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Exact inverse of :func:`fft_bridge` (includes the 1/n of the iFFT)."""
    return _bridge(np.array(values, dtype=complex), axis, inverse=True)


def cft_forward(signal: SpectralSignal, normalized: bool = False) -> SpectralSignal:
    """Continuous forward transform g(p_k) ~ int f(x) exp(-i x p_k / hbar) dx.

    Computed as (-1)^k FFT[(-1)^l f(x_l)] dx on the induced momentum grid.
    The caller is responsible for f vanishing near the edges +-L.  With
    ``normalized=True`` the symmetric 1/sqrt(2 pi hbar) convention is applied.
    """
    if signal.space != POSITION:
        raise ValueError("cft_forward expects a position-space signal")
    grid = signal.grid
    g = fft_bridge(signal.values) * grid.dx
    if normalized:
        g = g / np.sqrt(2.0 * np.pi * grid.hbar)
    return SpectralSignal(g, grid, MOMENTUM)


def cft_inverse(signal: SpectralSignal, normalized: bool = False) -> SpectralSignal:
    """Inverse of :func:`cft_forward`; roundtrip is the identity."""
    if signal.space != MOMENTUM:
        raise ValueError("cft_inverse expects a momentum-space signal")
    grid = signal.grid
    f = ifft_bridge(signal.values) / grid.dx
    if normalized:
        f = f * np.sqrt(2.0 * np.pi * grid.hbar)
    return SpectralSignal(f, grid, POSITION)


def frft(x: np.ndarray, alpha: float) -> np.ndarray:
    """Fractional Fourier transform y_k = sum_l x_l exp(-2 pi i k l alpha).

    Evaluated in O(n log n) by the chirp (Bluestein) factorization
    kl = (k^2 + l^2 - (k-l)^2)/2, i.e. a pre-chirp, a convolution with the
    conjugate chirp, and a post-chirp, zero-padded to the next power of two
    >= 2n - 1.  For alpha = 1/n this is the plain DFT.  A non-finite alpha
    raises ValueError.
    """
    require("alpha", alpha)
    x = np.asarray(x, dtype=complex)
    n = x.size
    if n == 0:
        return x.copy()
    l = np.arange(n)
    chirp = np.exp(-1j * np.pi * alpha * l * l)
    m = 1 << (2 * n - 2).bit_length()  # next power of two >= 2n - 1
    a = np.zeros(m, dtype=complex)
    a[:n] = x * chirp
    b = np.zeros(m, dtype=complex)
    b[:n] = np.conj(chirp)
    b[m - n + 1:] = np.conj(chirp[1:][::-1])
    _fft(a)
    a *= _fft(b)
    return chirp * _fft(a, inverse=True)[:n]


def cft_forward_custom(signal: SpectralSignal, dp: float,
                       normalized: bool = False) -> SpectralSignal:
    """Forward transform onto an arbitrary momentum grid p_k = (k - n/2) dp.

    Uses g(p_k) = dx exp(i pi (k - n/2) n delta) FRFT^(delta)[f_l exp(i pi l n delta)]
    with delta = dx dp / (2 pi hbar), so the momentum spacing is decoupled from
    the grid geometry.  At dp = pi hbar / L this reproduces :func:`cft_forward`.
    """
    if signal.space != POSITION:
        raise ValueError("cft_forward_custom expects a position-space signal")
    require("dp", dp, above=0)
    grid = signal.grid
    n = grid.n
    delta = grid.dx * dp / (2.0 * np.pi * grid.hbar)
    k = np.arange(n)
    inner = signal.values * np.exp(1j * np.pi * k * n * delta)
    y = frft(inner, delta)
    g = grid.dx * np.exp(1j * np.pi * (k - n // 2) * n * delta) * y
    if normalized:
        g = g / np.sqrt(2.0 * np.pi * grid.hbar)
    momenta = (k - n // 2) * dp
    return SpectralSignal(g, grid, MOMENTUM, momenta=momenta)
