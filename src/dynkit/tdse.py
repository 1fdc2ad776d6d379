"""Split-operator evolution of wave functions on uniform grids.

Second-order stepping alternates half-potential and full-kinetic phase
factors joined by the FFT bridge; a triple-jump composition upgrades the
order to four.  The same stepper runs in imaginary time (complex dt) for
ground/excited-state filtering and spectral-gap extraction, and a
two-component variant handles Hamiltonians with an internal two-level
degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError
from .grids import (HamiltonianSpec, UniformGrid, _alt_signs, _bridge, _fft,
                    fft_bridge)
from .steps import (GAP_MIN_STEPS, require, require_count, require_one_hbar,
                    require_step, step_count)

#: Trailing fraction of the recorded imaginary-time window over which the gap
#: fit takes the decay slope of ln|<[H, O]>|.
GAP_FIT_FRACTION = 0.4

#: Triple-jump substep coefficient, the real root of 2 s^3 + (1 - 2s)^3 = 0.
TRIPLE_JUMP_S = 2.0 ** (1.0 / 3.0) / 3.0 + 2.0 ** (2.0 / 3.0) / 6.0 + 2.0 / 3.0

#: Amplitudes per block of states whose observables are computed together;
#: 2**17 raised the wave-packet workload's peak memory by a quarter.
_BLOCK_AMPLITUDES = 2 ** 13

#: Longest inner product handed to one BLAS dot call.  OpenBLAS splits a dot
#: of more than 10000 elements across its threads, and the sum then depends
#: on the thread count.
_DOT_CHUNK = 2 ** 13


def _rowdot(a: np.ndarray, b: np.ndarray):
    """np.vecdot(a, b), sum(conj(a) * b) over the last axis, with BLAS dot calls
    of at most _DOT_CHUNK elements.

    Each row of a block gets ``np.dot(row, b)`` (``np.vdot`` if complex) bit
    for bit, whatever the block size, the alignment or the thread count.
    """
    n = a.shape[-1]
    if n <= _DOT_CHUNK:
        return np.vecdot(a, b)
    out = np.vecdot(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
    for start in range(_DOT_CHUNK, n, _DOT_CHUNK):
        stop = start + _DOT_CHUNK
        out = out + np.vecdot(a[..., start:stop], b[..., start:stop])
    return out


@dataclass
class WaveFunction:
    """Complex amplitudes over a UniformGrid."""

    values: np.ndarray
    grid: UniformGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"wave function length {self.values.shape} does not match "
                f"grid size {self.grid.n}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def normalized(self) -> "WaveFunction":
        return WaveFunction(self.values / self.norm(), self.grid)


@dataclass
class SpinorWaveFunction:
    """Two-component wave function (psi_1, psi_2) on a shared grid."""

    up: np.ndarray
    down: np.ndarray
    grid: UniformGrid

    def __post_init__(self):
        self.up = np.asarray(self.up, dtype=complex)
        self.down = np.asarray(self.down, dtype=complex)
        if self.up.shape != (self.grid.n,) or self.down.shape != (self.grid.n,):
            raise ValueError("spinor components must match the grid size")

    def norm(self) -> float:
        total = np.sum(np.abs(self.up) ** 2 + np.abs(self.down) ** 2) * self.grid.dx
        return float(np.sqrt(total))


@dataclass(frozen=True)
class PauliHamiltonianSpec:
    """H = sum_j [K_j(t, p) + U_j(t, x)] sigma_j with real component functions.

    ``kinetic`` and ``potential`` are 4-tuples indexed by j = 0..3 (identity
    and the three Pauli matrices); entries may be None for vanishing terms.
    The phases divide by the stepped spinor's ``grid.hbar``.
    """

    kinetic: Sequence[Callable | None]
    potential: Sequence[Callable | None]


@dataclass
class EvolutionTrace:
    """Per-sample observables collected while propagating."""

    times: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    energy: np.ndarray
    norm: np.ndarray


def gaussian_packet(grid: UniformGrid, x0: float = 0.0, p0: float = 0.0,
                    sigma: float = 1.0) -> WaveFunction:
    """Normalized Gaussian with position spread sigma, centered at (x0, p0)."""
    require("sigma", sigma, above=0)
    if not (np.isfinite(x0) and np.isfinite(p0)):
        raise ValueError(f"x0 and p0 must be finite, got {x0} and {p0}")
    psi = np.exp(-(grid.x - x0) ** 2 / (4.0 * sigma ** 2)
                 + 1j * p0 * grid.x / grid.hbar)
    out = WaveFunction(psi, grid)
    return out.normalized()


def _checked_mask(mask, n: int) -> np.ndarray:
    """``mask`` as floats; ValueError unless it has the grid's n points and its
    values lie in [0, 1]."""
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (n,):
        raise ValueError("mask length must match the grid")
    if not np.all((mask >= 0.0) & (mask <= 1.0)):  # NaN fails both
        raise ValueError("mask values must lie in [0, 1]")
    return mask


#: Substeps of one step as (start, length) fractions of dt: Strang (order 2)
#: and the triple jump (order 4).
_SUBSTEPS = {2: ((0.0, 1.0),),
             4: ((0.0, TRIPLE_JUMP_S), (TRIPLE_JUMP_S, 1.0 - 2.0 * TRIPLE_JUMP_S),
                 (1.0 - TRIPLE_JUMP_S, TRIPLE_JUMP_S))}


def _require_finite_phases(dt, **factors):
    for name, arrays in factors.items():
        if not all(np.isfinite(f).all() for f in arrays):
            raise ValueError(f"the {name} phase factor of a step of dt = {dt!r} "
                             f"is not finite; {name} must be finite on the grid")


class _StepPhases(NamedTuple):
    """x- and p-space factors of one step, per substep of length h."""

    kins: list  # exp(-i h K / hbar)
    inner: list  # products of adjacent half-potential phases exp(-i h U / 2 hbar)
    head: np.ndarray  # the first half-potential phase
    tail: np.ndarray  # the last one times the absorbing mask
    lead: np.ndarray  # (-1)^k head, applied before the first FFT
    out: np.ndarray  # (-1)^k tail, applied after the last inverse FFT


class SplitStepEngine:
    """Split-operator stepping of scalar wave functions for one (grid, spec).

    A substep of length h applies half-potential, kinetic and half-potential
    phases with the FFT bridge between x and p.  The bridge's (-1)^k signs
    are folded into the outer x-space factors, leaving plain FFTs, and each
    trailing half-kick is merged with the next leading one (and, between
    steps, with the optional absorbing ``mask``), since all are diagonal in
    x.  For a ``time_independent`` spec U and K are evaluated once and the
    phases cached per step length, so a Strang step costs two FFTs and two
    pointwise products; otherwise U and K are evaluated at every substep
    midpoint.  The momenta ``grid.p_fft`` come from ``grid.hbar``, while every
    phase divides by ``spec.hbar``, so a spec whose hbar differs is refused.
    """

    def __init__(self, grid: UniformGrid, spec: HamiltonianSpec,
                 mask: np.ndarray | None = None):
        grid.require_fft_bridge()
        require_one_hbar(spec.hbar, "grid.hbar", grid.hbar)
        self.grid, self.spec = grid, spec
        self.signs = _alt_signs(grid.n)
        self.mask = None if mask is None else _checked_mask(mask, grid.n)
        self._static = None
        if spec.time_independent:
            self._static = self.terms()
        self._phases: dict = {}  # (dt, order) -> _StepPhases, static specs only

    def terms(self, t: complex = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """(U(t, x), K(t, p)) as length-n arrays, evaluated once for a
        time-independent spec."""
        if self._static is not None:
            return self._static
        n = (self.grid.n,)
        return (np.broadcast_to(self.spec.potential(t, self.grid.x), n),
                np.broadcast_to(self.spec.kinetic(t, self.grid.p_fft), n))

    def _step_phases(self, t, dt, order) -> _StepPhases:
        if (dt, order) in self._phases:
            return self._phases[(dt, order)]
        halves, kins = [], []
        for start, length in _SUBSTEPS[order]:
            h = length * dt
            u, k = self.terms(t + start * dt + h / 2.0)
            halves.append(np.exp(-0.5j * h * u / self.spec.hbar))
            kins.append(np.exp(-1j * h * k / self.spec.hbar))
        _require_finite_phases(dt, U=halves, K=kins)
        tail = halves[-1] if self.mask is None else halves[-1] * self.mask
        phases = _StepPhases(kins, [a * b for a, b in zip(halves, halves[1:])],
                             halves[0], tail, self.signs * halves[0],
                             self.signs * tail)
        if self._static is not None:
            self._phases[(dt, order)] = phases
        return phases

    def _checked_phases(self, t0, dt, order) -> _StepPhases:
        require_step(dt)
        if order not in _SUBSTEPS:
            raise ValueError("order must be 2 or 4")
        if order == 4 and complex(dt).imag != 0:
            # the middle substep's length (1 - 2s) dt is negative, so with an
            # imaginary part it grows high momenta by exp(+0.70 |Im dt| K)
            raise ValueError(f"order 4 needs a real dt, got {dt!r}; the triple "
                             "jump's backward substep diverges in imaginary time")
        return self._step_phases(t0, dt, order)

    def _substeps(self, cur: _StepPhases, w: np.ndarray) -> np.ndarray:
        """Step ``w``, which carries ``cur.lead``, in place to one step later, before ``cur.out``."""
        for kick, kin in zip([None, *cur.inner], cur.kins):
            if kick is not None:
                np.multiply(kick, w, out=w)
            _fft(w)
            np.multiply(kin, w, out=w)
            _fft(w, inverse=True)
        return w

    def run(self, values: np.ndarray, t0: float, dt: complex, n_steps: int,
            order: int = 2, stride: int = 1) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (m, amplitudes at t0 + m dt) every ``stride`` steps and after the last.

        ``order`` selects Strang (2) or triple-jump (4) steps.  dt may be
        complex (Wick-rotated -i dtau).
        """
        require_count("n_steps", n_steps, 0)
        require_count("stride", stride, 1)
        cur = self._checked_phases(t0, dt, order)
        w = cur.lead * values
        across = None
        for m in range(1, n_steps + 1):
            self._substeps(cur, w)
            if m % stride == 0 or m == n_steps:
                yield m, cur.out * w
            if m < n_steps:
                nxt = self._step_phases(t0 + m * dt, dt, order)
                if across is None or nxt is not cur:
                    across = cur.tail * nxt.head
                np.multiply(across, w, out=w)
                cur = nxt

    def step(self, values: np.ndarray, t: float, dt: complex,
             order: int = 2) -> np.ndarray:
        """Amplitudes one step of length dt after ``values`` at time t.

        The first step of ``run``, bit for bit, without a generator.
        """
        cur = self._checked_phases(t, dt, order)
        w = self._substeps(cur, cur.lead * values)
        return np.multiply(cur.out, w, out=w)

    def energy(self, values: np.ndarray, t: float = 0.0) -> float:
        """<K(t,p)> + <U(t,x)>, the energy ``_observables`` gives a one-row block."""
        return float(_observables(self, [t], values[None])[2][0])

    def apply_hamiltonian(self, values: np.ndarray, t: float = 0.0) -> np.ndarray:
        """H psi = F^-1[K(t,p) F[psi]] + U(t,x) psi as raw amplitudes."""
        u, k = self.terms(t)
        return _bridge(k * fft_bridge(values), -1, inverse=True) + u * values

    def commutator(self, values: np.ndarray, observable: np.ndarray,
                   t: float = 0.0) -> complex:
        """<psi|[H, O]|psi> for a position-diagonal real O(x), per row of a block."""
        obs = np.asarray(observable, dtype=float)
        inner = _rowdot(self.apply_hamiltonian(values, t), obs * values)
        return 2j * (inner * self.grid.dx).imag


def _blocks(items, n: int) -> Iterator[list]:
    """Consecutive lists of ``max(1, _BLOCK_AMPLITUDES // n)`` of the items."""
    items, size = iter(items), max(1, _BLOCK_AMPLITUDES // n)
    while block := list(islice(items, size)):
        yield block


def _observables(engine: SplitStepEngine, times, rows: np.ndarray):
    """(x_mean, p_mean, energy, norm) arrays for the (m, n) block of states ``rows``.

    Each moment is one row inner product of |psi(x)|^2 or |psi(p)|^2 with its
    axis, divided by the row sum afterwards.  One FFT along axis 1, row sums
    and ``_rowdot`` give each row the per-state numbers bit for bit; a
    time-dependent spec is evaluated at each row's entry of ``times``.
    """
    grid = engine.grid
    prob = rows.real ** 2 + rows.imag ** 2
    total = np.sum(prob, axis=1)
    amplitudes = _fft(np.multiply(engine.signs, rows, dtype=complex))
    weights = amplitudes.real ** 2 + amplitudes.imag ** 2
    wsum = np.sum(weights, axis=1)
    if engine.spec.time_independent:
        u, k = engine.terms()
    else:
        u, k = map(np.array, zip(*map(engine.terms, times)))
    energy = _rowdot(weights, k) / wsum + _rowdot(prob, u) / total
    return (_rowdot(prob, grid.x) / total, _rowdot(weights, grid.p_fft) / wsum,
            energy, np.sqrt(total * grid.dx))


def split_op_step(psi: WaveFunction, t: float, dt: complex,
                  spec: HamiltonianSpec, order: int = 2) -> WaveFunction:
    """One Strang step (``order`` 2) or one triple-jump step (``order`` 4).

    A Strang step applies half-potential, full-kinetic and half-potential
    phases, all evaluated at the midpoint t + dt/2, giving local error
    O(dt^3); for real dt the step is exactly unitary up to rounding.  dt may
    be complex (Wick-rotated -i dtau) in which case the caller renormalizes.

    The triple jump composes three Strang substeps of lengths (s, 1-2s, s) dt
    with s = 2^(1/3)/3 + 2^(2/3)/6 + 2/3, cancelling the leading error term;
    each substep evaluates K and U at its own shifted midpoint, so the
    composition stays fourth order for time-dependent Hamiltonians.
    """
    values = SplitStepEngine(psi.grid, spec).step(psi.values, t, dt, order)
    return WaveFunction(values, psi.grid)


def propagate(psi0: WaveFunction, t0: float, t1: float, dt: float,
              spec: HamiltonianSpec, stride: int = 1, order: int = 2,
              absorbing_mask: np.ndarray | None = None
              ) -> tuple[WaveFunction, EvolutionTrace]:
    """Repeated stepping from t0 to t1 with observables sampled every ``stride`` steps.

    (t1 - t0)/dt must be a nonnegative integer.  ``order`` selects the Strang (2)
    or triple-jump (4) stepper; an optional absorbing mask is applied after
    every step.
    """
    n_steps = step_count(t1 - t0, dt)
    grid = psi0.grid
    engine = SplitStepEngine(grid, spec, absorbing_mask)
    steps = engine.run(psi0.values, t0, dt, n_steps, order, stride)
    samples = chain([(t0, psi0.values)], ((t0 + m * dt, v) for m, v in steps))
    times, columns = [], []
    for block in _blocks(samples, grid.n):
        block_times, rows = zip(*block)
        times += block_times
        columns.append(_observables(engine, block_times, np.array(rows)))
    xs, ps, es, norms = map(np.concatenate, zip(*columns))
    return (WaveFunction(rows[-1], grid),
            EvolutionTrace(np.asarray(times), xs, ps, es, norms))


def apply_absorbing_boundary(psi: WaveFunction, mask: np.ndarray) -> WaveFunction:
    """Pointwise multiply by a window 0 <= w(x) <= 1; the norm never grows."""
    return WaveFunction(psi.values * _checked_mask(mask, psi.grid.n), psi.grid)


def cosine_absorbing_mask(grid: UniformGrid, fraction: float = 0.2,
                          power: float = 0.125) -> np.ndarray:
    """Window equal to 1 in the interior, decaying as cos^power at both edges.

    Small powers switch on gently and suppress hard only near the very edge,
    which keeps reflection off the absorber low.
    """
    if not 0.0 < fraction < 0.5:
        raise ValueError("fraction must lie in (0, 0.5)")
    require("power", power, above=0)
    width = fraction * 2.0 * grid.half_width
    mask = np.ones(grid.n)
    left = grid.x < grid.x[0] + width
    right = grid.x > grid.x[-1] - width
    mask[left] = np.cos(0.5 * np.pi * (grid.x[0] + width - grid.x[left]) / width) ** power
    mask[right] = np.cos(0.5 * np.pi * (grid.x[right] - grid.x[-1] + width) / width) ** power
    return mask


def _flow(engine, values, dtau, n_steps, known=()):
    """``values`` and ``n_steps`` imaginary-time steps of it, each normalized
    after the ``known`` states are projected out."""
    dx = engine.grid.dx
    known = [state.values for state in known]
    for m in range(n_steps + 1):
        # each yielded array is a fresh one, so projecting in place is safe
        values = engine.step(values, 0.0, -1j * dtau) if m else values.copy()
        for state in known:
            values -= (_rowdot(state, values) * dx) * state
        values /= np.sqrt(_rowdot(values, values).real * dx)
        yield values


def imaginary_time_ground(psi_guess: WaveFunction, dtau: float,
                          spec: HamiltonianSpec, tol: float = 1e-12,
                          max_iter: int = 200_000,
                          known_states: Sequence[WaveFunction] = ()
                          ) -> tuple[float, WaveFunction]:
    """Lowest state orthogonal to ``known_states`` by Wick-rotated split-operator flow.

    Iterates psi <- N exp(-dtau H / hbar) psi, with the ``known_states``
    projected out before each renormalization, until the energy expectation
    changes by less than ``tol`` between steps: the ground state for no known
    states, the n-th excited state for the n converged lower ones.  Requires
    a guess with nonzero overlap with the target state (not checkable;
    almost any positive function works).
    """
    require("dtau", dtau, above=0)
    require("tol", tol, above=0)
    require_count("max_iter", max_iter, 0)
    grid = psi_guess.grid
    engine = SplitStepEngine(grid, spec)
    # energies come a block of iterations at a time; the first iteration whose
    # energy change is below tol ends the flow, and the rest of its block is dropped
    previous = None
    for block in _blocks(_flow(engine, psi_guess.values, dtau, max_iter,
                               known_states), grid.n):
        energies = _observables(engine, [0.0] * len(block), np.array(block))[2]
        for values, energy in zip(block, energies):
            if previous is not None and abs(energy - previous) < tol:
                return float(energy), WaveFunction(values, grid)
            previous = energy
    raise ConvergenceError(
        f"imaginary-time flow did not converge within {max_iter} iterations"
    )


def _fit_decay_slope(taus, ys):
    taus = np.asarray(taus)
    ys = np.asarray(ys)
    finite = np.isfinite(ys)
    taus, ys = taus[finite], ys[finite]
    if len(taus) < 4:
        raise ConvergenceError(
            "commutator expectation underflowed before a linear window was found"
        )
    start = taus[-1] - GAP_FIT_FRACTION * (taus[-1] - taus[0])
    window = taus >= start
    t_w, y_w = taus[window], ys[window]
    # keep the longest strictly-decreasing prefix so a rounding floor at the
    # end of the record cannot pollute the fit
    end = len(y_w)
    for i in range(1, len(y_w)):
        if not y_w[i] < y_w[i - 1]:
            end = i
            break
    if end < max(4, len(y_w) // 2):
        raise ConvergenceError("no monotone decay window found for the gap fit")
    slope = np.polyfit(t_w[:end], y_w[:end], 1)[0]
    return -float(slope)


def _gap_from_magnitudes(mags, dtau):
    """Decay rate of ln|C| for commutator magnitudes at tau = m dtau, m = 0, 1, ..."""
    taus = [m * dtau for m in range(len(mags))]
    ys = [np.log(mag) if mag > 0 else -np.inf for mag in mags]
    return _fit_decay_slope(taus, ys)


def spectral_gap_estimate(psi0: WaveFunction | np.ndarray, observable: np.ndarray,
                          dtau: float, tau_max: float,
                          hamiltonian: HamiltonianSpec | np.ndarray) -> float:
    """Energy gap from the decay rate of ln|<[H, O]>| under normalized imaginary time.

    ``psi0`` is a ``WaveFunction`` with ``hamiltonian`` a ``HamiltonianSpec``
    and ``observable`` O(x) on the grid, or the state vector of a
    discrete-level system with ``hamiltonian`` and ``observable`` dense
    matrices.  Under the first-order condition (a non-real cross matrix
    element of O between the lowest two eigenspaces, promoted in practice by
    boosting the initial state) the log-commutator decays with slope
    -(E_1 - E_0); the slope is fit over the trailing ``GAP_FIT_FRACTION`` of
    the recorded window.
    """
    require("dtau", dtau, above=0)
    require("tau_max", tau_max, above=0)
    n_steps = step_count(tau_max, dtau, GAP_MIN_STEPS)
    mags = []
    if isinstance(psi0, WaveFunction):
        engine = SplitStepEngine(psi0.grid, hamiltonian)
        for block in _blocks(_flow(engine, psi0.values, dtau, n_steps),
                             psi0.grid.n):
            mags.extend(np.abs(engine.commutator(np.array(block), observable)))
    else:
        from .matfunc import func_of_hermitian

        h = np.asarray(hamiltonian, dtype=complex)
        o = np.asarray(observable, dtype=complex)
        commutator = h @ o - o @ h
        u = func_of_hermitian(h, lambda lam: np.exp(-dtau * lam))
        psi = np.asarray(psi0, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        for _ in range(n_steps + 1):
            mags.append(np.abs(np.conj(psi) @ commutator @ psi))
            psi = u @ psi
            psi = psi / np.linalg.norm(psi)
    return _gap_from_magnitudes(mags, dtau)


def _two_level_rotation(c1, c2, c3, dt, hbar):
    """Entries ((t11, t12), (t21, t22)) of exp[-(i dt/hbar) c . sigma].

    With c . sigma = c1 sigma_x + c2 sigma_y + c3 sigma_z and d = |c| it is
    cos(d dt/hbar) - i sin(d dt/hbar)/d (c . sigma), the sine quotient taken
    from a sinc so it is exact at d = 0.  The Pauli step and the two-surface
    Moyal step (``wigner``) both use it.
    """
    d = np.sqrt(c1 ** 2 + c2 ** 2 + c3 ** 2)
    c = np.cos(d * dt / hbar)
    s = (dt / hbar) * np.sinc(d * dt / (hbar * np.pi))  # sin(d dt/hbar)/d
    z, x, y = s * c3, s * c1, s * c2
    return ((c - 1j * z, -1j * x - y), (-1j * x + y, c + 1j * z))


def _pauli_factors(dt, hbar, coeffs):
    """exp[-(i dt/hbar) sum_j c_j sigma_j] as [phase, t11, t12, t21, t22].

    The identity part c_0 is the scalar phase exp(-i dt c_0/hbar).
    """
    c0, c1, c2, c3 = coeffs
    (t11, t12), (t21, t22) = _two_level_rotation(c1, c2, c3, dt, hbar)
    return [np.exp(-1j * dt * c0 / hbar), t11, t12, t21, t22]


def _pauli_apply(factors, up, down):
    phase, t11, t12, t21, t22 = factors
    return phase * (t11 * up + t12 * down), phase * (t21 * up + t22 * down)


def _pauli_coeffs(functions, t, arg):
    out = []
    for fj in functions:
        if fj is None:
            out.append(np.zeros_like(arg))
        else:
            out.append(np.asarray(fj(t, arg), dtype=float))
    return out


def pauli_split_op_step(spinor: SpinorWaveFunction, t: float, dt: float,
                        spec: PauliHamiltonianSpec) -> SpinorWaveFunction:
    """Strang step for a two-component Hamiltonian sum_j [K_j(p) + U_j(x)] sigma_j.

    Applies the closed-form two-level rotation in position space (half step),
    in momentum space through the FFT bridge (full step), and in position
    space again; unitary with local error O(dt^3).
    """
    require_step(dt)
    grid = spinor.grid
    grid.require_fft_bridge()
    hbar = grid.hbar
    tm = t + dt / 2.0
    half = _pauli_factors(dt / 2.0, hbar, _pauli_coeffs(spec.potential, tm, grid.x))
    kin = _pauli_factors(dt, hbar, _pauli_coeffs(spec.kinetic, tm, grid.p_fft))
    _require_finite_phases(dt, U=half, K=kin)
    w = np.array(_pauli_apply(half, spinor.up, spinor.down))  # (2, n): up, down
    w[0], w[1] = _pauli_apply(kin, *_bridge(w, 1))
    return SpinorWaveFunction(*_pauli_apply(half, *_bridge(w, 1, inverse=True)), grid)


def _spreads(grid: UniformGrid, position_weights: np.ndarray,
             momentum_weights: np.ndarray) -> tuple[float, float]:
    """(sigma_x, sigma_p) of unnormalized weights over grid.x and grid.p_fft."""
    out = []
    for axis, w in ((grid.x, position_weights), (grid.p_fft, momentum_weights)):
        w = w / np.sum(w)
        mean = np.sum(axis * w)
        out.append(float(np.sqrt(max(np.sum(axis ** 2 * w) - mean ** 2, 0.0))))
    return out[0], out[1]


def compute_uncertainty(psi: WaveFunction) -> tuple[float, float]:
    """(sigma_x, sigma_p) standard deviations; their product is >= hbar/2."""
    return _spreads(psi.grid, np.abs(psi.values) ** 2,
                    np.abs(fft_bridge(psi.values)) ** 2)
