"""Density-matrix propagation and stochastic wave-function unravelling.

Grid density matrices evolve by a two-sided split-operator kernel: a phase
(or decay) factor in the (x, x') representation, a double FFT bridge to
(p, p'), the kinetic phase, and the way back.  Level-resolved dynamics is
covered by Pauli master equations with detailed-balance rate builders, the
random-collision thermalization model, and a Monte-Carlo wave-function
unravelling whose trajectory average reproduces the master equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateJumpError, HermiticityError
from .grids import UniformGrid, _alt_signs, fft_bridge, ifft_bridge
from .matfunc import expm_pade
from .stationary import HamiltonianSpec
from .tdse import SplitStepEngine, WaveFunction, step_count


@dataclass
class DensityMatrix:
    """n x n complex matrix <x_l| rho |x_l'> over grid x grid, or d x d for levels.

    ``grid`` is None for discrete-level systems; the trace is dx-weighted on
    grids so that a normalized state has trace one in both conventions.
    """

    values: np.ndarray
    grid: UniformGrid | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"density matrix must be square, got {self.values.shape}")
        if self.grid is not None and self.values.shape[0] != self.grid.n:
            raise ValueError("density matrix size does not match the grid")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def trace(self) -> complex:
        t = np.trace(self.values)
        return t * self.grid.dx if self.grid is not None else t

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def min_eigenvalue(self) -> float:
        sym = (self.values + self.values.conj().T) / 2
        w = np.linalg.eigvalsh(sym)
        return float(w[0] * (self.grid.dx if self.grid is not None else 1.0))

    def validate(self, tol: float = 1e-10,
                 check_positivity: bool | None = None) -> None:
        """Raise if hermiticity, unit trace or (optionally) positivity fail.

        Positivity costs a full eigendecomposition, so by default it is only
        checked for dimensions up to 128.
        """
        if self.hermiticity_defect() > tol:
            raise HermiticityError(
                f"density matrix hermiticity defect {self.hermiticity_defect():.3e}"
            )
        if abs(self.trace() - 1.0) > tol:
            raise ValueError(f"density matrix trace {self.trace():.12f} != 1")
        if check_positivity is None:
            check_positivity = self.dim <= 128
        if check_positivity and self.min_eigenvalue() < -1e-8:
            raise ValueError(
                f"density matrix has negative eigenvalue {self.min_eigenvalue():.3e}"
            )


def pure_state_density(psi: WaveFunction) -> DensityMatrix:
    return DensityMatrix(np.outer(psi.values, np.conj(psi.values)), psi.grid)


def position_distribution(rho: DensityMatrix) -> np.ndarray:
    """P(x_l) = <x_l| rho |x_l>; integrates to the trace with weight dx."""
    return np.real(np.diag(rho.values)).copy()


def momentum_distribution(rho: DensityMatrix) -> np.ndarray:
    """P(p_k) = <p_k| rho |p_k> through the double FFT bridge (weight dp)."""
    if rho.grid is None:
        raise ValueError("momentum_distribution needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    a = fft_bridge(rho.values, axis=0)
    a = grid.n * ifft_bridge(a, axis=1)
    a = a * grid.dx ** 2 / (2.0 * np.pi * grid.hbar)
    return np.real(np.diag(a)).copy()


def density_uncertainty(rho: DensityMatrix) -> tuple[float, float]:
    """(sigma_x, sigma_p) from trace moments of a grid density matrix."""
    grid = rho.grid
    px = position_distribution(rho)
    px = px / px.sum()
    x_mean = np.sum(grid.x * px)
    x2 = np.sum(grid.x ** 2 * px)
    pp = momentum_distribution(rho)
    pp = pp / pp.sum()
    p_mean = np.sum(grid.p_fft * pp)
    p2 = np.sum(grid.p_fft ** 2 * pp)
    return (float(np.sqrt(max(x2 - x_mean ** 2, 0.0))),
            float(np.sqrt(max(p2 - p_mean ** 2, 0.0))))


def gibbs_density(h: np.ndarray, beta: float,
                  grid: UniformGrid | None = None) -> DensityMatrix:
    """Thermal state exp(-beta H) normalized to unit trace."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    h = np.asarray(h, dtype=complex)
    w, u = np.linalg.eigh(h)
    weights = np.exp(-beta * (w - w[0]))  # shift avoids overflow
    rho = (u * weights) @ u.conj().T
    out = DensityMatrix(rho, grid)
    return DensityMatrix(out.values / out.trace(), grid)


# ---------------------------------------------------------------------------
# grid propagators
# ---------------------------------------------------------------------------


def _two_sided_kernel(values: np.ndarray, xfactor: np.ndarray,
                      kfactor: np.ndarray) -> np.ndarray:
    """xfactor o B[ kfactor o B^-1[ xfactor o rho ] ] with B the double FFT bridge."""
    n = values.shape[0]
    s = np.outer(_alt_signs(n), _alt_signs(n))
    a = xfactor * values
    a = s * a
    a = np.fft.fft(a, axis=0)
    a = np.fft.ifft(a, axis=1)
    a = kfactor * a
    a = np.fft.ifft(a, axis=0)
    a = np.fft.fft(a, axis=1)
    a = s * a
    return xfactor * a


def _kinetic_factor(grid, spec, t_eval, dt):
    k = np.asarray(spec.kinetic(t_eval, grid.p_fft), dtype=float)
    return np.exp(1j * dt * (k[None, :] - k[:, None]) / spec.hbar)


def _vonneumann_kernel(values, grid, spec, t_eval, dt):
    v = np.asarray(spec.potential(t_eval, grid.x), dtype=float)
    xfactor = np.exp(0.5j * dt * (v[None, :] - v[:, None]) / spec.hbar)
    return _two_sided_kernel(values, xfactor, _kinetic_factor(grid, spec, t_eval, dt))


def vonneumann_step(rho: DensityMatrix, t: float, dt: float,
                    spec: HamiltonianSpec) -> DensityMatrix:
    """Second-order unitary step rho <- U rho U^H through the double FFT bridge.

    The (x, x') phase uses V(x') - V(x) and the (p, p') phase K(p') - K(p),
    both evaluated at the midpoint; trace and hermiticity are preserved
    exactly (the bridge is a unitary similarity), local error O(dt^3).
    """
    if rho.grid is None:
        raise ValueError("vonneumann_step needs a grid density matrix")
    rho.grid.require_fft_bridge()
    out = _vonneumann_kernel(rho.values, rho.grid, spec, t + dt / 2.0, dt)
    return DensityMatrix(out, rho.grid)


def lindblad_x_step(rho: DensityMatrix, t: float, dt: float,
                    spec: HamiltonianSpec, coupling: Callable) -> DensityMatrix:
    """Dissipative step for a position-diagonal coupling A(x).

    The unitary (x, x') phase is replaced by exp[(dt/2) F(x, x')] with

        F = (i/hbar)[V(x') - V(x)] + A(x) A(x')* - |A(x')|^2/2 - |A(x)|^2/2,

    whose diagonal vanishes, so the trace is conserved and hermiticity kept.
    A constant coupling cancels identically and reproduces the unitary step.
    """
    if rho.grid is None:
        raise ValueError("lindblad_x_step needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    tm = t + dt / 2.0
    v = np.asarray(spec.potential(tm, grid.x), dtype=float)
    a = np.asarray(coupling(grid.x), dtype=complex)
    abs2 = np.abs(a) ** 2
    f = (1j / spec.hbar) * (v[None, :] - v[:, None]) \
        + a[:, None] * np.conj(a)[None, :] \
        - 0.5 * abs2[None, :] - 0.5 * abs2[:, None]
    xfactor = np.exp(0.5 * dt * f)
    out = _two_sided_kernel(rho.values, xfactor,
                            _kinetic_factor(grid, spec, tm, dt))
    return DensityMatrix(out, grid)


def random_collision_step(rho: DensityMatrix, t: float, dt: float,
                          spec: HamiltonianSpec, gamma: float,
                          rho_beta: DensityMatrix) -> DensityMatrix:
    """Strang split of unitary motion and relaxation toward a thermal state.

    Half a unitary step, the exact dissipative flow
    rho <- rho_beta + exp(-gamma dt)(rho - rho_beta), and half a unitary step
    again, with both unitary halves frozen at the midpoint time.
    """
    if rho.grid is None:
        raise ValueError("random_collision_step needs a grid density matrix")
    rho.grid.require_fft_bridge()
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    tm = t + dt / 2.0
    values = _vonneumann_kernel(rho.values, rho.grid, spec, tm, dt / 2.0)
    decay = np.exp(-gamma * dt)
    values = rho_beta.values + decay * (values - rho_beta.values)
    values = _vonneumann_kernel(values, rho.grid, spec, tm, dt / 2.0)
    return DensityMatrix(values, rho.grid)


# ---------------------------------------------------------------------------
# level-resolved rate dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateMatrix:
    """Nonnegative transition rates with zero diagonal.

    ``gamma[n, j]`` multiplies p_j in dp_n/dt, i.e. it is the rate feeding
    level n from level j; the loss term is the column sum.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("rate matrix must be square")
        if np.any(g < 0):
            raise ValueError("rates must be nonnegative")
        if np.any(np.diag(g) != 0):
            raise ValueError("rate matrix diagonal must be zero")

    def generator(self) -> np.ndarray:
        """M with dp/dt = M p; columns sum to zero."""
        return self.gamma - np.diag(self.gamma.sum(axis=0))


def gibbs_rates(energies: np.ndarray, beta: float, gamma0: float) -> RateMatrix:
    """Rates gamma[n, j] = gamma0 exp(-beta E_n)/Z, stationary on the Gibbs state.

    The detailed-balance ratio gamma[n, j]/gamma[j, n] = exp(-beta (E_n - E_j))
    holds exactly; at beta = 0 every rate equals gamma0 / d.
    """
    if beta < 0 or gamma0 < 0:
        raise ValueError("beta and gamma0 must be nonnegative")
    e = np.asarray(energies, dtype=float)
    boltzmann = np.exp(-beta * (e - e.min()))
    boltzmann = boltzmann / boltzmann.sum()
    g = gamma0 * np.tile(boltzmann[:, None], (1, e.size))
    np.fill_diagonal(g, 0.0)
    return RateMatrix(g)


def fermi_dirac_rates(energies: np.ndarray, beta: float, mu: float,
                      gamma0: float) -> RateMatrix:
    """Rates gamma[n, j] proportional to the Fermi factor of level n.

    gamma[n, j]/gamma[j, n] = (exp(beta(E_j - mu)) + 1)/(exp(beta(E_n - mu)) + 1),
    so the Fermi-Dirac occupation vector is stationary.
    """
    if beta < 0 or gamma0 < 0:
        raise ValueError("beta and gamma0 must be nonnegative")
    e = np.asarray(energies, dtype=float)
    fermi = 1.0 / (np.exp(beta * (e - mu)) + 1.0)
    g = gamma0 * np.tile(fermi[:, None], (1, e.size))
    np.fill_diagonal(g, 0.0)
    return RateMatrix(g)


def pauli_master_solve(rates: RateMatrix, p0: np.ndarray,
                       t_grid: np.ndarray) -> np.ndarray:
    """Populations p(t) = expm(M t) p0 for dp_n/dt = sum_j [g_nj p_j - g_jn p_n].

    Returns an array of shape (len(t_grid), d); probability is conserved at
    every output time because the generator's columns sum to zero.
    """
    p0 = np.asarray(p0, dtype=float)
    if np.any(p0 < 0):
        raise ValueError("initial populations must be nonnegative")
    if abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("initial populations must sum to 1")
    m = rates.generator()
    out = np.empty((len(t_grid), p0.size))
    for i, t in enumerate(t_grid):
        out[i] = (expm_pade(m * t).result @ p0).real
    return out


# ---------------------------------------------------------------------------
# dissipator structure and the superoperator oracle
# ---------------------------------------------------------------------------


def dissipator_action(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> A rho A^H - (1/2){A^H A, rho}."""
    a = np.asarray(a, dtype=complex)
    ad = a.conj().T
    ada = ad @ a

    def act(rho):
        return a @ rho @ ad - 0.5 * (rho @ ada + ada @ rho)

    return act


def dissipator_split(a: np.ndarray) -> tuple[Callable, Callable]:
    """Self-adjoint (pure dissipation) and anti-self-adjoint (hamiltonian
    correction) parts of the dissipator, as actions on density matrices.

    Their sum equals the full dissipator; for hermitian A the anti part is
    the zero action, i.e. the environment leaves the unitary motion alone.
    """
    a = np.asarray(a, dtype=complex)
    ad = a.conj().T
    ada = ad @ a

    def self_adjoint(rho):
        return 0.5 * (a @ rho @ ad + ad @ rho @ a) \
            - 0.5 * (rho @ ada + ada @ rho)

    def anti_self_adjoint(rho):
        return 0.5 * (a @ rho @ ad - ad @ rho @ a)

    return self_adjoint, anti_self_adjoint


def lindblad_superoperator(h: np.ndarray, jump_ops: Sequence[np.ndarray],
                           hbar: float = 1.0) -> np.ndarray:
    """Dense d^2 x d^2 generator acting on row-major vec(rho)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d)
    gen = (-1j / hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in jump_ops:
        a = np.asarray(a, dtype=complex)
        ada = a.conj().T @ a
        gen += np.kron(a, a.conj()) \
            - 0.5 * np.kron(ada, eye) - 0.5 * np.kron(eye, ada.T)
    return gen


def lindblad_propagate(rho0: np.ndarray, h: np.ndarray,
                       jump_ops: Sequence[np.ndarray], times: np.ndarray,
                       hbar: float = 1.0) -> np.ndarray:
    """Reference master-equation solution via the superoperator exponential."""
    gen = lindblad_superoperator(h, jump_ops, hbar)
    d = np.asarray(rho0).shape[0]
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    out = np.empty((len(times), d, d), dtype=complex)
    for i, t in enumerate(times):
        out[i] = (expm_pade(gen * t).result @ vec).reshape(d, d)
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo wave functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpOperatorSpec:
    """Jump channels: position-diagonal callables A_k(x) and/or d x d matrices."""

    operators: tuple
    hermitian: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        if self.hermitian and len(self.hermitian) != len(self.operators):
            raise ValueError("hermitian flags must match the operator count")


@dataclass
class McwfTrajectory:
    times: np.ndarray
    states: list
    jumps: list  # (time, channel) pairs


def _unpack_jump_ops(jump_ops):
    if isinstance(jump_ops, JumpOperatorSpec):
        return list(jump_ops.operators)
    return list(jump_ops)


def mcwf_trajectory(psi0, spec, jump_ops, dt: float, t_max: float, seed: int,
                    stride: int = 1) -> McwfTrajectory:
    """One stochastic unravelling of the master equation.

    Between jumps the state evolves under the non-hermitian generator
    H - (i hbar / 2) sum_k A_k^H A_k with per-step renormalization; each
    channel tracks its survival probability by the trapezoidal update
    P_k *= exp(-[lambda_k(t) + lambda_k(t+dt)] dt / 2) and fires when P_k
    crosses its pre-drawn uniform threshold, after which the state is
    projected with A_k and the threshold redrawn.

    Discrete systems pass (state vector, hamiltonian matrix, matrices);
    grid systems pass (WaveFunction, HamiltonianSpec, position callables).
    """
    rng = np.random.default_rng(seed)
    n_steps = step_count(t_max, dt)
    if n_steps < 1:
        raise ValueError("t_max must be a positive integer multiple of dt")
    ops = _unpack_jump_ops(jump_ops)

    if isinstance(psi0, WaveFunction):
        evolve, lambdas, jump, normalize = _grid_mcwf_machinery(psi0.grid, spec, ops)
        state = psi0.values / psi0.norm()
        wrap = lambda v: WaveFunction(v.copy(), psi0.grid)
    else:
        evolve, lambdas, jump, normalize = _discrete_mcwf_machinery(spec, ops, dt)
        state = np.asarray(psi0, dtype=complex)
        state = state / np.linalg.norm(state)
        wrap = lambda v: v.copy()

    n_ch = len(ops)
    thresholds = rng.random(n_ch) if n_ch else np.empty(0)
    survival = np.ones(n_ch)
    times = [0.0]
    states = [wrap(state)]
    jumps = []
    lam_old = lambdas(state)
    for m in range(n_steps):
        state = evolve(state, m * dt, dt)
        state = normalize(state)
        lam_new = lambdas(state)
        if n_ch:
            survival *= np.exp(-(lam_old + lam_new) * dt / 2.0)
            for k in range(n_ch):
                if survival[k] < thresholds[k]:
                    state = jump(state, k)
                    jumps.append(((m + 1) * dt, k))
                    survival[k] = 1.0
                    thresholds[k] = rng.random()
                    lam_new = lambdas(state)
        lam_old = lam_new
        if (m + 1) % stride == 0 or m == n_steps - 1:
            times.append((m + 1) * dt)
            states.append(wrap(state))
    return McwfTrajectory(times=np.asarray(times), states=states, jumps=jumps)


def _discrete_mcwf_machinery(h, ops, dt):
    h = np.asarray(h, dtype=complex)
    mats = [np.asarray(a, dtype=complex) for a in ops]
    adags = [a.conj().T @ a for a in mats]
    h_eff = h - 0.5j * sum(adags, np.zeros_like(h))
    u_eff = expm_pade(-1j * dt * h_eff).result  # hbar = 1 for level systems

    def evolve(state, t, dt_):
        return u_eff @ state

    def lambdas(state):
        return np.array([np.real(np.conj(state) @ aa @ state) for aa in adags])

    def jump(state, k):
        phi = mats[k] @ state
        nrm = np.linalg.norm(phi)
        if nrm == 0.0:
            raise DegenerateJumpError(f"jump channel {k} annihilated the state")
        return phi / nrm

    def normalize(state):
        return state / np.linalg.norm(state)

    return evolve, lambdas, jump, normalize


def _grid_mcwf_machinery(grid, spec, ops):
    profiles = [np.asarray(a(grid.x), dtype=complex) for a in ops]
    abs2 = [np.abs(p) ** 2 for p in profiles]
    total_abs2 = sum(abs2, np.zeros(grid.n))
    base_potential = spec.potential
    eff_spec = replace(spec, potential=lambda t, x: np.asarray(
        base_potential(t, x), dtype=complex) - 0.5j * spec.hbar * total_abs2)
    engine = SplitStepEngine(grid, eff_spec)

    def lambdas(values):
        prob = np.abs(values) ** 2 * grid.dx
        return np.array([np.sum(a2 * prob) for a2 in abs2])

    def jump(values, k):
        phi = profiles[k] * values
        nrm = np.sqrt(np.sum(np.abs(phi) ** 2) * grid.dx)
        if nrm == 0.0:
            raise DegenerateJumpError(f"jump channel {k} annihilated the state")
        return phi / nrm

    def normalize(values):
        return values / np.sqrt(np.sum(np.abs(values) ** 2) * grid.dx)

    return engine.step, lambdas, jump, normalize


def mcwf_ensemble(psi0, spec, jump_ops, dt: float, t_max: float, n_traj: int,
                  base_seed: int, stride: int = 1
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Average of outer products over trajectories seeded base_seed + i.

    Returns (sample times, density matrices of shape (n_times, d, d)); the
    summation order is fixed by trajectory index, so results are reproducible
    regardless of execution order.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    times = None
    rhos = None
    for i in range(n_traj):
        traj = mcwf_trajectory(psi0, spec, jump_ops, dt, t_max,
                               seed=base_seed + i, stride=stride)
        if times is None:
            times = traj.times
            d = (traj.states[0].values.size if isinstance(traj.states[0], WaveFunction)
                 else traj.states[0].size)
            rhos = np.zeros((len(times), d, d), dtype=complex)
        for j, state in enumerate(traj.states):
            v = state.values if isinstance(state, WaveFunction) else state
            rhos[j] += np.outer(v, np.conj(v))
    return times, rhos / n_traj
