"""Density-matrix propagation and stochastic wave-function unravelling.

Grid density matrices evolve as U rho U^H with U the split step of
``tdse.SplitStepEngine``, applied to the row index and conjugated on the
column index; a position-diagonal dissipator adds an (x, x') decay factor on
both sides of that sandwich.  ``run_density`` is the one loop that steps
them, as two 2-D transforms between cached (x, x') and (p, p') factors.
Level-resolved dynamics is covered by Pauli master equations with
detailed-balance rate builders, the random-collision thermalization model,
and a Monte-Carlo wave-function unravelling whose trajectory average
reproduces the master equation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DegenerateJumpError, HermiticityError
from .grids import HamiltonianSpec, UniformGrid, _alt_signs, _fft
from .matfunc import (_hermitian_solve, _hermiticity_defect, expm_pade,
                      func_of_hermitian)
from .steps import require, require_count, require_step, step_count
from .tdse import SplitStepEngine, WaveFunction, _spreads


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
        return _hermiticity_defect(self.values)

    def min_eigenvalue(self) -> float:
        if not np.isfinite(self.values).all():
            raise HermiticityError("min_eigenvalue requires a finite hermitian matrix")
        sym = (self.values + self.values.conj().T) / 2
        w = _hermitian_solve(sym, vectors=False, tol=1e-12)
        return float(w[0] * (self.grid.dx if self.grid is not None else 1.0))

    def validate(self, tol: float = 1e-10) -> None:
        """Raise if hermiticity, unit trace or positivity fail; NaN fails all three.

        Positivity costs a full eigendecomposition, so it is only checked
        for dimensions up to 128.
        """
        if not self.hermiticity_defect() <= tol:
            raise HermiticityError(
                f"density matrix hermiticity defect {self.hermiticity_defect():.3e}"
            )
        if not abs(self.trace() - 1.0) <= tol:
            raise ValueError(f"density matrix trace {self.trace():.12f} != 1")
        if self.dim <= 128 and not self.min_eigenvalue() >= -1e-8:
            raise ValueError(
                f"density matrix has negative eigenvalue {self.min_eigenvalue():.3e}"
            )


def pure_state_density(psi: WaveFunction) -> DensityMatrix:
    return DensityMatrix(_outer(psi.values), psi.grid)


def position_distribution(rho: DensityMatrix) -> np.ndarray:
    """P(x_l) = <x_l| rho |x_l>; integrates to the trace with weight dx."""
    return np.real(np.diag(rho.values)).copy()


#: Skew-index entries gathered at once: 64 columns d at n = 512.
_GATHER_ENTRIES = 1 << 15


def momentum_distribution(rho: DensityMatrix) -> np.ndarray:
    """P(p_k) = <p_k| rho |p_k> (weight dp) from one 1-D FFT.

    The diagonal of the bridged 2-D transform is (dx^2 / 2 pi hbar)
    Re FFT[(-1)^d s_d] with s_d = sum_l rho[l, (l - d) mod n].  The s_d
    are gathered in blocks of columns d through the flat index
    l n + (l - d) mod n, built per block, so no n x n temporary or index is
    made; each still sums over l in order, as a whole-matrix gather would.
    """
    if rho.grid is None:
        raise ValueError("momentum_distribution needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    n = grid.n
    flat, rows = rho.values.ravel(), np.arange(n)[:, None] * n
    width = min(n, max(1, _GATHER_ENTRIES // n))
    # window i holds (n - 1 - i - j) mod n at j, so windows d + n - 1 - l,
    # for l = 0 .. n - 1, hold the columns (l - d - j) mod n of block d
    windows = np.lib.stride_tricks.sliding_window_view(
        (n - 1 - np.arange(2 * n + width)) % n, width)
    sums = []
    for d in range(0, n, width):
        columns = windows[d:d + n][::-1, :n - d]
        sums.append(np.take(flat, rows + columns).sum(axis=0))
    p = _fft(_alt_signs(n) * np.concatenate(sums)).real
    return p * (grid.dx ** 2 / (2.0 * np.pi * grid.hbar))


def density_uncertainty(rho: DensityMatrix) -> tuple[float, float]:
    """(sigma_x, sigma_p) from trace moments of a grid density matrix."""
    return _spreads(rho.grid, position_distribution(rho),
                    momentum_distribution(rho))


def gibbs_density(h: np.ndarray, beta: float,
                  grid: UniformGrid | None = None) -> DensityMatrix:
    """Thermal state exp(-beta H) normalized to unit trace."""
    require("beta", beta, minimum=0)
    # eigenvalues ascend, so the shift by w[0] keeps exp from overflowing; a
    # beta (w - w[0]) that overflows to inf gives exp(-inf) = 0, its beta -> inf limit
    with np.errstate(over="ignore"):
        out = DensityMatrix(func_of_hermitian(h, lambda w: np.exp(-beta * (w - w[0]))),
                            grid)
    return DensityMatrix(out.values / out.trace(), grid)


# ---------------------------------------------------------------------------
# grid propagators
# ---------------------------------------------------------------------------


def _grid_engine(rho: DensityMatrix, spec: HamiltonianSpec,
                 caller: str) -> SplitStepEngine:
    if rho.grid is None:
        raise ValueError(f"{caller} needs a grid density matrix")
    return SplitStepEngine(rho.grid, spec)


def _outer(v: np.ndarray) -> np.ndarray:
    """The (x, x') factor of a phase v acting on the row index and conj(v) on the column."""
    return v[:, None] * np.conj(v)[None, :]


#: Amplitudes per block of rows in ``_times_outer``: 32 rows at n = 512.
_OUTER_BLOCK_AMPLITUDES = 2 ** 14


def _times_outer(a: np.ndarray, v: np.ndarray) -> None:
    """a *= _outer(v) in place, one block of rows at a time, bit for bit.

    Each entry is a_ij (v_i conj(v_j)) with the phase product formed first,
    as with ``_outer``, but no n x n temporary is made.  Columns of ``a``
    past len(v) are multiplied by zero.
    """
    cv = np.zeros(a.shape[1], dtype=complex)
    np.conj(v, out=cv[:len(v)])
    rows = max(1, _OUTER_BLOCK_AMPLITUDES // len(v))
    for start in range(0, len(v), rows):
        block = a[start:start + rows]
        block *= v[start:start + rows, None] * cv


def coupling_factor(grid: UniformGrid, coupling: Callable,
                    dt: float) -> np.ndarray:
    """G = exp[(dt/2)(A(x) A(x')* - |A(x')|^2/2 - |A(x)|^2/2)] for a coupling A(x).

    The diagonal of G is one, so a step G o (.) o G keeps the trace; a
    constant coupling gives G = 1.  A(x) must be finite on the grid.  G is
    built in complex arithmetic, in place in one n x n array; when no
    imaginary part of it is nonzero, as for a real coupling and a real dt,
    its real part is returned as float64 (the same bits, half the bytes,
    and the same products with a complex state), else the complex128 G.
    """
    require_step(dt)
    a = np.asarray(coupling(grid.x), dtype=complex)
    with np.errstate(over="ignore"):  # an overflow is refused below
        abs2 = np.abs(a) ** 2
    if not np.all(np.isfinite(abs2)):  # also a NaN or inf in A(x)
        raise ValueError("coupling A(x) is not finite on the grid, "
                         "or |A(x)|^2 overflows")
    g = _outer(a)
    np.subtract(g, 0.5 * abs2[None, :], out=g)
    np.subtract(g, 0.5 * abs2[:, None], out=g)
    np.multiply(0.5 * dt, g, out=g)
    np.exp(g, out=g)
    return g if g.imag.any() else g.real.copy()


def run_density(engine: SplitStepEngine, values: np.ndarray, t0: float,
                dt: float, n_steps: int, g=1.0, stride: int = 1
                ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m, rho at t0 + m dt) every ``stride`` steps and after the last.

    A step is rho <- G o U (G o rho) U^H with U the engine's Strang step on
    the row index, conj(U) on the column index and ``g`` the (x, x') factor
    G (1 for unitary steps).  Every x-diagonal factor acts elementwise on
    (x, x'), so with Lead and Out the ``_outer`` products of the engine's
    sign-folded phases and K its kinetic phase a step is

        rho <- (G o Out) o ifft0-fft1[K_p conj(K_p') fft0-ifft1[(G o Lead) o rho]].

    The kinetic factor is separable, so it is applied as conj(K) along
    axis 1 after the axis-1 ifft and as K along axis 0 after the axis-0
    fft, and no n x n kinetic factor is built.  Between steps the trailing
    and leading factors merge into G^2 o outer(tail * head), as
    ``SplitStepEngine.run`` merges half-kicks; for a ``time_independent``
    spec it is built once per run.  The FFT passes and the factors write
    into the loop's own arrays (``out=``).  The merged factor is dropped
    before a record is built and rebuilt into a new array once the caller
    resumes the loop, so the loop holds three n x n arrays: G, the state and
    the merged factor or the yielded rho.  The float64 G of a real coupling
    is half a complex one, and gives the bytes of the complex G.  The rebuild
    costs about two elementwise passes per record.

    The state and the merged factor fill the first n columns of n x (n + 1)
    arrays whose last column stays zero: the rows of an n x n array lie a
    multiple of 4 KiB apart for a power-of-two n >= 256, which slows the
    axis-0 passes 1.6-1.9x.  The FFT passes act on the (n, n) view, the
    loop's products on the whole contiguous array (twice as fast as on the
    view).
    """
    require_step(dt)
    require_count("stride", stride, 1)
    cur = engine._step_phases(t0, dt, 2)
    n = len(cur.lead)
    state = np.empty((n, n + 1), dtype=complex)
    state[:, n] = 0.0
    w = state[:, :n]
    np.multiply(cur.lead[:, None], np.conj(cur.lead), out=w)
    np.multiply(w, g, out=w)
    w *= values
    del values  # updates below are in place on arrays the loop owns
    conj_kin = np.zeros(n + 1, dtype=complex)
    across = None
    for m in range(1, n_steps + 1):
        kin = cur.kins[0]
        np.conj(kin, out=conj_kin[:n])
        _fft(w, inverse=True)
        np.multiply(state, conj_kin, out=state)
        _fft(w, axis=0)
        np.multiply(state, kin[:, None], out=state)
        _fft(w, axis=0, inverse=True)
        _fft(w)
        if m % stride == 0 or m == n_steps:
            across = None  # rebuilt below, once the record is let go
            out = _outer(cur.out)
            np.multiply(out, g, out=out)
            np.multiply(out, w, out=out)
            yield m, out
            del out  # the caller may have dropped it already
        if m < n_steps:
            nxt = engine._step_phases(t0 + m * dt, dt, 2)
            if across is None or nxt is not cur:
                if across is None:
                    across = np.empty_like(state)
                    across[:, n] = 0.0
                np.multiply(g, g, out=across[:, :n])  # g may be the scalar 1
                _times_outer(across, cur.tail * nxt.head)
            state *= across
            cur = nxt


def _step_values(engine: SplitStepEngine, values: np.ndarray, t: float,
                 dt: float, g=1.0) -> np.ndarray:
    return next(run_density(engine, values, t, dt, 1, g))[1]


def vonneumann_step(rho: DensityMatrix, t: float, dt: float,
                    spec: HamiltonianSpec) -> DensityMatrix:
    """Second-order unitary step rho <- U rho U^H with U the Strang split step.

    U is ``SplitStepEngine``'s step, with the potential and kinetic terms
    at the midpoint; on the pair (x, x') it amounts to the phases
    V(x') - V(x) and K(p') - K(p).  Trace and hermiticity are preserved
    exactly (a unitary similarity), local error O(dt^3).
    """
    engine = _grid_engine(rho, spec, "vonneumann_step")
    return DensityMatrix(_step_values(engine, rho.values, t, dt), rho.grid)


def lindblad_x_step(rho: DensityMatrix, t: float, dt: float,
                    spec: HamiltonianSpec, coupling: Callable) -> DensityMatrix:
    """Dissipative step G o U (G o rho) U^H for a position-diagonal coupling A(x).

    U is the unitary step of ``vonneumann_step`` and G the (x, x') factor of
    ``coupling_factor``, whose diagonal is one, so the trace is conserved
    and hermiticity kept.  A constant coupling reproduces the unitary step.
    """
    engine = _grid_engine(rho, spec, "lindblad_x_step")
    g = coupling_factor(rho.grid, coupling, dt)
    return DensityMatrix(_step_values(engine, rho.values, t, dt, g), rho.grid)


def random_collision_step(rho: DensityMatrix, t: float, dt: float,
                          spec: HamiltonianSpec, gamma: float,
                          rho_beta: DensityMatrix) -> DensityMatrix:
    """Strang split of unitary motion and relaxation toward a thermal state.

    Half a unitary step, the exact dissipative flow
    rho <- rho_beta + exp(-gamma dt)(rho - rho_beta), and half a unitary step
    again, with both unitary halves frozen at the midpoint time.
    """
    engine = _grid_engine(rho, spec, "random_collision_step")
    require("gamma", gamma, minimum=0)
    if rho_beta.values.shape != rho.values.shape:
        raise ValueError(f"rho_beta has shape {rho_beta.values.shape}, "
                         f"rho has {rho.values.shape}")
    # a step of dt/2 from t + dt/4 evaluates H at its midpoint t + dt/2
    values = _step_values(engine, rho.values, t + dt / 4.0, dt / 2.0)
    decay = np.exp(-gamma * dt)
    values = rho_beta.values + decay * (values - rho_beta.values)
    values = _step_values(engine, values, t + dt / 4.0, dt / 2.0)
    return DensityMatrix(values, rho.grid)


# ---------------------------------------------------------------------------
# level-resolved rate dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateMatrix:
    """Nonnegative finite transition rates with zero diagonal.

    ``gamma[n, j]`` multiplies p_j in dp_n/dt, i.e. it is the rate feeding
    level n from level j; the loss term is the column sum.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", g)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("rate matrix must be square")
        if not np.all((g >= 0) & (g < np.inf)):
            raise ValueError("rates must be nonnegative and finite")
        if np.any(np.diag(g) != 0):
            raise ValueError("rate matrix diagonal must be zero")

    def generator(self) -> np.ndarray:
        """M with dp/dt = M p; columns sum to zero."""
        return self.gamma - np.diag(self.gamma.sum(axis=0))


def _feeding_rates(weights_of, energies, beta, gamma0) -> RateMatrix:
    """gamma[n, j] = gamma0 w[n] for n != j, with w = weights_of(energies)."""
    require("beta", beta, minimum=0)
    require("gamma0", gamma0, minimum=0)
    with np.errstate(over="ignore"):  # beta E overflowing to inf is the beta -> inf limit
        w = weights_of(np.asarray(energies, dtype=float))
    g = gamma0 * np.tile(w[:, None], (1, w.size))
    np.fill_diagonal(g, 0.0)
    return RateMatrix(g)


def gibbs_rates(energies: np.ndarray, beta: float, gamma0: float) -> RateMatrix:
    """Rates gamma[n, j] = gamma0 exp(-beta E_n)/Z, stationary on the Gibbs state.

    The detailed-balance ratio gamma[n, j]/gamma[j, n] = exp(-beta (E_n - E_j))
    holds exactly; at beta = 0 every rate equals gamma0 / d.
    """
    def boltzmann(e):
        w = np.exp(-beta * (e - e.min()))
        return w / w.sum()

    return _feeding_rates(boltzmann, energies, beta, gamma0)


def fermi_dirac_rates(energies: np.ndarray, beta: float, mu: float,
                      gamma0: float) -> RateMatrix:
    """Rates gamma[n, j] proportional to the Fermi factor of level n.

    gamma[n, j]/gamma[j, n] = (exp(beta(E_j - mu)) + 1)/(exp(beta(E_n - mu)) + 1),
    so the Fermi-Dirac occupation vector is stationary.
    """
    require("mu", mu)
    return _feeding_rates(lambda e: 1.0 / (np.exp(beta * (e - mu)) + 1.0),
                          energies, beta, gamma0)


def pauli_master_solve(rates: RateMatrix, p0: np.ndarray,
                       t_grid: np.ndarray) -> np.ndarray:
    """Populations p(t) = expm(M t) p0 for dp_n/dt = sum_j [g_nj p_j - g_jn p_n].

    Returns an array of shape (len(t_grid), d); probability is conserved at
    every output time because the generator's columns sum to zero.
    """
    p0 = np.asarray(p0, dtype=float)
    if not np.all(p0 >= 0):
        raise ValueError("initial populations must be nonnegative")
    if not abs(p0.sum() - 1.0) <= 1e-9:
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
    if hbar == 0 or not np.isfinite(hbar):
        raise ValueError(f"hbar must be finite and nonzero, got {hbar!r}")
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
    """Reference master-equation solution via the superoperator exponential;
    ValueError for a non-finite entry of ``times``, before gen * t is formed."""
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
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


@dataclass
class McwfTrajectory:
    times: np.ndarray
    states: list
    jumps: list  # (time, channel) pairs


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
    This is ``mcwf_ensemble``'s loop run as a batch of one.
    """
    states = []
    if isinstance(psi0, WaveFunction):
        record = lambda batch: states.append(WaveFunction(batch[0].copy(), psi0.grid))
    else:
        record = lambda batch: states.append(batch[0].copy())
    times, jumps = _mcwf_loop(psi0, spec, jump_ops, dt, t_max, stride)([seed], record)
    return McwfTrajectory(times=times, states=states, jumps=jumps[0])


def _mcwf_loop(psi0, spec, jump_ops, dt, t_max, stride):
    """Build the machinery once; returns run(seeds, record) -> (times, jumps).

    ``run`` steps one trajectory per seed as the rows of an (n_rows, d)
    array.  Row i draws from its own ``default_rng(seeds[i])``, first its
    n_ch starting thresholds and then one new threshold each time one of its
    channels fires, so a row's path does not depend on the other rows.
    ``record(states)`` sees the live batch at t = 0, every ``stride`` steps
    and after the last step, and must copy what it keeps.  ``run`` returns
    the sample times and each row's (time, channel) jumps.
    """
    n_steps = step_count(t_max, dt)
    if n_steps < 1:
        raise ValueError("t_max must be a positive integer multiple of dt")
    require_count("stride", stride, 1)
    ops = list(jump_ops)
    if isinstance(psi0, WaveFunction):
        evolve, lambdas, jump, normalize = _grid_mcwf_machinery(psi0.grid, spec, ops)
        state = normalize(psi0.values)
    else:
        evolve, lambdas, jump, normalize = _discrete_mcwf_machinery(spec, ops, dt)
        state = normalize(np.asarray(psi0, dtype=complex))
    n_ch = len(ops)

    def run(seeds, record):
        rngs = [np.random.default_rng(seed) for seed in seeds]
        thresholds = np.array([rng.random(n_ch) for rng in rngs])
        survival = np.ones_like(thresholds)
        states = np.tile(state, (len(rngs), 1))
        times = [0.0]
        jumps = [[] for _ in rngs]
        record(states)
        lam_old = lambdas(states)
        for m in range(n_steps):
            states = normalize(evolve(states, m * dt, dt))
            lam_new = lambdas(states)
            survival *= np.exp(-(lam_old + lam_new) * dt / 2.0)
            for k in range(n_ch):
                fired = np.flatnonzero(survival[:, k] < thresholds[:, k])
                if fired.size:
                    states[fired] = jump(states[fired], k)
                    survival[fired, k] = 1.0
                    for i in fired:
                        jumps[i].append(((m + 1) * dt, k))
                        thresholds[i, k] = rngs[i].random()
                    lam_new[fired] = lambdas(states[fired])
            lam_old = lam_new
            if (m + 1) % stride == 0 or m == n_steps - 1:
                times.append((m + 1) * dt)
                record(states)
        return np.asarray(times), jumps

    return run


def _row_machinery(product, measure):
    """(jump, normalize) for rows with norm^2 = measure sum |.|^2 on the last axis."""
    scale = np.sqrt(measure)
    norm = lambda rows: np.linalg.norm(rows, axis=-1, keepdims=True) * scale

    def normalize(rows):
        return rows / norm(rows)

    def jump(rows, k):
        phi = product(rows, k)
        nrm = norm(phi)
        if np.any(nrm == 0.0):
            raise DegenerateJumpError(f"jump channel {k} annihilated the state")
        return phi / nrm

    return jump, normalize


def _discrete_mcwf_machinery(h, ops, dt):
    """(evolve, lambdas, jump, normalize) for d-level states on the last axis."""
    h = np.asarray(h, dtype=complex)
    mats = [np.asarray(a, dtype=complex) for a in ops]
    h_eff = h - 0.5j * sum((a.conj().T @ a for a in mats), np.zeros_like(h))
    u_eff_t = expm_pade(-1j * dt * h_eff).result.T  # hbar = 1 for level systems
    # lambda_k = |A_k psi|^2 for every channel k from one product
    stacked_t = np.array(mats, dtype=complex).reshape(-1, h.shape[0]).T

    def evolve(states, t, dt_):
        return states @ u_eff_t

    def lambdas(states):
        phi = states @ stacked_t
        phi = phi.reshape(phi.shape[:-1] + (len(mats), -1))
        return np.sum(np.abs(phi) ** 2, axis=-1)

    return (evolve, lambdas,
            *_row_machinery(lambda states, k: states @ mats[k].T, 1.0))


def _grid_mcwf_machinery(grid, spec, ops):
    """(evolve, lambdas, jump, normalize) for grid amplitudes on the last axis."""
    profiles = np.zeros((len(ops), grid.n), dtype=complex)
    for k, a in enumerate(ops):
        profiles[k] = a(grid.x)
    abs2 = np.abs(profiles.T) ** 2
    total_abs2 = np.sum(abs2, axis=-1)
    base_potential = spec.potential
    eff_spec = replace(spec, potential=lambda t, x: np.asarray(
        base_potential(t, x), dtype=complex) - 0.5j * spec.hbar * total_abs2)
    engine = SplitStepEngine(grid, eff_spec)

    def lambdas(values):
        return (np.abs(values) ** 2 * grid.dx) @ abs2

    return (engine.step, lambdas,
            *_row_machinery(lambda values, k: profiles[k] * values, grid.dx))


#: A block of trajectories stepped together holds at most this many rows and
#: amplitudes, which bounds the live generators and states for any n_traj;
#: from about 512 rows on, a two-level step costs the same per trajectory.
_MCWF_BLOCK_ROWS = 1024
_MCWF_BLOCK_AMPLITUDES = 2 ** 18


def mcwf_ensemble(psi0, spec, jump_ops, dt: float, t_max: float, n_traj: int,
                  base_seed: int, stride: int = 1
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Average of outer products over trajectories seeded base_seed + i.

    The machinery is built once; trajectories then step together as the
    rows of (n_rows, d) blocks, and each recorded density matrix is summed
    from the live block, so no trajectory history is kept.  Returns (sample
    times, density matrices of shape (n_times, d, d)); whatever n_traj is,
    trajectory i follows the path ``mcwf_trajectory`` gives for seed
    base_seed + i, to rounding.
    """
    require_count("n_traj", n_traj, 1)
    run = _mcwf_loop(psi0, spec, jump_ops, dt, t_max, stride)
    d = np.size(psi0.values if isinstance(psi0, WaveFunction) else psi0)
    rows = max(1, min(_MCWF_BLOCK_ROWS, _MCWF_BLOCK_AMPLITUDES // d))
    total = 0.0
    for first in range(base_seed, base_seed + n_traj, rows):
        sums = []
        times, _ = run(range(first, min(first + rows, base_seed + n_traj)),
                       lambda states: sums.append(states.T @ np.conj(states)))
        total = total + np.stack(sums)
    return times, total / n_traj
