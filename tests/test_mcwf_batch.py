"""The batched MCWF loop against the serial per-trajectory loop it replaced.

The reference below is the seed's ``mcwf_trajectory``/``mcwf_ensemble`` with
its two machinery builders, kept verbatim (imports renamed only): one Python
trajectory at a time, the machinery rebuilt for each, and the ensemble summed
trajectory by trajectory.  The batched loop steps every trajectory as a row
of one array with the same generators, thresholds and trapezoidal survival
update, so jump records must agree exactly and states and density matrices
to rounding.
"""

import numpy as np
import pytest

from dynkit import open_systems
from dynkit.errors import DegenerateJumpError
from dynkit.grids import make_grid
from dynkit.matfunc import expm_pade
from dynkit.open_systems import (
    JumpOperatorSpec,
    McwfTrajectory,
    _mcwf_loop,
    _unpack_jump_ops,
    mcwf_ensemble,
    mcwf_trajectory,
)
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import WaveFunction, gaussian_packet, split_op_step


# ---------------------------------------------------------------------------
# serial reference (seed code)
# ---------------------------------------------------------------------------


def reference_trajectory(psi0, spec, jump_ops, dt: float, t_max: float, seed: int,
                         stride: int = 1) -> McwfTrajectory:
    rng = np.random.default_rng(seed)
    n_steps = int(round(t_max / dt))
    if n_steps < 1 or abs(n_steps * dt - t_max) > 1e-9 * max(1.0, t_max):
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
    hbar = spec.hbar
    eff_spec = HamiltonianSpec(
        kinetic=spec.kinetic,
        potential=lambda t, x: np.asarray(base_potential(t, x), dtype=complex)
        - 0.5j * hbar * total_abs2,
        hbar=hbar,
        mass=spec.mass,
    )

    def evolve(values, t, dt_):
        return split_op_step(WaveFunction(values, grid), t, dt_, eff_spec).values

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

    return evolve, lambdas, jump, normalize


def reference_ensemble(psi0, spec, jump_ops, dt: float, t_max: float, n_traj: int,
                       base_seed: int, stride: int = 1
                       ) -> tuple[np.ndarray, np.ndarray]:
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    times = None
    rhos = None
    for i in range(n_traj):
        traj = reference_trajectory(psi0, spec, jump_ops, dt, t_max,
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


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2,
                             time_independent=True)


def _two_level():
    return (np.array([0.0, 1.0], dtype=complex), 0.8 * SIGMA_X,
            [np.sqrt(0.6) * SIGMA_MINUS], 0.02, 2.0, 60)


def _two_channel():
    # decay and dephasing at rates high enough for both to fire in one step
    return (np.array([0.0, 1.0], dtype=complex), 0.8 * SIGMA_X,
            [np.sqrt(2.0) * SIGMA_MINUS, np.sqrt(1.5) * SIGMA_Z], 0.05, 2.0, 60)


def _grid_dephasing():
    grid = make_grid(8.0, 32)
    coupling = lambda x: np.sqrt(0.4) * x
    return (gaussian_packet(grid, x0=0.5, sigma=0.8), OSCILLATOR,
            JumpOperatorSpec((coupling,)), 0.01, 0.35, 12)


CASES = {"two_level": _two_level, "two_channel": _two_channel,
         "grid_dephasing": _grid_dephasing}
BASE_SEED = 31


def _values(state):
    return state.values if isinstance(state, WaveFunction) else state


def _batch(case, stride):
    """(times, per-row jump records, per-row recorded states) of one batch."""
    psi0, spec, ops, dt, t_max, n_traj = CASES[case]()
    recorded = []
    run = _mcwf_loop(psi0, spec, ops, dt, t_max, stride)
    times, jumps = run(range(BASE_SEED, BASE_SEED + n_traj),
                       lambda states: recorded.append(states.copy()))
    return times, jumps, np.stack(recorded, axis=1)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_rows_match_serial_trajectories(case, stride):
    psi0, spec, ops, dt, t_max, n_traj = CASES[case]()
    times, jumps, states = _batch(case, stride)
    n_jumps = 0
    for i in range(n_traj):
        ref = reference_trajectory(psi0, spec, ops, dt, t_max,
                                   seed=BASE_SEED + i, stride=stride)
        assert jumps[i] == ref.jumps
        np.testing.assert_array_equal(times, ref.times)
        ref_states = np.stack([_values(s) for s in ref.states])
        assert np.max(np.abs(states[i] - ref_states)) <= 1e-12
        n_jumps += len(ref.jumps)
    assert n_jumps > 0
    if case == "two_channel":
        # several channels firing in one step of one trajectory is exercised
        assert any(len(set(t for t, _ in row)) < len(row) for row in jumps)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_ensemble_matches_serial_ensemble(case, stride):
    psi0, spec, ops, dt, t_max, n_traj = CASES[case]()
    times, rhos = mcwf_ensemble(psi0, spec, ops, dt, t_max, n_traj,
                                base_seed=BASE_SEED, stride=stride)
    ref_times, ref_rhos = reference_ensemble(psi0, spec, ops, dt, t_max, n_traj,
                                             base_seed=BASE_SEED, stride=stride)
    np.testing.assert_array_equal(times, ref_times)
    assert rhos.shape == ref_rhos.shape
    assert np.max(np.abs(rhos - ref_rhos)) <= 1e-12


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_serial_trajectory(case):
    psi0, spec, ops, dt, t_max, _ = CASES[case]()
    for seed in (BASE_SEED, BASE_SEED + 5):
        traj = mcwf_trajectory(psi0, spec, ops, dt, t_max, seed=seed, stride=3)
        ref = reference_trajectory(psi0, spec, ops, dt, t_max, seed=seed, stride=3)
        assert traj.jumps == ref.jumps
        np.testing.assert_array_equal(traj.times, ref.times)
        assert type(traj.states[0]) is type(ref.states[0])
        for state, ref_state in zip(traj.states, ref.states, strict=True):
            assert np.max(np.abs(_values(state) - _values(ref_state))) <= 1e-12


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_trajectory_ensemble_is_its_outer_products(case):
    psi0, spec, ops, dt, t_max, _ = CASES[case]()
    seed = BASE_SEED + 2
    times, rhos = mcwf_ensemble(psi0, spec, ops, dt, t_max, 1, base_seed=seed,
                                stride=4)
    traj = mcwf_trajectory(psi0, spec, ops, dt, t_max, seed=seed, stride=4)
    np.testing.assert_array_equal(times, traj.times)
    outer = np.stack([np.outer(_values(s), np.conj(_values(s)))
                      for s in traj.states])
    assert np.max(np.abs(rhos - outer)) <= 1e-15


def test_batch_reruns_byte_identical():
    for case in sorted(CASES):
        psi0, spec, ops, dt, t_max, n_traj = CASES[case]()
        runs = [mcwf_ensemble(psi0, spec, ops, dt, t_max, n_traj,
                              base_seed=BASE_SEED, stride=2) for _ in range(2)]
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()


def test_machinery_built_once_per_ensemble(monkeypatch):
    calls = {"expm": 0, "engine": 0}
    real_expm, real_engine = open_systems.expm_pade, open_systems.SplitStepEngine

    def counting_expm(*args, **kwargs):
        calls["expm"] += 1
        return real_expm(*args, **kwargs)

    def counting_engine(*args, **kwargs):
        calls["engine"] += 1
        return real_engine(*args, **kwargs)

    monkeypatch.setattr(open_systems, "expm_pade", counting_expm)
    monkeypatch.setattr(open_systems, "SplitStepEngine", counting_engine)
    monkeypatch.setattr(open_systems, "_MCWF_BLOCK_ROWS", 16)
    psi0, spec, ops, dt, t_max, _ = _two_channel()
    mcwf_ensemble(psi0, spec, ops, dt, t_max, 40, base_seed=1)
    assert calls == {"expm": 1, "engine": 0}
    psi0, spec, ops, dt, t_max, _ = _grid_dephasing()
    mcwf_ensemble(psi0, spec, ops, dt, t_max, 20, base_seed=1)
    assert calls == {"expm": 1, "engine": 1}


@pytest.mark.parametrize("case", sorted(CASES))
def test_blocked_ensemble_matches_serial_ensemble(monkeypatch, case):
    # blocks of 7 rows: several full blocks and a partial last one
    monkeypatch.setattr(open_systems, "_MCWF_BLOCK_ROWS", 7)
    calls = []
    real_loop = open_systems._mcwf_loop
    monkeypatch.setattr(open_systems, "_mcwf_loop",
                        lambda *args: calls.append(args) or real_loop(*args))
    psi0, spec, ops, dt, t_max, n_traj = CASES[case]()
    times, rhos = mcwf_ensemble(psi0, spec, ops, dt, t_max, n_traj,
                                base_seed=BASE_SEED, stride=3)
    ref_times, ref_rhos = reference_ensemble(psi0, spec, ops, dt, t_max, n_traj,
                                             base_seed=BASE_SEED, stride=3)
    assert len(calls) == 1
    np.testing.assert_array_equal(times, ref_times)
    assert np.max(np.abs(rhos - ref_rhos)) <= 1e-12


@pytest.mark.parametrize("stride", [0, -1])
def test_stride_below_one_rejected(stride):
    psi0, spec, ops, dt, t_max, _ = _two_level()
    with pytest.raises(ValueError, match="stride must be >= 1"):
        mcwf_trajectory(psi0, spec, ops, dt, t_max, seed=1, stride=stride)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        mcwf_ensemble(psi0, spec, ops, dt, t_max, 3, base_seed=1, stride=stride)


def test_degenerate_jump_raised_from_batch():
    # at these rates both decay channels fire in the first step; the first
    # leaves the state in the kernel of the second
    ops = [np.sqrt(100.0) * SIGMA_MINUS, np.sqrt(100.0) * SIGMA_MINUS]
    psi0 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(DegenerateJumpError, match="jump channel 1"):
        mcwf_ensemble(psi0, np.zeros((2, 2)), ops, 0.1, 0.5, 4, base_seed=3)
    with pytest.raises(DegenerateJumpError, match="jump channel 1"):
        reference_ensemble(psi0, np.zeros((2, 2)), ops, 0.1, 0.5, 4, base_seed=3)
