"""Density-matrix steps through SplitStepEngine against the two-sided kernel they replaced.

The reference below is the seed's ``_two_sided_kernel`` with its helpers and
the three grid steps built on it, kept verbatim (names prefixed only): a
phase (or decay) factor on the (x, x') grid, a double FFT bridge to (p, p'),
the kinetic phase and the way back.  The library's one stepping loop,
``run_density``, applies the engine's U to the row index and conj(U) to the
column index and puts the dissipative factor G on both sides, merging the
x-diagonal factors of adjacent steps; both are the same operator, so they
must agree to rounding, one step or many.
"""

import weakref
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from dynkit.grids import _alt_signs, make_grid
from dynkit.open_systems import (
    DensityMatrix,
    coupling_factor,
    lindblad_x_step,
    pure_state_density,
    random_collision_step,
    run_density,
    vonneumann_step,
)
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import SplitStepEngine, gaussian_packet


# ---------------------------------------------------------------------------
# two-sided kernel reference (seed code)
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


def reference_vonneumann_step(rho: DensityMatrix, t: float, dt: float,
                              spec: HamiltonianSpec) -> DensityMatrix:
    if rho.grid is None:
        raise ValueError("vonneumann_step needs a grid density matrix")
    rho.grid.require_fft_bridge()
    out = _vonneumann_kernel(rho.values, rho.grid, spec, t + dt / 2.0, dt)
    return DensityMatrix(out, rho.grid)


def reference_lindblad_x_step(rho: DensityMatrix, t: float, dt: float,
                              spec: HamiltonianSpec,
                              coupling: Callable) -> DensityMatrix:
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


def reference_random_collision_step(rho: DensityMatrix, t: float, dt: float,
                                    spec: HamiltonianSpec, gamma: float,
                                    rho_beta: DensityMatrix) -> DensityMatrix:
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
# cases
# ---------------------------------------------------------------------------

STATIC = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.05 * x ** 4,
                         time_independent=True)
DRIVEN = HamiltonianSpec(
    kinetic=lambda t, p: (1.0 + 0.2 * np.cos(3.0 * t)) * p ** 2 / 2,
    potential=lambda t, x: x ** 2 / 2 + 0.8 * x * np.sin(2.0 * t),
    hbar=0.9)
SPECS = {"static": STATIC, "driven": DRIVEN}

COUPLINGS = {
    "linear": lambda x: 0.4 * x,
    "constant": lambda x: np.full_like(np.asarray(x, dtype=float), 0.7),
    "complex": lambda x: (0.3 + 0.2j) * x + 0.1j * np.exp(-x ** 2),
}

T0, DT, GAMMA = 0.3, 0.02, 0.8


def _state(n, kind, hbar=1.0):
    grid = make_grid(8.0, n, hbar)
    a = pure_state_density(gaussian_packet(grid, x0=-1.0, p0=0.5, sigma=0.7))
    b = pure_state_density(gaussian_packet(grid, x0=1.2, p0=-1.0, sigma=0.9))
    values = 0.6 * a.values + 0.4 * b.values
    if kind == "nonhermitian":
        rng = np.random.default_rng(n)
        values = values + 0.1 * (rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))
    return DensityMatrix(values, grid)


def _steppers(name, spec, rho_beta):
    """(new step, reference step), each taking (rho, t, dt)."""
    if name == "vonneumann":
        return (lambda r, t, dt: vonneumann_step(r, t, dt, spec),
                lambda r, t, dt: reference_vonneumann_step(r, t, dt, spec))
    if name == "collision":
        return (lambda r, t, dt: random_collision_step(r, t, dt, spec, GAMMA,
                                                       rho_beta),
                lambda r, t, dt: reference_random_collision_step(
                    r, t, dt, spec, GAMMA, rho_beta))
    coupling = COUPLINGS[name.split("-")[1]]
    return (lambda r, t, dt: lindblad_x_step(r, t, dt, spec, coupling),
            lambda r, t, dt: reference_lindblad_x_step(r, t, dt, spec, coupling))


STEPS = ["vonneumann", "lindblad-linear", "lindblad-constant",
         "lindblad-complex", "collision"]


@pytest.mark.parametrize("n_steps", [1, 20])
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("rho_kind", ["hermitian", "nonhermitian"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("step_name", STEPS)
def test_matches_two_sided_kernel(step_name, spec_name, rho_kind, n, n_steps):
    spec = SPECS[spec_name]
    rho = _state(n, rho_kind, spec.hbar)
    rho_beta = pure_state_density(gaussian_packet(rho.grid, sigma=0.5))
    new, ref = _steppers(step_name, spec, rho_beta)
    a = b = rho
    for m in range(n_steps):
        a = new(a, T0 + m * DT, DT)
        b = ref(b, T0 + m * DT, DT)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12
    assert np.max(np.abs(a.values - rho.values)) > 1e-6  # the step did something


def test_flagged_spec_evaluates_terms_once_per_step():
    calls = []

    def potential(t, x):
        calls.append(t)
        return x ** 2 / 2

    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2, potential=potential,
                           time_independent=True)
    rho = _state(64, "hermitian")
    vonneumann_step(rho, 0.0, DT, spec)
    lindblad_x_step(rho, 0.0, DT, spec, COUPLINGS["linear"])
    random_collision_step(rho, 0.0, DT, spec, GAMMA, rho)
    assert len(calls) == 3


@pytest.mark.parametrize("stride", [1, 3, 7])
@pytest.mark.parametrize("rho_kind", ["hermitian", "nonhermitian"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("coupling_name", [None, *COUPLINGS])
def test_loop_matches_two_sided_kernel_over_many_steps(coupling_name, spec_name,
                                                       rho_kind, stride):
    n_steps = 50  # stride 7 leaves a partial last stride of one step
    spec = SPECS[spec_name]
    rho = _state(64, rho_kind, spec.hbar)
    if coupling_name is None:
        g = 1.0
        ref = lambda r, t: reference_vonneumann_step(r, t, DT, spec)
    else:
        coupling = COUPLINGS[coupling_name]
        g = coupling_factor(rho.grid, coupling, DT)
        ref = lambda r, t: reference_lindblad_x_step(r, t, DT, spec, coupling)
    expected, b = {}, rho
    for m in range(1, n_steps + 1):
        b = ref(b, T0 + (m - 1) * DT)
        expected[m] = b.values
    got = list(run_density(SplitStepEngine(rho.grid, spec), rho.values, T0, DT,
                           n_steps, g, stride))
    steps = [m for m, _ in got]
    assert steps == sorted({*range(stride, n_steps + 1, stride), n_steps})
    for m, values in got:
        assert np.max(np.abs(values - expected[m])) <= 1e-12
    assert np.max(np.abs(got[-1][1] - rho.values)) > 1e-6


@pytest.mark.parametrize("time_independent", [True, False])
def test_loop_evaluates_terms_and_coupling_once_per_run_for_a_flagged_spec(
        time_independent):
    calls = {"potential": 0, "kinetic": 0, "coupling": 0}

    def counted(name, f):
        def term(*args):
            calls[name] += 1
            return f(*args)
        return term

    spec = HamiltonianSpec(kinetic=counted("kinetic", lambda t, p: p ** 2 / 2),
                           potential=counted("potential", lambda t, x: x ** 2 / 2),
                           time_independent=time_independent)
    rho = _state(64, "hermitian")
    n_steps = 50
    g = coupling_factor(rho.grid, counted("coupling", COUPLINGS["linear"]), DT)
    for _ in run_density(SplitStepEngine(rho.grid, spec), rho.values, T0, DT,
                         n_steps, g, stride=3):
        pass
    per_run = 1 if time_independent else n_steps
    assert calls == {"potential": per_run, "kinetic": per_run, "coupling": 1}


def test_loop_leaves_the_input_array_alone():
    rho = _state(64, "nonhermitian")
    before = rho.values.copy()
    g = coupling_factor(rho.grid, COUPLINGS["complex"], DT)
    for _ in run_density(SplitStepEngine(rho.grid, STATIC), rho.values, T0, DT,
                         5, g, stride=2):
        pass
    assert np.array_equal(rho.values, before)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
@pytest.mark.parametrize("step_name", ["vonneumann", "lindblad-linear",
                                       "collision"])
def test_grid_steps_reject_non_finite_step(step_name, dt):
    spec = SPECS[sorted(SPECS)[0]]
    rho = _state(64, "hermitian", spec.hbar)
    new, _ = _steppers(step_name, spec, rho)
    with pytest.raises(ValueError, match="finite"):
        new(rho, T0, dt)


# ---------------------------------------------------------------------------
# the in-place loop against the out-of-place loops it replaced
# ---------------------------------------------------------------------------


def reference_run_density(engine, values, t0, dt, n_steps, g=1.0, stride=1):
    """``run_density`` with every FFT pass and every product allocating.

    The kinetic phase acts as its two factors, conj(K) along axis 1 and K
    along axis 0.  Each product is an ``np.multiply`` call, whose operands
    keep their order whatever the array size.
    """
    from dynkit.open_systems import _outer

    fft, ifft, mul = np.fft.fft, np.fft.ifft, np.multiply
    cur = engine._step_phases(t0, dt, 2)
    w = mul(mul(_outer(cur.lead), g), values)
    across = None
    for m in range(1, n_steps + 1):
        kin = cur.kins[0]
        w = mul(fft(mul(ifft(w, axis=1), np.conj(kin)), axis=0), kin[:, None])
        w = fft(ifft(w, axis=0), axis=1)
        if m % stride == 0 or m == n_steps:
            yield m, mul(mul(_outer(cur.out), g), w)
        if m < n_steps:
            nxt = engine._step_phases(t0 + m * dt, dt, 2)
            if across is None or nxt is not cur:
                across = mul(mul(g, g), _outer(cur.tail * nxt.head))
            w = mul(w, across)
            cur = nxt


def legacy_run_density(engine, values, t0, dt, n_steps, g=1.0, stride=1):
    """The earlier ``run_density``, whose four FFT passes each allocated."""
    from dynkit.open_systems import _outer

    fft, ifft = np.fft.fft, np.fft.ifft
    cur = engine._step_phases(t0, dt, 2)
    w = g * _outer(cur.lead)
    w *= values
    del values
    kpp, across = _outer(cur.kins[0]), None
    for m in range(1, n_steps + 1):
        w = fft(ifft(kpp * fft(ifft(w, axis=1), axis=0), axis=0), axis=1)
        if m % stride == 0 or m == n_steps:
            out = g * _outer(cur.out)
            out *= w
            yield m, out
        if m < n_steps:
            nxt = engine._step_phases(t0 + m * dt, dt, 2)
            if across is None or nxt is not cur:
                across = g * g
                across *= _outer(cur.tail * nxt.head)
            if nxt is not cur:
                kpp = _outer(nxt.kins[0])
            w *= across
            cur = nxt


def _loop_cases(n, spec_name, stride, loop):
    """(new yields as (m, bytes), ``loop``'s yields as (m, array)) over 15 steps."""
    spec = SPECS[spec_name]
    rho = _state(n, "nonhermitian", spec.hbar)
    g = coupling_factor(rho.grid, COUPLINGS["complex"], DT)
    n_steps = 15
    expected = list(loop(SplitStepEngine(rho.grid, spec), rho.values, T0, DT,
                         n_steps, g, stride))
    got = []
    for m, values in run_density(SplitStepEngine(rho.grid, spec), rho.values,
                                 T0, DT, n_steps, g, stride):
        # momentum_distribution ravels a record, which copies a padded view
        assert values.shape == (n, n) and values.dtype == np.complex128
        assert values.flags.c_contiguous and values.flags.owndata
        got.append((m, values.tobytes()))
        values[...] = np.nan  # a yield the loop still used would spoil the rest
    assert [m for m, _ in got] == [m for m, _ in expected]
    return got, expected


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("n", [64, 256, 512])
def test_in_place_loop_is_the_out_of_place_loop_bit_for_bit(n, spec_name,
                                                            stride):
    # the driven spec rebuilds K and the merged factor every step; at
    # n = 256 and 512 an unpadded row would be a multiple of 4 KiB
    got, expected = _loop_cases(n, spec_name, stride, reference_run_density)
    assert [b for _, b in got] == [v.tobytes() for _, v in expected]


def _inf_filled(make):
    def filled(*args, **kwargs):
        a = make(*args, **kwargs)
        if np.issubdtype(a.dtype, np.inexact):
            a.fill(np.inf)
        return a
    return filled


@pytest.mark.parametrize("n", [64, 512])
def test_loop_pad_column_never_reaches_a_number(n, monkeypatch):
    # the loop's arrays are allocated empty; filled with inf instead, a pad
    # entry the loop did not zero would make inf * 0 in the next product
    monkeypatch.setattr(np, "empty", _inf_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", _inf_filled(np.empty_like))
    rho = _state(n, "nonhermitian", DRIVEN.hbar)
    g = coupling_factor(rho.grid, COUPLINGS["complex"], DT)
    assert g.dtype == np.complex128
    n_steps = 4
    expected = list(reference_run_density(SplitStepEngine(rho.grid, DRIVEN),
                                          rho.values, T0, DT, n_steps, g))
    with np.errstate(all="raise"):  # stride 1 rebuilds the merged factor
        got = list(run_density(SplitStepEngine(rho.grid, DRIVEN), rho.values,
                               T0, DT, n_steps, g, stride=1))
    assert [v.tobytes() for _, v in got] == [v.tobytes() for _, v in expected]


#: Largest |difference| allowed between the split kinetic factors and the
#: earlier n x n Kpp product.  The yields are of order one, and over these
#: 15 steps the two differed by at most 6.4e-16.
KPP_ROUNDING = 4e-15


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("n", [64, 256])
def test_split_kinetic_factors_round_like_the_kpp_product(n, spec_name, stride):
    got, expected = _loop_cases(n, spec_name, stride, legacy_run_density)
    for (_, data), (_, values) in zip(got, expected):
        new = np.frombuffer(data, dtype=complex).reshape(values.shape)
        assert np.max(np.abs(new - values)) <= KPP_ROUNDING


def test_in_place_loop_yields_fresh_arrays():
    rho = _state(64, "hermitian")
    g = coupling_factor(rho.grid, COUPLINGS["linear"], DT)
    yields = list(run_density(SplitStepEngine(rho.grid, STATIC), rho.values, T0,
                              DT, 6, g, stride=2))
    assert len(yields) == 3
    arrays = [v for _, v in yields]
    for i, a in enumerate(arrays):
        assert a.flags.writeable
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    kept = [a.copy() for a in arrays]
    arrays[0][...] = 0.0
    for a, b in zip(arrays[1:], kept[1:]):
        assert a.tobytes() == b.tobytes()


def test_loop_drops_a_yield_the_caller_dropped():
    # the steps after a yield evaluate the driven potential before the next
    # yield, so a recorded state the caller let go must be gone by then
    alive, ref = [], None

    def potential(t, x):
        alive.append(ref is not None and ref() is not None)
        return DRIVEN.potential(t, x)

    rho = _state(64, "hermitian", DRIVEN.hbar)
    engine = SplitStepEngine(rho.grid, replace(DRIVEN, potential=potential))
    states = run_density(engine, rho.values, T0, DT, 4, stride=2)
    _, values = next(states)
    ref = weakref.ref(values)
    del values, alive[:]
    next(states)
    assert ref() is None
    assert alive == [False, False]


@pytest.mark.parametrize("stride", [0, -1])
def test_run_density_refuses_a_stride_below_one(stride):
    rho = _state(16, "hermitian")
    loop = run_density(SplitStepEngine(rho.grid, STATIC), rho.values, T0, DT, 4,
                       stride=stride)
    with pytest.raises(ValueError, match="stride must be >= 1"):
        next(loop)
