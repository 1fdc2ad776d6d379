"""Density-matrix steps through SplitStepEngine against the two-sided kernel they replaced.

The reference below is the seed's ``_two_sided_kernel`` with its helpers and
the three grid steps built on it, kept verbatim (names prefixed only): a
phase (or decay) factor on the (x, x') grid, a double FFT bridge to (p, p'),
the kinetic phase and the way back.  The library now steps the ket index
with the engine's U and the bra index with conj(U), and puts the dissipative
factor G on both sides of that sandwich; both are the same operator, so they
must agree to rounding.
"""

from typing import Callable

import numpy as np
import pytest

from dynkit.grids import _alt_signs, make_grid
from dynkit.open_systems import (
    DensityMatrix,
    lindblad_x_step,
    pure_state_density,
    random_collision_step,
    vonneumann_step,
)
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import gaussian_packet


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


def _state(n, kind):
    grid = make_grid(8.0, n)
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
    rho = _state(n, rho_kind)
    rho_beta = pure_state_density(gaussian_packet(rho.grid, sigma=0.5))
    new, ref = _steppers(step_name, SPECS[spec_name], rho_beta)
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


@pytest.mark.parametrize("dt", [np.nan, np.inf])
@pytest.mark.parametrize("step_name", ["vonneumann", "lindblad-linear",
                                       "collision"])
def test_grid_steps_reject_non_finite_step(step_name, dt):
    rho = _state(64, "hermitian")
    new, _ = _steppers(step_name, SPECS[sorted(SPECS)[0]], rho)
    with pytest.raises(ValueError, match="finite"):
        new(rho, T0, dt)
