"""The Pauli split step against its per-component original.

``reference_pauli_split_op_step`` is the earlier implementation kept
verbatim: it transforms the two spinor components one at a time through
``fft_bridge`` and ``ifft_bridge`` copies.  The production step transforms
them as one (2, n) block in place and must reproduce it bitwise.
"""

import numpy as np
import pytest

from dynkit.grids import fft_bridge, ifft_bridge, make_grid
from dynkit.steps import require_step
from dynkit.tdse import (
    PauliHamiltonianSpec,
    SpinorWaveFunction,
    _pauli_apply,
    _pauli_coeffs,
    _pauli_factors,
    _require_finite_phases,
    pauli_split_op_step,
)


def reference_pauli_split_op_step(spinor: SpinorWaveFunction, t: float, dt: float,
                                  spec: PauliHamiltonianSpec) -> SpinorWaveFunction:
    require_step(dt)
    grid = spinor.grid
    grid.require_fft_bridge()
    hbar = spec.hbar
    tm = t + dt / 2.0
    half = _pauli_factors(dt / 2.0, hbar, _pauli_coeffs(spec.potential, tm, grid.x))
    kin = _pauli_factors(dt, hbar, _pauli_coeffs(spec.kinetic, tm, grid.p_fft))
    _require_finite_phases(dt, U=half, K=kin)
    up, down = _pauli_apply(half, spinor.up, spinor.down)
    up, down = fft_bridge(up), fft_bridge(down)
    up, down = _pauli_apply(kin, up, down)
    up, down = ifft_bridge(up), ifft_bridge(down)
    up, down = _pauli_apply(half, up, down)
    return SpinorWaveFunction(up, down, grid)


# every sigma term nonzero in both K and U, and the coupling driven in time
DRIVEN = PauliHamiltonianSpec(
    kinetic=(lambda t, p: p ** 2 / 2,
             lambda t, p: 0.1 * p * np.cos(t),
             lambda t, p: 0.05 * p,
             lambda t, p: 0.02 * p ** 2),
    potential=(lambda t, x: x ** 2 / 2,
               lambda t, x: 0.4 * np.exp(-x ** 2) * np.sin(3.0 * t),
               lambda t, x: 0.2 * x * np.cos(2.0 * t),
               lambda t, x: 0.3 * np.tanh(x)),
    hbar=0.9)


@pytest.mark.parametrize("n", [64, 1024])
def test_pauli_step_matches_reference_over_many_steps(n):
    grid = make_grid(10.0, n, DRIVEN.hbar)
    up = np.exp(-(grid.x - 1.0) ** 2 + 0.5j * grid.x)
    down = 0.6 * np.exp(-(grid.x + 0.5) ** 2 / 2)
    new = ref = SpinorWaveFunction(up, down, grid)
    dt = 0.02
    for m in range(100):
        new = pauli_split_op_step(new, m * dt, dt, DRIVEN)
        ref = reference_pauli_split_op_step(ref, m * dt, dt, DRIVEN)
    assert np.array_equal(new.up, ref.up)
    assert np.array_equal(new.down, ref.down)
    # the step did mix the components, so the comparison is not of a trivial state
    assert np.max(np.abs(new.down - down)) > 0.1


def test_pauli_step_leaves_its_input_unchanged():
    grid = make_grid(10.0, 64, DRIVEN.hbar)
    up = np.exp(-grid.x ** 2).astype(complex)
    down = 0.5 * up
    spinor = SpinorWaveFunction(up.copy(), down.copy(), grid)
    pauli_split_op_step(spinor, 0.0, 0.05, DRIVEN)
    assert np.array_equal(spinor.up, up) and np.array_equal(spinor.down, down)
