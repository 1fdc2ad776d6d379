"""A quarter period of the harmonic oscillator rotates phase space by 90 degrees.

Under H = p^2/2 + x^2/2 the Wigner function moves exactly by the classical
flow, and after a quarter period T/4 = pi/2 that flow is (x, p) -> (p, -x).
On ``make_grid(sqrt(pi n hbar / 2), n)`` the Wigner x spacing dx/2 equals
the p spacing pi hbar / (2 half_width), so the rotation is an index map
with no interpolation:

    W(T/4)[i, j] = W0[n - (j - n/2), i - n/2]   for n/2 <= i < 3n/2,

and W(T/4) vanishes at the other centers.  Three independent routes reach
it: ``propagate`` followed by ``wigner_from_density``, the symmetrized
``moyal_two_state_step`` with two equal surfaces and no dipole, and the
classical Verlet flow of ``propagate_ensemble``.  Each is second order in
the step, so the error falls 4x per halved step; the bounds below are the
errors measured at n = 128 (x0 = 2, p0 = 1 and sigma = 2^-1/2 at hbar = 1,
scaled by sqrt(hbar) otherwise) with about 30% room.
"""

import numpy as np
import pytest

from dynkit.classical import ClassicalEnsemble, ClassicalSpec, propagate_ensemble
from dynkit.grids import make_grid
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import gaussian_packet, propagate
from dynkit.wigner import (
    MoleculeSpec,
    TwoStateWigner,
    _wigner_axes,
    moyal_two_state_step,
    wigner_from_density,
)

N = 128
QUARTER = np.pi / 2


def rotation_grid(hbar):
    return make_grid(np.sqrt(np.pi * N * hbar / 2), N, hbar)


def coherent_packet(hbar):
    """Coherent state at (2, 1) sqrt(hbar): its Wigner peak is 1/(pi hbar)."""
    r = np.sqrt(hbar)
    return gaussian_packet(rotation_grid(hbar), 2.0 * r, 1.0 * r, sigma=r / np.sqrt(2))


def rotated(w0):
    """R W0 on the window n/2 <= i < 3n/2: the (2n, n) W0 turned by 90 degrees."""
    i = np.arange(N // 2, 3 * N // 2)[:, None]
    j = np.arange(N)[None, :]
    return w0[N - (j - N // 2), i - N // 2]


def rotation_errors(w, w0):
    """(max |W - R W0| inside the window over the W0 peak, max |W| outside it)."""
    inside = np.max(np.abs(w[N // 2:3 * N // 2] - rotated(w0))) / np.max(w0)
    outside = max(np.max(np.abs(w[:N // 2])), np.max(np.abs(w[3 * N // 2:])))
    return inside, outside


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0])
def test_wigner_grid_is_square_and_the_rotation_moves_the_packet(hbar):
    x_w, p_w, _ = _wigner_axes(rotation_grid(hbar))
    assert np.isclose(x_w[1] - x_w[0], p_w[1] - p_w[0], rtol=1e-12)
    w0 = wigner_from_density(coherent_packet(hbar)).values
    assert abs(np.max(w0) * np.pi * hbar - 1.0) < 1e-4  # measured 4.5e-5 below
    # R W0 is far from W0, so a route that did nothing could not pass
    assert np.max(np.abs(w0[N // 2:3 * N // 2] - rotated(w0))) > 0.9 * np.max(w0)


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0])
def test_propagate_rotates_the_wigner_function(hbar):
    psi0 = coherent_packet(hbar)
    w0 = wigner_from_density(psi0).values
    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                           potential=lambda t, x: x ** 2 / 2, hbar=hbar)
    errors = []
    for n_steps in (50, 200):
        psi, _ = propagate(psi0, 0.0, QUARTER, QUARTER / n_steps, spec)
        inside, outside = rotation_errors(wigner_from_density(psi).values, w0)
        assert outside <= 1e-14
        errors.append(inside)
    # measured 2.36e-4 and 1.47e-5 of the peak at every hbar: 16x per 4x steps
    assert errors[1] <= 1.9e-5
    assert 15.5 <= errors[0] / errors[1] <= 16.5


def moyal_rotation(hbar, n_steps):
    w = wigner_from_density(coherent_packet(hbar))
    zero = np.zeros_like(w.values)
    w2 = TwoStateWigner(w.values, zero, zero, w.x, w.p, hbar)
    oscillator = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                              v_ground=lambda x: x ** 2 / 2,
                              v_excited=lambda x: x ** 2 / 2,
                              dipole=lambda x: 0.0 * x, pulse=lambda t: 0.0)
    dt = QUARTER / n_steps
    for m in range(n_steps):
        w2 = moyal_two_state_step(w2, m * dt, dt, oscillator, symmetrize=True)
    # no dipole and equal surfaces: the excited and coherence blocks stay empty
    assert not w2.w_e.any() and not w2.w_ge.any()
    return rotation_errors(w2.w_g, w.values)


def test_moyal_step_rotates_the_wigner_function():
    # about 20 ms a step at n = 128, so few steps; the error is in its
    # asymptotic range already
    coarse, outside = moyal_rotation(1.0, 12)
    fine, outside_fine = moyal_rotation(1.0, 24)
    assert max(outside, outside_fine) <= 1e-14
    # measured 6.65e-3 and 1.66e-3 of the peak: 4x per 2x steps
    assert fine <= 2.2e-3
    assert 3.9 <= coarse / fine <= 4.1


def test_moyal_step_rotates_the_wigner_function_at_another_hbar():
    inside, outside = moyal_rotation(0.5, 12)
    assert outside <= 1e-14
    assert inside <= 8.6e-3  # measured 6.65e-3, as at hbar = 1


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_classical_flow_is_the_index_map(hbar):
    # each grid point R names as the source of (x_w[i], p_w[j]) is carried there
    x_w, p_w, _ = _wigner_axes(rotation_grid(hbar))
    i = np.arange(N // 2, 3 * N // 2)[:, None]
    j = np.arange(N)[None, :]
    source = ClassicalEnsemble(np.broadcast_to(x_w[N - (j - N // 2)], (N, N)).ravel(),
                               np.broadcast_to(p_w[i - N // 2], (N, N)).ravel(),
                               np.full(N * N, 1.0 / (N * N)))
    target_x = np.broadcast_to(x_w[i], (N, N)).ravel()
    target_p = np.broadcast_to(p_w[j], (N, N)).ravel()
    spec = ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: x)
    errors = []
    for n_steps in (50, 200):
        end = propagate_ensemble(source, QUARTER / n_steps, n_steps, spec, n_steps)[-1]
        errors.append(max(np.max(np.abs(end.x - target_x)),
                          np.max(np.abs(end.p - target_p))) / rotation_grid(hbar).half_width)
    # measured 9.40e-5 and 5.87e-6 of the half-width: 16x per 4x steps
    assert errors[1] <= 7.6e-6
    assert 15.5 <= errors[0] / errors[1] <= 16.5


def test_quantum_and_classical_means_agree():
    # <x>, <p> of the quantum trace and of the classical ensemble weighted by
    # W0 land on (p0, -x0) = (1, -2).  For a quadratic H the Strang step and
    # the Verlet step are one linear map on the means, so the two agree to
    # rounding.  The coherent W0 is positive but for rounding, which the clip
    # removes.
    psi0 = coherent_packet(1.0)
    w = wigner_from_density(psi0)
    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                           potential=lambda t, x: x ** 2 / 2)
    _, trace = propagate(psi0, 0.0, QUARTER, QUARTER / 200, spec)
    x, p = np.meshgrid(w.x, w.p, indexing="ij")
    weights = np.maximum(w.values, 0.0).ravel()
    ensemble = ClassicalEnsemble(x.ravel(), p.ravel(), weights / weights.sum())
    end = propagate_ensemble(ensemble, QUARTER / 200, 200,
                             ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: x),
                             200)[-1]
    quantum = np.array([trace.x_mean[-1], trace.p_mean[-1]])
    classical = np.array([np.sum(end.weights * end.x), np.sum(end.weights * end.p)])
    assert np.max(np.abs(quantum - classical)) < 1e-12
    assert np.max(np.abs(quantum - [1.0, -2.0])) < 1.5e-5  # measured 1.14e-5
