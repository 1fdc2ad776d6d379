"""Density momentum weights from one 1-D FFT against the 2-D bridged transform.

The reference below is the earlier ``momentum_distribution``, kept verbatim
(name changed only): it transforms the whole n x n matrix with the FFT
bridge on both indices and reads the diagonal.  The one-FFT form must agree
with it to rounding on pure, thermal and random (also non-hermitian) rho.
"""

import numpy as np
import pytest

from dynkit.grids import fft_bridge, ifft_bridge, make_grid
from dynkit.open_systems import (
    DensityMatrix,
    gibbs_density,
    momentum_distribution,
    pure_state_density,
)
from dynkit.stationary import HamiltonianSpec, build_spectral_hamiltonian
from dynkit.tdse import gaussian_packet

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)


def reference_momentum_distribution(rho: DensityMatrix) -> np.ndarray:
    """P(p_k) = <p_k| rho |p_k> through the double FFT bridge (weight dp)."""
    if rho.grid is None:
        raise ValueError("momentum_distribution needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    a = fft_bridge(rho.values, axis=0)
    a = grid.n * ifft_bridge(a, axis=1)
    a = a * grid.dx ** 2 / (2.0 * np.pi * grid.hbar)
    return np.real(np.diag(a)).copy()


def _random(n, hermitian, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2 if hermitian else a


STATES = {
    "gaussian": lambda g: pure_state_density(
        gaussian_packet(g, x0=0.5, p0=0.7, sigma=1.0)),
    "gibbs": lambda g: gibbs_density(build_spectral_hamiltonian(g, OSCILLATOR),
                                     beta=1.3, grid=g),
    "random_hermitian": lambda g: DensityMatrix(_random(g.n, True, g.n), g),
    "random_non_hermitian": lambda g: DensityMatrix(_random(g.n, False, g.n), g),
}


@pytest.mark.parametrize("n", [4, 64, 256])
@pytest.mark.parametrize("state", sorted(STATES))
def test_matches_bridged_transform(state, n):
    g = make_grid(8.0, n, hbar=0.9)
    rho = STATES[state](g)
    ref = reference_momentum_distribution(rho)
    new = momentum_distribution(rho)
    assert new.shape == ref.shape == (n,)
    assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_rejects_grid_size_off_the_bridge():
    g = make_grid(8.0, 6)
    with pytest.raises(ValueError, match="divisible by 4"):
        momentum_distribution(DensityMatrix(np.eye(6) / (6 * g.dx), g))


def reference_diagonal_sums(values: np.ndarray) -> np.ndarray:
    """s_d = sum_l rho[l, (l - d) mod n] by the earlier per-call gather."""
    n = values.shape[0]
    idx = np.arange(n)[:, None]
    return values[idx, (idx - idx.T) % n].sum(axis=0)


@pytest.mark.parametrize("n", [4, 64, 256, 1024])
def test_skew_index_gather_matches_the_per_call_gather(n):
    from dynkit.open_systems import _skew_index

    values = _random(n, False, n)
    got = np.take(values, _skew_index(n)).sum(axis=0)
    assert got.tobytes() == reference_diagonal_sums(values).tobytes()
    # a transposed (Fortran-ordered) matrix is gathered in C order as well
    got = np.take(values.T, _skew_index(n)).sum(axis=0)
    assert got.tobytes() == reference_diagonal_sums(values.T).tobytes()


def test_momentum_distribution_keeps_grid_sizes_apart():
    # interleaved sizes: an index cached under the wrong key gathers wrongly
    grids = [make_grid(8.0, 64), make_grid(8.0, 32)]
    for _ in range(2):
        for g in grids:
            rho = DensityMatrix(_random(g.n, True, g.n), g)
            ref = reference_momentum_distribution(rho)
            new = momentum_distribution(rho)
            assert new.shape == (g.n,)
            assert np.max(np.abs(new - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_skew_index_is_shared_and_read_only():
    from dynkit.open_systems import _skew_index

    index = _skew_index(8)
    assert _skew_index(8) is index
    assert index.shape == (8, 8)
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0] = 0
