"""Real Hamiltonians in real arithmetic, against the complex paths they replace.

The spectral Hamiltonian's kinetic block is built as one circulant from a
length-n transform; the reference below is the earlier build, the n x n
kinetic diagonal pushed through the two FFT-bridge passes.  Bloch bands
build each quasimomentum's H from the same circulant; their reference is the
earlier build, an n x n transform of the identity and one n x n inverse
transform per quasimomentum.  The
finite-difference matrices are float64, and the real eigensolve of the
central stencil gives the bytes of the complex one.  The hermiticity defect
is taken over row blocks and must equal the whole-matrix expression bit for
bit, NaN and inf included.
"""

import numpy as np
import pytest

from dynkit.cli import kinetic_from_config
from dynkit.grids import fft_bridge, ifft_bridge, make_grid
from dynkit.matfunc import _DEFECT_BLOCK, _hermitian_solve, _hermiticity_defect
from dynkit.open_systems import DensityMatrix
from dynkit.stationary import (
    FD_SCHEMES,
    HamiltonianSpec,
    band_structure,
    build_fd_hamiltonian,
    build_spectral_hamiltonian,
    eigensolve,
    eigenvalues,
)


def reference_spectral_hamiltonian(grid, spec, t=0.0):
    """The earlier build: diag(K) through ifft_bridge on rows, fft_bridge on columns."""
    n = grid.n
    kdiag = np.asarray(spec.kinetic(t, grid.p_fft), dtype=float)
    u = np.asarray(spec.potential(t, grid.x), dtype=float)
    m = np.diag(kdiag.astype(complex))
    m = ifft_bridge(m, axis=0)
    m = fft_bridge(m, axis=1)
    m[np.arange(n), np.arange(n)] += u
    return m


def _config_kinetic(block):
    k, _ = kinetic_from_config(block)
    return lambda t, p: k(p)


KINETICS = {
    "free": (_config_kinetic({"name": "free", "mass": 0.7}), np.float64),
    "even-poly": (_config_kinetic({"name": "poly", "coeffs": [0.1, 0.0, 0.5, 0.0, 0.02]}),
                  np.float64),
    "odd-poly": (_config_kinetic({"name": "poly", "coeffs": [0.0, 0.3, 0.5, 0.05]}),
                 np.complex128),
    "shifted": (lambda t, p: (p - 0.4) ** 2 / 2, np.complex128),
}


@pytest.mark.parametrize("n", [4, 8, 64, 100, 256, 512])
@pytest.mark.parametrize("name", sorted(KINETICS))
def test_circulant_build_matches_the_two_pass_build(name, n):
    kinetic, dtype = KINETICS[name]
    grid = make_grid(7.5, n, hbar=0.9)
    spec = HamiltonianSpec(kinetic=kinetic, potential=lambda t, x: 0.5 * x ** 2 + 0.1 * x)
    h = build_spectral_hamiltonian(grid, spec)
    ref = reference_spectral_hamiltonian(grid, spec)
    assert h.dtype == dtype
    assert h.flags.c_contiguous and h.flags.writeable
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert _hermiticity_defect(h) <= 1e-12 * np.max(np.abs(ref))


def test_real_spectral_energies_match_the_complex_build():
    grid = make_grid(10.0, 256)
    spec = HamiltonianSpec(kinetic=KINETICS["free"][0], potential=lambda t, x: x ** 2 / 2)
    got = eigenvalues(build_spectral_hamiltonian(grid, spec))
    ref = eigenvalues(reference_spectral_hamiltonian(grid, spec))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def reference_band_structure(spec, a, n, quasimomenta, n_bands):
    """The earlier build: F^-1 diag(K(p + hbar k)) F with F = fft(eye(n))."""
    hbar = spec.hbar
    x = np.arange(n) * (a / n)
    p = 2.0 * np.pi * hbar * np.fft.fftfreq(n, d=a / n)
    u = np.asarray(spec.potential(0.0, x), dtype=float)
    fw = np.fft.fft(np.eye(n, dtype=complex), axis=0)
    bands = np.empty((len(quasimomenta), n_bands))
    for i, k in enumerate(quasimomenta):
        kdiag = np.asarray(spec.kinetic(0.0, p + hbar * k), dtype=float)
        h = np.fft.ifft(kdiag[:, None] * fw, axis=0)
        h[np.arange(n), np.arange(n)] += u
        bands[i, :] = _hermitian_solve(h, vectors=False, tol=1e-10)[:n_bands]
    return bands


BAND_KINETICS = {"even": lambda t, p: p * p / 2,
                 "uneven": lambda t, p: 0.5 * p * p + 0.3 * p + 0.05 * p * p * p}


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("name", sorted(BAND_KINETICS))
def test_circulant_bands_match_the_identity_transform_build(name, hbar, n):
    a = 2 * np.pi
    spec = HamiltonianSpec(kinetic=BAND_KINETICS[name], hbar=hbar,
                           potential=lambda t, x: 1.3 * np.cos(x) + 0.2 * np.sin(2 * x))
    ks = np.linspace(-np.pi / a, np.pi / a, 41)
    got = band_structure(spec, a, n, ks, min(n, 6))
    ref = reference_band_structure(spec, a, n, ks, min(n, 6))
    # measured at most 4.0e-14 max|E| over these cases (n = 64, even K)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_real_hamiltonian_has_real_states():
    grid = make_grid(10.0, 128)
    spec = HamiltonianSpec(kinetic=KINETICS["free"][0], potential=lambda t, x: x ** 2 / 2)
    res = eigensolve(build_spectral_hamiltonian(grid, spec), dx=grid.dx)
    assert res.states.dtype == np.float64
    assert np.max(np.abs(res.states.T @ res.states * grid.dx - np.eye(grid.n))) < 1e-8


@pytest.mark.parametrize("scheme", FD_SCHEMES)
def test_fd_hamiltonians_are_real(scheme):
    h = build_fd_hamiltonian(make_grid(10.0, 64), lambda x: x ** 2 / 2, scheme)
    assert h.dtype == np.float64


@pytest.mark.parametrize("n", [64, 128, 512])
def test_central_fd_energies_are_the_complex_solve_bit_for_bit(n):
    h = build_fd_hamiltonian(make_grid(10.0, n), lambda x: x ** 2 / 2, "central")
    assert eigenvalues(h).tobytes() == np.linalg.eigvalsh(h.astype(complex)).tobytes()


@pytest.mark.parametrize("dtype, solved", [(np.float32, np.float64), (np.int64, np.float64),
                                           (np.complex64, np.complex128)])
def test_solve_runs_in_double_precision_at_least(dtype, solved):
    h = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=dtype)
    assert eigensolve(h).states.dtype == solved
    assert eigenvalues(h).tobytes() == eigenvalues(h.astype(solved)).tobytes()


# ---------------------------------------------------------------------------
# the blocked hermiticity defect
# ---------------------------------------------------------------------------


def whole_matrix_defect(h):
    return float(np.max(np.abs(h - h.conj().T)))


def _same_float(a, b):
    return np.array([a]).tobytes() == np.array([b]).tobytes()


def _matrix(n, kind):
    rng = np.random.default_rng(n)
    if kind == "real":
        return rng.normal(size=(n, n))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "hermitian":
        return (a + a.conj().T) / 2
    return a


# n = 300 and 1024 split into several row blocks with a short last one
@pytest.mark.parametrize("n", [1, 2, 7, 300, 1024])
@pytest.mark.parametrize("kind", ["real", "complex", "hermitian"])
def test_blocked_defect_is_the_whole_matrix_defect_bit_for_bit(n, kind):
    h = _matrix(n, kind)
    assert _same_float(_hermiticity_defect(h), whole_matrix_defect(h))
    assert _same_float(DensityMatrix(h).hermiticity_defect(), whole_matrix_defect(h))


NON_FINITE = [(kind, bad) for kind in ("real", "hermitian")
              for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 1.0))
              if kind == "hermitian" or not isinstance(bad, complex)]


@pytest.mark.parametrize("where", [(0, 0), (3, 290), (299, 2), (299, 299)])
@pytest.mark.parametrize("kind, bad", NON_FINITE)
def test_blocked_defect_keeps_nan_and_inf(kind, bad, where):
    n = 300
    assert _DEFECT_BLOCK // n < n  # the matrix spans several row blocks
    h = _matrix(n, kind)
    h[where] = bad
    with np.errstate(invalid="ignore"):
        got, ref = _hermiticity_defect(h), whole_matrix_defect(h)
    assert np.isnan(ref) or ref == np.inf
    assert _same_float(got, ref)
