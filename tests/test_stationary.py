import numpy as np
import pytest

from dynkit.errors import HermiticityError
from dynkit.grids import make_grid
from dynkit.matfunc import func_of_hermitian
from dynkit.open_systems import DensityMatrix, gibbs_density
from dynkit.stationary import (
    HamiltonianSpec,
    band_structure,
    build_fd_hamiltonian,
    build_spectral_hamiltonian,
    eigensolve,
    eigenvalues,
    find_spectral_peaks,
    spectrum_via_propagation,
    triangular_fd_energies,
)
from dynkit.tdse import gaussian_packet

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)


class TestFiniteDifference:
    def test_central_oscillator_ground_energy(self):
        g = make_grid(10.0, 512)
        h = build_fd_hamiltonian(g, lambda x: x ** 2 / 2, "central")
        res = eigensolve(h, dx=g.dx)
        assert abs(res.energies[0] - 0.5) < 1e-3

    def test_central_oscillator_low_ladder(self):
        g = make_grid(5.0, 512)
        h = build_fd_hamiltonian(g, lambda x: x ** 2 / 2, "central")
        res = eigensolve(h, dx=g.dx)
        for n in range(6):
            assert abs(res.energies[n] - (n + 0.5)) < 1e-3

    def test_forward_is_triangular_with_diagonal_spectrum(self):
        g = make_grid(5.0, 64)
        u = lambda x: np.cos(x) + 0.1 * x ** 2
        h = build_fd_hamiltonian(g, u, "forward")
        assert np.max(np.abs(np.tril(h, -1))) == 0  # upper triangular
        assert np.max(np.abs(h - h.conj().T)) > 0
        expected = -1.0 / (2 * g.dx ** 2) + u(g.x)
        eigs = np.sort(np.linalg.eigvals(h).real)
        np.testing.assert_allclose(eigs, np.sort(expected), atol=1e-8)

    def test_backward_is_lower_triangular(self):
        g = make_grid(5.0, 32)
        h = build_fd_hamiltonian(g, lambda x: x ** 2, "backward")
        assert np.max(np.abs(np.triu(h, 1))) == 0
        assert np.max(np.abs(h - h.conj().T)) > 0

    def test_central_free_particle_band(self):
        g = make_grid(5.0, 128)
        h = build_fd_hamiltonian(g, lambda x: 0.0 * x, "central")
        eigs = np.linalg.eigvalsh(h)
        assert eigs[0] > -1e-12
        assert eigs[-1] < 2.0 / g.dx ** 2 + 1e-9
        theta = np.pi * np.arange(1, g.n + 1) / (g.n + 1)
        closed_form = (1 - np.cos(theta)) / g.dx ** 2
        np.testing.assert_allclose(eigs, np.sort(closed_form), atol=1e-9)

    def test_rejects_unknown_scheme(self):
        g = make_grid(5.0, 32)
        with pytest.raises(ValueError):
            build_fd_hamiltonian(g, lambda x: x, "upwind")

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("scheme", ["forward", "backward"])
    @pytest.mark.parametrize("mass", [1.0, 0.7])
    def test_triangular_energies_are_the_sorted_stencil_diagonal(self, scheme,
                                                                 n, mass):
        g = make_grid(5.0, n, hbar=0.9)
        u = lambda x: np.cos(x) + 0.1 * x ** 2
        expected = np.sort(np.diag(build_fd_hamiltonian(g, u, scheme, mass)))
        got = triangular_fd_energies(g, u, scheme, mass)
        assert got.tobytes() == expected.tobytes()
        # a potential given as grid values gives the same bits
        assert triangular_fd_energies(g, u(g.x), scheme, mass).tobytes() \
            == expected.tobytes()

    @pytest.mark.parametrize("scheme", ["central", "upwind"])
    def test_triangular_energies_refuse_other_schemes(self, scheme):
        with pytest.raises(ValueError, match="triangular|scheme"):
            triangular_fd_energies(make_grid(5.0, 32), lambda x: x, scheme)


@pytest.mark.parametrize("potential, message", [
    (lambda x: np.zeros(x.size + 1), "potential shape"),
    (lambda x: np.where(x > 0, np.nan, 0.0), "potential is not finite"),
    (lambda x: np.full(x.shape, np.inf), "potential is not finite"),
])
def test_fd_hamiltonian_refuses_a_bad_potential(potential, message):
    with pytest.raises(ValueError, match=message):
        build_fd_hamiltonian(make_grid(5.0, 32), potential, "central")


class TestSpectralHamiltonian:
    def test_oscillator_low_spectrum(self):
        g = make_grid(10.0, 256)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        assert np.max(np.abs(h - h.conj().T)) < 1e-10
        res = eigensolve(h, dx=g.dx)
        np.testing.assert_allclose(res.energies[:5], np.arange(5) + 0.5,
                                   atol=1e-6)

    def test_zero_kinetic_is_diagonal_potential(self):
        g = make_grid(4.0, 32)
        spec = HamiltonianSpec(kinetic=lambda t, p: 0.0 * p,
                               potential=lambda t, x: np.sin(x))
        h = build_spectral_hamiltonian(g, spec)
        np.testing.assert_allclose(h, np.diag(np.sin(g.x)), atol=1e-12)

    def test_agrees_with_central_fd_for_low_states(self):
        g = make_grid(10.0, 256)
        h_spec = build_spectral_hamiltonian(g, OSCILLATOR)
        h_fd = build_fd_hamiltonian(g, lambda x: x ** 2 / 2, "central")
        e_spec = np.linalg.eigvalsh(h_spec)
        e_fd = np.linalg.eigvalsh(h_fd)
        # central differences carry an O(dx^2) error; the spectral ones do not
        np.testing.assert_allclose(e_fd[:4], e_spec[:4], atol=5 * g.dx ** 2)

    def test_rejects_bad_grid(self):
        g = make_grid(4.0, 30)
        with pytest.raises(ValueError):
            build_spectral_hamiltonian(g, OSCILLATOR)


class TestEigensolve:
    def test_diagonal(self):
        res = eigensolve(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(res.energies, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        res = eigensolve(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(res.energies, [-1.0, 1.0])

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (a + a.conj().T) / 2
        res = eigensolve(h)
        rebuilt = res.states @ np.diag(res.energies) @ res.states.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10

    def test_orthonormality_dx_weighted(self):
        g = make_grid(10.0, 128)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        gram = res.states.conj().T @ res.states * g.dx
        assert np.max(np.abs(gram - np.eye(g.n))) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigenvalues:
    def test_matches_eigensolve_energies(self):
        g = make_grid(10.0, 128)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        for h in (build_spectral_hamiltonian(g, OSCILLATOR),
                  build_fd_hamiltonian(g, lambda x: x ** 2 / 2),
                  (a + a.conj().T) / 2, np.diag([3.0, 1.0, 2.0])):
            e = eigenvalues(h)
            assert e.dtype == np.float64
            assert np.all(np.diff(e) >= 0)
            ref = eigensolve(h).energies
            assert np.max(np.abs(e - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("h", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 1j], [1j, 1.0]]),
        np.diag([1.0, 2.0]) + 1e-6 * np.triu(np.ones((2, 2)), 1),
    ])
    def test_rejects_non_hermitian(self, h):
        with pytest.raises(HermiticityError, match="hermitian"):
            eigenvalues(h)
        with pytest.raises(HermiticityError, match="hermitian"):
            eigensolve(h)


class TestBandStructure:
    def test_rejects_more_bands_than_cell_points(self):
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.0 * x)
        with pytest.raises(ValueError, match="n_bands"):
            band_structure(spec, 2.0, 4, [0.0], 5)

    @pytest.mark.parametrize("n_bands, n_cell_grid, name", [
        (0, 8, "n_bands"), (-1, 8, "n_bands"), (1, 1, "n_cell_grid")],
        ids=["0-8", "-1-8", "1-1"])
    def test_rejects_no_bands_or_a_single_cell_point(self, n_bands, n_cell_grid, name):
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.0 * x)
        with pytest.raises(ValueError, match=rf"^{name} must be >= \d and an integer"):
            band_structure(spec, 2.0, n_cell_grid, [0.0], n_bands)

    @pytest.mark.parametrize("a", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_non_finite_or_nonpositive_lattice_constant(self, a):
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.0 * x)
        with pytest.raises(ValueError, match="lattice_constant"):
            band_structure(spec, a, 8, [0.0], 2)

    def test_free_particle_folded_parabola(self):
        a = 2.0
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.0 * x)
        ks = np.linspace(-np.pi / a * 0.95, np.pi / a * 0.95, 9)
        bands = band_structure(spec, a, 32, ks, 2)
        np.testing.assert_allclose(bands[:, 0], ks ** 2 / 2, atol=1e-8)

    def test_k_zero_matches_plain_periodic_spectrum(self):
        a = 2.0 * np.pi
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.3 * np.cos(x))
        bands = band_structure(spec, a, 64, [0.0], 4)
        # oracle: dense periodic Hamiltonian assembled from the DFT matrix
        n = 64
        p = 2 * np.pi * np.fft.fftfreq(n, d=a / n)
        f = np.fft.fft(np.eye(n), axis=0)
        h = np.fft.ifft((p ** 2 / 2)[:, None] * f, axis=0)
        h[np.arange(n), np.arange(n)] += 0.3 * np.cos(np.arange(n) * a / n)
        oracle = np.linalg.eigvalsh(h)[:4]
        np.testing.assert_allclose(bands[0], oracle, atol=1e-10)

    def test_finite_ring_quasimomentum_count(self):
        # N cells on a ring admit exactly N distinct quasimomenta; the N
        # lowest states of the N-cell ring must reproduce E_0(k) on them.
        a = 2.0
        n_cells = 4
        cell_points = 16
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.5 * np.cos(2 * np.pi * x / a))
        ks = 2 * np.pi * np.arange(n_cells) / (a * n_cells)
        ks = np.where(ks > np.pi / a, ks - 2 * np.pi / a, ks)  # fold to the zone
        per_k = band_structure(spec, a, cell_points, ks, 1)[:, 0]
        n = n_cells * cell_points
        ring = a * n_cells
        p = 2 * np.pi * np.fft.fftfreq(n, d=ring / n)
        f = np.fft.fft(np.eye(n), axis=0)
        h = np.fft.ifft((p ** 2 / 2)[:, None] * f, axis=0)
        x = np.arange(n) * ring / n
        h[np.arange(n), np.arange(n)] += 0.5 * np.cos(2 * np.pi * x / a)
        ring_spectrum = np.linalg.eigvalsh(h)[:n_cells]
        np.testing.assert_allclose(np.sort(per_k), np.sort(ring_spectrum),
                                   atol=1e-8)


class TestSpectrumViaPropagation:
    def test_single_eigenstate_single_peak(self):
        g = make_grid(10.0, 128)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        from dynkit.tdse import WaveFunction
        psi0 = WaveFunction(res.states[:, 2].astype(complex), g)
        energies, density = spectrum_via_propagation(psi0, OSCILLATOR,
                                                     duration=40.0, dt=0.025)
        peaks = find_spectral_peaks(energies, density)
        assert len(peaks) == 1
        assert abs(peaks[0] - 2.5) < 2 * np.pi / 40.0

    def test_coherent_packet_oscillator_ladder(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0, sigma=1.0 / np.sqrt(2))
        energies, density = spectrum_via_propagation(psi0, OSCILLATOR,
                                                     duration=80.0, dt=0.025)
        peaks = find_spectral_peaks(energies, density)
        resolution = 2 * np.pi / 80.0
        for peak in peaks:
            distance = np.min(np.abs(peak - (np.arange(12) + 0.5)))
            assert distance < resolution

    @pytest.mark.parametrize("duration, message", [
        (0.075, "even"),                   # three steps
        (0.025, "in steps of 0.025 counts 1, fewer than 2"),
        (0.0, "in steps of 0.025 counts 0, fewer than 2"),
    ])
    def test_rejects_an_odd_or_too_short_duration(self, duration, message):
        psi0 = gaussian_packet(make_grid(8.0, 32))
        with pytest.raises(ValueError, match=message):
            spectrum_via_propagation(psi0, OSCILLATOR, duration=duration, dt=0.025)

    def test_quartic_peaks_match_eigensolve(self):
        quartic = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                                  potential=lambda t, x: 0.25 * x ** 4)
        g = make_grid(8.0, 128)
        h = build_spectral_hamiltonian(g, quartic)
        res = eigensolve(h, dx=g.dx)
        psi0 = gaussian_packet(g, x0=1.2, sigma=0.7)
        duration = 80.0
        energies, density = spectrum_via_propagation(psi0, quartic,
                                                     duration=duration,
                                                     dt=0.025)
        resolution = 2 * np.pi / duration
        peaks = find_spectral_peaks(energies, density)
        assert len(peaks) >= 3
        for peak in peaks:
            assert np.min(np.abs(peak - res.energies[:20])) < resolution

    def test_two_component_weight_ratio(self):
        g = make_grid(10.0, 128)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        c0, c1 = np.sqrt(0.8), np.sqrt(0.2)
        from dynkit.tdse import WaveFunction
        psi0 = WaveFunction(c0 * res.states[:, 0] + c1 * res.states[:, 3], g)
        # duration 32 pi puts both E = 0.5 and E = 3.5 exactly on the energy
        # grid (spacing 1/16), so peak heights are not skewed by sinc sampling
        duration = 32 * np.pi
        energies, density = spectrum_via_propagation(psi0, OSCILLATOR,
                                                     duration=duration,
                                                     dt=duration / 4096)
        h0 = density[np.argmin(np.abs(energies - 0.5))]
        h1 = density[np.argmin(np.abs(energies - 3.5))]
        ratio = h0 / h1
        assert abs(ratio - 0.8 / 0.2) < 0.2


def _bands_of(h):
    """band_structure on a len(h)-point cell whose potential is h's column sums."""
    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                           potential=lambda t, x: h.sum(axis=0))
    return band_structure(spec, 1.0, len(h), [0.0], 2)


def _min_eigenvalue_of(h):
    return DensityMatrix(np.asarray(h, dtype=complex)).min_eigenvalue()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(1, 2), (2, 2)], ids=("pair", "diagonal"))
@pytest.mark.parametrize("solver", [
    eigensolve, eigenvalues, lambda h: func_of_hermitian(h, np.exp), _bands_of,
    lambda h: gibbs_density(h, 1.0), _min_eigenvalue_of,
], ids=("eigensolve", "eigenvalues", "func_of_hermitian", "band_structure",
        "gibbs_density", "min_eigenvalue"))
def test_eigensolvers_refuse_non_finite_entries(solver, where, bad):
    h = np.eye(4)
    h[where] = h[where[::-1]] = bad
    with pytest.raises(HermiticityError, match="hermitian"):
        solver(h)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", [eigensolve, eigenvalues, _min_eigenvalue_of])
def test_eigensolvers_refuse_one_sided_inf(solver):
    h = np.eye(4)
    h[0, 3] = np.inf
    with pytest.raises(HermiticityError, match="hermitian"):
        solver(h)


PEAKED = np.array([0.0, 1.0, 0.2, 0.5, 0.1, 0.01, 0.03, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_spectral_peaks_refuses_non_finite_density(bad):
    density = PEAKED.copy()
    density[2] = bad
    with pytest.raises(ValueError, match="density"):
        find_spectral_peaks(np.arange(8.0), density)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("threshold", [np.nan, np.inf, -0.1])
def test_find_spectral_peaks_refuses_bad_threshold(threshold):
    with pytest.raises(ValueError, match="rel_threshold"):
        find_spectral_peaks(np.arange(8.0), PEAKED, rel_threshold=threshold)


@pytest.mark.parametrize("threshold, expected", [
    (0.0, [1.0, 3.0, 6.0]), (0.05, [1.0, 3.0]), (0.6, [1.0]), (1.0, []),
])
def test_find_spectral_peaks_on_finite_input(threshold, expected):
    peaks = find_spectral_peaks(np.arange(8.0), PEAKED, rel_threshold=threshold)
    np.testing.assert_array_equal(peaks, expected)
