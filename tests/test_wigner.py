import numpy as np
import pytest

from dynkit.grids import POSITION, SpectralSignal, cft_forward_custom, make_grid
from dynkit.open_systems import DensityMatrix, lindblad_x_step, pure_state_density
from dynkit.stationary import HamiltonianSpec, build_spectral_hamiltonian, eigensolve
from dynkit.tdse import WaveFunction, gaussian_packet
from dynkit.wigner import (
    MoleculeSpec,
    TwoStateWigner,
    WignerFunction,
    density_from_wigner,
    moyal_two_state_step,
    wigner_from_density,
    wigner_marginals,
)

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)


def oscillator_ground(grid):
    psi = np.pi ** -0.25 * np.exp(-grid.x ** 2 / 2)
    return WaveFunction(psi.astype(complex), grid).normalized()


class TestWignerFromDensity:
    def test_ground_state_gaussian(self):
        g = make_grid(8.0, 128)
        w = wigner_from_density(pure_state_density(oscillator_ground(g)))
        xx, pp = np.meshgrid(w.x, w.p, indexing="ij")
        analytic = np.exp(-xx ** 2 - pp ** 2) / np.pi
        assert np.max(np.abs(w.values - analytic)) < 1e-6
        assert w.values.min() > -1e-10

    def test_normalization(self):
        g = make_grid(8.0, 128)
        w = wigner_from_density(pure_state_density(gaussian_packet(g, x0=0.7,
                                                                   p0=0.4)))
        assert abs(w.normalization() - 1.0) < 1e-8

    def test_first_excited_negativity_witness(self):
        g = make_grid(8.0, 128)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        psi = WaveFunction(res.states[:, 1].astype(complex), g)
        w = wigner_from_density(pure_state_density(psi))
        i0 = np.argmin(np.abs(w.x))
        k0 = np.argmin(np.abs(w.p))
        assert abs(w.x[i0]) < 1e-12 and abs(w.p[k0]) < 1e-12
        assert abs(w.values[i0, k0] + 1 / np.pi) < 1e-4

    def test_imaginary_residue_guard(self):
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g))
        broken = DensityMatrix(rho.values + 1e-5j * np.eye(g.n), g)
        with pytest.raises(Exception):
            wigner_from_density(broken)


class TestMarginals:
    def test_position_marginal_matches_wavefunction(self):
        g = make_grid(8.0, 128)
        psi = gaussian_packet(g, x0=0.5, p0=0.8, sigma=0.9)
        w = wigner_from_density(pure_state_density(psi))
        px, pp = wigner_marginals(w)
        assert np.max(np.abs(px[::2] - np.abs(psi.values) ** 2)) < 1e-8

    def test_momentum_marginal_matches_transform(self):
        g = make_grid(8.0, 128)
        psi = gaussian_packet(g, x0=0.5, p0=0.8, sigma=0.9)
        w = wigner_from_density(pure_state_density(psi))
        _, pp = wigner_marginals(w)
        sig = cft_forward_custom(SpectralSignal(psi.values, g, POSITION),
                                 dp=w.dp, normalized=True)
        assert np.max(np.abs(pp - np.abs(sig.values) ** 2)) < 1e-8

    def test_marginals_normalized(self):
        g = make_grid(8.0, 128)
        w = wigner_from_density(pure_state_density(gaussian_packet(g, x0=-0.3)))
        px, pp = wigner_marginals(w)
        assert abs(np.sum(px) * w.dx - 1.0) < 1e-8
        assert abs(np.sum(pp) * w.dp - 1.0) < 1e-8


class TestDensityFromWigner:
    def test_roundtrip_from_density(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        from dynkit.open_systems import gibbs_density
        rho = gibbs_density(h, beta=1.3, grid=g)
        w = wigner_from_density(rho)
        back = density_from_wigner(w)
        assert np.max(np.abs(back.values - rho.values)) < 1e-12

    def test_roundtrip_from_wigner(self):
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=0.4, p0=-0.6))
        w = wigner_from_density(rho)
        again = wigner_from_density(density_from_wigner(w))
        assert np.max(np.abs(again.values - w.values)) < 1e-9

    def test_minimal_gaussian_gives_pure_density(self):
        g = make_grid(8.0, 128)
        from dynkit.wigner import _wigner_axes
        x_w, p_w, _ = _wigner_axes(g)
        xx, pp = np.meshgrid(x_w, p_w, indexing="ij")
        w = WignerFunction(np.exp(-xx ** 2 - pp ** 2) / np.pi, x_w, p_w,
                           g.hbar, grid=g)
        rho = density_from_wigner(w)
        purity = np.real(np.trace(rho.values @ rho.values)) * g.dx ** 2
        assert abs(purity - 1.0) < 1e-6
        assert abs(rho.trace() - 1.0) < 1e-8

    def test_widened_gaussian_is_mixed(self):
        g = make_grid(8.0, 128)
        from dynkit.wigner import _wigner_axes
        x_w, p_w, _ = _wigner_axes(g)
        xx, pp = np.meshgrid(x_w, p_w, indexing="ij")
        s = 2.0  # covariance doubled in both directions: purity 1/s^2... 1/4
        w = WignerFunction(np.exp(-(xx ** 2 + pp ** 2) / s) / (np.pi * s),
                           x_w, p_w, g.hbar, grid=g)
        rho = density_from_wigner(w)
        purity = np.real(np.trace(rho.values @ rho.values)) * g.dx ** 2
        oracle = 2 * np.pi * g.hbar * np.sum(w.values ** 2) * w.dx * w.dp
        assert purity < 0.9
        assert abs(purity - oracle) < 1e-6


def single_surface_spec(potential, kinetic=lambda p: p ** 2 / 2):
    return MoleculeSpec(kinetic=kinetic, v_ground=potential,
                        v_excited=potential, dipole=lambda x: np.ones_like(x),
                        pulse=lambda t: 0.0)


def make_two_state(grid, x0=1.0):
    w = wigner_from_density(pure_state_density(gaussian_packet(grid, x0=x0)))
    zero = np.zeros_like(w.values)
    return TwoStateWigner(w.values, zero, zero.astype(complex), w.x, w.p,
                          grid.hbar)


class TestMoyalTwoState:
    def test_decoupled_identical_surfaces_share_the_flow(self):
        g = make_grid(8.0, 64)
        spec = single_surface_spec(lambda x: 0.3 * x ** 2)
        base = make_two_state(g)
        coupled = TwoStateWigner(base.w_g, 0.25 * base.w_g,
                                 (0.5 + 0.0j) * base.w_g, base.x, base.p)
        for m in range(20):
            coupled = moyal_two_state_step(coupled, m * 0.01, 0.01, spec)
        # with V_eg = 0 and V_g = V_e every block obeys the same scalar flow
        assert np.max(np.abs(coupled.w_e - 0.25 * coupled.w_g)) < 1e-10
        assert np.max(np.abs(coupled.w_ge - 0.5 * coupled.w_g)) < 1e-10

    def test_harmonic_surface_rigid_rotation(self):
        g = make_grid(8.0, 64)
        spec = single_surface_spec(lambda x: x ** 2 / 2)
        w2 = make_two_state(g, x0=1.0)
        initial = w2.w_g.copy()
        n_steps = 2000
        dt = 2 * np.pi / n_steps
        for m in range(n_steps):
            w2 = moyal_two_state_step(w2, m * dt, dt, spec)
        assert np.max(np.abs(w2.w_g - initial)) < 1e-4

    def test_total_weight_conserved(self):
        g = make_grid(8.0, 64)
        spec = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                            v_ground=lambda x: 0.5 * x ** 2,
                            v_excited=lambda x: 0.5 * (x - 0.5) ** 2 + 1.0,
                            dipole=lambda x: np.exp(-x ** 2),
                            pulse=lambda t: 0.8 * np.sin(2.0 * t))
        w2 = make_two_state(g)
        w0 = w2.total_weight()
        for m in range(50):
            w2 = moyal_two_state_step(w2, m * 0.01, 0.01, spec)
        assert abs(w2.total_weight() - w0) < 1e-8

    def test_constant_coupling_rabi_weights(self):
        g = make_grid(8.0, 64)
        omega = 0.6
        spec = MoleculeSpec(kinetic=lambda p: 0.0 * p,
                            v_ground=lambda x: 0.0 * x,
                            v_excited=lambda x: 0.0 * x,
                            dipole=lambda x: np.ones_like(x),
                            pulse=lambda t: -omega)  # V_eg = +omega
        w2 = make_two_state(g)
        total0 = w2.total_weight()
        dt, steps = 0.01, 150
        for m in range(steps):
            w2 = moyal_two_state_step(w2, m * dt, dt, spec)
        t = steps * dt
        dxdp = w2.x[1] - w2.x[0]
        excited = w2.w_e.sum() * (w2.x[1] - w2.x[0]) * (w2.p[1] - w2.p[0])
        assert abs(excited - np.sin(omega * t) ** 2 * total0) < 1e-10

    def test_matches_density_route_for_quadratic_surface(self):
        g = make_grid(8.0, 64)
        spec = single_surface_spec(lambda x: x ** 2 / 2)
        psi = gaussian_packet(g, x0=1.0)
        rho = pure_state_density(psi)
        w2 = make_two_state(g, x0=1.0)
        dt, steps = 0.01, 50
        w2_sym = w2
        for m in range(steps):
            rho = lindblad_x_step(rho, m * dt, dt, OSCILLATOR)
            w2_sym = moyal_two_state_step(w2_sym, m * dt, dt, spec,
                                          symmetrize=True)
        w_of_rho = wigner_from_density(rho)
        scale = np.max(np.abs(w_of_rho.values))
        diff = np.max(np.abs(w2_sym.w_g - w_of_rho.values)) / scale
        assert diff < 1e-3

    def test_first_order_error_scales_linearly(self):
        g = make_grid(8.0, 64)
        spec = single_surface_spec(lambda x: x ** 2 / 2)

        def endpoint(dt, steps):
            w2 = make_two_state(g, x0=1.0)
            for m in range(steps):
                w2 = moyal_two_state_step(w2, m * dt, dt, spec)
            return w2.w_g

        ref = endpoint(0.0025, 320)
        e1 = np.max(np.abs(endpoint(0.04, 20) - ref))
        e2 = np.max(np.abs(endpoint(0.02, 40) - ref))
        assert 1.5 <= e1 / e2 <= 2.8

    def test_rejects_bad_axis_lengths(self):
        x = np.linspace(-1, 1, 30)
        p = np.linspace(-1, 1, 32)
        blocks = np.zeros((30, 32))
        w2 = TwoStateWigner(blocks, blocks, blocks.astype(complex), x, p)
        with pytest.raises(ValueError):
            moyal_two_state_step(w2, 0.0, 0.01,
                                 single_surface_spec(lambda x: 0.0 * x))
