import warnings

import numpy as np
import pytest

from dynkit.errors import DegenerateJumpError, HermiticityError
from dynkit.grids import make_grid
from dynkit.stationary import (
    HamiltonianSpec,
    build_spectral_hamiltonian,
    eigensolve,
)
from dynkit.open_systems import (
    DensityMatrix,
    JumpOperatorSpec,
    RateMatrix,
    coupling_factor,
    density_uncertainty,
    dissipator_action,
    dissipator_split,
    fermi_dirac_rates,
    gibbs_density,
    gibbs_rates,
    lindblad_propagate,
    lindblad_superoperator,
    lindblad_x_step,
    mcwf_ensemble,
    mcwf_trajectory,
    momentum_distribution,
    pauli_master_solve,
    pure_state_density,
    random_collision_step,
    vonneumann_step,
)
from dynkit.tdse import gaussian_packet, split_op_step

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)
TRIVIAL = HamiltonianSpec(kinetic=lambda t, p: 0.0 * p,
                          potential=lambda t, x: 0.0 * x)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def superoperator_of_action(action, dim):
    """Column-by-column matrix of a superoperator action on vec(rho)."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = 1.0
            out[:, i * dim + j] = action(basis).reshape(-1)
    return out


class TestVonNeumannStep:
    def test_trivial_hamiltonian_is_identity(self):
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=0.5))
        out = vonneumann_step(rho, 0.0, 0.05, TRIVIAL)
        assert np.max(np.abs(out.values - rho.values)) < 1e-13

    def test_pure_state_matches_wavefunction_propagation(self):
        g = make_grid(10.0, 128)
        psi = gaussian_packet(g, x0=1.0, p0=0.3)
        rho = pure_state_density(psi)
        dt = 0.02
        for m in range(20):
            rho = vonneumann_step(rho, m * dt, dt, OSCILLATOR)
            psi = split_op_step(psi, m * dt, dt, OSCILLATOR)
        diag = np.real(np.diag(rho.values))
        assert np.max(np.abs(diag - np.abs(psi.values) ** 2)) < 1e-9

    def test_trace_and_hermiticity_preserved(self):
        g = make_grid(10.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=1.0))
        for m in range(50):
            rho = vonneumann_step(rho, m * 0.02, 0.02, OSCILLATOR)
            assert abs(rho.trace() - 1.0) <= 1e-12
            assert rho.hermiticity_defect() <= 1e-10

    def test_rejects_local_density(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            vonneumann_step(rho, 0.0, 0.1, OSCILLATOR)


class TestLindbladXStep:
    def test_zero_coupling_reduces_to_unitary(self):
        g = make_grid(10.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=0.7))
        a = lindblad_x_step(rho, 0.0, 0.05, OSCILLATOR, lambda x: 0.0 * x)
        b = vonneumann_step(rho, 0.0, 0.05, OSCILLATOR)
        assert np.max(np.abs(a.values - b.values)) < 1e-14

    def test_constant_coupling_cancels(self):
        g = make_grid(10.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=0.7))
        a = lindblad_x_step(rho, 0.0, 0.05, OSCILLATOR,
                            lambda x: np.full_like(x, 2.0 + 1.0j, dtype=complex))
        b = vonneumann_step(rho, 0.0, 0.05, OSCILLATOR)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_pure_dephasing_closed_form(self):
        g = make_grid(8.0, 64)
        gamma = 0.3
        rho0 = pure_state_density(gaussian_packet(g, sigma=0.8))
        rho = rho0
        dt, steps = 0.01, 100
        for m in range(steps):
            rho = lindblad_x_step(rho, m * dt, dt, TRIVIAL,
                                  lambda x: np.sqrt(gamma) * x)
        t = steps * dt
        dx2 = (g.x[:, None] - g.x[None, :]) ** 2
        expected = rho0.values * np.exp(-gamma * dx2 * t / 2.0)
        assert np.max(np.abs(rho.values - expected)) < 1e-6

    def test_positivity_and_trace_along_dissipative_flow(self):
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=1.0))
        for m in range(40):
            rho = lindblad_x_step(rho, m * 0.02, 0.02, OSCILLATOR,
                                  lambda x: 0.5 * x)
            assert abs(rho.trace() - 1.0) <= 1e-10
            assert rho.hermiticity_defect() <= 1e-10
        assert rho.min_eigenvalue() >= -1e-8

    def test_uncertainty_bound_from_density(self):
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g, x0=1.0, sigma=0.9))
        for m in range(60):
            rho = lindblad_x_step(rho, m * 0.02, 0.02, OSCILLATOR,
                                  lambda x: 0.4 * x)
        sx, sp = density_uncertainty(rho)
        assert sx * sp >= 0.5 - 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_coupling(self, bad):
        # A = NaN on |x| < 1 used to turn every entry of rho into NaN
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g))
        coupling = lambda x: np.where(np.abs(x) < 1.0, bad, 0.5 * x)
        with pytest.raises(ValueError, match=r"coupling A\(x\) is not finite"):
            lindblad_x_step(rho, 0.0, 0.02, OSCILLATOR, coupling)

    def test_rejects_a_coupling_whose_square_overflows(self):
        # A = 1e200 x is finite, but |A|^2 is not: rho used to come back all
        # NaN with only a RuntimeWarning
        g = make_grid(8.0, 64)
        rho = pure_state_density(gaussian_packet(g))
        coupling = lambda x: 1e200 * x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\|A\(x\)\|\^2 overflows"):
                coupling_factor(g, coupling, 0.02)
            with pytest.raises(ValueError, match=r"\|A\(x\)\|\^2 overflows"):
                lindblad_x_step(rho, 0.0, 0.02, OSCILLATOR, coupling)


class TestRandomCollision:
    def test_gamma_zero_is_unitary(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        rho_beta = gibbs_density(h, beta=1.0, grid=g)
        rho = pure_state_density(gaussian_packet(g, x0=0.6))

        def deviation(dt):
            a = random_collision_step(rho, 0.0, dt, OSCILLATOR, 0.0, rho_beta)
            b = vonneumann_step(rho, 0.0, dt, OSCILLATOR)
            return np.max(np.abs(a.values - b.values))

        # two half-steps differ from one full step only at the O(dt^3)
        # splitting level, and the dissipative factor is exactly 1
        assert deviation(0.04) < 1e-5
        assert deviation(0.02) < deviation(0.04) / 6

    def test_rejects_mismatched_rho_beta(self):
        rho = pure_state_density(gaussian_packet(make_grid(8.0, 64)))
        rho_beta = pure_state_density(gaussian_packet(make_grid(8.0, 32)))
        with pytest.raises(ValueError, match="rho_beta"):
            random_collision_step(rho, 0.0, 0.05, OSCILLATOR, 0.5, rho_beta)

    def test_static_hamiltonian_exact_relaxation(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        rho_beta = gibbs_density(h, beta=0.7, grid=g)
        rho0 = pure_state_density(gaussian_packet(g, x0=0.5))
        gamma, dt = 0.8, 0.05
        rho = rho0
        for m in range(40):
            rho = random_collision_step(rho, m * dt, dt, TRIVIAL, gamma, rho_beta)
        t = 40 * dt
        expected = rho_beta.values + np.exp(-gamma * t) * (rho0.values - rho_beta.values)
        assert np.max(np.abs(rho.values - expected)) < 1e-12

    def test_converges_to_gibbs_state(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        rho_beta = gibbs_density(h, beta=1.0, grid=g)
        rho = pure_state_density(gaussian_packet(g, x0=1.0))
        gamma, dt = 2.0, 0.01
        for m in range(1000):
            rho = random_collision_step(rho, m * dt, dt, OSCILLATOR, gamma, rho_beta)
        diff = (rho.values - rho_beta.values) * g.dx
        trace_norm = np.sum(np.linalg.svd(diff, compute_uv=False))
        assert trace_norm < 1e-3
        assert rho.min_eigenvalue() >= -1e-8

    def test_diagonal_sector_reproduces_pauli_master(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        beta, gamma = 0.9, 0.7
        rho_beta = gibbs_density(h, beta=beta, grid=g)
        # start mixed over the two lowest eigenstates
        p0_full = np.zeros(g.n)
        p0_full[0], p0_full[1] = 0.3, 0.7
        rho = DensityMatrix(
            (res.states * p0_full) @ res.states.conj().T * g.dx ** 2, g)
        rho = DensityMatrix(rho.values / rho.trace(), g)
        dt, steps = 0.005, 200
        out = rho
        for m in range(steps):
            out = random_collision_step(out, m * dt, dt, OSCILLATOR, gamma, rho_beta)
        t = steps * dt
        # populations in the grid eigenbasis
        pops = np.real(np.einsum("in,ij,jn->n", res.states.conj(), out.values,
                                 res.states)) * g.dx ** 2
        rates = gibbs_rates(res.energies, beta, gamma)
        oracle = pauli_master_solve(rates, p0_full, np.array([t]))[0]
        assert np.max(np.abs(pops[:8] - oracle[:8])) < 1e-8


class TestRateBuilders:
    def test_gibbs_rates_shape_and_ratio(self):
        e = np.array([0.0, 0.4, 1.1])
        rates = gibbs_rates(e, beta=1.3, gamma0=0.5)
        g = rates.gamma
        assert np.all(np.diag(g) == 0)
        ratio = g[0, 1] / g[1, 0]
        assert abs(ratio - np.exp(-1.3 * (e[0] - e[1]))) < 1e-12

    def test_gibbs_infinite_temperature(self):
        rates = gibbs_rates(np.array([0.0, 1.0, 2.0, 5.0]), beta=0.0, gamma0=0.8)
        off = rates.gamma[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.8 / 4)

    def test_gibbs_generator_annihilates_boltzmann(self):
        e = np.array([0.0, 0.5, 1.2, 2.0])
        beta = 0.8
        rates = gibbs_rates(e, beta, gamma0=1.1)
        boltz = np.exp(-beta * e)
        boltz /= boltz.sum()
        assert np.max(np.abs(rates.generator() @ boltz)) < 1e-12

    def test_fermi_dirac_stationary_vector(self):
        e = np.array([-0.5, 0.2, 0.9, 1.7])
        beta, mu = 2.0, 0.4
        rates = fermi_dirac_rates(e, beta, mu, gamma0=0.6)
        fermi = 1.0 / (np.exp(beta * (e - mu)) + 1.0)
        fermi /= fermi.sum()
        assert np.max(np.abs(rates.generator() @ fermi)) < 1e-12

    def test_fermi_dirac_beta_zero_symmetric(self):
        rates = fermi_dirac_rates(np.array([0.0, 1.0]), 0.0, 0.5, 1.0)
        assert abs(rates.gamma[0, 1] - rates.gamma[1, 0]) < 1e-15

    def test_fermi_dirac_low_temperature_fills_below_mu(self):
        e = np.array([0.0, 1.0])
        rates = fermi_dirac_rates(e, beta=60.0, mu=0.5, gamma0=1.0)
        p = pauli_master_solve(rates, np.array([0.5, 0.5]), np.array([200.0]))[0]
        assert p[0] > 0.999

    def test_rate_matrix_validation(self):
        with pytest.raises(ValueError):
            RateMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            RateMatrix(np.array([[1.0, 0.5], [0.5, 0.0]]))


class TestPauliMaster:
    def test_zero_rates_frozen(self):
        rates = RateMatrix(np.zeros((3, 3)))
        p0 = np.array([0.2, 0.5, 0.3])
        out = pauli_master_solve(rates, p0, np.array([0.0, 1.0, 10.0]))
        for row in out:
            np.testing.assert_allclose(row, p0, atol=1e-14)

    def test_probability_conserved(self):
        rates = gibbs_rates(np.array([0.0, 0.3, 1.0, 2.2]), 1.1, 0.9)
        out = pauli_master_solve(rates, np.array([1.0, 0.0, 0.0, 0.0]),
                                 np.linspace(0.0, 8.0, 15))
        sums = out.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_two_level_gibbs_relaxation(self):
        e = np.array([0.0, 1.0])
        beta, gamma0 = 1.4, 1.0
        rates = gibbs_rates(e, beta, gamma0)
        out = pauli_master_solve(rates, np.array([0.0, 1.0]), np.array([50.0]))[0]
        target = np.exp(-beta * e)
        target /= target.sum()
        assert np.max(np.abs(out - target)) < 1e-8

    def test_rejects_negative_populations(self):
        rates = RateMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pauli_master_solve(rates, np.array([-0.1, 1.1]), np.array([1.0]))


class TestDissipatorSplit:
    def test_hermitian_coupling_has_no_hamiltonian_correction(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = (a + a.conj().T) / 2
        _, anti = dissipator_split(a)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.max(np.abs(anti(rho))) < 1e-12

    def test_parts_sum_to_full_dissipator(self):
        rng = np.random.default_rng(32)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sym, anti = dissipator_split(a)
        full = dissipator_action(a)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.max(np.abs(sym(rho) + anti(rho) - full(rho))) < 1e-12

    def test_lowering_operator_against_superoperator_oracle(self):
        sym, anti = dissipator_split(SIGMA_MINUS)
        s_sym = superoperator_of_action(sym, 2)
        s_anti = superoperator_of_action(anti, 2)
        assert np.max(np.abs(s_sym)) > 0 and np.max(np.abs(s_anti)) > 0
        oracle = lindblad_superoperator(np.zeros((2, 2)), [SIGMA_MINUS])
        assert np.max(np.abs(s_sym + s_anti - oracle)) < 1e-12


class TestMcwf:
    def test_no_jumps_matches_unitary_evolution(self):
        g = make_grid(10.0, 64)
        psi0 = gaussian_packet(g, x0=0.8)
        traj = mcwf_trajectory(psi0, OSCILLATOR, [], dt=0.02, t_max=0.4,
                               seed=5, stride=1)
        psi = psi0
        for m in range(20):
            psi = split_op_step(psi, m * 0.02, 0.02, OSCILLATOR)
        assert np.max(np.abs(traj.states[-1].values - psi.values)) < 1e-12
        assert traj.jumps == []

    def test_two_level_decay_statistics(self):
        gamma = 0.8
        h = np.zeros((2, 2))
        ops = [np.sqrt(gamma) * SIGMA_MINUS]
        psi0 = np.array([0.0, 1.0], dtype=complex)
        n_traj, t_max, dt = 2000, 4.0, 0.02
        jump_times = []
        excited_at = {1.0: 0, 2.0: 0, 3.0: 0}
        for i in range(n_traj):
            traj = mcwf_trajectory(psi0, h, ops, dt, t_max, seed=1000 + i,
                                   stride=10)
            if traj.jumps:
                jump_times.append(traj.jumps[0][0])
            for t_probe in excited_at:
                jumped = traj.jumps and traj.jumps[0][0] <= t_probe
                if not jumped:
                    excited_at[t_probe] += 1
        for t_probe, count in excited_at.items():
            p = np.exp(-gamma * t_probe)
            sigma = np.sqrt(p * (1 - p) / n_traj)
            assert abs(count / n_traj - p) < 3 * sigma + 1e-12
        # conditional mean of an exponential truncated at t_max
        lam = gamma
        trunc_mean = (1 - np.exp(-lam * t_max) * (1 + lam * t_max)) \
            / (lam * (1 - np.exp(-lam * t_max)))
        observed = np.mean(jump_times)
        spread = trunc_mean / np.sqrt(len(jump_times))
        assert abs(observed - trunc_mean) < 4 * spread

    def test_norm_after_every_step(self):
        gamma = 0.5
        h = 0.7 * SIGMA_X
        ops = [np.sqrt(gamma) * SIGMA_MINUS]
        traj = mcwf_trajectory(np.array([0.0, 1.0]), h, ops, 0.02, 2.0,
                               seed=77, stride=1)
        for state in traj.states:
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_ensemble_matches_lindblad_oracle(self):
        gamma = 0.6
        h = 0.8 * SIGMA_X
        ops = [np.sqrt(gamma) * SIGMA_MINUS]
        psi0 = np.array([0.0, 1.0], dtype=complex)
        dt, t_max, n_traj = 0.02, 3.0, 2000
        times, rhos = mcwf_ensemble(psi0, h, ops, dt, t_max, n_traj,
                                    base_seed=42, stride=25)
        rho0 = np.outer(psi0, psi0.conj())
        oracle = lindblad_propagate(rho0, h, ops, times)
        assert np.max(np.abs(rhos - oracle)) < 0.05

    def test_ensemble_single_trajectory_stays_pure(self):
        gamma = 0.5
        ops = [np.sqrt(gamma) * SIGMA_MINUS]
        times, rhos = mcwf_ensemble(np.array([0.0, 1.0]), 0.4 * SIGMA_X, ops,
                                    0.02, 1.0, 1, base_seed=3, stride=5)
        for rho in rhos:
            purity = np.real(np.trace(rho @ rho))
            assert abs(purity - 1.0) < 1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_ensemble_monte_carlo_convergence(self):
        gamma = 0.7
        h = 0.6 * SIGMA_X
        ops = [np.sqrt(gamma) * SIGMA_MINUS]
        psi0 = np.array([0.0, 1.0], dtype=complex)
        dt, t_max = 0.04, 2.0
        rho0 = np.outer(psi0, psi0.conj())
        errors = {}
        for n_traj in (250, 1000, 4000):
            times, rhos = mcwf_ensemble(psi0, h, ops, dt, t_max, n_traj,
                                        base_seed=9, stride=10)
            oracle = lindblad_propagate(rho0, h, ops, times)
            errors[n_traj] = np.max(np.abs(rhos - oracle))
        assert errors[4000] < errors[250]
        assert errors[4000] < 0.6 * errors[250]

    def test_grid_mode_dephasing_against_two_sided_propagator(self):
        g = make_grid(8.0, 32)
        gamma = 0.4
        coupling = lambda x: np.sqrt(gamma) * x
        psi0 = gaussian_packet(g, sigma=0.8)
        dt, t_max = 0.01, 0.5
        times, rhos = mcwf_ensemble(psi0, OSCILLATOR,
                                    JumpOperatorSpec((coupling,)), dt, t_max,
                                    n_traj=600, base_seed=11, stride=10)
        rho = pure_state_density(psi0)
        sampled = [rho.values]
        for m in range(int(t_max / dt)):
            rho = lindblad_x_step(rho, m * dt, dt, OSCILLATOR, coupling)
            if (m + 1) % 10 == 0:
                sampled.append(rho.values)
        scale = np.max(np.abs(sampled[-1]))
        assert np.max(np.abs(rhos[-1] - sampled[-1])) / scale < 0.12

    def test_degenerate_jump_reported(self):
        # a jump triggered while the state sits in the channel's kernel must
        # fail loudly instead of dividing by zero
        from dynkit.open_systems import _discrete_mcwf_machinery
        _, _, jump, _ = _discrete_mcwf_machinery(np.zeros((2, 2)),
                                                 [SIGMA_MINUS], 0.05)
        in_kernel = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(DegenerateJumpError):
            jump(in_kernel, 0)


class TestDensityHelpers:
    def test_momentum_distribution_of_gaussian(self):
        g = make_grid(12.0, 128)
        psi = gaussian_packet(g, p0=0.7, sigma=1.0)
        rho = pure_state_density(psi)
        pp = momentum_distribution(rho)
        dp = g.p_fft[1] - g.p_fft[0]
        assert abs(np.sum(pp) * dp - 1.0) < 1e-10
        # oracle: |normalized forward transform|^2
        from dynkit.grids import SpectralSignal, POSITION, cft_forward
        gp = cft_forward(SpectralSignal(psi.values, g, POSITION), normalized=True)
        assert np.max(np.abs(pp - np.abs(gp.values) ** 2)) < 1e-10

    def test_gibbs_density_properties(self):
        g = make_grid(8.0, 64)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        rho = gibbs_density(h, beta=2.0, grid=g)
        rho.validate()
        sx, sp = density_uncertainty(rho)
        assert sx * sp >= 0.5 - 1e-6

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -0.5])
    def test_gibbs_density_rejects_bad_beta(self, beta):
        g = make_grid(8.0, 16)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        with pytest.raises(ValueError, match="beta"):
            gibbs_density(h, beta=beta, grid=g)

    def test_validate_flags_bad_trace(self):
        g = make_grid(8.0, 64)
        rho = DensityMatrix(np.eye(g.n, dtype=complex), g)
        with pytest.raises(ValueError):
            rho.validate()

    @pytest.mark.parametrize("entry", [(1, 2), (0, 0)])
    def test_validate_flags_nan(self, entry):
        values = np.eye(4, dtype=complex) / 4
        values[entry] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(values).validate()

    def test_gibbs_density_rejects_non_hermitian(self):
        g = make_grid(8.0, 16)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        h[0, 1] += 0.1
        with pytest.raises(HermiticityError):
            gibbs_density(h, beta=1.0, grid=g)


class TestNonFiniteRates:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rate_matrix_rejects(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RateMatrix(np.array([[0.0, bad], [1.0, 0.0]]))

    @pytest.mark.parametrize("name, kwargs", [
        ("beta", {"beta": np.nan, "gamma0": 1.0}),
        ("beta", {"beta": np.inf, "gamma0": 1.0}),
        ("gamma0", {"beta": 1.0, "gamma0": np.nan}),
        ("gamma0", {"beta": 1.0, "gamma0": np.inf}),
    ])
    def test_gibbs_rates_reject(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            gibbs_rates(np.array([0.0, 0.5, 1.2]), **kwargs)

    @pytest.mark.parametrize("name, kwargs", [
        ("beta", {"beta": np.nan, "mu": 0.5, "gamma0": 1.0}),
        ("mu", {"beta": 1.0, "mu": np.nan, "gamma0": 1.0}),
        ("gamma0", {"beta": 1.0, "mu": 0.5, "gamma0": np.nan}),
    ])
    def test_fermi_dirac_rates_reject(self, name, kwargs):
        with pytest.raises(ValueError, match=name):
            fermi_dirac_rates(np.array([0.0, 0.5, 1.2]), **kwargs)

    @pytest.mark.parametrize("p0", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.inf]])
    def test_pauli_master_solve_rejects_nonfinite_populations(self, p0):
        rates = gibbs_rates(np.array([0.0, 0.5, 1.2]), 1.0, 1.0)
        with pytest.raises(ValueError, match="initial populations"):
            pauli_master_solve(rates, np.array(p0), np.array([1.0]))
