import numpy as np
import pytest

from dynkit.errors import ConvergenceError
from dynkit.grids import fft_bridge, make_grid
from dynkit.matfunc import func_of_hermitian
from dynkit.stationary import (
    HamiltonianSpec,
    build_spectral_hamiltonian,
    eigensolve,
)
from dynkit.tdse import (
    TRIPLE_JUMP_S,
    PauliHamiltonianSpec,
    SpinorWaveFunction,
    WaveFunction,
    absorbing_potential,
    apply_absorbing_boundary,
    apply_hamiltonian,
    compute_uncertainty,
    cosine_absorbing_mask,
    gaussian_packet,
    imaginary_time_excited,
    imaginary_time_ground,
    pauli_split_op_step,
    propagate,
    spectral_gap_estimate,
    spectral_gap_estimate_discrete,
    split_op_step,
    split_op_step_o4,
    step_count,
)

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)
FREE = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                       potential=lambda t, x: 0.0 * x)
DRIVEN = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.3 * x * np.sin(1.3 * t))


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


class TestSplitOpStep:
    def test_zero_hamiltonian_is_identity(self):
        g = make_grid(8.0, 64)
        spec = HamiltonianSpec(kinetic=lambda t, p: 0.0 * p,
                               potential=lambda t, x: 0.0 * x)
        psi = gaussian_packet(g, x0=0.7)
        out = split_op_step(psi, 0.0, 0.05, spec)
        assert np.max(np.abs(out.values - psi.values)) < 1e-14

    def test_free_gaussian_spreading(self):
        g = make_grid(16.0, 256)
        sigma0 = 0.7
        psi = gaussian_packet(g, sigma=sigma0)
        dt = 0.02
        for m in range(100):
            psi = split_op_step(psi, m * dt, dt, FREE)
        t = 100 * dt
        sx, _ = compute_uncertainty(psi)
        analytic = sigma0 ** 2 + (t / (2 * sigma0)) ** 2
        assert abs(sx ** 2 - analytic) < 1e-8

    def test_norm_conserved_per_step(self):
        g = make_grid(10.0, 128)
        psi = gaussian_packet(g, x0=1.0, p0=0.5)
        for m in range(50):
            psi = split_op_step(psi, m * 0.05, 0.05, DRIVEN)
            assert abs(psi.norm() - 1.0) <= 1e-13

    def test_time_reversal(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0)
        forward = split_op_step(psi0, 0.0, 0.05, OSCILLATOR)
        back = split_op_step(forward, 0.05, -0.05, OSCILLATOR)
        assert l2_distance(back, psi0) < 1e-11

    def test_rejects_zero_dt_and_bad_grid(self):
        g = make_grid(10.0, 128)
        psi = gaussian_packet(g)
        with pytest.raises(ValueError):
            split_op_step(psi, 0.0, 0.0, OSCILLATOR)
        g2 = make_grid(10.0, 126)
        with pytest.raises(ValueError):
            split_op_step(gaussian_packet(g2), 0.0, 0.1, OSCILLATOR)


class TestFourthOrderStep:
    def test_substep_constant(self):
        s = TRIPLE_JUMP_S
        assert abs(2 * s ** 3 + (1 - 2 * s) ** 3) < 1e-12
        assert abs(s - (2 ** (1 / 3) / 3 + 2 ** (2 / 3) / 6 + 2 / 3)) < 1e-15
        assert abs(s - 1.35) < 0.01

    def test_commuting_case_exact(self):
        g = make_grid(16.0, 128)
        psi0 = gaussian_packet(g, sigma=0.8)
        out = split_op_step_o4(psi0, 0.0, 0.8, FREE)
        # oracle: single exact kinetic phase in momentum space
        from dynkit.grids import fft_bridge, ifft_bridge
        exact = ifft_bridge(np.exp(-0.5j * 0.8 * g.p_fft ** 2)
                            * fft_bridge(psi0.values))
        assert np.max(np.abs(out.values - exact)) < 1e-12

    @staticmethod
    def _endpoint_error(step, dt, t_final, spec):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0, p0=0.3)

        def run(h):
            psi = psi0
            n = int(round(t_final / h))
            for m in range(n):
                psi = step(psi, m * h, h, spec)
            return psi

        ref = run(dt / 64)
        return l2_distance(run(dt), ref), l2_distance(run(dt / 2), ref)

    def test_strang_order_two(self):
        e1, e2 = self._endpoint_error(split_op_step, 0.08, 1.6, DRIVEN)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_triple_jump_order_four(self):
        e1, e2 = self._endpoint_error(split_op_step_o4, 0.16, 1.6, DRIVEN)
        assert 12.0 <= e1 / e2 <= 20.0


class TestPropagate:
    def test_zero_steps_identity(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g)
        psi, trace = propagate(psi0, 0.0, 0.0, 0.1, OSCILLATOR)
        assert np.max(np.abs(psi.values - psi0.values)) == 0
        assert len(trace.times) == 1

    def test_coherent_packet_follows_classical_cosine(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0, sigma=1 / np.sqrt(2))
        dt = 0.001
        _, trace = propagate(psi0, 0.0, 6.4, dt, OSCILLATOR, stride=100)
        assert np.max(np.abs(trace.x_mean - np.cos(trace.times))) < 1e-6

    def test_ehrenfest_finite_difference(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0, p0=0.5)
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: 0.1 * x ** 4)
        _, trace = propagate(psi0, 0.0, 2.0, 0.01, spec, stride=2)
        dt_s = trace.times[1] - trace.times[0]
        dxdt = (trace.x_mean[2:] - trace.x_mean[:-2]) / (2 * dt_s)
        assert np.max(np.abs(dxdt - trace.p_mean[1:-1])) < 5e-4

    def test_energy_constant_for_time_independent(self):
        # <H> under Strang stepping oscillates at O(dt^2) around a constant
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=1.0)
        _, trace = propagate(psi0, 0.0, 3.0, 0.01, OSCILLATOR, stride=10)
        assert np.max(np.abs(trace.energy - trace.energy[0])) < 5e-5
        _, fine = propagate(psi0, 0.0, 3.0, 0.0025, OSCILLATOR, stride=40)
        coarse_drift = np.max(np.abs(trace.energy - trace.energy[0]))
        fine_drift = np.max(np.abs(fine.energy - fine.energy[0]))
        assert fine_drift < coarse_drift / 8  # consistent with O(dt^2)

    def test_rejects_non_integer_step_count(self):
        g = make_grid(10.0, 128)
        with pytest.raises(ValueError):
            propagate(gaussian_packet(g), 0.0, 1.0, 0.3, OSCILLATOR)


class TestAbsorbingBoundary:
    def test_unit_mask_is_identity(self):
        g = make_grid(10.0, 128)
        psi = gaussian_packet(g)
        out = apply_absorbing_boundary(psi, np.ones(g.n))
        assert np.all(out.values == psi.values)
        assert np.max(np.abs(absorbing_potential(np.ones(g.n), 0.01))) == 0

    def test_outgoing_packet_absorbed_monotonically(self):
        g = make_grid(12.0, 256)
        mask = cosine_absorbing_mask(g, fraction=0.3)
        psi = gaussian_packet(g, x0=6.0, p0=2.0, sigma=1.0)
        norms = [psi.norm()]
        for m in range(500):
            psi = split_op_step(psi, m * 0.02, 0.02, FREE)
            psi = apply_absorbing_boundary(psi, mask)
            norms.append(psi.norm())
        norms = np.array(norms)
        assert np.all(np.diff(norms) <= 1e-15)
        assert norms[-1] < 0.15

    def test_imaginary_potential_roundtrip(self):
        g = make_grid(10.0, 64)
        mask = cosine_absorbing_mask(g, fraction=0.25) * 0.999
        dt = 0.02
        b = absorbing_potential(mask, dt, hbar=1.0)
        assert np.all(b >= 0)
        np.testing.assert_allclose(np.exp(-dt * b / (2 * 1.0)), mask,
                                   atol=1e-13)

    def test_rejects_out_of_range_mask(self):
        g = make_grid(10.0, 64)
        psi = gaussian_packet(g)
        with pytest.raises(ValueError):
            apply_absorbing_boundary(psi, np.full(g.n, 1.5))
        with pytest.raises(ValueError):
            apply_absorbing_boundary(psi, np.full(g.n, -0.1))

    def test_rejects_nan_mask(self):
        # NaN fails both mask < 0 and mask > 1, and used to give a NaN norm
        g = make_grid(10.0, 64)
        psi = gaussian_packet(g)
        mask = cosine_absorbing_mask(g)
        mask[:4] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            apply_absorbing_boundary(psi, mask)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            propagate(psi, 0.0, 0.1, 0.01, OSCILLATOR, absorbing_mask=mask)

    @pytest.mark.parametrize("power", [0.0, -0.5, np.nan, np.inf])
    def test_cosine_mask_rejects_bad_power(self, power):
        with pytest.raises(ValueError, match="power"):
            cosine_absorbing_mask(make_grid(10.0, 64), power=power)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, np.nan])
    def test_cosine_mask_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValueError, match=r"fraction must lie in \(0, 0.5\)"):
            cosine_absorbing_mask(make_grid(10.0, 64), fraction=fraction)


class TestImaginaryTime:
    def test_oscillator_ground_state(self):
        g = make_grid(10.0, 128)
        rng = np.random.default_rng(12)
        guess = WaveFunction(np.abs(rng.normal(size=g.n)) + 0.1, g)
        energy, psi = imaginary_time_ground(guess, 0.005, OSCILLATOR, tol=1e-13)
        assert abs(energy - 0.5) < 1e-6
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_exact_eigenstate_converges_immediately(self):
        g = make_grid(10.0, 128)
        exact = WaveFunction(np.exp(-g.x ** 2 / 2).astype(complex), g)
        energy, _ = imaginary_time_ground(exact.normalized(), 0.01, OSCILLATOR,
                                          tol=1e-6)
        assert abs(energy - 0.5) < 1e-5

    def test_energy_decreases_monotonically(self):
        from dynkit.tdse import energy_expectation
        g = make_grid(10.0, 128)
        psi = gaussian_packet(g, x0=1.5, sigma=0.5)
        energies = [energy_expectation(psi, OSCILLATOR)]
        for _ in range(400):
            psi = split_op_step(psi, 0.0, -1j * 0.01, OSCILLATOR).normalized()
            energies.append(energy_expectation(psi, OSCILLATOR))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12)

    def test_first_and_second_excited(self):
        g = make_grid(10.0, 128)
        e0, psi0 = imaginary_time_ground(gaussian_packet(g, sigma=0.8),
                                         0.005, OSCILLATOR, tol=1e-13)
        guess1 = gaussian_packet(g, x0=0.5, sigma=0.8)
        e1, psi1 = imaginary_time_excited(1, [psi0], guess1, 0.005,
                                          OSCILLATOR, tol=1e-13)
        assert abs(e1 - 1.5) < 1e-5
        overlap = np.abs(np.sum(np.conj(psi0.values) * psi1.values) * g.dx)
        assert overlap < 1e-8
        guess2 = gaussian_packet(g, x0=0.9, sigma=0.6)
        e2, psi2 = imaginary_time_excited(2, [psi0, psi1], guess2, 0.005,
                                          OSCILLATOR, tol=1e-13)
        assert abs(e2 - 2.5) < 1e-4

    def test_wrong_known_state_count_rejected(self):
        g = make_grid(10.0, 128)
        with pytest.raises(ValueError):
            imaginary_time_excited(2, [], gaussian_packet(g), 0.01, OSCILLATOR)

    def test_quartic_matches_eigensolve(self):
        # shared problem with no closed form: the imaginary-time energy must
        # land on the dense-diagonalization value
        quartic = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                                  potential=lambda t, x: 0.25 * x ** 4)
        g = make_grid(8.0, 128)
        e_imag, _ = imaginary_time_ground(gaussian_packet(g, sigma=0.7),
                                          0.004, quartic, tol=1e-13)
        h = build_spectral_hamiltonian(g, quartic)
        e_dense = eigensolve(h, dx=g.dx).energies[0]
        assert abs(e_imag - e_dense) < 1e-4


class TestSpectralGap:
    def test_oscillator_first_gap(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=0.4, p0=1.0)
        gap = spectral_gap_estimate(psi0, g.x, 0.02, 10.0, OSCILLATOR)
        assert abs(gap - 1.0) < 0.05

    def test_two_level_exact_slope(self):
        delta = 1.7
        h = np.diag([0.0, delta]).astype(complex)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        psi0 = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2)
        gap = spectral_gap_estimate_discrete(psi0, h, sigma_x, 0.02, 12.0)
        assert abs(gap - delta) < 0.01

    def test_three_level_second_gap_when_first_condition_violated(self):
        h = np.diag([0.0, 1.0, 2.5]).astype(complex)
        o = np.zeros((3, 3), dtype=complex)
        o[0, 2] = o[2, 0] = 1.0  # no coupling between the lowest two levels
        psi0 = np.array([1.0, 0.5, 0.5j * np.exp(0.3j)])
        gap = spectral_gap_estimate_discrete(psi0, h, o, 0.02, 12.0)
        assert abs(gap - 2.5) < 0.02

    def test_oscillator_second_gap_with_even_chirped_state(self):
        g = make_grid(10.0, 128)
        chirped = np.exp(-g.x ** 2 / 2 + 0.3j * g.x ** 2)
        psi0 = WaveFunction(chirped, g).normalized()
        gap = spectral_gap_estimate(psi0, g.x ** 2, 0.02, 10.0, OSCILLATOR)
        assert abs(gap - 2.0) < 0.1

    def test_underflow_reported(self):
        g = make_grid(10.0, 128)
        # an exact eigenstate has a vanishing commutator expectation
        e0, psi0 = imaginary_time_ground(gaussian_packet(g, sigma=0.8),
                                         0.01, OSCILLATOR, tol=1e-13)
        with pytest.raises(ConvergenceError):
            spectral_gap_estimate(psi0, g.x, 0.05, 8.0, OSCILLATOR)

    def test_partial_last_step_rejected(self):
        g = make_grid(10.0, 128)
        psi0 = gaussian_packet(g, x0=0.4, p0=1.0)
        with pytest.raises(ValueError):
            spectral_gap_estimate(psi0, g.x, 0.02, 10.05, OSCILLATOR)
        h = np.diag([0.0, 1.7]).astype(complex)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError):
            spectral_gap_estimate_discrete(np.array([1.0, 1.0j]), h, sigma_x,
                                           0.02, 10.05)


class TestPauliStep:
    def test_all_zero_is_identity(self):
        g = make_grid(8.0, 64)
        spec = PauliHamiltonianSpec(kinetic=(None, None, None, None),
                                    potential=(None, None, None, None))
        up = np.exp(-g.x ** 2)
        down = 0.5 * np.exp(-(g.x - 1) ** 2)
        spinor = SpinorWaveFunction(up, down, g)
        out = pauli_split_op_step(spinor, 0.0, 0.05, spec)
        assert np.max(np.abs(out.up - up)) < 1e-13
        assert np.max(np.abs(out.down - down)) < 1e-13

    def test_rabi_rotation(self):
        g = make_grid(8.0, 64)
        omega = 0.5
        spec = PauliHamiltonianSpec(
            kinetic=(None, None, None, None),
            potential=(None, lambda t, x: np.full_like(x, omega), None, None),
        )
        norm_factor = 1.0 / np.sqrt(np.sum(np.exp(-g.x ** 2)) * g.dx)
        up = norm_factor * np.exp(-g.x ** 2 / 2)
        spinor = SpinorWaveFunction(up, np.zeros(g.n), g)
        dt, steps = 0.01, 200
        for m in range(steps):
            spinor = pauli_split_op_step(spinor, m * dt, dt, spec)
        t = steps * dt
        p_down = np.sum(np.abs(spinor.down) ** 2) * g.dx
        assert abs(p_down - np.sin(omega * t) ** 2) < 1e-10

    def test_norm_conserved(self):
        g = make_grid(8.0, 64)
        spec = PauliHamiltonianSpec(
            kinetic=(lambda t, p: p ** 2 / 2, None, None, None),
            potential=(lambda t, x: x ** 2 / 2,
                       lambda t, x: 0.3 * np.exp(-x ** 2),
                       None,
                       lambda t, x: 0.2 * x),
        )
        spinor = SpinorWaveFunction(np.exp(-g.x ** 2 / 2), np.zeros(g.n), g)
        scale = spinor.norm()
        spinor = SpinorWaveFunction(spinor.up / scale, spinor.down, g)
        for m in range(100):
            spinor = pauli_split_op_step(spinor, m * 0.02, 0.02, spec)
            assert abs(spinor.norm() - 1.0) <= 1e-13


    def test_matches_dense_exponential_with_sigma_y(self):
        # a uniform potential is the same 2x2 matrix at every momentum, so
        # the Strang step is exp(-i dt/2 U) exp(-i dt K(p)) exp(-i dt/2 U)
        # pointwise in momentum space
        g = make_grid(8.0, 64, hbar=0.8)
        c = (0.4, -0.3, 0.7, 0.25)
        uniform = tuple((lambda t, x, cj=cj: np.full_like(x, cj)) for cj in c)
        spec = PauliHamiltonianSpec(
            kinetic=(None, None, lambda t, p: 0.6 * p, None),
            potential=uniform, hbar=0.8)
        rng = np.random.default_rng(3)
        up, down = rng.normal(size=(2, g.n)) + 1j * rng.normal(size=(2, g.n))
        dt = 0.3
        out = pauli_split_op_step(SpinorWaveFunction(up, down, g), 0.0, dt, spec)

        sigma = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                          [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

        def rotation(h, tau):
            return func_of_hermitian(h, lambda lam: np.exp(-1j * tau * lam / 0.8))

        half_u = rotation(np.tensordot(c, sigma, 1), dt / 2)
        spinor_p = np.stack([fft_bridge(up), fft_bridge(down)])
        expected = np.stack([
            half_u @ rotation(0.6 * p * sigma[2], dt) @ half_u @ spinor_p[:, j]
            for j, p in enumerate(g.p_fft)], axis=1)
        got = np.stack([fft_bridge(out.up), fft_bridge(out.down)])
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("spec, t", [(OSCILLATOR, 0.0), (DRIVEN, 0.7)])
def test_apply_hamiltonian_matches_the_dense_spectral_hamiltonian(spec, t):
    g = make_grid(8.0, 64)
    psi = gaussian_packet(g, x0=0.8, p0=-1.1, sigma=0.9)
    dense = build_spectral_hamiltonian(g, spec, t) @ psi.values
    got = apply_hamiltonian(psi, spec, t)
    assert got.shape == psi.values.shape
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestUncertainty:
    def test_minimal_gaussian_product(self):
        g = make_grid(12.0, 256)
        psi = WaveFunction(np.exp(-g.x ** 2 / 2).astype(complex), g).normalized()
        sx, sp = compute_uncertainty(psi)
        assert abs(sx * sp - 0.5) < 1e-6

    def test_product_bounded_below(self):
        g = make_grid(12.0, 256)
        rng = np.random.default_rng(8)
        for _ in range(5):
            raw = np.exp(-(g.x - rng.uniform(-2, 2)) ** 2
                         / (2 * rng.uniform(0.5, 2.0) ** 2))
            raw = raw * np.exp(1j * rng.uniform(-1, 1) * g.x)
            raw += 0.3 * np.exp(-(g.x + 1) ** 2) * np.exp(-0.7j * g.x)
            psi = WaveFunction(raw, g).normalized()
            sx, sp = compute_uncertainty(psi)
            assert sx * sp >= 0.5 - 1e-6

    def test_first_excited_oscillator(self):
        g = make_grid(10.0, 256)
        h = build_spectral_hamiltonian(g, OSCILLATOR)
        res = eigensolve(h, dx=g.dx)
        psi = WaveFunction(res.states[:, 1].astype(complex), g)
        sx, sp = compute_uncertainty(psi)
        assert abs(sx * sp - 1.5) < 1e-4


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_gaussian_packet_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        gaussian_packet(make_grid(8.0, 64), sigma=sigma)


@pytest.mark.parametrize("center", [{"x0": np.nan}, {"x0": np.inf},
                                    {"p0": np.nan}, {"p0": -np.inf}])
def test_gaussian_packet_rejects_non_finite_center(center):
    with pytest.raises(ValueError, match="x0 and p0 must be finite"):
        gaussian_packet(make_grid(8.0, 64), **center)


@pytest.mark.parametrize("span, dt", [
    (1.0, np.inf), (np.inf, 1.0), (1.0, np.nan), (np.nan, 1.0), (1.0, 0.0),
])
def test_step_count_rejects_non_finite_span_or_step(span, dt):
    with pytest.raises(ValueError, match="finite"):
        step_count(span, dt)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_propagate_rejects_non_finite_step(dt):
    psi = gaussian_packet(make_grid(8.0, 64))
    with pytest.raises(ValueError, match="finite"):
        propagate(psi, 0.0, 1.0, dt, OSCILLATOR)


@pytest.mark.parametrize("dt", [np.nan, np.inf, complex(0.0, np.nan),
                                -1j * np.inf])
def test_split_op_step_rejects_non_finite_step(dt):
    psi = gaussian_packet(make_grid(8.0, 64))
    with pytest.raises(ValueError, match="finite"):
        split_op_step(psi, 0.0, dt, OSCILLATOR)


@pytest.mark.parametrize("dtau", [np.nan, np.inf, 0.0, -0.01])
def test_imaginary_time_rejects_bad_dtau(dtau):
    psi = gaussian_packet(make_grid(8.0, 64))
    with pytest.raises(ValueError, match="dtau"):
        imaginary_time_ground(psi, dtau, OSCILLATOR, max_iter=5)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0])
def test_pauli_split_op_step_rejects_non_finite_step(dt):
    g = make_grid(8.0, 64)
    spec = PauliHamiltonianSpec(kinetic=(lambda t, p: p ** 2 / 2, None, None, None),
                                potential=(None, lambda t, x: 0.1 * x, None, None))
    spinor = SpinorWaveFunction(np.exp(-g.x ** 2), 0.5 * np.exp(-g.x ** 2), g)
    with pytest.raises(ValueError, match="finite"):
        pauli_split_op_step(spinor, 0.0, dt, spec)


def _nan_inside(t, x):
    return np.where(np.abs(x) < 0.2, np.nan, x ** 2 / 2)


@pytest.mark.parametrize("term, kinetic, potential", [
    # the identity potential NaN for |x| < 0.2 once gave 64 of 64 NaN
    # amplitudes in both components, with no warning
    ("U", (lambda t, p: p ** 2 / 2, None, None, None), (_nan_inside, None, None, None)),
    ("U", (None, None, None, None), (None, None, None, _nan_inside)),
    ("K", (None, lambda t, p: np.where(p > 1.0, np.inf, 0.1), None, None),
     (None, None, None, None)),
])
def test_pauli_split_op_step_rejects_non_finite_phases(term, kinetic, potential):
    g = make_grid(8.0, 64)
    spec = PauliHamiltonianSpec(kinetic=kinetic, potential=potential)
    spinor = SpinorWaveFunction(np.exp(-g.x ** 2), 0.5 * np.exp(-g.x ** 2), g)
    # cos and sinc of an infinite |c| warn "invalid value" on their way to NaN
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=f"the {term} phase factor .* is not finite"):
        pauli_split_op_step(spinor, 0.0, 0.05, spec)
