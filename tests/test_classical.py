import numpy as np
import pytest

from dynkit.classical import (
    ClassicalEnsemble,
    ClassicalSpec,
    ehrenfest_series,
    extend_time_dependent,
    multi_dim_verlet_step,
    propagate_ensemble,
    uniform_weights,
    verlet_step,
)

OSCILLATOR = ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: x)


def single(x0, p0):
    return ClassicalEnsemble(x=[x0], p=[p0], weights=[1.0])


def rk4_time_dependent(x0, p0, dt, n_steps, dk_dp_t, du_dx_t):
    """Independent high-order oracle for dx/dt = K'(p,t), dp/dt = -U'(x,t)."""
    def rhs(state, t):
        x, p = state
        return np.array([dk_dp_t(p, t), -du_dx_t(x, t)])

    state = np.array([x0, p0], dtype=float)
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(state, t)
        k2 = rhs(state + dt / 2 * k1, t + dt / 2)
        k3 = rhs(state + dt / 2 * k2, t + dt / 2)
        k4 = rhs(state + dt * k3, t + dt)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return state


class TestVerletStep:
    def test_free_streaming(self):
        spec = ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: 0.0 * x)
        ens = ClassicalEnsemble(x=[0.0, 1.0], p=[2.0, -1.0],
                                weights=uniform_weights(2))
        out = verlet_step(ens, 0.5, spec)
        np.testing.assert_allclose(out.x, [1.0, 0.5])
        np.testing.assert_allclose(out.p, [2.0, -1.0])

    def test_oscillator_energy_and_trajectory(self):
        ens = single(1.0, 0.0)
        dt, n = 0.01, 10_000
        h0 = 0.5 * (ens.x[0] ** 2 + ens.p[0] ** 2)
        worst = 0.0
        for _ in range(n):
            ens = verlet_step(ens, dt, OSCILLATOR)
            h = 0.5 * (ens.x[0] ** 2 + ens.p[0] ** 2)
            worst = max(worst, abs(h - h0))
        assert worst <= 5e-5
        t = n * dt
        assert abs(ens.x[0] - np.cos(t)) < 1e-3
        assert abs(ens.p[0] + np.sin(t)) < 1e-3

    def test_energy_error_scales_second_order(self):
        def max_energy_error(dt):
            ens = single(1.0, 0.0)
            h0 = 0.5
            worst = 0.0
            for _ in range(int(round(10.0 / dt))):
                ens = verlet_step(ens, dt, OSCILLATOR)
                worst = max(worst, abs(0.5 * (ens.x[0] ** 2 + ens.p[0] ** 2) - h0))
            return worst

        e1, e2 = max_energy_error(0.05), max_energy_error(0.025)
        assert 3.5 <= e1 / e2 <= 4.5

    def test_reversibility(self):
        ens = single(0.7, -0.3)
        forward = verlet_step(ens, 0.1, OSCILLATOR)
        back = verlet_step(forward, -0.1, OSCILLATOR)
        assert abs(back.x[0] - ens.x[0]) < 1e-12
        assert abs(back.p[0] - ens.p[0]) < 1e-12
        assert abs(back.s - ens.s) < 1e-12

    def test_weights_never_mutated(self):
        w = np.array([0.25, 0.75])
        ens = ClassicalEnsemble(x=[0.0, 1.0], p=[1.0, 0.0], weights=w)
        out = ens
        for _ in range(100):
            out = verlet_step(out, 0.05, OSCILLATOR)
        np.testing.assert_array_equal(out.weights, w)

    def test_jacobian_determinant_is_one(self):
        eps = 1e-6
        base = single(0.8, -0.4)

        def mapped(dx, dp):
            e = ClassicalEnsemble(x=[0.8 + dx], p=[-0.4 + dp], weights=[1.0])
            out = verlet_step(e, 0.1, OSCILLATOR)
            return out.x[0], out.p[0]

        x0, p0 = mapped(0.0, 0.0)
        dxdx = (mapped(eps, 0)[0] - mapped(-eps, 0)[0]) / (2 * eps)
        dxdp = (mapped(0, eps)[0] - mapped(0, -eps)[0]) / (2 * eps)
        dpdx = (mapped(eps, 0)[1] - mapped(-eps, 0)[1]) / (2 * eps)
        dpdp = (mapped(0, eps)[1] - mapped(0, -eps)[1]) / (2 * eps)
        det = dxdx * dpdp - dxdp * dpdx
        assert abs(det - 1.0) < 1e-9

    def test_phase_space_area_preserved(self):
        # a small parallelogram of initial conditions keeps its area
        corners = [(1.0, 0.0), (1.001, 0.0), (1.0, 0.001)]
        spec = ClassicalSpec(dk_dp=lambda p, s: p,
                             du_dx=lambda x, s: x + 0.4 * x ** 3)
        states = [single(x0, p0) for x0, p0 in corners]
        for _ in range(1000):
            states = [verlet_step(e, 0.01, spec) for e in states]
        v1 = np.array([states[1].x[0] - states[0].x[0],
                       states[1].p[0] - states[0].p[0]])
        v2 = np.array([states[2].x[0] - states[0].x[0],
                       states[2].p[0] - states[0].p[0]])
        area = abs(v1[0] * v2[1] - v1[1] * v2[0])
        assert abs(area - 1e-6) < 1e-8

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            verlet_step(single(0, 0), 0.0, OSCILLATOR)


class TestAutonomization:
    def test_clock_advances_like_time(self):
        spec = extend_time_dependent(lambda p, t: p, lambda x, t: x)
        ens = single(1.0, 0.0)
        for _ in range(250):
            ens = verlet_step(ens, 0.02, spec)
        assert abs(ens.s - 5.0) < 1e-12

    def test_driven_oscillator_matches_rk4(self):
        e0, omega = 0.3, 1.6
        dk = lambda p, t: p
        du = lambda x, t: x - e0 * np.cos(omega * t)
        spec = extend_time_dependent(dk, du)
        dt = 0.001
        periods = 10 * 2 * np.pi
        n = int(round(periods / dt))
        ens = single(1.0, 0.0)
        for _ in range(n):
            ens = verlet_step(ens, dt, spec)
        oracle = rk4_time_dependent(1.0, 0.0, dt / 5, 5 * n, dk, du)
        assert abs(ens.x[0] - oracle[0]) < 1e-5
        assert abs(ens.p[0] - oracle[1]) < 1e-5

    def test_autonomous_dynamics_unchanged_by_extension(self):
        plain = OSCILLATOR
        extended = extend_time_dependent(lambda p, t: p, lambda x, t: x)
        a, b = single(0.5, 0.5), single(0.5, 0.5)
        for _ in range(100):
            a = verlet_step(a, 0.03, plain)
            b = verlet_step(b, 0.03, extended)
        assert a.x[0] == b.x[0] and a.p[0] == b.p[0]


class TestMultiDim:
    def test_isotropic_oscillator_invariants(self):
        x = np.array([1.0, 0.0])
        p = np.array([0.0, 0.8])
        grad_u = lambda q: q
        grad_k = lambda q: q
        h0 = 0.5 * (x @ x + p @ p)
        l0 = x[0] * p[1] - x[1] * p[0]
        worst_h = worst_l = 0.0
        for _ in range(1000):
            x, p = multi_dim_verlet_step(x, p, 0.002, grad_u, grad_k)
            worst_h = max(worst_h, abs(0.5 * (x @ x + p @ p) - h0))
            worst_l = max(worst_l, abs(x[0] * p[1] - x[1] * p[0] - l0))
        assert worst_h < 1e-6
        assert worst_l < 1e-6

    def test_one_dim_reduction_matches_ensemble_step(self):
        ens = single(0.6, -0.2)
        out = verlet_step(ens, 0.07, OSCILLATOR)
        x, p = multi_dim_verlet_step(np.array([0.6]), np.array([-0.2]), 0.07,
                                     lambda q: q, lambda q: q)
        assert x[0] == out.x[0] and p[0] == out.p[0]

    def test_free_streaming(self):
        x, p = multi_dim_verlet_step(np.zeros(3), np.ones(3), 0.5,
                                     lambda q: 0 * q, lambda q: q)
        np.testing.assert_allclose(x, 0.5 * np.ones(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_dim_verlet_step(np.zeros(3), np.zeros(2), 0.1,
                                  lambda q: q, lambda q: q)


class TestEhrenfest:
    def test_single_particle_means_equal_trajectory(self):
        snaps = propagate_ensemble(single(1.0, 0.0), 0.01, 500, OSCILLATOR,
                                   stride=10)
        series = ehrenfest_series(snaps, OSCILLATOR)
        for snap, xm, pm in zip(snaps, series.x_mean, series.p_mean):
            assert xm == snap.x[0] and pm == snap.p[0]

    def test_gaussian_cloud_linear_force_commutes_with_mean(self):
        rng = np.random.default_rng(17)
        n = 400
        ens = ClassicalEnsemble(x=rng.normal(0.5, 0.3, n),
                                p=rng.normal(0.0, 0.4, n),
                                weights=uniform_weights(n))
        snaps = propagate_ensemble(ens, 0.01, 400, OSCILLATOR, stride=4)
        series = ehrenfest_series(snaps, OSCILLATOR)
        dts = np.diff(series.times)
        dpdt = (series.p_mean[2:] - series.p_mean[:-2]) / (dts[1:] + dts[:-1])
        residual = dpdt + series.x_mean[1:-1]
        assert np.max(np.abs(residual)) < 5e-4

    def test_anharmonic_force_average_differs_from_force_of_average(self):
        rng = np.random.default_rng(18)
        n = 2000
        quartic = ClassicalSpec(dk_dp=lambda p, s: p,
                                du_dx=lambda x, s: 4.0 * x ** 3)
        ens = ClassicalEnsemble(x=rng.normal(0.0, 0.8, n),
                                p=np.zeros(n), weights=uniform_weights(n))
        snaps = propagate_ensemble(ens, 0.005, 200, quartic, stride=4)
        series = ehrenfest_series(snaps, quartic)
        force_of_mean = -4.0 * series.x_mean ** 3
        # d<p>/dt tracks <-U'(x)>, not -U'(<x>)
        dts = np.diff(series.times)
        dpdt = (series.p_mean[2:] - series.p_mean[:-2]) / (dts[1:] + dts[:-1])
        err_true = np.max(np.abs(dpdt - series.force_mean[1:-1]))
        err_naive = np.max(np.abs(dpdt - force_of_mean[1:-1]))
        assert err_true < 1e-3
        assert err_naive > 10 * err_true

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            ehrenfest_series([], OSCILLATOR)


# ---------------------------------------------------------------------------
# the FSAL loop against the plain kick-drift-kick loop
# ---------------------------------------------------------------------------


def reference_trajectory(ensemble, dt, n_steps, spec, stride):
    """(x, p, s) snapshots of the plain kick-drift-kick loop, two forces a step."""
    x, p, s = ensemble.x, ensemble.p, ensemble.s
    out = [(x, p, s)]
    for m in range(n_steps):
        p1 = p - np.asarray(spec.du_dx(x, s)) * (dt / 2.0)
        x1 = x + np.asarray(spec.dk_dp(p1, s + dt / 2.0)) * dt
        p = p1 - np.asarray(spec.du_dx(x1, s + dt)) * (dt / 2.0)
        x, s = x1, s + dt
        if (m + 1) % stride == 0 or m == n_steps - 1:
            out.append((x, p, s))
    return out


DRIVEN_ANHARMONIC = extend_time_dependent(
    lambda p, t: p + 0.05 * np.sin(1.3 * t) * p ** 2,
    lambda x, t: x + 0.4 * x ** 3 - 0.3 * np.cos(1.6 * t))


def random_cloud(n=64, seed=5, s=0.0):
    rng = np.random.default_rng(seed)
    return ClassicalEnsemble(x=rng.normal(0.5, 0.8, n), p=rng.normal(0.0, 0.6, n),
                             weights=rng.dirichlet(np.ones(n)), s=s)


class TestFSALLoop:
    @pytest.mark.parametrize("spec", [OSCILLATOR, DRIVEN_ANHARMONIC],
                             ids=["autonomous", "time_dependent"])
    @pytest.mark.parametrize("dt, n_steps, stride", [
        (0.01, 40, 1),
        (0.02, 23, 5),     # partial final stride: 5, 10, 15, 20, 23
        (-0.015, 17, 4),   # backwards in time
        (0.03, 1, 3),
        (0.01, 0, 1),
    ])
    def test_bitwise_equal_to_plain_loop(self, spec, dt, n_steps, stride):
        ens = random_cloud(s=0.25)
        snaps = propagate_ensemble(ens, dt, n_steps, spec, stride=stride)
        ref = reference_trajectory(ens, dt, n_steps, spec, stride)
        assert len(snaps) == len(ref)
        assert snaps[0] is ens
        for snap, (x, p, s) in zip(snaps, ref):
            assert snap.x.tobytes() == x.tobytes()
            assert snap.p.tobytes() == p.tobytes()
            assert snap.s == s
            assert snap.weights is ens.weights

    def test_verlet_step_is_one_loop_step(self):
        ens = random_cloud(s=1.5)
        out = verlet_step(ens, -0.04, DRIVEN_ANHARMONIC)
        (_, (x, p, s)) = reference_trajectory(ens, -0.04, 1, DRIVEN_ANHARMONIC, 1)
        assert out.x.tobytes() == x.tobytes() and out.p.tobytes() == p.tobytes()
        assert out.s == s

    def test_multi_dim_step_is_one_loop_step(self):
        rng = np.random.default_rng(9)
        x, p = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        grad_u = lambda q: q + 0.2 * q ** 3
        grad_k = lambda q: q / 1.7
        spec = ClassicalSpec(dk_dp=lambda q, s: grad_k(q),
                             du_dx=lambda q, s: grad_u(q))
        ens = ClassicalEnsemble(x=x.ravel(), p=p.ravel(),
                                weights=uniform_weights(x.size))
        (_, (x_ref, p_ref, _)) = reference_trajectory(ens, 0.05, 1, spec, 1)
        x1, p1 = multi_dim_verlet_step(x, p, 0.05, grad_u, grad_k)
        assert x1.shape == p1.shape == (5, 3)
        assert x1.tobytes() == x_ref.tobytes() and p1.tobytes() == p_ref.tobytes()

    def test_zero_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            propagate_ensemble(random_cloud(), 0.0, 10, OSCILLATOR)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            propagate_ensemble(random_cloud(), 0.01, 10, OSCILLATOR, stride=0)

    @pytest.mark.parametrize("n_steps", [1, 2, 37])
    def test_force_evaluated_once_per_step_plus_one(self, n_steps):
        calls = {"du_dx": 0, "dk_dp": 0}

        def du_dx(x, s):
            calls["du_dx"] += 1
            return x

        def dk_dp(p, s):
            calls["dk_dp"] += 1
            return p

        propagate_ensemble(random_cloud(), 0.01, n_steps,
                           ClassicalSpec(dk_dp=dk_dp, du_dx=du_dx), stride=4)
        assert calls == {"du_dx": n_steps + 1, "dk_dp": n_steps}


class TestEnsembleConstruction:
    @pytest.mark.parametrize("x, p, weights, message", [
        ([0.0, 1.0], [0.0, 0.0], [1.5, -0.5], "nonnegative"),
        ([0.0, 1.0], [0.0, 0.0], [0.5, 0.4], "sum to 1"),
        ([0.0, 1.0], [0.0], [0.5, 0.5], "equal lengths"),
        ([0.0, 1.0], [0.0, 0.0], [1.0], "equal lengths"),
    ])
    def test_bad_weights_and_lengths_refused(self, x, p, weights, message):
        with pytest.raises(ValueError, match=message):
            ClassicalEnsemble(x=x, p=p, weights=weights)

    def test_step_refuses_force_of_wrong_length(self):
        spec = ClassicalSpec(dk_dp=lambda p, s: np.append(p, 0.0),
                             du_dx=lambda x, s: x)
        with pytest.raises(ValueError, match="equal lengths"):
            verlet_step(single(0.1, 0.2), 0.01, spec)


class TestProductFormQuartic:
    def test_matches_powers_on_negative_and_wide_inputs(self):
        from dynkit.cli import potential_from_config

        a = 0.37
        u, du = potential_from_config({"name": "quartic", "strength": a})
        mags = np.logspace(-70, 70, 2001)
        x = np.concatenate([-mags, mags, -np.linspace(0.01, 5.0, 500)])
        assert np.max(np.abs(u(x) / (a * x ** 4) - 1.0)) <= 1e-15
        assert np.max(np.abs(du(x) / (4.0 * a * x ** 3) - 1.0)) <= 1e-15


@pytest.mark.parametrize("dt, n_steps", [
    (np.nan, 3), (np.inf, 3), (-np.inf, 3), (0.01, -5),
])
def test_propagate_ensemble_rejects_bad_step(dt, n_steps):
    with pytest.raises(ValueError, match="dt|n_steps"):
        propagate_ensemble(single(0.1, 0.2), dt, n_steps, OSCILLATOR)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0])
def test_multi_dim_verlet_step_rejects_non_finite_step(dt):
    with pytest.raises(ValueError, match="finite"):
        multi_dim_verlet_step(np.ones(2), np.ones(2), dt, lambda q: q,
                              lambda q: q)
