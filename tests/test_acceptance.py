"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are pinned here and nowhere else.
"""

import hashlib
import json
import os
from functools import partial

import numpy as np
import pytest

import dynkit
from dynkit import (
    ClassicalEnsemble,
    ClassicalSpec,
    HamiltonianSpec,
    MoleculeSpec,
    SpectralSignal,
    TwoStateWigner,
    WaveFunction,
    build_fd_hamiltonian,
    build_spectral_hamiltonian,
    cft_forward,
    cft_inverse,
    eigensolve,
    expm_pade,
    expm_taylor,
    fermi_dirac_rates,
    frft,
    func_of_hermitian,
    gaussian_packet,
    gibbs_density,
    gibbs_rates,
    imaginary_time_ground,
    lindblad_propagate,
    lindblad_x_step,
    make_grid,
    mcwf_ensemble,
    moyal_two_state_step,
    pure_state_density,
    random_collision_step,
    spectral_gap_estimate,
    split_op_step,
    verlet_step,
    wigner_from_density,
    wigner_marginals,
)
from dynkit.grids import POSITION
from dynkit.tdse import TRIPLE_JUMP_S, compute_uncertainty
from dynkit.cli import run as cli_run

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)
DRIVEN = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.3 * x * np.sin(1.3 * t))
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

#: states produced by propagation in this module, checked in criterion 5
PROPAGATED_STATES = []


def report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def l2_distance(a, b):
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


def test_criterion_01_continuous_ft_bridge():
    g = make_grid(16.0, 256)
    f = np.exp(-g.x ** 2 / 2)
    sig = SpectralSignal(f, g, POSITION)
    fwd = cft_forward(sig)
    kernel = np.exp(-1j * np.outer(g.p_fft, g.x))
    quadrature = kernel @ f * g.dx
    ok_quad = np.max(np.abs(fwd.values - quadrature)) < 1e-10

    smooth = np.exp(-g.x ** 2 / 3) * np.exp(0.4j * g.x)
    back = cft_inverse(cft_forward(SpectralSignal(smooth, g, POSITION)))
    ok_round = np.max(np.abs(back.values - smooth)) < 1e-12

    rng = np.random.default_rng(101)
    ok_frft = True
    for n, alpha in [(64, 0.137), (128, -0.271), (256, 0.0531)]:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        k = np.arange(n)
        direct = np.exp(-2j * np.pi * alpha * np.outer(k, k)) @ x
        ok_frft &= bool(np.max(np.abs(frft(x, alpha) - direct)) < 1e-10)

    report("criterion 1: continuous-FT bridge (quadrature 1e-10, "
           "roundtrip 1e-12, FRFT 1e-10)", ok_quad and ok_round and ok_frft)


def test_criterion_02_stationary_spectra():
    g_fd = make_grid(5.0, 512)
    h_fd = build_fd_hamiltonian(g_fd, lambda x: x ** 2 / 2, "central")
    e_fd = eigensolve(h_fd, dx=g_fd.dx).energies
    ok_fd = np.max(np.abs(e_fd[:6] - (np.arange(6) + 0.5))) < 1e-3

    g_sp = make_grid(10.0, 256)
    h_sp = build_spectral_hamiltonian(g_sp, OSCILLATOR)
    e_sp = eigensolve(h_sp, dx=g_sp.dx).energies
    ok_sp = np.max(np.abs(e_sp[:6] - (np.arange(6) + 0.5))) < 1e-6

    ok_tri = True
    g_small = make_grid(5.0, 64)
    potential = lambda x: np.cos(x) + 0.05 * x ** 2
    for scheme in ("forward", "backward"):
        h = build_fd_hamiltonian(g_small, potential, scheme)
        ok_tri &= bool(np.max(np.abs(h - h.conj().T)) > 0)
        diagonal = -1.0 / (2 * g_small.dx ** 2) + potential(g_small.x)
        eigs = np.sort(np.linalg.eigvals(h).real)
        ok_tri &= bool(np.max(np.abs(eigs - np.sort(diagonal))) < 1e-8)

    report("criterion 2: oscillator ladder (FD 1e-3, spectral 1e-6) and "
           "triangular one-sided stencils", ok_fd and ok_sp and ok_tri)


def _endpoint_errors(step, dt, t_final, spec):
    g = make_grid(10.0, 128)
    psi0 = gaussian_packet(g, x0=1.0, p0=0.3)

    def advance(h):
        psi = psi0
        for m in range(int(round(t_final / h))):
            psi = step(psi, m * h, h, spec)
        return psi

    ref = advance(dt / 64)
    return l2_distance(advance(dt), ref), l2_distance(advance(dt / 2), ref)


def test_criterion_03_split_operator():
    g = make_grid(10.0, 128)
    psi = gaussian_packet(g, x0=1.0, p0=0.5)
    ok_norm = True
    for m in range(100):
        psi = split_op_step(psi, m * 0.02, 0.02, DRIVEN)
        ok_norm &= bool(abs(psi.norm() - 1.0) <= 1e-12)
    PROPAGATED_STATES.append(psi)

    e1, e2 = _endpoint_errors(split_op_step, 0.08, 1.6, DRIVEN)
    ratio2 = e1 / e2
    ok_order2 = 3.5 <= ratio2 <= 4.5

    e1, e2 = _endpoint_errors(partial(split_op_step, order=4), 0.16, 1.6, DRIVEN)
    ratio4 = e1 / e2
    ok_order4 = 12.0 <= ratio4 <= 20.0

    s_formula = 2 ** (1 / 3) / 3 + 2 ** (2 / 3) / 6 + 2 / 3
    ok_s = abs(TRIPLE_JUMP_S - s_formula) < 1e-12 \
        and abs(2 * TRIPLE_JUMP_S ** 3 + (1 - 2 * TRIPLE_JUMP_S) ** 3) < 1e-12 \
        and abs(TRIPLE_JUMP_S - 1.35) < 0.01

    report(f"criterion 3: split-operator norm 1e-12, order-2 ratio {ratio2:.2f}"
           f" in [3.5,4.5], order-4 ratio {ratio4:.2f} in [12,20], s constant",
           ok_norm and ok_order2 and ok_order4 and ok_s)


def test_criterion_04_imaginary_time_and_gap():
    g = make_grid(10.0, 128)
    e0, psi0 = imaginary_time_ground(gaussian_packet(g, x0=0.4, sigma=0.8),
                                     0.005, OSCILLATOR, tol=1e-13)
    ok_e0 = abs(e0 - 0.5) < 1e-6
    e1, psi1 = imaginary_time_ground(gaussian_packet(g, x0=0.7, sigma=0.8),
                                     0.005, OSCILLATOR, tol=1e-13,
                                     known_states=[psi0])
    ok_e1 = abs(e1 - 1.5) < 1e-5
    PROPAGATED_STATES.extend([psi0, psi1])

    boosted = gaussian_packet(g, x0=0.4, p0=1.0)
    gap = spectral_gap_estimate(boosted, g.x, 0.02, 10.0, OSCILLATOR)
    ok_gap = abs(gap - 1.0) < 0.05

    # first-order condition deliberately violated: a 2-level system whose
    # observable only couples levels 0 and 2 of a 3-level ladder, and an even
    # chirped oscillator state probed with x^2 (x couples only neighbours)
    h3 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    o3 = np.zeros((3, 3), dtype=complex)
    o3[0, 2] = o3[2, 0] = 1.0
    psi3 = np.array([1.0, 0.5, 0.5j * np.exp(0.3j)])
    slope3 = spectral_gap_estimate(psi3, o3, 0.02, 12.0, h3)
    ok_second = abs(slope3 - 2.5) < 0.05

    h2 = np.diag([0.0, 1.7]).astype(complex)
    o2 = np.array([[0, 1], [1, 0]], dtype=complex)
    psi2 = np.array([1.0, np.exp(0.7j)]) / np.sqrt(2)
    slope2 = spectral_gap_estimate(psi2, o2, 0.02, 12.0, h2)
    ok_two_level = abs(slope2 - 1.7) < 0.02

    chirped = WaveFunction(np.exp(-g.x ** 2 / 2 + 0.3j * g.x ** 2), g).normalized()
    slope_osc = spectral_gap_estimate(chirped, g.x ** 2, 0.02, 10.0, OSCILLATOR)
    ok_osc2 = abs(slope_osc - 2.0) < 0.1

    report(f"criterion 4: E0={e0:.8f} (1e-6), E1={e1:.7f} (1e-5), "
           f"gap={gap:.3f} (5%), violated-condition slopes {slope2:.3f}/"
           f"{slope3:.3f}/{slope_osc:.3f}",
           ok_e0 and ok_e1 and ok_gap and ok_second and ok_two_level and ok_osc2)


def test_criterion_05_uncertainty():
    g = make_grid(12.0, 256)
    minimal = WaveFunction(np.exp(-g.x ** 2 / 2).astype(complex), g).normalized()
    sx, sp = compute_uncertainty(minimal)
    ok_equality = abs(sx * sp - 0.5) < 1e-6

    # add more propagated states: quartic and driven evolutions
    quartic = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                              potential=lambda t, x: 0.1 * x ** 4)
    psi = gaussian_packet(g, x0=1.2, sigma=0.8)
    for m in range(150):
        psi = split_op_step(psi, m * 0.01, 0.01, quartic)
    PROPAGATED_STATES.append(psi)
    psi = gaussian_packet(g, x0=-0.5, p0=1.0)
    for m in range(80):
        psi = split_op_step(psi, m * 0.02, 0.02, DRIVEN, order=4)
    PROPAGATED_STATES.append(psi)

    ok_bound = True
    for state in PROPAGATED_STATES:
        sx, sp = compute_uncertainty(state)
        hbar = state.grid.hbar
        ok_bound &= bool(sx * sp >= 0.5 * hbar - 1e-6)

    report(f"criterion 5: sigma_x sigma_p >= hbar/2 - 1e-6 on "
           f"{len(PROPAGATED_STATES)} propagated states; minimal Gaussian "
           "equality 1e-6", ok_equality and ok_bound)


def test_criterion_06_classical():
    oscillator = ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: x)
    ens = ClassicalEnsemble(x=[1.0], p=[0.0], weights=[1.0])
    worst = 0.0
    for _ in range(10_000):
        ens = verlet_step(ens, 0.01, oscillator)
        h = 0.5 * (ens.x[0] ** 2 + ens.p[0] ** 2)
        worst = max(worst, abs(h - 0.5))
    ok_drift = worst <= 5e-5

    start = ClassicalEnsemble(x=[0.7], p=[-0.3], weights=[1.0])
    back = verlet_step(verlet_step(start, 0.1, oscillator), -0.1, oscillator)
    ok_rev = abs(back.x[0] - 0.7) < 1e-12 and abs(back.p[0] + 0.3) < 1e-12

    eps = 1e-3  # the oscillator step is linear, so differences are exact

    def advance(dx, dp):
        e = ClassicalEnsemble(x=[0.8 + dx], p=[-0.4 + dp], weights=[1.0])
        out = verlet_step(e, 0.1, oscillator)
        return out.x[0], out.p[0]

    dxdx = (advance(eps, 0)[0] - advance(-eps, 0)[0]) / (2 * eps)
    dxdp = (advance(0, eps)[0] - advance(0, -eps)[0]) / (2 * eps)
    dpdx = (advance(eps, 0)[1] - advance(-eps, 0)[1]) / (2 * eps)
    dpdp = (advance(0, eps)[1] - advance(0, -eps)[1]) / (2 * eps)
    det = dxdx * dpdp - dxdp * dpdx
    ok_jac = abs(det - 1.0) < 1e-12

    e0, omega = 0.3, 1.6
    dk = lambda p, t: p
    du = lambda x, t: x - e0 * np.cos(omega * t)
    spec = ClassicalSpec(dk, du)
    dt = 0.001
    n = int(round(10 * 2 * np.pi / dt))
    ens = ClassicalEnsemble(x=[1.0], p=[0.0], weights=[1.0])
    for _ in range(n):
        ens = verlet_step(ens, dt, spec)
    state = np.array([1.0, 0.0])
    t = 0.0
    h_rk = dt / 5
    for _ in range(5 * n):
        def rhs(s, tt):
            return np.array([dk(s[1], tt), -du(s[0], tt)])
        k1 = rhs(state, t)
        k2 = rhs(state + h_rk / 2 * k1, t + h_rk / 2)
        k3 = rhs(state + h_rk / 2 * k2, t + h_rk / 2)
        k4 = rhs(state + h_rk * k3, t + h_rk)
        state = state + h_rk / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h_rk
    ok_driven = abs(ens.x[0] - state[0]) < 1e-5 and abs(ens.p[0] - state[1]) < 1e-5

    report(f"criterion 6: Verlet drift {worst:.2e} <= 5e-5, reversibility "
           f"1e-12, |det J - 1| = {abs(det - 1):.1e} <= 1e-12, driven vs RK4 "
           "1e-5", ok_drift and ok_rev and ok_jac and ok_driven)


def test_criterion_07_open_systems():
    g = make_grid(8.0, 64)
    h = build_spectral_hamiltonian(g, OSCILLATOR)
    rho_beta = gibbs_density(h, beta=1.0, grid=g)

    ok_struct = True
    rho = pure_state_density(gaussian_packet(g, x0=1.0))
    for m in range(50):
        rho = lindblad_x_step(rho, m * 0.02, 0.02, OSCILLATOR)
        ok_struct &= bool(abs(rho.trace() - 1.0) <= 1e-10
                          and rho.hermiticity_defect() <= 1e-10)
    rho = pure_state_density(gaussian_packet(g, x0=1.0))
    for m in range(50):
        rho = lindblad_x_step(rho, m * 0.02, 0.02, OSCILLATOR,
                              lambda x: 0.4 * x)
        ok_struct &= bool(abs(rho.trace() - 1.0) <= 1e-10
                          and rho.hermiticity_defect() <= 1e-10)
    rho = pure_state_density(gaussian_packet(g, x0=1.0))
    for m in range(50):
        rho = random_collision_step(rho, m * 0.02, 0.02, OSCILLATOR, 0.8,
                                    rho_beta)
        ok_struct &= bool(abs(rho.trace() - 1.0) <= 1e-10
                          and rho.hermiticity_defect() <= 1e-10)

    gamma_deph = 0.3
    rho0 = pure_state_density(gaussian_packet(g, sigma=0.8))
    trivial = HamiltonianSpec(kinetic=lambda t, p: 0.0 * p,
                              potential=lambda t, x: 0.0 * x)
    rho = rho0
    for m in range(100):
        rho = lindblad_x_step(rho, m * 0.01, 0.01, trivial,
                              lambda x: np.sqrt(gamma_deph) * x)
    dx2 = (g.x[:, None] - g.x[None, :]) ** 2
    expected = rho0.values * np.exp(-gamma_deph * dx2 * 1.0 / 2)
    ok_dephasing = np.max(np.abs(rho.values - expected)) < 1e-6

    gamma, dt = 2.0, 0.01
    rho = pure_state_density(gaussian_packet(g, x0=1.0))
    for m in range(1000):  # gamma * T = 20
        rho = random_collision_step(rho, m * dt, dt, OSCILLATOR, gamma, rho_beta)
    diff = (rho.values - rho_beta.values) * g.dx
    trace_norm = np.sum(np.linalg.svd(diff, compute_uv=False))
    ok_gibbs = trace_norm < 1e-3

    energies = np.array([0.0, 0.5, 1.2, 2.0])
    rates_g = gibbs_rates(energies, 0.8, 1.1)
    boltz = np.exp(-0.8 * energies)
    boltz /= boltz.sum()
    ok_rates = np.max(np.abs(rates_g.generator() @ boltz)) < 1e-12
    rates_f = fermi_dirac_rates(energies, 2.0, 0.7, 0.9)
    fermi = 1.0 / (np.exp(2.0 * (energies - 0.7)) + 1.0)
    fermi /= fermi.sum()
    ok_rates &= bool(np.max(np.abs(rates_f.generator() @ fermi)) < 1e-12)

    gamma_mc = 0.6
    h2 = 0.8 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ops = [np.sqrt(gamma_mc) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    psi0 = np.array([0.0, 1.0], dtype=complex)
    times, rhos = mcwf_ensemble(psi0, h2, ops, 0.02, 3.0, 2000, base_seed=42,
                                stride=25)
    oracle = lindblad_propagate(np.outer(psi0, psi0.conj()), h2, ops, times)
    mc_err = np.max(np.abs(rhos - oracle))
    ok_mcwf = mc_err < 0.05

    report(f"criterion 7: structure 1e-10, dephasing 1e-6, Gibbs trace-norm "
           f"{trace_norm:.1e} < 1e-3, stationary rates 1e-12, MCWF vs "
           f"Lindblad {mc_err:.3f} < 0.05",
           ok_struct and ok_dephasing and ok_gibbs and ok_rates and ok_mcwf)


def test_criterion_08_wigner():
    g = make_grid(8.0, 128)
    ground = WaveFunction(np.exp(-g.x ** 2 / 2).astype(complex), g).normalized()
    w = wigner_from_density(pure_state_density(ground))
    xx, pp = np.meshgrid(w.x, w.p, indexing="ij")
    ok_gauss = np.max(np.abs(w.values - np.exp(-xx ** 2 - pp ** 2) / np.pi)) < 1e-6
    ok_norm = abs(w.normalization() - 1.0) < 1e-8

    packet = gaussian_packet(g, x0=0.5, p0=0.8, sigma=0.9)
    wp = wigner_from_density(pure_state_density(packet))
    px, _ = wigner_marginals(wp)
    ok_marg = np.max(np.abs(px[::2] - np.abs(packet.values) ** 2)) < 1e-8

    g64 = make_grid(8.0, 64)
    base = wigner_from_density(pure_state_density(gaussian_packet(g64, x0=1.0)))
    spec = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                        v_ground=lambda x: x ** 2 / 2,
                        v_excited=lambda x: x ** 2 / 2,
                        dipole=lambda x: np.ones_like(x),
                        pulse=lambda t: 0.0)
    zero = np.zeros_like(base.values)
    w2 = TwoStateWigner(base.values, zero, zero.astype(complex), base.x,
                        base.p, g64.hbar)
    n_steps = 2000
    dt = 2 * np.pi / n_steps
    for m in range(n_steps):
        w2 = moyal_two_state_step(w2, m * dt, dt, spec)
    period_err = np.max(np.abs(w2.w_g - base.values))
    ok_period = period_err < 1e-4

    report(f"criterion 8: ground-state Wigner 1e-6, marginals 1e-8, "
           f"normalization 1e-8, Moyal period return {period_err:.1e} < 1e-4",
           ok_gauss and ok_norm and ok_marg and ok_period)


def test_criterion_09_matrix_exponential():
    rng = np.random.default_rng(202)
    ok_agree = True
    for dim, norm in [(8, 5.0), (32, 25.0), (64, 50.0)]:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (a + a.conj().T) / 2
        a *= norm / np.linalg.norm(a, 1)
        r1 = expm_pade(a).result
        r2 = expm_taylor(a, tol=1e-14).result
        r3 = func_of_hermitian(a, np.exp)
        scale = np.max(np.abs(r3))
        ok_agree &= bool(np.max(np.abs(r1 - r2)) / scale < 1e-8)
        ok_agree &= bool(np.max(np.abs(r1 - r3)) / scale < 1e-8)

    from dynkit.matfunc import PADE_NORM_BOUND
    ok_k = True
    for norm in (0.3, 0.7, 10.0, 333.0):
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        a *= norm / np.linalg.norm(a, 1)
        expected = 0 if norm <= PADE_NORM_BOUND else int(
            np.ceil(np.log2(norm / PADE_NORM_BOUND)))
        ok_k &= expm_pade(a).squarings == expected

    counts = []
    for i, norm in enumerate((1.0, 4.0, 16.0, 64.0)):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = (a + a.conj().T) / 2
        a *= norm / np.linalg.norm(a, 1)
        counts.append(expm_taylor(a, tol=1e-14).matrix_multiplications)
    ok_growth = all(b > a for a, b in zip(counts, counts[1:])) \
        and all(c >= n / np.e for c, n in zip(counts, (1.0, 4.0, 16.0, 64.0)))

    report(f"criterion 9: three expm routes 1e-8, exact squaring counts, "
           f"Taylor counts {counts} grow at least linearly",
           ok_agree and ok_k and ok_growth)


def test_criterion_10_cli_determinism(tmp_path):
    def data_checksums(directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            if name == "manifest":
                continue
            with open(os.path.join(directory, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    ok_identical = True
    for name in sorted(os.listdir(CONFIG_DIR)):
        config = os.path.join(CONFIG_DIR, name)
        first = tmp_path / (name + ".a")
        second = tmp_path / (name + ".b")
        assert cli_run(config, str(first)) == 0, f"{name} failed to run"
        assert cli_run(config, str(second)) == 0
        ok_identical &= data_checksums(first) == data_checksums(second)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "task": "eigen",
        "grid": {"L": 10.0, "n": 128},
        "hamiltonian": {"potential": {"name": "harmonic"}},
        "eigen": {"n_statess": 3},
    }))
    import io
    import contextlib
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli_run(str(bad), str(tmp_path / "bad_out"))
    ok_schema = code == 2 and "n_statess" in stderr.getvalue()

    report("criterion 10: bundled configs byte-identical across runs; "
           "schema violations exit 2 naming the key",
           ok_identical and ok_schema)
