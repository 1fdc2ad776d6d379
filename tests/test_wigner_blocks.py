"""The block Wigner transforms and the Moyal step against the per-center originals.

The reference functions below are the earlier implementations kept
verbatim: one bridged FFT per center with an even/odd index branch, and a
Moyal step that evaluates each surface twice per side.  The production code
must reproduce them bitwise.
"""

import numpy as np
import pytest

from dynkit.errors import HermiticityError
from dynkit.grids import fft_bridge, ifft_bridge, make_grid
from dynkit.open_systems import DensityMatrix, gibbs_density, pure_state_density
from dynkit.stationary import HamiltonianSpec, build_spectral_hamiltonian
from dynkit.tdse import gaussian_packet
from dynkit.wigner import (
    MoleculeSpec,
    TwoStateWigner,
    WignerFunction,
    _wigner_axes,
    density_from_wigner,
    moyal_two_state_step,
    wigner_from_density,
)


# ---------------------------------------------------------------------------
# reference: the per-center transforms and the four-evaluation Moyal step
# ---------------------------------------------------------------------------


def _antidiagonal_indices(n: int, c: int):
    """(bra, ket, valid) index arrays for center index c on the half-spaced axis."""
    m = np.arange(n)
    if c % 2 == 0:
        j = c // 2
        a = j - m + n // 2
        b = j + m - n // 2
    else:
        j = (c - 1) // 2
        a = j - m + n // 2
        b = j + m + 1 - n // 2
    valid = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    return a, b, valid


def reference_wigner_from_density(rho: DensityMatrix) -> WignerFunction:
    if rho.grid is None:
        raise ValueError("wigner_from_density needs a grid density matrix")
    grid = rho.grid
    grid.require_fft_bridge()
    n = grid.n
    x_w, p_w, dtheta = _wigner_axes(grid)
    half_shift = np.exp(1j * np.pi * (np.arange(n) - n // 2) / n)
    out = np.empty((2 * n, n), dtype=complex)
    for c in range(2 * n):
        a, b, valid = _antidiagonal_indices(n, c)
        f = np.zeros(n, dtype=complex)
        f[valid] = rho.values[a[valid], b[valid]]
        row = n * ifft_bridge(f) * (dtheta / (2.0 * np.pi))
        if c % 2 == 1:
            row = row * half_shift
        out[c] = row
    residue = float(np.max(np.abs(out.imag)))
    if residue > 1e-8:
        raise HermiticityError(
            f"Wigner transform imaginary residue {residue:.3e} exceeds 1e-8"
        )
    return WignerFunction(out.real, x_w, p_w, grid.hbar, grid=grid)


def reference_density_from_wigner(w: WignerFunction,
                                  grid=None) -> DensityMatrix:
    grid = grid if grid is not None else w.grid
    if grid is None:
        raise ValueError("supply the UniformGrid the Wigner function came from")
    n = grid.n
    if w.values.shape != (2 * n, n):
        raise ValueError("Wigner array shape does not match the grid")
    dp = w.dp
    half_shift = np.exp(-1j * np.pi * (np.arange(n) - n // 2) / n)
    rho = np.zeros((n, n), dtype=complex)
    for c in range(2 * n):
        row = w.values[c].astype(complex)
        if c % 2 == 1:
            row = row * half_shift
        f = fft_bridge(row) * dp
        a, b, valid = _antidiagonal_indices(n, c)
        rho[a[valid], b[valid]] = f[valid]
    return DensityMatrix(rho, grid)


def _sandwich_blocks(tl, blocks, tr):
    """2x2 matrix product T_left @ blocks @ T_right, all entries arrays."""
    (l11, l12), (l21, l22) = tl
    (b11, b12), (b21, b22) = blocks
    (r11, r12), (r21, r22) = tr
    m11 = l11 * b11 + l12 * b21
    m12 = l11 * b12 + l12 * b22
    m21 = l21 * b11 + l22 * b21
    m22 = l21 * b12 + l22 * b22
    return ((m11 * r11 + m12 * r21, m11 * r12 + m12 * r22),
            (m21 * r11 + m22 * r21, m21 * r12 + m22 * r22))


def _rotation_entries(spec: MoleculeSpec, q: np.ndarray, t: float, dt: float,
                      hbar: float):
    """Entries of T(q) = exp[-(i dt/hbar)(sigma_x V_eg + sigma_z (V_g - V_e)/2)]."""
    v_eg = -np.asarray(spec.dipole(q)) * spec.pulse(t)
    half_gap = 0.5 * (np.asarray(spec.v_ground(q)) - np.asarray(spec.v_excited(q)))
    d = np.sqrt(v_eg ** 2 + half_gap ** 2)
    c = np.cos(d * dt / hbar)
    s = (dt / hbar) * np.sinc(d * dt / (hbar * np.pi))  # sin(D dt/hbar)/D
    ll = s * v_eg
    mm = s * half_gap
    return ((c - 1j * mm, -1j * ll), (-1j * ll, c + 1j * mm))


def _dagger(tmat):
    (a11, a12), (a21, a22) = tmat
    return ((np.conj(a11), np.conj(a21)), (np.conj(a12), np.conj(a22)))


def reference_moyal_two_state_step(w2: TwoStateWigner, t: float, dt: float,
                                   spec: MoleculeSpec,
                                   symmetrize: bool = False) -> TwoStateWigner:
    hbar = w2.hbar
    n_x, n_p = w2.w_g.shape
    if n_x % 4 or n_p % 4:
        raise ValueError("both Wigner axes must be divisible by 4")
    x = np.asarray(w2.x)
    p = np.asarray(w2.p)
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    tm = t + dt / 2.0

    theta = (np.arange(n_p) - n_p // 2) * (2.0 * np.pi / (n_p * dp))
    lam = (np.arange(n_x) - n_x // 2) * (2.0 * np.pi / (n_x * dx))

    x_minus = x[:, None] - 0.5 * hbar * theta[None, :]
    x_plus = x[:, None] + 0.5 * hbar * theta[None, :]
    p_minus = p[None, :] - 0.5 * hbar * lam[:, None]
    p_plus = p[None, :] + 0.5 * hbar * lam[:, None]
    kin_shear = np.exp((1j * dt / hbar)
                       * (np.asarray(spec.kinetic(p_minus))
                          - np.asarray(spec.kinetic(p_plus))))
    mean_phase = np.exp((0.5j * dt / hbar)
                        * (np.asarray(spec.v_ground(x_plus))
                           - np.asarray(spec.v_ground(x_minus))
                           + np.asarray(spec.v_excited(x_plus))
                           - np.asarray(spec.v_excited(x_minus))))

    blocks = ((w2.w_g.astype(complex), w2.w_ge.astype(complex)),
              (np.conj(w2.w_ge), w2.w_e.astype(complex)))

    def drop_nyquist(b, axis):
        b = b.copy()
        if axis == 0:
            b[0, :] = 0.0
        else:
            b[:, 0] = 0.0
        return b

    def kinetic(blocks, shear):
        return tuple(tuple(ifft_bridge(
            shear * drop_nyquist(fft_bridge(b, axis=0), 0), axis=0)
            for b in row) for row in blocks)

    def potential(blocks):
        transformed = tuple(tuple(drop_nyquist(fft_bridge(b, axis=1), 1)
                                  for b in row) for row in blocks)
        tl = _rotation_entries(spec, x_minus, tm, dt, hbar)
        tr = _dagger(_rotation_entries(spec, x_plus, tm, dt, hbar))
        sandwiched = _sandwich_blocks(tl, transformed, tr)
        sandwiched = tuple(tuple(mean_phase * b for b in row)
                           for row in sandwiched)
        return tuple(tuple(ifft_bridge(b, axis=1) for b in row)
                     for row in sandwiched)

    if symmetrize:
        half_shear = np.exp((0.5j * dt / hbar)
                            * (np.asarray(spec.kinetic(p_minus))
                               - np.asarray(spec.kinetic(p_plus))))
        blocks = kinetic(blocks, half_shear)
        blocks = potential(blocks)
        blocks = kinetic(blocks, half_shear)
    else:
        blocks = potential(blocks)
        blocks = kinetic(blocks, kin_shear)

    (gg, ge), (eg, ee) = blocks
    residue = max(float(np.max(np.abs(gg.imag))), float(np.max(np.abs(ee.imag))),
                  float(np.max(np.abs(eg - np.conj(ge)))))
    if residue > 1e-8:
        raise HermiticityError(
            f"two-state Wigner structure residue {residue:.3e} exceeds 1e-8"
        )
    return TwoStateWigner(gg.real, ee.real, ge, w2.x, w2.p, hbar)


# ---------------------------------------------------------------------------
# block transforms
# ---------------------------------------------------------------------------

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)

# 64: one block; 256: exactly one full block; 512: several full blocks;
# 768: several full blocks and a partial last one.
SIZES = (64, 256, 512, 768)


def make_density(kind: str, n: int) -> DensityMatrix:
    grid = make_grid(8.0, n)
    if kind == "pure":
        return pure_state_density(gaussian_packet(grid, x0=0.7, p0=-0.4,
                                                  sigma=0.8))
    if kind == "gibbs":
        return gibbs_density(build_spectral_hamiltonian(grid, OSCILLATOR),
                             0.7, grid)
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return DensityMatrix((a + a.conj().T) / 2.0, grid)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ("pure", "gibbs", "random"))
def test_forward_transform_matches_per_center_reference(kind, n):
    rho = make_density(kind, n)
    w = wigner_from_density(rho)
    ref = reference_wigner_from_density(rho)
    assert np.array_equal(w.values, ref.values)
    assert np.array_equal(w.x, ref.x) and np.array_equal(w.p, ref.p)
    back = density_from_wigner(w)
    assert np.array_equal(back.values, reference_density_from_wigner(ref).values)


@pytest.mark.parametrize("n", [64, 768])
def test_forward_transform_reads_a_fortran_ordered_matrix(n):
    rho = make_density("random", n)
    fortran = DensityMatrix(np.asfortranarray(rho.values), rho.grid)
    assert not fortran.values.flags.c_contiguous
    assert (wigner_from_density(fortran).values.tobytes()
            == reference_wigner_from_density(rho).values.tobytes())


@pytest.mark.parametrize("n", SIZES)
def test_inverse_transform_of_arbitrary_real_array(n):
    grid = make_grid(8.0, n)
    x_w, p_w, _ = _wigner_axes(grid)
    values = np.random.default_rng(n + 1).normal(size=(2 * n, n))
    w = WignerFunction(values, x_w, p_w, grid.hbar, grid=grid)
    assert np.array_equal(density_from_wigner(w).values,
                          reference_density_from_wigner(w).values)


def test_residue_in_last_block_only_is_refused():
    rho = make_density("pure", 768)
    values = rho.values.copy()
    values[-1, -1] += 1e-5j  # center 2n - 2, inside the partial last block
    broken = DensityMatrix(values, rho.grid)
    with pytest.raises(HermiticityError) as new:
        wigner_from_density(broken)
    with pytest.raises(HermiticityError) as ref:
        reference_wigner_from_density(broken)
    assert str(new.value) == str(ref.value)
    assert "Wigner transform imaginary residue" in str(new.value)


@pytest.mark.parametrize("n, entry", [(64, (5, 9)), (768, (0, 0))],
                         ids=("one-block", "first-of-several-blocks"))
def test_nan_entry_is_refused(n, entry):
    values = make_density("pure", n).values.copy()
    values[entry] = np.nan
    with pytest.raises(HermiticityError, match="residue nan"):
        wigner_from_density(DensityMatrix(values, make_grid(8.0, n)))


def test_forward_values_are_an_owned_contiguous_float_array():
    w = wigner_from_density(make_density("pure", 64))
    assert w.values.dtype == np.float64
    assert w.values.flags.c_contiguous
    assert w.values.flags.owndata
    assert w.values.base is None


# ---------------------------------------------------------------------------
# Moyal step
# ---------------------------------------------------------------------------

DRIVEN = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                      v_ground=lambda x: 0.5 * x ** 2,
                      v_excited=lambda x: 0.5 * (x - 0.5) ** 2 + 1.0,
                      dipole=lambda x: np.exp(-x ** 2),
                      pulse=lambda t: 0.8 * np.sin(2.0 * t))
STATIC = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                      v_ground=lambda x: 0.3 * x ** 2,
                      v_excited=lambda x: 0.2 * x ** 2 + 0.5,
                      dipole=lambda x: 0.4 + 0.0 * x,
                      pulse=lambda t: 1.0)


def coupled_state(n: int = 32) -> TwoStateWigner:
    grid = make_grid(8.0, n)
    w = wigner_from_density(pure_state_density(gaussian_packet(grid, x0=1.0)))
    return TwoStateWigner(w.values, 0.25 * w.values, (0.3 + 0.1j) * w.values,
                          w.x, w.p, grid.hbar)


@pytest.mark.parametrize("spec", (DRIVEN, STATIC), ids=("driven", "static"))
@pytest.mark.parametrize("symmetrize", (False, True))
def test_moyal_step_matches_reference_over_many_steps(spec, symmetrize):
    new = ref = coupled_state()
    dt = 0.02
    for m in range(50):
        new = moyal_two_state_step(new, m * dt, dt, spec, symmetrize)
        ref = reference_moyal_two_state_step(ref, m * dt, dt, spec, symmetrize)
    assert np.array_equal(new.w_g, ref.w_g)
    assert np.array_equal(new.w_e, ref.w_e)
    assert np.array_equal(new.w_ge, ref.w_ge)


@pytest.mark.parametrize("symmetrize", (False, True))
def test_moyal_step_evaluates_each_surface_once_per_side(symmetrize):
    calls = {"v_ground": 0, "v_excited": 0}

    def counted(name, f):
        def surface(x):
            calls[name] += 1
            return f(x)
        return surface

    spec = MoleculeSpec(kinetic=DRIVEN.kinetic,
                        v_ground=counted("v_ground", DRIVEN.v_ground),
                        v_excited=counted("v_excited", DRIVEN.v_excited),
                        dipole=DRIVEN.dipole, pulse=DRIVEN.pulse)
    w2 = coupled_state(16)
    n_steps = 3
    for m in range(n_steps):
        w2 = moyal_two_state_step(w2, m * 0.01, 0.01, spec, symmetrize)
    assert calls == {"v_ground": 2 * n_steps, "v_excited": 2 * n_steps}


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_moyal_step_rejects_non_finite_step(dt):
    with pytest.raises(ValueError, match="finite"):
        moyal_two_state_step(coupled_state(16), 0.0, dt, STATIC)


def test_moyal_step_refuses_a_nan_block():
    w2 = coupled_state(16)
    w_ge = w2.w_ge.copy()
    w_ge[3, 4] = np.nan
    broken = TwoStateWigner(w2.w_g, w2.w_e, w_ge, w2.x, w2.p, w2.hbar)
    with pytest.raises(HermiticityError, match="residue nan"):
        moyal_two_state_step(broken, 0.0, 0.01, STATIC)
