"""One contract for scalar arguments: ``steps.require``, ``steps.require_count``,
``steps.step_count`` and ``steps.is_finite_number``.

Every library argument checked through ``require``, ``require_count`` or,
for a step dt, ``require_step`` refuses NaN, +inf and -inf with a
``ValueError`` whose message starts with the argument's name.  ``CONTRACT`` lists each (function, argument) pair
once, with a valid value of the argument and a call that is valid apart
from it.  The counts among them (``COUNTS``) also refuse a float or a bool,
as the config schema's ``integer`` does.  The stepper that divides its
phases by a spec's hbar (``HBAR_STEPPERS``) refuses one other than its
state's, naming both.  The two-level specs have no hbar: their steppers
divide their phases by the state's.  Each entry point that counts its steps
from a span and a step (``FLOORS``) refuses fewer than its floor through
``step_count``, and the gap's floor is the schema's too.  A state or
operator built from arrays of the wrong shape, and an operation that needs
a grid given none, is refused with its own message (``MALFORMED``).
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dynkit.classical import ClassicalEnsemble, ClassicalSpec, propagate_ensemble
from dynkit.cli import validate
from dynkit.grids import POSITION, SpectralSignal, cft_forward_custom, frft, make_grid
from dynkit.matfunc import expm_taylor
from dynkit.open_systems import (
    DensityMatrix,
    RateMatrix,
    fermi_dirac_rates,
    gibbs_density,
    gibbs_rates,
    mcwf_ensemble,
    mcwf_trajectory,
    momentum_distribution,
    pure_state_density,
    random_collision_step,
    run_density,
)
from dynkit.stationary import (
    HamiltonianSpec,
    band_structure,
    build_spectral_hamiltonian,
    find_spectral_peaks,
    spectrum_via_propagation,
)
from dynkit.steps import GAP_MIN_STEPS, is_finite_number, require, require_count
from dynkit.tdse import (
    PauliHamiltonianSpec,
    SpinorWaveFunction,
    SplitStepEngine,
    WaveFunction,
    apply_absorbing_boundary,
    cosine_absorbing_mask,
    gaussian_packet,
    imaginary_time_ground,
    pauli_split_op_step,
    propagate,
    spectral_gap_estimate,
    split_op_step,
)
from dynkit.wigner import (
    MoleculeSpec,
    TwoStateWigner,
    WignerFunction,
    density_from_wigner,
    moyal_two_state_step,
    wigner_from_density,
)

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)
GRID = make_grid(8.0, 16)
LEVELS = np.array([0.0, 0.5, 1.2])
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_TWO_LEVEL = (np.array([0.0, 1.0], dtype=complex), np.diag([0.0, 1.0]).astype(complex),
              [SIGMA_MINUS])
MOLECULE = MoleculeSpec(kinetic=lambda p: p ** 2 / 2,
                        v_ground=lambda x: 0.3 * x ** 2,
                        v_excited=lambda x: 0.2 * x ** 2 + 0.5,
                        dipole=lambda x: 0.4 + 0.0 * x,
                        pulse=lambda t: 1.0)


def _rho():
    return pure_state_density(gaussian_packet(GRID, x0=0.5))


def _collision(gamma):
    rho = _rho()
    return random_collision_step(rho, 0.0, 0.05, OSCILLATOR, gamma, rho)


def _two_state(dt):
    w = wigner_from_density(_rho())
    w2 = TwoStateWigner(w.values, 0.25 * w.values, (0.3 + 0.1j) * w.values,
                        w.x, w.p, GRID.hbar)
    return moyal_two_state_step(w2, 0.0, dt, MOLECULE)


def _pauli(dt):
    psi = gaussian_packet(GRID, x0=0.5)
    spec = PauliHamiltonianSpec(kinetic=(lambda t, p: p ** 2 / 2, None, None, None),
                                potential=(None, lambda t, x: 0.3 * x, None, None))
    return pauli_split_op_step(SpinorWaveFunction(psi.values, 0.5 * psi.values, GRID),
                               0.0, dt, spec)


def _gap(dtau=0.1, tau_max=2.0, levels=False):
    if levels:
        return spectral_gap_estimate(np.array([1.0, 1.0j]), SIGMA_X, dtau, tau_max,
                                     np.diag([0.0, 1.7]))
    return spectral_gap_estimate(gaussian_packet(GRID, x0=0.4, p0=1.0), GRID.x,
                                 dtau, tau_max, OSCILLATOR)


def _ensemble(n_steps=2, stride=1):
    spec = ClassicalSpec(dk_dp=lambda p, s: p, du_dx=lambda x, s: x)
    ensemble = ClassicalEnsemble(np.array([0.1]), np.array([0.2]), np.array([1.0]))
    return propagate_ensemble(ensemble, 0.01, n_steps, spec, stride)


#: (function, argument, a valid value, the call with the argument as v)
CONTRACT = [
    ("make_grid", "half_width", 8.0, lambda v: make_grid(v, 16)),
    ("make_grid", "hbar", 1.0, lambda v: make_grid(8.0, 16, hbar=v)),
    ("frft", "alpha", 0.125, lambda v: frft(np.ones(8), v)),
    ("cft_forward_custom", "dp", 0.2, lambda v: cft_forward_custom(
        SpectralSignal(np.zeros(16), GRID, POSITION), dp=v)),
    ("gibbs_density", "beta", 1.0, lambda v: gibbs_density(
        build_spectral_hamiltonian(GRID, OSCILLATOR), beta=v, grid=GRID)),
    ("run_density", "n_steps", 2, lambda v: list(run_density(
        SplitStepEngine(GRID, OSCILLATOR), _rho().values, 0.0, 0.05, v))),
    ("run_density", "stride", 1, lambda v: list(run_density(
        SplitStepEngine(GRID, OSCILLATOR), _rho().values, 0.0, 0.05, 2, stride=v))),
    ("random_collision_step", "gamma", 0.5, _collision),
    ("gibbs_rates", "beta", 1.0, lambda v: gibbs_rates(LEVELS, v, 1.0)),
    ("gibbs_rates", "gamma0", 1.0, lambda v: gibbs_rates(LEVELS, 1.0, v)),
    ("fermi_dirac_rates", "beta", 1.0, lambda v: fermi_dirac_rates(LEVELS, v, 0.5, 1.0)),
    ("fermi_dirac_rates", "mu", 0.5, lambda v: fermi_dirac_rates(LEVELS, 1.0, v, 1.0)),
    ("fermi_dirac_rates", "gamma0", 1.0,
     lambda v: fermi_dirac_rates(LEVELS, 1.0, 0.5, v)),
    ("mcwf_trajectory", "stride", 1, lambda v: mcwf_trajectory(
        *_TWO_LEVEL, 0.1, 0.2, seed=1, stride=v)),
    ("mcwf_ensemble", "stride", 1, lambda v: mcwf_ensemble(
        *_TWO_LEVEL, 0.1, 0.2, 2, base_seed=1, stride=v)),
    ("mcwf_ensemble", "n_traj", 2, lambda v: mcwf_ensemble(
        *_TWO_LEVEL, 0.1, 0.2, v, base_seed=1)),
    ("band_structure", "lattice_constant", 2.0, lambda v: band_structure(
        OSCILLATOR, v, 8, [0.0], 2)),
    ("band_structure", "n_cell_grid", 8, lambda v: band_structure(
        OSCILLATOR, 2.0, v, [0.0], 2)),
    ("band_structure", "n_bands", 2, lambda v: band_structure(
        OSCILLATOR, 2.0, 8, [0.0], v)),
    ("find_spectral_peaks", "rel_threshold", 0.05, lambda v: find_spectral_peaks(
        np.arange(4.0), np.ones(4), rel_threshold=v)),
    ("gaussian_packet", "sigma", 1.0, lambda v: gaussian_packet(GRID, sigma=v)),
    ("split_op_step", "dt", 0.05, lambda v: split_op_step(
        gaussian_packet(GRID), 0.0, v, OSCILLATOR, order=4)),
    ("pauli_split_op_step", "dt", 0.05, _pauli),
    ("SplitStepEngine.run", "n_steps", 2, lambda v: list(SplitStepEngine(
        GRID, OSCILLATOR).run(gaussian_packet(GRID).values, 0.0, 0.05, v))),
    ("SplitStepEngine.run", "stride", 1, lambda v: list(SplitStepEngine(
        GRID, OSCILLATOR).run(gaussian_packet(GRID).values, 0.0, 0.05, 2, stride=v))),
    ("cosine_absorbing_mask", "power", 0.125,
     lambda v: cosine_absorbing_mask(GRID, power=v)),
    ("imaginary_time_ground", "dtau", 0.05, lambda v: imaginary_time_ground(
        gaussian_packet(GRID), v, OSCILLATOR, tol=1e-6)),
    ("imaginary_time_ground", "tol", 1e-6, lambda v: imaginary_time_ground(
        gaussian_packet(GRID), 0.05, OSCILLATOR, tol=v)),
    ("imaginary_time_ground", "max_iter", 1000, lambda v: imaginary_time_ground(
        gaussian_packet(GRID), 0.05, OSCILLATOR, tol=1e-6, max_iter=v)),
    ("spectral_gap_estimate(grid)", "dtau", 0.1, lambda v: _gap(dtau=v)),
    ("spectral_gap_estimate(grid)", "tau_max", 2.0, lambda v: _gap(tau_max=v)),
    ("spectral_gap_estimate(levels)", "dtau", 0.1, lambda v: _gap(dtau=v, levels=True)),
    ("spectral_gap_estimate(levels)", "tau_max", 2.0,
     lambda v: _gap(tau_max=v, levels=True)),
    ("propagate_ensemble", "n_steps", 2, lambda v: _ensemble(n_steps=v)),
    ("propagate_ensemble", "stride", 1, lambda v: _ensemble(stride=v)),
    ("moyal_two_state_step", "dt", 0.01, _two_state),
    ("expm_taylor", "tol", 1e-14, lambda v: expm_taylor(np.eye(2), tol=v)),
]
IDS = [f"{function}-{argument}" for function, argument, _, _ in CONTRACT]
#: the rows of CONTRACT whose argument is a count, checked by ``require_count``
COUNTS = [row for row in CONTRACT
          if row[1] in ("stride", "n_steps", "n_traj", "max_iter", "n_cell_grid",
                        "n_bands")]
COUNT_IDS = [f"{function}-{argument}" for function, argument, _, _ in COUNTS]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("function, argument, valid, call", CONTRACT, ids=IDS)
def test_non_finite_scalar_refused_by_name(function, argument, valid, call, value):
    with pytest.raises(ValueError, match=rf"^{argument} must be "):
        call(value)


@pytest.mark.parametrize("function, argument, valid, call", CONTRACT, ids=IDS)
def test_contract_calls_are_valid_otherwise(function, argument, valid, call):
    # so each refusal above is the argument's, not another's
    call(valid)


def test_counts_table_holds_every_count_argument():
    assert COUNT_IDS == ["run_density-n_steps", "run_density-stride",
                         "mcwf_trajectory-stride", "mcwf_ensemble-stride",
                         "mcwf_ensemble-n_traj", "band_structure-n_cell_grid",
                         "band_structure-n_bands", "SplitStepEngine.run-n_steps",
                         "SplitStepEngine.run-stride", "imaginary_time_ground-max_iter",
                         "propagate_ensemble-n_steps", "propagate_ensemble-stride"]


#: (stepper, the state's hbar it compares with spec.hbar, a call with spec.hbar = v);
#: GRID and the states built on it have hbar = 1
HBAR_STEPPERS = [
    ("SplitStepEngine", "grid.hbar",
     lambda v: SplitStepEngine(GRID, replace(OSCILLATOR, hbar=v))),
]


@pytest.mark.parametrize("value", [0.5, 2.0, math.nan])
@pytest.mark.parametrize("stepper, name, call", HBAR_STEPPERS,
                         ids=[row[0] for row in HBAR_STEPPERS])
def test_spec_hbar_other_than_the_states_refused_naming_both(stepper, name, call, value):
    with pytest.raises(ValueError, match=rf"^spec\.hbar = {value!r} differs from "
                                         rf"{re.escape(name)} = 1\.0; "):
        call(value)


@pytest.mark.parametrize("stepper, name, call", HBAR_STEPPERS,
                         ids=[row[0] for row in HBAR_STEPPERS])
def test_spec_hbar_of_the_state_accepted(stepper, name, call):
    # so each refusal above is the hbar's, not another argument's
    call(1.0)


@pytest.mark.parametrize("build", [
    lambda: PauliHamiltonianSpec(kinetic=(None,) * 4, potential=(None,) * 4, hbar=0.5),
    lambda: MoleculeSpec(MOLECULE.kinetic, MOLECULE.v_ground, MOLECULE.v_excited,
                         MOLECULE.dipole, MOLECULE.pulse, hbar=0.5),
], ids=["PauliHamiltonianSpec", "MoleculeSpec"])
def test_two_level_specs_take_no_hbar(build):
    # their steppers read hbar from the state (spinor.grid.hbar, w2.hbar), so a
    # spec's own could only disagree with it
    with pytest.raises(TypeError, match="hbar"):
        build()


#: a constant sigma_z splitting: C on the ground/up level, -C on the other
SPLITTING = 0.7


def _pauli_phases(hbar, dt):
    """(stepped, exact) spinors under H = C sigma_z, on a grid of ``hbar``."""
    grid = make_grid(8.0, 16, hbar=hbar)
    psi = gaussian_packet(grid, x0=0.5).values
    spec = PauliHamiltonianSpec(kinetic=(None,) * 4,
                                potential=(None, None, None,
                                           lambda t, x: SPLITTING + 0.0 * x))
    out = pauli_split_op_step(SpinorWaveFunction(psi, 0.5 * psi, grid), 0.0, dt, spec)
    phase = np.exp(-1j * SPLITTING * dt / hbar)
    return (np.array([out.up, out.down]),
            np.array([phase * psi, 0.5 * psi / phase]))


def _moyal_phases(hbar, dt):
    """(stepped, exact) coherences under surfaces C and -C, on a grid of ``hbar``."""
    grid = make_grid(8.0, 16, hbar=hbar)
    w = wigner_from_density(pure_state_density(gaussian_packet(grid, x0=0.5)))
    w2 = TwoStateWigner(w.values, 0.25 * w.values, (0.3 + 0.1j) * w.values,
                        w.x, w.p, w.hbar)

    def coherence(splitting):
        spec = MoleculeSpec(kinetic=lambda p: 0.0 * p,
                            v_ground=lambda x: splitting + 0.0 * x,
                            v_excited=lambda x: -splitting + 0.0 * x,
                            dipole=lambda x: 0.0 * x, pulse=lambda t: 1.0)
        return moyal_two_state_step(w2, 0.0, dt, spec).w_ge.copy()

    # T = exp[-(i dt/hbar) sigma_z C] on the left and its adjoint on the right;
    # the unsplit step only projects out the unpaired Nyquist slots
    return coherence(SPLITTING), np.exp(-2j * SPLITTING * dt / hbar) * coherence(0.0)


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("phases", [_pauli_phases, _moyal_phases],
                         ids=["pauli_split_op_step", "moyal_two_state_step"])
def test_two_level_step_divides_its_phases_by_the_states_hbar(phases, hbar):
    stepped, exact = phases(hbar, 0.05)
    assert np.max(np.abs(stepped - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [2.5, 1.5, 16.7, 2.0, np.float64(2.0), True],
                         ids=["2.5", "1.5", "16.7", "2.0", "float64", "True"])
@pytest.mark.parametrize("function, argument, valid, call", COUNTS, ids=COUNT_IDS)
def test_non_integer_count_refused_by_name(function, argument, valid, call, value):
    # a float stride is refused rather than sampled where m % stride == 0 (m =
    # 3, 6, 9 for 1.5), a float n_steps or n_traj by name, not in range(), and
    # a float n_cell_grid rather than truncated (16.7 cell points ran on 16)
    with pytest.raises(ValueError, match=rf"^{argument} must be >= \d and an integer, got "):
        call(value)


@pytest.mark.parametrize("function, argument, valid, call", COUNTS, ids=COUNT_IDS)
def test_negative_count_refused_by_name(function, argument, valid, call):
    # n_steps = -3 used to run no step and yield nothing, without an error
    with pytest.raises(ValueError, match=rf"^{argument} must be >= \d and an integer, "
                                         r"got -3$"):
        call(-3)


@pytest.mark.parametrize("function, argument, valid, call", COUNTS, ids=COUNT_IDS)
def test_numpy_integer_count_accepted(function, argument, valid, call):
    call(np.int64(valid))
    call(np.int32(valid))


#: (entry point, the floor it passes to ``step_count``, the call with n steps);
#: the gap estimate's floor is tested with the schema's below
FLOORS = [
    ("propagate", 0, lambda n: propagate(gaussian_packet(GRID), 0.0, n * 0.05, 0.05,
                                         OSCILLATOR)),
    ("spectrum_via_propagation", 2, lambda n: spectrum_via_propagation(
        gaussian_packet(GRID), OSCILLATOR, n * 0.05, 0.05)),
    ("mcwf_trajectory", 1, lambda n: mcwf_trajectory(*_TWO_LEVEL, 0.1, n * 0.1, seed=1)),
]
FLOOR_IDS = [row[0] for row in FLOORS]


@pytest.mark.parametrize("function, floor, call", FLOORS, ids=FLOOR_IDS)
def test_fewer_steps_than_the_floor_refused_naming_count_and_floor(function, floor, call):
    # propagate's -1 is t1 < t0, mcwf's 0 is t_max = 0
    with pytest.raises(ValueError, match=rf"^a span of \S+ in steps of \S+ counts "
                                         rf"{floor - 1}, fewer than {floor}$"):
        call(floor - 1)


@pytest.mark.parametrize("function, floor, call", FLOORS, ids=FLOOR_IDS)
def test_the_floor_itself_runs(function, floor, call):
    call(floor)


@pytest.mark.parametrize("n_steps", [GAP_MIN_STEPS - 1, GAP_MIN_STEPS])
def test_the_schema_and_the_library_share_the_gap_floor(tmp_path, capsys, n_steps):
    cfg = {"task": "gap", "grid": {"L": 8.0, "n": 16},
           "hamiltonian": {"potential": {"name": "harmonic"}},
           "gap": {"dtau": 0.1, "tau_max": n_steps * 0.1}}
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(cfg))
    if n_steps < GAP_MIN_STEPS:
        assert validate(str(path)) == 2
        assert capsys.readouterr().out == (
            "gap.tau_max: must be a whole number of dtau steps, at least 8\n")
        for levels in (False, True):
            with pytest.raises(ValueError, match="counts 7, fewer than 8$"):
                _gap(tau_max=n_steps * 0.1, levels=levels)
    else:
        assert validate(str(path)) == 0
        assert capsys.readouterr().out == "ok\n"
        for levels in (False, True):
            assert math.isfinite(_gap(tau_max=n_steps * 0.1, levels=levels))


@pytest.mark.parametrize("value, minimum", [
    (0, 0), (1, 1), (10 ** 400, 1), (np.int64(3), 1), (np.uint8(2), 2), (np.int32(0), 0),
])
def test_require_count_accepts_integers(value, minimum):
    require_count("k", value, minimum)


@pytest.mark.parametrize("value, minimum", [
    (0, 1), (-1, 0), (np.int64(0), 1), (1.0, 1), (np.float64(3.0), 1), (True, 1),
    (np.bool_(True), 1), (math.nan, 1), (math.inf, 1), ("3", 1), (None, 0),
])
def test_require_count_refuses_non_integers_and_values_below_the_minimum(value, minimum):
    with pytest.raises(ValueError, match=rf"^k must be >= {minimum} and an integer, got "):
        require_count("k", value, minimum)


@pytest.mark.parametrize("value", [1, 2.5, np.int64(3), np.float32(0.5),
                                   np.float64(1e308), np.array(2.0), True])
def test_require_accepts_finite_real_scalars(value):
    require("x", value, above=0)
    require("x", value, minimum=0.5)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "x must be finite, got nan"),
    ({"above": 0}, "x must be positive and finite, got nan"),
    ({"minimum": 0}, "x must be nonnegative and finite, got nan"),
    ({"minimum": 1}, "x must be >= 1 and finite, got nan"),
    ({"above": -1.5}, "x must be > -1.5 and finite, got nan"),
])
def test_require_message_names_the_rule(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        require("x", math.nan, **kwargs)


@pytest.mark.parametrize("kwargs, value", [
    ({"above": 0}, 0), ({"above": 0}, -1e-300), ({"minimum": 1}, 0),
    ({"minimum": 0}, np.float64(-0.5)), ({}, 10 ** 400),
])
def test_require_refuses_values_outside_the_bound(kwargs, value):
    with pytest.raises(ValueError, match="^x must be "):
        require("x", value, **kwargs)


@pytest.mark.parametrize("value, expected", [
    (1, True), (-2.5, True), (np.float64(3.0), True),
    (math.nan, False), (math.inf, False), (10 ** 400, False),
    (True, False), ("1", False), (None, False), ([1.0], False),
])
def test_is_finite_number_is_the_schema_number_rule(value, expected):
    assert is_finite_number(value) is expected


#: (case, a call with a malformed array or without the grid it needs, the message)
MALFORMED = [
    ("WaveFunction", lambda: WaveFunction(np.ones(15), GRID),
     "wave function length (15,) does not match grid size 16"),
    ("SpinorWaveFunction", lambda: SpinorWaveFunction(np.ones(16), np.ones(15), GRID),
     "spinor components must match the grid size"),
    ("DensityMatrix-not-square", lambda: DensityMatrix(np.ones((16, 15))),
     "density matrix must be square, got (16, 15)"),
    ("DensityMatrix-grid", lambda: DensityMatrix(np.eye(8) / 8, GRID),
     "density matrix size does not match the grid"),
    ("WignerFunction", lambda: WignerFunction(np.ones((4, 3)), np.arange(4.0),
                                              np.arange(4.0), 1.0),
     "Wigner array shape does not match its axes"),
    ("TwoStateWigner", lambda: TwoStateWigner(np.ones((4, 4)), np.ones((4, 4)),
                                              np.ones((4, 3)), np.arange(4.0),
                                              np.arange(4.0)),
     "Wigner blocks must match the axis shape"),
    ("RateMatrix", lambda: RateMatrix(np.zeros((2, 3))), "rate matrix must be square"),
    ("apply_absorbing_boundary", lambda: apply_absorbing_boundary(
        gaussian_packet(GRID), np.ones(15)), "mask length must match the grid"),
    ("momentum_distribution", lambda: momentum_distribution(DensityMatrix(np.eye(2) / 2)),
     "momentum_distribution needs a grid density matrix"),
    ("wigner_from_density", lambda: wigner_from_density(DensityMatrix(np.eye(2) / 2)),
     "wigner_from_density needs a grid density matrix"),
    ("density_from_wigner", lambda: density_from_wigner(WignerFunction(
        np.ones((4, 4)), np.arange(4.0), np.arange(4.0), 1.0)),
     "supply the UniformGrid the Wigner function came from"),
]


@pytest.mark.parametrize("case, call, message", MALFORMED,
                         ids=[row[0] for row in MALFORMED])
def test_malformed_input_refused_with_its_message(case, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
