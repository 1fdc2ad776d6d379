"""One contract for scalar arguments: ``steps.require``, ``steps.require_count``
and ``steps.is_finite_number``.

Every library argument checked through ``require`` or ``require_count``
refuses NaN, +inf and -inf with a ``ValueError`` whose message starts with
the argument's name.  ``CONTRACT`` lists each (function, argument) pair
once, with a valid value of the argument and a call that is valid apart
from it.  The counts among them (``COUNTS``) also refuse a float or a bool,
as the config schema's ``integer`` does.  The steppers that divide their
phases by a spec's hbar (``HBAR_STEPPERS``) refuse one other than their
state's, naming both.  ``absorbing_potential`` also refuses a zero or
negative dt or hbar and a mask value outside [0, 1].
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dynkit.classical import ClassicalEnsemble, ClassicalSpec, propagate_ensemble
from dynkit.grids import POSITION, SpectralSignal, cft_forward_custom, frft, make_grid
from dynkit.matfunc import expm_taylor
from dynkit.open_systems import (
    fermi_dirac_rates,
    gibbs_density,
    gibbs_rates,
    mcwf_ensemble,
    mcwf_trajectory,
    pure_state_density,
    random_collision_step,
    run_density,
)
from dynkit.stationary import (
    HamiltonianSpec,
    band_structure,
    build_spectral_hamiltonian,
    find_spectral_peaks,
)
from dynkit.steps import is_finite_number, require, require_count
from dynkit.tdse import (
    PauliHamiltonianSpec,
    SpinorWaveFunction,
    SplitStepEngine,
    absorbing_potential,
    cosine_absorbing_mask,
    gaussian_packet,
    imaginary_time_ground,
    pauli_split_op_step,
)
from dynkit.wigner import (
    MoleculeSpec,
    TwoStateWigner,
    moyal_two_state_step,
    wigner_from_density,
)

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)
GRID = make_grid(8.0, 16)
MASK = cosine_absorbing_mask(GRID)
LEVELS = np.array([0.0, 0.5, 1.2])
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
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


def _two_state(dt, spec=MOLECULE):
    w = wigner_from_density(_rho())
    w2 = TwoStateWigner(w.values, 0.25 * w.values, (0.3 + 0.1j) * w.values,
                        w.x, w.p, GRID.hbar)
    return moyal_two_state_step(w2, 0.0, dt, spec)


def _pauli(hbar):
    psi = gaussian_packet(GRID, x0=0.5)
    spec = PauliHamiltonianSpec(kinetic=(lambda t, p: p ** 2 / 2, None, None, None),
                                potential=(None, lambda t, x: 0.3 * x, None, None),
                                hbar=hbar)
    return pauli_split_op_step(SpinorWaveFunction(psi.values, 0.5 * psi.values, GRID),
                               0.0, 0.05, spec)


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
    ("find_spectral_peaks", "rel_threshold", 0.05, lambda v: find_spectral_peaks(
        np.arange(4.0), np.ones(4), rel_threshold=v)),
    ("gaussian_packet", "sigma", 1.0, lambda v: gaussian_packet(GRID, sigma=v)),
    ("SplitStepEngine.run", "stride", 1, lambda v: list(SplitStepEngine(
        GRID, OSCILLATOR).run(gaussian_packet(GRID).values, 0.0, 0.05, 2, stride=v))),
    ("cosine_absorbing_mask", "power", 0.125,
     lambda v: cosine_absorbing_mask(GRID, power=v)),
    ("absorbing_potential", "dt", 0.01, lambda v: absorbing_potential(MASK, v)),
    ("absorbing_potential", "hbar", 1.0, lambda v: absorbing_potential(MASK, 0.01, v)),
    ("imaginary_time_ground", "dtau", 0.05, lambda v: imaginary_time_ground(
        gaussian_packet(GRID), v, OSCILLATOR, tol=1e-6)),
    ("imaginary_time_ground", "tol", 1e-6, lambda v: imaginary_time_ground(
        gaussian_packet(GRID), 0.05, OSCILLATOR, tol=v)),
    ("propagate_ensemble", "n_steps", 2, lambda v: _ensemble(n_steps=v)),
    ("propagate_ensemble", "stride", 1, lambda v: _ensemble(stride=v)),
    ("moyal_two_state_step", "dt", 0.01, _two_state),
    ("expm_taylor", "tol", 1e-14, lambda v: expm_taylor(np.eye(2), tol=v)),
]
IDS = [f"{function}-{argument}" for function, argument, _, _ in CONTRACT]
#: the rows of CONTRACT whose argument is a count, checked by ``require_count``
COUNTS = [row for row in CONTRACT if row[1] in ("stride", "n_steps", "n_traj")]
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
    assert COUNT_IDS == ["run_density-stride", "mcwf_trajectory-stride",
                         "mcwf_ensemble-stride", "mcwf_ensemble-n_traj",
                         "SplitStepEngine.run-stride", "propagate_ensemble-n_steps",
                         "propagate_ensemble-stride"]


def _mask_with(value):
    mask = MASK.copy()
    mask[3] = value
    return mask


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mask, dt, hbar, message", [
    (MASK, 0.0, 1.0, "dt must be positive and finite, got 0.0"),
    (MASK, -0.01, 1.0, "dt must be positive and finite, got -0.01"),
    (MASK, 0.01, -1.0, "hbar must be positive and finite, got -1.0"),
    (MASK, 0.01, 0.0, "hbar must be positive and finite, got 0.0"),
    (MASK, 1e-10, 1e300, "2 hbar / dt must be finite, got inf"),
    (_mask_with(math.nan), 0.01, 1.0, "mask values must lie in \\[0, 1\\]"),
    (_mask_with(1.5), 0.01, 1.0, "mask values must lie in \\[0, 1\\]"),
    (_mask_with(-0.1), 0.01, 1.0, "mask values must lie in \\[0, 1\\]"),
], ids=["dt0", "dt<0", "hbar<0", "hbar0", "scale-overflow", "nan-mask",
        "mask>1", "mask<0"])
def test_absorbing_potential_refuses_a_non_absorbing_b(mask, dt, hbar, message):
    # each of these gave a ZeroDivisionError, an all-NaN B or a negative,
    # amplifying B instead of naming its argument
    with pytest.raises(ValueError, match=f"^{message}$"):
        absorbing_potential(mask, dt, hbar)


def test_absorbing_potential_takes_a_mask_reaching_zero():
    b = absorbing_potential(_mask_with(0.0), 0.01)
    assert b[3] == np.inf and np.all(b[np.arange(GRID.n) != 3] >= 0)


#: (stepper, the state's hbar it compares with spec.hbar, a call with spec.hbar = v);
#: GRID and the states built on it have hbar = 1
HBAR_STEPPERS = [
    ("SplitStepEngine", "grid.hbar",
     lambda v: SplitStepEngine(GRID, replace(OSCILLATOR, hbar=v))),
    ("pauli_split_op_step", "spinor.grid.hbar", _pauli),
    ("moyal_two_state_step", "w2.hbar",
     lambda v: _two_state(0.01, replace(MOLECULE, hbar=v))),
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [2.5, 1.5, 2.0, np.float64(2.0), True],
                         ids=["2.5", "1.5", "2.0", "float64", "True"])
@pytest.mark.parametrize("function, argument, valid, call", COUNTS, ids=COUNT_IDS)
def test_non_integer_count_refused_by_name(function, argument, valid, call, value):
    # a float stride is refused rather than sampled where m % stride == 0 (m =
    # 3, 6, 9 for 1.5), and a float n_steps or n_traj by name, not in range()
    with pytest.raises(ValueError, match=rf"^{argument} must be >= \d and an integer, got "):
        call(value)


@pytest.mark.parametrize("function, argument, valid, call", COUNTS, ids=COUNT_IDS)
def test_numpy_integer_count_accepted(function, argument, valid, call):
    call(np.int64(valid))
    call(np.int32(valid))


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
