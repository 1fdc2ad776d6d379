"""The split-step engine against the per-step Strang reference it replaced.

The reference below is the seed's ``split_op_step`` kept verbatim: phases
evaluated at every substep midpoint, the sign-alternation bridge on both
sides, and an absorbing mask applied after each whole step.  The engine folds
the signs, merges adjacent half-kicks and caches phases for time-independent
specs, which changes only rounding.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from dynkit.cli import run, validate
from dynkit.grids import fft_bridge, ifft_bridge, make_grid
from dynkit.open_systems import (
    lindblad_x_step,
    mcwf_ensemble,
    pure_state_density,
    run_density,
)
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import (
    TRIPLE_JUMP_S,
    SplitStepEngine,
    WaveFunction,
    cosine_absorbing_mask,
    energy_expectation,
    gaussian_packet,
    propagate,
    split_op_step,
    split_op_step_o4,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

STATIC = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.05 * x ** 4,
                         time_independent=True)
DRIVEN = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.3 * x * np.sin(1.3 * t))


def reference_step(psi, t, dt, spec):
    if dt == 0:
        raise ValueError("dt must be nonzero")
    grid = psi.grid
    grid.require_fft_bridge()
    tm = t + dt / 2.0
    hbar = spec.hbar
    half_u = np.exp(-0.5j * dt * np.asarray(spec.potential(tm, grid.x)) / hbar)
    kin = np.exp(-1j * dt * np.asarray(spec.kinetic(tm, grid.p_fft)) / hbar)
    values = half_u * psi.values
    values = ifft_bridge(kin * fft_bridge(values))
    values = half_u * values
    return WaveFunction(values, grid)


def reference_step_o4(psi, t, dt, spec):
    s = TRIPLE_JUMP_S
    psi = reference_step(psi, t, s * dt, spec)
    psi = reference_step(psi, t + s * dt, (1.0 - 2.0 * s) * dt, spec)
    return reference_step(psi, t + (1.0 - s) * dt, s * dt, spec)


def reference_run(psi, t0, dt, n_steps, spec, order, stride, mask):
    """{m: amplitudes} after every stride-th step and the last."""
    step = reference_step if order == 2 else reference_step_o4
    out = {}
    for m in range(n_steps):
        psi = step(psi, t0 + m * dt, dt, spec)
        if mask is not None:
            psi = WaveFunction(psi.values * mask, psi.grid)
        if (m + 1) % stride == 0 or m == n_steps - 1:
            out[m + 1] = psi.values
    return out


@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("absorber", [False, True], ids=["open", "absorbed"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("dt", [0.02, -0.02j], ids=["real", "imaginary"])
def test_engine_matches_per_step_reference(spec, order, absorber, stride, dt):
    grid = make_grid(8.0, 128)
    psi0 = gaussian_packet(grid, x0=1.5, p0=2.0, sigma=0.8)
    mask = cosine_absorbing_mask(grid, fraction=0.3) if absorber else None
    n_steps = 40
    engine = SplitStepEngine(grid, spec, mask)
    if order == 4 and dt.imag:  # the triple jump refuses imaginary time
        with pytest.raises(ValueError, match="order 4 needs a real dt"):
            next(engine.run(psi0.values, 0.1, dt, n_steps, order, stride))
        return
    expected = reference_run(psi0, 0.1, dt, n_steps, spec, order, stride, mask)
    got = dict(engine.run(psi0.values, 0.1, dt, n_steps, order, stride))
    assert sorted(got) == sorted(expected)
    for m, values in expected.items():
        assert np.max(np.abs(got[m] - values)) <= 1e-12


@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
def test_propagate_trace_matches_reference(spec):
    grid = make_grid(10.0, 256)
    psi = gaussian_packet(grid, x0=1.0, p0=0.5)
    mask = cosine_absorbing_mask(grid)
    _, trace = propagate(psi, 0.0, 1.0, 0.01, spec, stride=3, order=4,
                         absorbing_mask=mask)
    rows = []
    for m in range(101):
        if m:
            psi = reference_step_o4(psi, (m - 1) * 0.01, 0.01, spec)
            psi = WaveFunction(psi.values * mask, grid)
        if m % 3 == 0 or m == 100:
            prob = np.abs(psi.values) ** 2
            w = np.abs(fft_bridge(psi.values)) ** 2
            rows.append((m * 0.01, np.sum(grid.x * prob) / np.sum(prob),
                         np.sum(grid.p_fft * w) / np.sum(w),
                         energy_expectation(psi, spec, m * 0.01), psi.norm()))
    expected = np.asarray(rows)
    got = np.column_stack([trace.times, trace.x_mean, trace.p_mean,
                           trace.energy, trace.norm])
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12


class CountingSpec:
    def __init__(self, time_independent):
        self.calls = {"U": 0, "K": 0}

        def potential(t, x):
            self.calls["U"] += 1
            return x ** 2 / 2

        def kinetic(t, p):
            self.calls["K"] += 1
            return p ** 2 / 2

        self.spec = HamiltonianSpec(kinetic=kinetic, potential=potential,
                                    time_independent=time_independent)


@pytest.mark.parametrize("order,substeps", [(2, 1), (4, 3)])
def test_callables_evaluated_once_per_substep(order, substeps):
    grid = make_grid(8.0, 64)
    counting = CountingSpec(time_independent=False)
    engine = SplitStepEngine(grid, counting.spec)
    list(engine.run(gaussian_packet(grid).values, 0.0, 0.05, 11, order, 4))
    assert counting.calls == {"U": 11 * substeps, "K": 11 * substeps}


def test_time_independent_callables_evaluated_once():
    grid = make_grid(8.0, 64)
    counting = CountingSpec(time_independent=True)
    engine = SplitStepEngine(grid, counting.spec)
    values = gaussian_packet(grid).values
    for order in (2, 4):
        list(engine.run(values, 0.0, 0.05, 11, order))
    engine.step(values, 0.0, -0.05j)
    engine.energy(values, 3.0)
    assert counting.calls == {"U": 1, "K": 1}


HARMONIC = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                           potential=lambda t, x: x ** 2 / 2,
                           time_independent=True)


@pytest.mark.parametrize("dt", [-0.01j, 0.01 - 0.01j], ids=["imaginary", "complex"])
def test_order_four_refuses_a_non_real_step(dt):
    # the triple jump's middle substep has length (1 - 2s) dt = -0.70 dt, so at
    # dt = -0.01j it multiplies momentum p by exp(0.70 * 0.01 p^2 / 2): on this
    # grid (p up to 402) the step overflowed to NaN before it was refused
    grid = make_grid(16.0, 4096)
    psi = gaussian_packet(grid)
    engine = SplitStepEngine(grid, HARMONIC)
    for call in (lambda: engine.step(psi.values, 0.0, dt, 4),
                 lambda: next(engine.run(psi.values, 0.0, dt, 3, 4)),
                 lambda: split_op_step_o4(psi, 0.0, dt, HARMONIC)):
        with pytest.raises(ValueError, match="order 4 needs a real dt"):
            call()


def test_order_two_imaginary_and_order_four_real_steps_still_run():
    grid = make_grid(16.0, 4096)
    psi = gaussian_packet(grid)
    engine = SplitStepEngine(grid, HARMONIC)
    cooled = engine.step(psi.values, 0.0, -0.01j, 2)
    _, first = next(engine.run(psi.values, 0.0, -0.01j, 3, 2))
    assert cooled.tobytes() == first.tobytes()
    assert np.max(np.abs(cooled - reference_step(psi, 0.0, -0.01j,
                                                 HARMONIC).values)) <= 1e-12
    moved = split_op_step_o4(psi, 0.0, 0.01, HARMONIC)
    assert np.max(np.abs(moved.values - reference_step_o4(psi, 0.0, 0.01,
                                                         HARMONIC).values)) <= 1e-12


def _data_checksums(directory):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(directory)) if name != "manifest"}


def test_propagate_config_reruns_identical_and_norm_kept(tmp_path):
    config = os.path.join(CONFIG_DIR, "propagate_coherent.json")
    assert run(config, str(tmp_path / "a")) == 0
    assert run(config, str(tmp_path / "b")) == 0
    assert _data_checksums(tmp_path / "a") == _data_checksums(tmp_path / "b")
    trace = np.loadtxt(tmp_path / "a" / "trace.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(trace[:, 4] - 1.0)) <= 1e-12


def _edited(name, block, **changes):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    cfg[block].update(changes)
    return cfg


INVALID = {
    "nan_dt": _edited("propagate_coherent.json", "propagate", dt=float("nan")),
    "infinite_t_max": _edited("propagate_coherent.json", "propagate",
                              t_max=float("inf")),
    "negative_infinite_x0": _edited("gap_oscillator.json", "gap",
                                    initial={"x0": float("-inf")}),
    "propagate_partial_step": _edited("propagate_coherent.json", "propagate",
                                      t_max=0.105),
    "gap_partial_step": _edited("gap_oscillator.json", "gap",
                                tau_max=100.5 * 0.02),
    "gap_too_few_steps": _edited("gap_oscillator.json", "gap", tau_max=0.1),
    "lindblad_partial_step": _edited("lindblad_dephasing.json", "lindblad",
                                     dt=0.03),
    "mcwf_partial_step": _edited("mcwf_decay.json", "mcwf", t_max=2.01),
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_rejected_at_validation_by_validate_and_run(tmp_path, capsys, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(INVALID[name]))  # writes NaN/Infinity literals
    assert validate(str(path)) == 2
    assert run(str(path), str(tmp_path / "out")) == 2
    assert not (tmp_path / "out" / "manifest").exists()


@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("absorber", [False, True], ids=["open", "absorbed"])
@pytest.mark.parametrize("dt", [0.02, -0.02j, 0.015 - 0.01j],
                         ids=["real", "imaginary", "complex"])
def test_step_is_the_first_yield_of_run_bit_for_bit(spec, order, absorber, dt):
    grid = make_grid(8.0, 128)
    values = gaussian_packet(grid, x0=1.5, p0=2.0, sigma=0.8).values
    mask = cosine_absorbing_mask(grid, fraction=0.3) if absorber else None
    if order == 4 and dt.imag:  # the triple jump refuses imaginary time
        engine = SplitStepEngine(grid, spec, mask)
        with pytest.raises(ValueError, match="order 4 needs a real dt"):
            engine.step(values, 0.1, dt, order)
        with pytest.raises(ValueError, match="order 4 needs a real dt"):
            next(engine.run(values, 0.1, dt, 5, order))
        return
    for t in (0.1, 0.7):
        engine = SplitStepEngine(grid, spec, mask)
        stepped = engine.step(values, t, dt, order)
        _, first = next(SplitStepEngine(grid, spec, mask).run(values, t, dt, 5,
                                                              order))
        assert stepped.tobytes() == first.tobytes()
        # a second step on the same engine reuses its cached phases
        assert engine.step(values, t, dt, order).tobytes() == first.tobytes()


def test_step_makes_no_generator(monkeypatch):
    grid = make_grid(8.0, 64)
    engine = SplitStepEngine(grid, STATIC)

    def refuse(*args, **kwargs):
        raise AssertionError("step started run")

    monkeypatch.setattr(engine, "run", refuse)
    engine.step(gaussian_packet(grid).values, 0.0, -0.05j, 2)
    engine.step(gaussian_packet(grid).values, 0.0, 0.05, 4)


@pytest.mark.parametrize("dt,order,match", [(np.nan, 2, "finite"),
                                            (0.0, 2, "nonzero"),
                                            (0.05, 3, "order")])
def test_step_rejects_what_run_rejects(dt, order, match):
    grid = make_grid(8.0, 64)
    engine = SplitStepEngine(grid, STATIC)
    values = gaussian_packet(grid).values
    with pytest.raises(ValueError, match=match):
        engine.step(values, 0.0, dt, order)
    with pytest.raises(ValueError, match=match):
        next(engine.run(values, 0.0, dt, 3, order))


def _spec_with(term, bad, time_independent):
    """x^2/2 + p^2/2, with ``term`` ("U" or "K") equal to ``bad`` where |q| < 0.2."""
    good = lambda t, q: q ** 2 / 2
    spoiled = lambda t, q: np.where(np.abs(q) < 0.2, bad, q ** 2 / 2)
    return HamiltonianSpec(kinetic=spoiled if term == "K" else good,
                           potential=spoiled if term == "U" else good,
                           time_independent=time_independent)


@pytest.mark.parametrize("time_independent", [True, False], ids=["static", "driven"])
@pytest.mark.parametrize("term,bad", [("U", np.nan), ("U", np.inf), ("U", -1j * np.inf),
                                      ("K", np.nan), ("K", np.inf)],
                         ids=["U-nan", "U-inf", "U-absorber-inf", "K-nan", "K-inf"])
def test_non_finite_phases_are_refused(term, bad, time_independent):
    # each of these made every amplitude NaN without a warning (or, for +inf,
    # with only numpy's "invalid value" warning)
    grid = make_grid(5.0, 64)
    spec = _spec_with(term, bad, time_independent)
    psi = gaussian_packet(grid)
    engine = SplitStepEngine(grid, spec)
    rho = pure_state_density(psi)
    calls = [lambda: split_op_step(psi, 0.0, 0.01, spec),
             lambda: split_op_step_o4(psi, 0.0, 0.01, spec),
             lambda: next(engine.run(psi.values, 0.0, -0.01j, 3)),
             lambda: next(run_density(engine, rho.values, 0.0, 0.01, 3)),
             lambda: lindblad_x_step(rho, 0.0, 0.01, spec, lambda x: 0.3 * x),
             lambda: mcwf_ensemble(psi, spec, [lambda x: 0.3 * x], 0.01, 0.03, 2, 1)]
    with np.errstate(invalid="ignore"):
        for call in calls:
            with pytest.raises(ValueError, match=f"the {term} phase factor .* is not finite"):
                call()
