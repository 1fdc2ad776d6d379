"""Block-batched wave-function observables against per-state code.

``propagate``, the imaginary-time flow and ``spectral_gap_estimate`` compute
their observables for blocks of stored states with one FFT along axis 1, row
sums and row inner products (``np.vecdot``).  The ``reference_*`` functions
below take the same numbers one state at a time with ``np.dot`` and
``np.vdot``: the per-row ``record`` of ``propagate``, the per-iteration
imaginary-time loop and the per-step commutator.  Every comparison with them
is bitwise.  The ``legacy_*`` functions are the per-state code the blocks first
replaced, kept verbatim, with the engine's former ``momentum_weights`` and
``energy`` methods copied in.  It summed elementwise products with ``np.sum``,
so it differs from the inner products by rounding, bounded here by 1e-13.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from dynkit import tdse
from dynkit.errors import ConvergenceError
from dynkit.grids import make_grid
from dynkit.stationary import HamiltonianSpec
from dynkit.steps import step_count
from dynkit.tdse import (
    EvolutionTrace,
    SplitStepEngine,
    WaveFunction,
    cosine_absorbing_mask,
    energy_expectation,
    gaussian_packet,
    imaginary_time_excited,
    imaginary_time_ground,
    propagate,
    spectral_gap_estimate,
)

STATIC = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.05 * x ** 4,
                         time_independent=True)
DRIVEN = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.3 * x * np.sin(1.3 * t))
OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2,
                             time_independent=True)


# ---------------------------------------------------------------------------
# the per-state references: inner products with np.dot and np.vdot
# ---------------------------------------------------------------------------


def abs2(values):
    return values.real ** 2 + values.imag ** 2


def reference_moments(engine, values, t):
    """(x_mean, p_mean, energy, norm) of one state."""
    grid = engine.grid
    prob = abs2(values)
    weights = abs2(np.fft.fft(engine.signs * values))
    total, wsum = np.sum(prob), np.sum(weights)
    u, k = engine.terms(t)
    return (float(np.dot(prob, grid.x) / total),
            float(np.dot(weights, grid.p_fft) / wsum),
            float(np.dot(weights, k) / wsum + np.dot(prob, u) / total),
            float(np.sqrt(total * grid.dx)))


def reference_propagate(psi0, t0, t1, dt, spec, stride=1, order=2,
                        absorbing_mask=None):
    n_steps = step_count(t1 - t0, dt)
    if n_steps < 0:
        raise ValueError("(t1 - t0)/dt must be a nonnegative integer")
    grid = psi0.grid
    engine = SplitStepEngine(grid, spec, absorbing_mask)
    rows = [(t0, *reference_moments(engine, psi0.values, t0))]
    values = psi0.values
    for m, values in engine.run(values, t0, dt, n_steps, order, stride):
        rows.append((t0 + m * dt, *reference_moments(engine, values, t0 + m * dt)))
    times, xs, ps, es, norms = map(np.asarray, zip(*rows))
    return WaveFunction(values, grid), EvolutionTrace(times, xs, ps, es, norms)


def _reference_project(values, known, dx):
    """``values`` with the known states projected out, then normalized."""
    for state in known:
        values = values - (np.vdot(state.values, values) * dx) * state.values
    return values / np.sqrt(np.vdot(values, values).real * dx)


def reference_imaginary_time(psi_guess, dtau, spec, tol, max_iter, known):
    """The per-iteration loop; also returns the iteration that converged."""
    grid = psi_guess.grid
    engine = SplitStepEngine(grid, spec)
    values = _reference_project(psi_guess.values, known, grid.dx)
    energy = reference_moments(engine, values, 0.0)[2]
    for iteration in range(1, max_iter + 1):
        stepped = engine.step(values, 0.0, -1j * dtau)
        values = _reference_project(stepped, known, grid.dx)
        new_energy = reference_moments(engine, values, 0.0)[2]
        if abs(new_energy - energy) < tol:
            return new_energy, WaveFunction(values, grid), iteration
        energy = new_energy
    raise ConvergenceError(
        f"imaginary-time flow did not converge within {max_iter} iterations"
    )


def reference_commutator(engine, values, observable, t=0.0):
    obs = np.asarray(observable, dtype=float)
    inner = np.vdot(engine.apply_hamiltonian(values, t), obs * values)
    return 2j * (inner * engine.grid.dx).imag


def reference_gap_samples(psi0, observable, dtau, tau_max, spec):
    """(taus, ys) that the per-step gap loop hands to the slope fit."""
    n_steps = step_count(tau_max, dtau)
    engine = SplitStepEngine(psi0.grid, spec)
    values = _reference_project(psi0.values, (), psi0.grid.dx)
    taus, ys = [], []
    for m in range(n_steps + 1):
        if m:
            values = _reference_project(engine.step(values, 0.0, -1j * dtau), (),
                                        psi0.grid.dx)
        mag = np.abs(reference_commutator(engine, values, observable))
        taus.append(m * dtau)
        ys.append(np.log(mag) if mag > 0 else -np.inf)
    return taus, ys


# ---------------------------------------------------------------------------
# the legacy per-state code, verbatim: elementwise products summed by np.sum
# ---------------------------------------------------------------------------


def legacy_momentum_weights(engine, values):
    w = np.abs(np.fft.fft(engine.signs * values)) ** 2
    return w / np.sum(w)


def legacy_energy(engine, values, t=0.0, weights=None):
    u, k = engine.terms(t)
    prob = np.abs(values) ** 2
    prob = prob / np.sum(prob)
    if weights is None:
        weights = legacy_momentum_weights(engine, values)
    return float(np.sum(k * weights)) + float(np.sum(u * prob))


def legacy_propagate(psi0, t0, t1, dt, spec, stride=1, order=2,
                     absorbing_mask=None):
    n_steps = step_count(t1 - t0, dt)
    if n_steps < 0:
        raise ValueError("(t1 - t0)/dt must be a nonnegative integer")
    grid = psi0.grid
    engine = SplitStepEngine(grid, spec, absorbing_mask)
    rows = []

    def record(t, values):
        prob = np.abs(values) ** 2
        weights = legacy_momentum_weights(engine, values)
        rows.append((t, float(np.sum(grid.x * prob) / np.sum(prob)),
                     float(np.sum(grid.p_fft * weights)),
                     legacy_energy(engine, values, t, weights),
                     float(np.sqrt(np.sum(prob) * grid.dx))))

    values = psi0.values
    record(t0, values)
    for m, values in engine.run(values, t0, dt, n_steps, order, stride):
        record(t0 + m * dt, values)
    times, xs, ps, es, norms = map(np.asarray, zip(*rows))
    return WaveFunction(values, grid), EvolutionTrace(times, xs, ps, es, norms)


def _legacy_orthogonalize(values, known, dx):
    for state in known:
        overlap = np.sum(np.conj(state.values) * values) * dx
        values = values - overlap * state.values
    return values


def legacy_imaginary_time(psi_guess, dtau, spec, tol, max_iter, known):
    """The per-iteration loop; also returns the iteration that converged."""
    grid = psi_guess.grid
    engine = SplitStepEngine(grid, spec)
    values = _legacy_orthogonalize(psi_guess.values.copy(), known, grid.dx)
    psi = WaveFunction(values, grid).normalized()
    energy = legacy_energy(engine, psi.values)
    for iteration in range(1, max_iter + 1):
        stepped = engine.step(psi.values, 0.0, -1j * dtau)
        values = _legacy_orthogonalize(stepped, known, grid.dx)
        psi = WaveFunction(values, grid).normalized()
        new_energy = legacy_energy(engine, psi.values)
        if abs(new_energy - energy) < tol:
            return new_energy, psi, iteration
        energy = new_energy
    raise ConvergenceError(
        f"imaginary-time flow did not converge within {max_iter} iterations"
    )


def legacy_commutator(engine, values, observable, t=0.0):
    obs = np.asarray(observable, dtype=float)
    inner = np.sum(np.conj(engine.apply_hamiltonian(values, t)) * obs * values)
    return 2j * (inner * engine.grid.dx).imag


def legacy_gap_samples(psi0, observable, dtau, tau_max, spec):
    """(taus, ys) that the per-step gap loop handed to the slope fit."""
    n_steps = step_count(tau_max, dtau)
    engine = SplitStepEngine(psi0.grid, spec)
    psi = psi0.normalized()
    taus, ys = [], []
    for m in range(n_steps + 1):
        if m:
            psi = WaveFunction(engine.step(psi.values, 0.0, -1j * dtau),
                               psi.grid).normalized()
        mag = np.abs(legacy_commutator(engine, psi.values, observable))
        taus.append(m * dtau)
        ys.append(np.log(mag) if mag > 0 else -np.inf)
    return taus, ys


#: Largest |legacy - new| allowed for any observable: the two differ only in
#: the order and rounding of their sums.
LEGACY_BOUND = 1e-13


def assert_bitwise(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def misaligned(a, shift):
    """A copy of ``a`` that starts ``shift`` float64s into a fresh buffer."""
    buffer = np.empty(a.nbytes // 8 + shift)[shift:]
    out = buffer.view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def rows_per_block(monkeypatch, n, rows):
    """Make every block hold ``rows`` states of length n."""
    monkeypatch.setattr(tdse, "_BLOCK_AMPLITUDES", rows * n)


class StepCounter:
    """Counts SplitStepEngine.step calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        step = SplitStepEngine.step

        def counted(engine, *args, **kwargs):
            self.calls += 1
            return step(engine, *args, **kwargs)

        monkeypatch.setattr(SplitStepEngine, "step", counted)


# ---------------------------------------------------------------------------
# batched numpy calls equal the per-row calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("m", [1, 2, 7, 32, 128])
def test_batched_fft_and_row_sums_equal_per_row_calls(n, m):
    rng = np.random.default_rng(n + m)
    rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    forward = np.fft.fft(rows, axis=1)
    inverse = np.fft.ifft(rows, axis=1)
    prob = np.abs(rows) ** 2
    real_sums = np.sum(prob, axis=1)
    complex_sums = np.sum(rows, axis=-1)
    for i, row in enumerate(rows):
        assert_bitwise(forward[i], np.fft.fft(row))
        assert_bitwise(inverse[i], np.fft.ifft(row))
        assert_bitwise(prob[i], np.abs(row) ** 2)
        assert_bitwise(real_sums[i], np.sum(np.abs(row) ** 2))
        assert_bitwise(complex_sums[i], np.sum(row))
    # a row inner product of a block equals np.dot (np.vdot) of the row alone,
    # wherever the block and the row start in memory; rows @ x (BLAS gemv)
    # does not promise this
    x = rng.normal(size=n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert_bitwise(abs2(rows), np.array([abs2(row) for row in rows]))
    for shift in range(4):
        block_prob, block = misaligned(prob, shift), misaligned(rows, shift)
        real_dots = np.vecdot(block_prob, x)
        complex_dots = np.vecdot(block, z)
        assert_bitwise(tdse._rowdot(block_prob, x), real_dots)
        assert_bitwise(tdse._rowdot(block, z), complex_dots)
        for i, row in enumerate(rows):
            for row_shift in (0, 1, 3):
                assert_bitwise(real_dots[i], np.dot(misaligned(prob[i], row_shift), x))
                assert_bitwise(complex_dots[i], np.vdot(misaligned(row, row_shift), z))


def test_long_row_dots_are_summed_over_chunks():
    n = 3 * tdse._DOT_CHUNK + 4
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    got = tdse._rowdot(rows, z)
    for i, row in enumerate(rows):
        expected = np.vdot(row[:tdse._DOT_CHUNK], z[:tdse._DOT_CHUNK])
        for start in range(tdse._DOT_CHUNK, n, tdse._DOT_CHUNK):
            part = slice(start, start + tdse._DOT_CHUNK)
            expected = expected + np.vdot(row[part], z[part])
        assert_bitwise(got[i], expected)
        assert_bitwise(tdse._rowdot(row, z), expected)


ROWDOT_SCRIPT = """
import numpy as np
from dynkit.tdse import _rowdot
rng = np.random.default_rng(3)
rows = rng.normal(size=(2, 40_000)) + 1j * rng.normal(size=(2, 40_000))
print(_rowdot(rows, rows[::-1]).tobytes().hex(), _rowdot(rows.real, rows.imag).tobytes().hex())
"""


def test_long_row_dots_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot of more than 10000 elements across its threads
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        outputs.add(subprocess.run([sys.executable, "-c", ROWDOT_SCRIPT], env=env,
                                   check=True, capture_output=True,
                                   text=True).stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("order,mask,spec", [(2, False, STATIC), (4, True, STATIC),
                                             (2, True, DRIVEN), (4, False, DRIVEN)],
                         ids=["strang", "o4-absorbed", "driven-absorbed", "driven-o4"])
def test_engine_run_yields_fresh_arrays(order, mask, spec):
    # propagate buffers the yielded arrays themselves, so no later step may
    # write into an array already yielded
    grid = make_grid(8.0, 64)
    engine = SplitStepEngine(grid, spec,
                             cosine_absorbing_mask(grid) if mask else None)
    psi = gaussian_packet(grid, x0=1.0, p0=0.5).values
    kept = [v for _, v in engine.run(psi, 0.0, 0.05, 12, order)]
    copied = [v.copy() for _, v in engine.run(psi, 0.0, 0.05, 12, order)]
    for a, b in zip(kept, copied):
        assert_bitwise(a, b)
    for i, a in enumerate(kept):
        assert not np.shares_memory(a, psi)
        for b in kept[i + 1:]:
            assert not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------


PROPAGATE_CASES = {
    # name: (n, dt, t1, spec, stride, order, absorber)
    "stride1": (128, 0.01, 1.5, STATIC, 1, 2, False),  # 151 rows, blocks of 64
    "stride7-partial": (128, 0.01, 1.5, STATIC, 7, 2, False),  # 150 % 7 == 3
    "absorbed": (256, 0.02, 1.0, STATIC, 1, 2, True),
    "order4": (256, 0.02, 1.0, STATIC, 3, 4, False),
    "driven": (128, 0.01, 1.0, DRIVEN, 3, 2, False),
    "driven-o4-absorbed": (256, 0.02, 0.8, DRIVEN, 1, 4, True),
    "n1024": (1024, 0.01, 0.3, STATIC, 1, 2, True),  # blocks of 8
    "no-steps": (128, 0.01, 0.0, STATIC, 1, 2, False),
}


@pytest.mark.parametrize("name", sorted(PROPAGATE_CASES))
def test_propagate_matches_per_row_record(name):
    n, dt, t1, spec, stride, order, absorber = PROPAGATE_CASES[name]
    grid = make_grid(10.0, n)
    psi0 = gaussian_packet(grid, x0=1.0, p0=0.7, sigma=0.8)
    mask = cosine_absorbing_mask(grid) if absorber else None
    expected_psi, expected = reference_propagate(psi0, 0.0, t1, dt, spec,
                                                 stride, order, mask)
    got_psi, got = propagate(psi0, 0.0, t1, dt, spec, stride, order, mask)
    assert len(got.times) == 1 + -(-step_count(t1, dt) // stride)
    for field in ("times", "x_mean", "p_mean", "energy", "norm"):
        assert_bitwise(getattr(got, field), getattr(expected, field))
    assert_bitwise(got_psi.values, expected_psi.values)


BLOCK_SIZES = [1, 2, 5, 64, 151, 152]


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_propagate_matches_at_any_block_size(monkeypatch, rows):
    grid = make_grid(10.0, 128)
    psi0 = gaussian_packet(grid, x0=-1.0, p0=1.2)
    _, expected = reference_propagate(psi0, 0.1, 1.6, 0.01, DRIVEN, 1, 2)
    rows_per_block(monkeypatch, grid.n, rows)
    _, got = propagate(psi0, 0.1, 1.6, 0.01, DRIVEN, 1, 2)
    for field in ("times", "x_mean", "p_mean", "energy", "norm"):
        assert_bitwise(getattr(got, field), getattr(expected, field))


@pytest.mark.parametrize("name", sorted(PROPAGATE_CASES))
def test_propagate_stays_near_the_legacy_record(name):
    n, dt, t1, spec, stride, order, absorber = PROPAGATE_CASES[name]
    grid = make_grid(10.0, n)
    psi0 = gaussian_packet(grid, x0=1.0, p0=0.7, sigma=0.8)
    mask = cosine_absorbing_mask(grid) if absorber else None
    legacy_psi, legacy = legacy_propagate(psi0, 0.0, t1, dt, spec, stride, order,
                                          mask)
    got_psi, got = propagate(psi0, 0.0, t1, dt, spec, stride, order, mask)
    assert_bitwise(got.times, legacy.times)
    assert_bitwise(got_psi.values, legacy_psi.values)  # the steps did not change
    for field in ("x_mean", "p_mean", "energy", "norm"):
        assert np.max(np.abs(getattr(got, field) - getattr(legacy, field))) \
            <= LEGACY_BOUND


@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
def test_energy_of_one_state_equals_its_row_of_a_block(spec):
    grid = make_grid(10.0, 256)
    engine = SplitStepEngine(grid, spec)
    rows = np.array([gaussian_packet(grid, x0=x0, p0=0.4).values
                     for x0 in (-1.0, 0.0, 0.5, 2.0)])
    times = [0.0, 0.3, 0.7, 1.1]
    energies = tdse._observables(engine, times, rows)[2]
    for t, row, energy in zip(times, rows, energies):
        assert_bitwise(engine.energy(row, t), float(energy))
        assert_bitwise(energy_expectation(WaveFunction(row, grid), spec, t),
                       float(energy))
        assert_bitwise(engine.energy(row, t), reference_moments(engine, row, t)[2])
        assert abs(engine.energy(row, t) - legacy_energy(engine, row, t)) \
            <= LEGACY_BOUND


@pytest.mark.parametrize("time_independent", [True, False])
def test_constant_callables_may_return_scalars(time_independent):
    grid = make_grid(10.0, 128)
    psi0 = gaussian_packet(grid, x0=1.0, p0=0.7)
    traces = []
    for zero in (lambda t, x: 0.0, lambda t, x: 0.0 * x):
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2, potential=zero,
                               time_independent=time_independent)
        traces.append(propagate(psi0, 0.0, 0.5, 0.01, spec)[1])
    for field in ("times", "x_mean", "p_mean", "energy", "norm"):
        assert_bitwise(getattr(traces[0], field), getattr(traces[1], field))


def test_default_block_size():
    assert tdse._BLOCK_AMPLITUDES == 2 ** 13
    assert [len(b) for b in tdse._blocks(range(150), 128)] == [64, 64, 22]
    assert [len(b) for b in tdse._blocks(range(3), 2 ** 15)] == [1, 1, 1]
    assert list(tdse._blocks([], 128)) == []


# ---------------------------------------------------------------------------
# imaginary time
# ---------------------------------------------------------------------------


def _ground_problem():
    grid = make_grid(10.0, 128)
    return grid, gaussian_packet(grid, x0=1.0, sigma=0.8), 0.01, 1e-9


def _converged_iteration():
    grid, guess, dtau, tol = _ground_problem()
    return reference_imaginary_time(guess, dtau, OSCILLATOR, tol, 10_000, ())


def test_imaginary_time_matches_per_iteration_loop_at_default_blocks(monkeypatch):
    grid, guess, dtau, tol = _ground_problem()
    e_ref, psi_ref, k = _converged_iteration()
    counter = StepCounter(monkeypatch)
    energy, psi = imaginary_time_ground(guess, dtau, OSCILLATOR, tol)
    assert_bitwise(energy, e_ref)
    assert isinstance(energy, float)
    assert_bitwise(psi.values, psi_ref.values)
    size = 2 ** 13 // grid.n
    assert k > size  # the flow runs over several blocks
    assert counter.calls == (k // size + 1) * size - 1


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_imaginary_time_converging_in_any_row_of_a_block(monkeypatch, where):
    grid, guess, dtau, tol = _ground_problem()
    e_ref, psi_ref, k = _converged_iteration()
    # row k of the flow (row 0 is the guess) converges
    size = {"first": k, "middle": 2 * k, "last": k + 1}[where]
    position = k % size
    assert position == {"first": 0, "middle": k, "last": size - 1}[where]
    rows_per_block(monkeypatch, grid.n, size)
    counter = StepCounter(monkeypatch)
    energy, psi = imaginary_time_ground(guess, dtau, OSCILLATOR, tol)
    assert_bitwise(energy, e_ref)
    assert_bitwise(psi.values, psi_ref.values)
    # the steps past row k only finish its block
    assert counter.calls == (k // size + 1) * size - 1


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_max_iter_inside_a_block(monkeypatch, extra):
    grid, guess, dtau, tol = _ground_problem()
    e_ref, psi_ref, k = _converged_iteration()
    max_iter = k + extra
    size = k + 3  # rows 0 .. k + 2 share the first block
    rows_per_block(monkeypatch, grid.n, size)
    counter = StepCounter(monkeypatch)
    if max_iter < k:
        with pytest.raises(ConvergenceError, match=f"within {max_iter} "):
            imaginary_time_ground(guess, dtau, OSCILLATOR, tol, max_iter)
    else:
        energy, psi = imaginary_time_ground(guess, dtau, OSCILLATOR, tol,
                                            max_iter)
        assert_bitwise(energy, e_ref)
        assert_bitwise(psi.values, psi_ref.values)
    # the flow never steps past max_iter, even inside a block
    assert counter.calls == max_iter


def test_max_iter_zero_raises():
    grid, guess, dtau, tol = _ground_problem()
    with pytest.raises(ConvergenceError):
        imaginary_time_ground(guess, dtau, OSCILLATOR, tol, 0)


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_excited_states_match_per_iteration_loop(monkeypatch, rows):
    grid = make_grid(10.0, 128)
    if rows is not None:
        rows_per_block(monkeypatch, grid.n, rows)
    known = []
    for n_target, x0 in enumerate((0.0, 0.5, 0.9)):
        guess = gaussian_packet(grid, x0=x0, sigma=0.7)
        e_ref, psi_ref, _ = reference_imaginary_time(guess, 0.01, STATIC, 1e-10,
                                                     10_000, list(known))
        if n_target == 0:
            energy, psi = imaginary_time_ground(guess, 0.01, STATIC, 1e-10)
        else:
            energy, psi = imaginary_time_excited(n_target, list(known), guess,
                                                 0.01, STATIC, 1e-10)
        assert_bitwise(energy, e_ref)
        assert_bitwise(psi.values, psi_ref.values)
        known.append(psi)


@pytest.mark.parametrize("rows", BLOCK_SIZES)
def test_imaginary_time_matches_at_any_block_size(monkeypatch, rows):
    grid = make_grid(10.0, 128)
    ground = reference_imaginary_time(gaussian_packet(grid, sigma=0.7), 0.01,
                                      STATIC, 1e-10, 10_000, ())[1]
    guess = gaussian_packet(grid, x0=0.6, sigma=0.7)
    e_ref, psi_ref, _ = reference_imaginary_time(guess, 0.01, STATIC, 1e-10,
                                                 10_000, [ground])
    rows_per_block(monkeypatch, grid.n, rows)
    energy, psi = imaginary_time_excited(1, [ground], guess, 0.01, STATIC, 1e-10)
    assert_bitwise(energy, e_ref)
    assert_bitwise(psi.values, psi_ref.values)


def test_imaginary_time_stays_near_the_legacy_loop():
    grid = make_grid(10.0, 128)
    known, legacy_known = [], []
    for n_target, x0 in enumerate((0.0, 0.5, 0.9)):
        guess = gaussian_packet(grid, x0=x0, sigma=0.7)
        energy, psi, k = reference_imaginary_time(guess, 0.01, STATIC, 1e-10,
                                                  10_000, list(known))
        e_old, psi_old, k_old = legacy_imaginary_time(guess, 0.01, STATIC, 1e-10,
                                                      10_000, list(legacy_known))
        assert k == k_old
        assert abs(energy - e_old) <= LEGACY_BOUND
        assert np.max(np.abs(psi.values - psi_old.values)) <= LEGACY_BOUND
        known.append(psi)
        legacy_known.append(psi_old)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf"), float("-inf")])
@pytest.mark.parametrize("excited", [False, True])
def test_imaginary_time_refuses_a_tol_that_cannot_be_met(monkeypatch, tol,
                                                         excited):
    grid, guess, dtau, _ = _ground_problem()
    counter = StepCounter(monkeypatch)
    with pytest.raises(ValueError, match="tol must be positive"):
        if excited:
            ground = gaussian_packet(grid, sigma=0.7)
            imaginary_time_excited(1, [ground], guess, dtau, OSCILLATOR, tol)
        else:
            imaginary_time_ground(guess, dtau, OSCILLATOR, tol)
    assert counter.calls == 0


def test_time_dependent_spec_flows_at_time_zero():
    grid = make_grid(10.0, 128)
    guess = gaussian_packet(grid, x0=0.5, sigma=0.9)
    e_ref, psi_ref, _ = reference_imaginary_time(guess, 0.01, DRIVEN, 1e-9,
                                                 10_000, ())
    energy, psi = imaginary_time_ground(guess, 0.01, DRIVEN, 1e-9)
    assert_bitwise(energy, e_ref)
    assert_bitwise(psi.values, psi_ref.values)


# ---------------------------------------------------------------------------
# spectral gap
# ---------------------------------------------------------------------------


def _captured_gap_samples(monkeypatch, *args):
    """(taus, ys, gap) that spectral_gap_estimate hands to and gets from the fit."""
    captured = {}
    fit = tdse._fit_decay_slope

    def recording(taus, ys, fit_fraction):
        captured["taus"], captured["ys"] = list(taus), list(ys)
        return fit(taus, ys, fit_fraction)

    monkeypatch.setattr(tdse, "_fit_decay_slope", recording)
    gap = spectral_gap_estimate(*args)
    return captured["taus"], captured["ys"], gap


@pytest.mark.parametrize("n,observable,rows", [
    (128, "x", None), (128, "x2", None), (512, "x", None), (128, "x", 1),
    (128, "x", 9)])
def test_gap_matches_per_step_commutator(monkeypatch, n, observable, rows):
    grid = make_grid(10.0, n)
    psi0 = gaussian_packet(grid, x0=0.4, p0=1.0)
    obs = grid.x if observable == "x" else grid.x ** 2
    if observable == "x2":
        psi0 = WaveFunction(np.exp(-grid.x ** 2 / 2 + 0.3j * grid.x ** 2), grid)
    taus_ref, ys_ref = reference_gap_samples(psi0, obs, 0.02, 6.0, OSCILLATOR)
    if rows is not None:
        rows_per_block(monkeypatch, grid.n, rows)
    taus, ys, gap = _captured_gap_samples(monkeypatch, psi0, obs, 0.02, 6.0,
                                          OSCILLATOR)
    assert len(ys) == step_count(6.0, 0.02) + 1
    assert_bitwise(taus, taus_ref)
    assert_bitwise(ys, ys_ref)
    assert gap == tdse._fit_decay_slope(taus_ref, ys_ref, 0.4)


def test_gap_samples_stay_near_the_legacy_loop():
    grid = make_grid(10.0, 128)
    psi0 = gaussian_packet(grid, x0=0.4, p0=1.0)
    taus, ys = reference_gap_samples(psi0, grid.x, 0.02, 6.0, OSCILLATOR)
    taus_old, ys_old = legacy_gap_samples(psi0, grid.x, 0.02, 6.0, OSCILLATOR)
    assert_bitwise(taus, taus_old)
    assert np.max(np.abs(np.subtract(ys, ys_old))) <= LEGACY_BOUND
    assert abs(tdse._fit_decay_slope(taus, ys, 0.4)
               - tdse._fit_decay_slope(taus_old, ys_old, 0.4)) <= LEGACY_BOUND


def test_gap_vanishing_commutator_still_reported():
    grid = make_grid(10.0, 128)
    e0, psi0 = imaginary_time_ground(gaussian_packet(grid, sigma=0.8), 0.01,
                                     OSCILLATOR, tol=1e-13)
    taus, ys = reference_gap_samples(psi0, grid.x, 0.05, 8.0, OSCILLATOR)
    with pytest.raises(ConvergenceError):
        tdse._fit_decay_slope(taus, ys, 0.4)
    with pytest.raises(ConvergenceError):
        spectral_gap_estimate(psi0, grid.x, 0.05, 8.0, OSCILLATOR)


def test_commutator_of_a_block_equals_per_state_commutators():
    grid = make_grid(10.0, 256)
    engine = SplitStepEngine(grid, DRIVEN)
    rows = np.array([gaussian_packet(grid, x0=x0, p0=1.0).values
                     for x0 in (-1.0, 0.0, 0.5, 2.0)])
    got = engine.commutator(rows, grid.x ** 2, t=0.3)
    for i, row in enumerate(rows):
        assert_bitwise(got[i], reference_commutator(engine, row, grid.x ** 2, 0.3))
        assert_bitwise(engine.commutator(row, grid.x ** 2, t=0.3), got[i])
        assert abs(got[i] - legacy_commutator(engine, row, grid.x ** 2, 0.3)) \
            <= LEGACY_BOUND
