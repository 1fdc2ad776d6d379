"""The in-place split step against the out-of-place step it replaced.

``SplitStepEngine`` steps an array it owns in place and transforms it with
numpy's pocketfft gufuncs, bound when the engine is built.  The reference
below is the earlier substep body and loop kept verbatim: ``ifft(kin *
fft(w))`` through ``np.fft``, with a new array for every product.  Below
2**14 points numpy multiplies ``kin * fft(w)`` as written, so the two agree
bit for bit; from 2**14 points on, numpy multiplies that temporary in place
with the operands swapped, which rounds differently.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from dynkit.grids import make_grid
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import SplitStepEngine, cosine_absorbing_mask, gaussian_packet

STATIC = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.05 * x ** 4,
                         time_independent=True)
DRIVEN = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                         potential=lambda t, x: x ** 2 / 2 + 0.3 * x * np.sin(1.3 * t))


def reference_substeps(cur, w):
    fft, ifft = np.fft.fft, np.fft.ifft
    y = ifft(cur.kins[0] * fft(w))
    for kick, kin in zip(cur.inner, cur.kins[1:]):
        y = ifft(kin * fft(kick * y))
    return y


def reference_run(engine, values, t0, dt, n_steps, order=2, stride=1):
    cur = engine._checked_phases(t0, dt, order)
    w = cur.lead * values
    across = None
    for m in range(1, n_steps + 1):
        y = reference_substeps(cur, w)
        if m % stride == 0 or m == n_steps:
            yield m, cur.out * y
        if m < n_steps:
            nxt = engine._step_phases(t0 + m * dt, dt, order)
            if across is None or nxt is not cur:
                across = cur.tail * nxt.head
            w, cur = across * y, nxt


def reference_step(engine, values, t, dt, order=2):
    cur = engine._checked_phases(t, dt, order)
    return cur.out * reference_substeps(cur, cur.lead * values)


def _packet(n):
    grid = make_grid(16.0, n)
    return grid, gaussian_packet(grid, x0=1.5, p0=2.0, sigma=0.8).values


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 255, 256, 1024, 4096, 2 ** 14 + 1])
def test_bound_transforms_are_numpys_bit_for_bit(n):
    engine = SplitStepEngine(make_grid(8.0, 64), STATIC)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    for bound, public, fct in ((engine._fft, np.fft.fft, 1.0),
                               (engine._ifft, np.fft.ifft, 1.0 / n)):
        expected = public(x).tobytes()
        out = np.empty_like(x)
        assert bound(x, fct, out=out) is out
        assert out.tobytes() == expected
        w = x.copy()
        bound(w, fct, out=w)
        assert w.tobytes() == expected
        assert bound(x[1], fct, out=w[0]).tobytes() == public(x[1]).tobytes()


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("absorber", [False, True], ids=["open", "absorbed"])
@pytest.mark.parametrize("dt", [0.01, -1e-4j], ids=["real", "imaginary"])
def test_in_place_step_is_the_out_of_place_step_bit_for_bit(n, spec, order,
                                                            absorber, dt):
    grid, values = _packet(n)
    mask = cosine_absorbing_mask(grid) if absorber else None
    engine, ref = SplitStepEngine(grid, spec, mask), SplitStepEngine(grid, spec, mask)
    if order == 4 and dt.imag:  # the triple jump refuses imaginary time
        with pytest.raises(ValueError, match="order 4 needs a real dt"):
            engine.step(values, 0.3, dt, order)
        return
    got = list(engine.run(values, 0.3, dt, 6, order, stride=2))
    expected = list(reference_run(ref, values, 0.3, dt, 6, order, stride=2))
    assert [m for m, _ in got] == [m for m, _ in expected] == [2, 4, 6]
    for (_, a), (_, b) in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    assert (engine.step(values, 0.3, dt, order).tobytes()
            == reference_step(ref, values, 0.3, dt, order).tobytes())


def test_block_of_rows_steps_bit_for_bit():
    # grid MCWF steps an (n_rows, n) block of trajectories at once
    grid, values = _packet(256)
    rows = np.array([values, values[::-1], 1j * values])
    engine, ref = SplitStepEngine(grid, STATIC), SplitStepEngine(grid, STATIC)
    stepped = engine.step(rows, 0.0, 0.02, 4)
    assert stepped.tobytes() == reference_step(ref, rows, 0.0, 0.02, 4).tobytes()
    for row, one in zip(stepped, rows):
        assert row.tobytes() == engine.step(one, 0.0, 0.02, 4).tobytes()


@pytest.mark.parametrize("n", [2 ** 14, 2 ** 15])
@pytest.mark.parametrize("order", [2, 4])
def test_large_grids_move_by_rounding_only(n, order):
    grid, values = _packet(n)
    engine, ref = SplitStepEngine(grid, STATIC), SplitStepEngine(grid, STATIC)
    (_, got), = engine.run(values, 0.0, 0.01, 5, order, stride=5)
    (_, expected), = reference_run(ref, values, 0.0, 0.01, 5, order, stride=5)
    assert np.max(np.abs(got - expected)) <= 1e-14
    assert np.max(np.abs(engine.step(values, 0.0, 0.01, order)
                         - reference_step(ref, values, 0.0, 0.01, order))) <= 1e-14


@pytest.mark.parametrize("spec", [STATIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize("absorber", [False, True], ids=["open", "absorbed"])
def test_callers_arrays_are_never_written_and_yields_are_fresh(spec, absorber):
    grid, values = _packet(256)
    mask = cosine_absorbing_mask(grid) if absorber else None
    engine = SplitStepEngine(grid, spec, mask)
    values.setflags(write=False)  # any write into the input raises
    before = values.tobytes()
    expected = [v for _, v in reference_run(SplitStepEngine(grid, spec, mask),
                                            values, 0.0, 0.02, 5, 4)]
    yields = []
    for (_, v), ref in zip(engine.run(values, 0.0, 0.02, 5, 4), expected):
        assert v.tobytes() == ref.tobytes()
        assert not np.shares_memory(v, values)
        assert not any(np.shares_memory(v, earlier) for earlier in yields)
        yields.append(v)
        v[:] = np.nan  # a caller writing into a yield changes no later step
    stepped = engine.step(values, 0.0, 0.02, 4)
    assert stepped.tobytes() == expected[0].tobytes()
    assert not np.shares_memory(stepped, values)
    assert not np.shares_memory(engine.step(values, 0.0, 0.02, 4), stepped)
    assert values.tobytes() == before


def test_importing_the_engine_loads_no_numpy_fft():
    code = (
        "import sys, dynkit.tdse, dynkit.open_systems\n"
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft loaded at import'\n"
        "from dynkit.grids import make_grid\n"
        "from dynkit.stationary import HamiltonianSpec\n"
        "spec = HamiltonianSpec(kinetic=lambda t, p: p, potential=lambda t, x: x)\n"
        "dynkit.tdse.SplitStepEngine(make_grid(8.0, 16), spec)\n"
        "assert 'numpy.fft' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
