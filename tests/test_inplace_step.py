"""The in-place split step against the out-of-place step it replaced.

``SplitStepEngine`` steps an array it owns in place and transforms it with
``grids._fft``, numpy's pocketfft gufuncs without the ``np.fft`` wrapper,
the one place dynkit calls numpy's FFT.  The reference
below is the earlier substep body and loop kept verbatim: ``ifft(kin *
fft(w))`` through ``np.fft``, with a new array for every product.  Below
2**14 points numpy multiplies ``kin * fft(w)`` as written, so the two agree
bit for bit; from 2**14 points on, numpy multiplies that temporary in place
with the operands swapped, which rounds differently.
"""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dynkit
from dynkit.grids import _fft, make_grid
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
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    for inverse, public in ((False, np.fft.fft), (True, np.fft.ifft)):
        for axis in (0, 1, -1):
            w = x.copy()
            assert _fft(w, axis, inverse) is w
            assert w.tobytes() == public(x, axis=axis).tobytes()
        w = x.copy()
        assert _fft(w[1], inverse=inverse).tobytes() == public(x[1]).tobytes()
        assert w[0].tobytes() == x[0].tobytes()  # a row view transforms alone


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
        "engine = dynkit.tdse.SplitStepEngine(make_grid(8.0, 16), spec)\n"
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft loaded by the build'\n"
        "engine.step(engine.grid.x.astype(complex), 0.0, 0.1)\n"
        "assert 'numpy.fft' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


#: numpy.fft names that transform nothing and may be called anywhere
_FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def _named(node):
    """The names a Name, Attribute or import node mentions."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [getattr(node, "module", None) or ""] + [a.name for a in node.names]
    return []


def fft_uses_outside_grids(package: pathlib.Path):
    """(module, line, what) for each numpy FFT transform, import of numpy.fft
    or mention of its pocketfft module in a module of ``package`` but grids."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "grids":
            continue
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            names = _named(node)
            if any("_pocketfft" in name for name in names):
                found.append((path.stem, node.lineno, "_pocketfft"))
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name.startswith("numpy.fft") or name == "fft" for name in names):
                found.append((path.stem, node.lineno, "import of numpy.fft"))
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                parent = parents[node]
                name = parent.attr if isinstance(parent, ast.Attribute) else ""
                if name not in _FFT_HELPERS:
                    found.append((path.stem, node.lineno, f"np.fft.{name}"))
    return found


def test_only_grids_calls_numpys_fft():
    assert fft_uses_outside_grids(pathlib.Path(dynkit.__file__).parent) == []
