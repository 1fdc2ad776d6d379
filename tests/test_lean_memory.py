"""Memory-lean paths against the paths they replace, bit for bit.

A wave function goes into ``wigner_from_density`` without its n x n density
matrix, ``momentum_distribution`` gathers its skew sums in column blocks
through an index built per block, and the output sink writes and hashes a
field from the array's own buffer.  Each must give the bytes of the
whole-matrix or copying original and hold less memory, measured with
tracemalloc.  ``run_density`` holds four n x n arrays, and the CLI's
Lindblad runner must let each n x n matrix go once it is spent, watched
through weak references.
"""

import hashlib
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from dynkit import open_systems
from dynkit.cli import _OutputSink, _run_eigen, _run_lindblad, _walk
from dynkit.errors import HermiticityError
from dynkit.grids import _alt_signs, make_grid
from dynkit.open_systems import (
    DensityMatrix,
    coupling_factor,
    momentum_distribution,
    pure_state_density,
    run_density,
)
from dynkit.stationary import HamiltonianSpec
from dynkit.tdse import SplitStepEngine, WaveFunction, gaussian_packet
from dynkit.wigner import _BLOCK_AMPLITUDES, wigner_from_density

SIZES = (4, 64, 256, 1024)
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def traced_peak(fn):
    """Bytes that fn() adds to the tracemalloc peak over what is held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def packet(n):
    return gaussian_packet(make_grid(16.0, n), x0=0.5, p0=0.8, sigma=0.9)


def random_state(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return WaveFunction(values, make_grid(8.0, n))


# ---------------------------------------------------------------------------
# pure-state Wigner transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("state", [packet, random_state], ids=("packet", "random"))
def test_pure_state_transform_is_the_density_transform_bit_for_bit(n, state):
    psi = state(n)
    w = wigner_from_density(psi)
    ref = wigner_from_density(pure_state_density(psi))
    assert w.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(w.x, ref.x) and np.array_equal(w.p, ref.p)
    assert w.grid is psi.grid and w.hbar == ref.hbar


def test_pure_state_transform_holds_no_density_matrix():
    n = 1024
    matrix = n * n * 16  # bytes of one n x n complex128 matrix
    psi = packet(n)
    # the first call, outside the measurement, gives the (2n, n) output's size
    output = wigner_from_density(psi).values.nbytes
    direct = traced_peak(lambda: wigner_from_density(psi)) - output
    via_rho = traced_peak(
        lambda: wigner_from_density(pure_state_density(psi))) - output
    # beyond its output, the pure-state route holds less than one matrix; the
    # route through rho, the control, holds at least one
    assert direct < matrix <= via_rho


def test_pure_state_transform_reuses_its_work_blocks():
    n = 1024
    psi = packet(n)
    output = 2 * n * n * 8  # the (2n, n) float64 result
    # one work block and one spare of complex amplitudes, and the bra and ket
    # indices of a block (1.5 MiB in all); numpy's iteration buffers for the
    # broadcast products come on top, a few 128 KiB each
    blocks = 2 * _BLOCK_AMPLITUDES * 16 + 2 * _BLOCK_AMPLITUDES * 8
    # with fresh arrays for every block of 2**17 amplitudes, the transform
    # held 8.3 MiB beyond its output
    assert traced_peak(lambda: wigner_from_density(psi)) < output + blocks + 2 ** 20


@pytest.mark.parametrize("n, entry", [(64, 9), (768, 0), (768, 767)],
                         ids=("one-block", "first", "last"))
def test_pure_state_transform_refuses_a_nan_entry(n, entry):
    psi = packet(n)
    values = psi.values.copy()
    values[entry] = np.nan
    with pytest.raises(HermiticityError, match="residue nan"):
        wigner_from_density(WaveFunction(values, psi.grid))


# ---------------------------------------------------------------------------
# blocked skew gather of momentum_distribution
# ---------------------------------------------------------------------------


def whole_matrix_momentum(rho: DensityMatrix) -> np.ndarray:
    """momentum_distribution with the skew sums from one n x n gather."""
    n = rho.grid.n
    idx = np.arange(n)[:, None]
    s = np.take(rho.values, idx * n + (idx - idx.T) % n).sum(axis=0)
    p = np.fft.fft(_alt_signs(n) * s).real
    return p * (rho.grid.dx ** 2 / (2.0 * np.pi * rho.grid.hbar))


@pytest.mark.parametrize("n", SIZES)
def test_blocked_gather_is_the_whole_matrix_gather_bit_for_bit(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    grid = make_grid(8.0, n)
    for matrix in (values, values.T):  # C and Fortran order
        rho = DensityMatrix(matrix, grid)
        assert (momentum_distribution(rho).tobytes()
                == whole_matrix_momentum(rho).tobytes())


def test_blocked_gather_makes_no_matrix_sized_temporary():
    n = 512
    rho = pure_state_density(packet(n))
    assert traced_peak(lambda: momentum_distribution(rho)) < n * n * 16 // 4


def test_blocked_gather_holds_under_a_mebibyte_and_caches_nothing():
    n = 2048
    rho = pure_state_density(packet(n))
    _alt_signs(n)  # the transforms' shared sign vector, cached by the grids
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        momentum_distribution(rho)  # the first call at this size
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # a whole-matrix index cached per n kept 32 MiB at this size
    assert peak < 2 ** 20
    assert held < 4096


# ---------------------------------------------------------------------------
# the Lindblad loop and runner
# ---------------------------------------------------------------------------


def test_density_loop_holds_four_matrices():
    n = 512
    grid = make_grid(16.0, n)
    rho = pure_state_density(gaussian_packet(grid, x0=1.0, sigma=0.7))
    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                           potential=lambda t, x: x ** 2 / 2,
                           time_independent=True)
    engine = SplitStepEngine(grid, spec)

    def ten_recorded_steps():
        g = coupling_factor(grid, lambda x: 0.3 * x, 0.01)
        for _, values in run_density(engine, rho.values, 0.0, 0.01, 10, g):
            del values  # each record is read and let go, as the CLI does

    # G, the state, the merged factor and one record; an n x n Kpp made five
    assert traced_peak(ten_recorded_steps) < 4.5 * n * n * 16


def test_lindblad_runner_lets_each_spent_matrix_go(monkeypatch, tmp_path):
    # run_density is wrapped so that every state it reads or yields is
    # watched; by each new yield, all earlier ones and the initial state must
    # be freed, and g by the time the final state is written
    real = open_systems.run_density
    states_seen, g_seen, freed_at_yield, freed_at_write = [], [], [], []

    def watched(engine, values, t0, dt, n_steps, g, stride):
        states_seen.append(weakref.ref(values))
        g_seen.append(weakref.ref(g))
        states = real(engine, values, t0, dt, n_steps, g, stride)
        del values, g
        for m, out in states:
            freed_at_yield.append(all(r() is None for r in states_seen))
            states_seen.append(weakref.ref(out))
            yield m, out
            del out

    class Sink(_OutputSink):
        def field(self, name, values, **kw):
            freed_at_write.append(g_seen[0]() is None)
            super().field(name, values, **kw)

    monkeypatch.setattr(open_systems, "run_density", watched)
    with open(os.path.join(CONFIGS, "lindblad_dephasing.json")) as fh:
        cfg = _walk(json.load(fh))[1]
    _run_lindblad(cfg, Sink(str(tmp_path)))
    assert freed_at_yield == [True] * 10
    assert freed_at_write == [True]


# ---------------------------------------------------------------------------
# triangular eigen runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["forward", "backward"])
def test_triangular_eigen_run_builds_no_matrix(tmp_path, method):
    n = 2048
    with open(os.path.join(CONFIGS, "eigen_central_fd.json")) as fh:
        raw = json.load(fh)
    raw["grid"]["n"], raw["eigen"]["method"] = n, method
    cfg = _walk(raw)[1]
    sink = _OutputSink(str(tmp_path))
    _run_eigen(cfg, sink)  # imports outside the measurement
    # the stencil matrix alone is n * n * 8 = 32 MiB
    assert traced_peak(lambda: _run_eigen(cfg, sink)) < 2 ** 20


# ---------------------------------------------------------------------------
# output sink
# ---------------------------------------------------------------------------


def test_field_writes_and_hashes_without_a_copy(tmp_path):
    array = np.random.default_rng(1).normal(size=(2048, 1024))  # 16 MiB
    sink = _OutputSink(str(tmp_path))
    assert traced_peak(lambda: sink.field("field_w", array,
                                          axes={"x": np.arange(4.0)})) < 2 ** 20
    data = (tmp_path / "field_w.f64").read_bytes()
    assert data == array.astype("<f8").tobytes()
    entry = sink.files[0]
    assert entry == {"name": "field_w.f64", "bytes": len(data),
                     "sha256": hashlib.sha256(data).hexdigest()}


def test_field_of_a_non_contiguous_array_writes_c_order(tmp_path):
    array = np.arange(12.0).reshape(3, 4)
    sink = _OutputSink(str(tmp_path))
    sink.field("field_t", array.T)
    meta = json.loads((tmp_path / "field_t.meta.json").read_text())
    assert meta["shape"] == [4, 3]
    assert (tmp_path / "field_t.f64").read_bytes() == np.ascontiguousarray(
        array.T, dtype="<f8").tobytes()


def test_sink_lists_what_it_wrote(tmp_path):
    sink = _OutputSink(str(tmp_path))
    sink.csv("trace.csv", ("t", "x"), [(0.0, 1.0), (0.5, -2.25)])
    sink.csv("empty.csv", ("t",), [])
    sink.field("field_e", np.zeros(0), notes="empty")
    assert (tmp_path / "trace.csv").read_text() == "t,x\n0,1\n0.5,-2.25\n"
    assert (tmp_path / "empty.csv").read_text() == "t\n"
    assert sorted(os.listdir(tmp_path)) == sorted(e["name"] for e in sink.files)
    for entry in sink.files:
        data = (tmp_path / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sink_refuses_each_non_finite_value(tmp_path, bad):
    sink = _OutputSink(str(tmp_path))
    values = np.ones((3, 5))
    values[2, 4] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        sink.field("field_x", values)
    with pytest.raises(FloatingPointError, match="non-finite"):
        sink.csv("rows.csv", ("a", "b"), [(1.0, 2.0), (bad, 1.0)])
    assert sink.files == [] and os.listdir(tmp_path) == []
