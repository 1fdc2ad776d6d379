"""Memory-lean paths against the paths they replace, bit for bit.

A wave function goes into ``wigner_from_density`` without its n x n density
matrix, ``momentum_distribution`` gathers its skew sums in column blocks
through an index built per block, and the output sink writes and hashes a
field from the array's own buffer.  Each must give the bytes of the
whole-matrix or copying original and hold less memory, measured with
tracemalloc.  ``coupling_factor`` returns a real coupling's G as float64,
the real part of the complex build to the bit, so ``run_density`` holds two
complex n x n arrays and G, and gives the bytes it gives with the complex G;
``_hermitian_solve`` checks its matrix without an n x n temporary.  The
CLI's Lindblad runner must let each n x n matrix go once it is spent,
watched through weak references.  A field written block by block must give the
bytes of the whole-array write, and the ``wigner`` task streams its field.
"""

import hashlib
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from dynkit import open_systems
from dynkit import wigner
from dynkit.cli import _OutputSink, _run_eigen, _run_lindblad, _run_wigner, _walk, run
from dynkit.errors import HermiticityError
from dynkit.grids import _alt_signs, make_grid
from dynkit.matfunc import _hermitian_solve
from dynkit.open_systems import (
    DensityMatrix,
    _outer,
    _times_outer,
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


def old_coupling_factor(grid, coupling, dt):
    """``coupling_factor`` as one whole-array expression, before G was built in place."""
    a = np.asarray(coupling(grid.x), dtype=complex)
    abs2 = np.abs(a) ** 2
    return np.exp(0.5 * dt * (_outer(a) - 0.5 * abs2[None, :] - 0.5 * abs2[:, None]))


REAL_COUPLINGS = {
    "linear": lambda x: 0.3 * x,
    "constant": lambda x: np.full_like(np.asarray(x, dtype=float), 0.7),
}


def _density_loop_case(n, driven):
    grid = make_grid(16.0, n)
    rho = pure_state_density(gaussian_packet(grid, x0=1.0, sigma=0.7))
    if driven:
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: x ** 2 / 2 + 0.2 * np.cos(t) * x)
    else:
        spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                               potential=lambda t, x: x ** 2 / 2,
                               time_independent=True)
    return grid, rho, SplitStepEngine(grid, spec)


def test_density_loop_holds_four_matrices():
    n = 512
    grid, rho, engine = _density_loop_case(n, driven=False)

    def ten_recorded_steps():
        g = coupling_factor(grid, lambda x: 0.3 * x, 0.01)
        for _, values in run_density(engine, rho.values, 0.0, 0.01, 10, g):
            del values  # each record is read and let go, as the CLI does

    # G, the state, the merged factor and one record; an n x n Kpp made five
    assert traced_peak(ten_recorded_steps) < 4.5 * n * n * 16


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("driven", [False, True], ids=("static", "driven"))
def test_density_loop_holds_three_matrices(stride, driven):
    n = 512
    grid, rho, engine = _density_loop_case(n, driven)

    def ten_steps():
        g = coupling_factor(grid, lambda x: 0.3 * x, 0.01)
        for _, values in run_density(engine, rho.values, 0.0, 0.01, 10, g, stride):
            del values  # each record is read and let go, as the CLI does

    # G, the state and the merged factor or one record (measured 3.13-3.15
    # with a complex128 G, 2.63-2.67 with the float64 G of this real
    # coupling); the merged factor kept across a record made four, and a
    # driven step's n x n outer product of phases a fourth too
    assert traced_peak(ten_steps) < 3.5 * n * n * 16


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("driven", [False, True], ids=("static", "driven"))
def test_density_loop_with_a_real_coupling_holds_two_and_a_half_matrices(stride, driven):
    n = 512
    grid, rho, engine = _density_loop_case(n, driven)

    def ten_steps():
        g = coupling_factor(grid, REAL_COUPLINGS["linear"], 0.01)
        for _, values in run_density(engine, rho.values, 0.0, 0.01, 10, g, stride):
            del values

    # the state, the merged factor or one record, and the float64 G (measured
    # 2.63-2.67); a complex128 G made three matrices (3.13-3.15)
    assert traced_peak(ten_steps) < 2.75 * n * n * 16


@pytest.mark.parametrize("n", [4, 64, 512])
@pytest.mark.parametrize("name", sorted(REAL_COUPLINGS))
def test_real_coupling_factor_is_the_real_part_of_the_complex_one(name, n):
    grid = make_grid(16.0, n)
    g = coupling_factor(grid, REAL_COUPLINGS[name], 0.01)
    old = old_coupling_factor(grid, REAL_COUPLINGS[name], 0.01)
    assert g.dtype == np.float64 and not old.imag.any()
    assert g.tobytes() == old.real.tobytes()


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("coupling, dt", [
    (lambda x: (0.3 + 0.2j) * x + 0.1j * np.exp(-x ** 2), 0.01),
    (REAL_COUPLINGS["linear"], 0.01 - 0.003j),
], ids=("complex-coupling", "complex-dt"))
def test_complex_coupling_factor_keeps_the_complex_bytes(coupling, dt, n):
    grid = make_grid(16.0, n)
    g = coupling_factor(grid, coupling, dt)
    assert g.dtype == np.complex128
    assert g.tobytes() == old_coupling_factor(grid, coupling, dt).tobytes()


def test_coupling_factor_of_a_complex_coupling_and_a_complex_dt_keeps_its_bytes():
    # both complex: above 256 KiB numpy elides the old expression's temporary
    # and computes T * (0.5 dt) in place, the array first, which rounds
    # differently from (0.5 dt) * T, so the old bytes depend on n; the
    # in-place build's do not, and are the old ones below that size
    grid = make_grid(16.0, 64)
    coupling = lambda x: (0.3 + 0.2j) * x
    g = coupling_factor(grid, coupling, 0.01 - 0.003j)
    assert g.dtype == np.complex128
    assert g.tobytes() == old_coupling_factor(grid, coupling, 0.01 - 0.003j).tobytes()


def test_coupling_factor_builds_g_in_one_complex_matrix():
    n = 512
    grid = make_grid(16.0, n)
    # the complex build and its float64 real part; the whole-array
    # expression held about three complex matrices
    assert traced_peak(lambda: coupling_factor(
        grid, REAL_COUPLINGS["linear"], 0.01)) < 1.6 * n * n * 16


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("driven", [False, True], ids=("static", "driven"))
@pytest.mark.parametrize("n", [64, 512])
def test_density_loop_with_the_real_g_is_the_complex_g_loop_bit_for_bit(n, driven, stride):
    grid, rho, engine = _density_loop_case(n, driven)
    coupling = REAL_COUPLINGS["linear"]
    real = run_density(engine, rho.values, 0.0, 0.01, 10,
                       coupling_factor(grid, coupling, 0.01), stride)
    complex_g = run_density(engine, rho.values, 0.0, 0.01, 10,
                            old_coupling_factor(grid, coupling, 0.01), stride)
    assert [(m, v.tobytes()) for m, v in real] == [(m, v.tobytes()) for m, v in complex_g]


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_row_blocked_outer_multiply_is_the_whole_outer_product_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    # the loop's in-place product a *= _outer(v); the expression
    # a * _outer(v) is not a reference, since above 256 KiB numpy may reuse
    # the temporary and compute _outer(v) * a, which rounds differently
    expected = a.copy()
    expected *= _outer(v)
    blocked = a.copy()
    _times_outer(blocked, v)
    assert blocked.tobytes() == expected.tobytes()


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
# eigen runs
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


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigensolve_checks_make_no_matrix_sized_temporary(dtype):
    n = 512
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2
    solve = traced_peak(lambda: _hermitian_solve(h, vectors=False, tol=1e-12))
    eigvalsh = traced_peak(lambda: np.linalg.eigvalsh(h))
    # the row-blocked max |h| and hermiticity defect (measured 0.10 and 0.19 of
    # n^2 * 8 bytes); the whole-matrix |h| was n^2 * 8
    assert solve - eigvalsh < n * n * 8 / 4


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


def written_field(directory, blocks, **kw):
    """(data, sidecar, manifest entries) of a field written from ``blocks``."""
    sink = _OutputSink(str(directory))
    sink.field("field_s", blocks, **kw)
    return ((directory / "field_s.f64").read_bytes(),
            (directory / "field_s.meta.json").read_bytes(), sink.files)


@pytest.mark.parametrize("cut", [[], [1000], list(range(32, 2048, 32))],
                         ids=("1-block", "2-blocks", "64-blocks"))
def test_streamed_field_is_the_whole_array_write(tmp_path, cut):
    array = np.random.default_rng(2).normal(size=(2048, 24))
    axes = {"x": np.arange(3.0)}
    blocks = np.split(array, cut)
    # a Fortran-order block is written in C order like any other
    blocks[-1] = np.asfortranarray(blocks[-1])
    (tmp_path / "whole").mkdir()
    (tmp_path / "streamed").mkdir()
    expected = written_field(tmp_path / "whole", array, axes=axes, notes="n")
    streamed = written_field(tmp_path / "streamed", iter(blocks), axes=axes, notes="n")
    assert streamed == expected
    data, sidecar, files = streamed
    assert json.loads(sidecar)["shape"] == [2048, 24]
    for entry in files:
        on_disk = (tmp_path / "streamed" / entry["name"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(on_disk).hexdigest()
        assert entry["bytes"] == len(on_disk)


def test_streamed_field_refuses_a_nan_in_its_last_block(tmp_path):
    blocks = [np.ones((4, 3)) for _ in range(5)]
    blocks[-1][3, 2] = np.nan
    sink = _OutputSink(str(tmp_path))
    with pytest.raises(FloatingPointError, match="field_late has non-finite"):
        sink.field("field_late", blocks)
    # the blocks before it may be on disk, but nothing is listed
    assert sink.files == []


def test_streamed_field_refuses_blocks_that_do_not_join(tmp_path):
    sink = _OutputSink(str(tmp_path))
    with pytest.raises(ValueError, match="does not join"):
        sink.field("field_j", [np.ones((2, 3)), np.ones((2, 4))])
    assert sink.files == []


def test_wigner_run_with_a_nan_in_the_last_block_exits_3(tmp_path, monkeypatch, capsys):
    real = wigner._wigner_rows

    def spoiled(psi):
        blocks = list(real(psi))  # views of the last block's work rows
        blocks[-1][-1, -1] = np.nan
        yield from blocks

    monkeypatch.setattr(wigner, "_wigner_rows", spoiled)
    out = tmp_path / "out"
    assert run(os.path.join(CONFIGS, "wigner_ground.json"), str(out)) == 3
    assert "field_wigner has non-finite values" in capsys.readouterr().err
    assert not (out / "manifest").exists()


def test_wigner_rows_refuse_a_residue_after_the_last_block():
    n = 64
    rho = pure_state_density(packet(n))
    values = rho.values.copy()
    values[3, 5] += 1e-3j  # no longer hermitian
    blocks = wigner._wigner_rows(DensityMatrix(values, rho.grid))
    drawn = 0
    with pytest.raises(HermiticityError, match="residue"):
        for rows in blocks:
            drawn += len(rows)
    assert drawn == 2 * n


def test_wigner_run_streams_its_field(tmp_path):
    n = 1024
    with open(os.path.join(CONFIGS, "wigner_ground.json")) as fh:
        raw = json.load(fh)
    raw["grid"].update(L=16.0, n=n)
    cfg = _walk(raw)[1]
    _run_wigner(cfg, _OutputSink(str(tmp_path)))  # imports and caches first
    # the (2n, n) field alone is 16 MiB; the transform's blocks, one C-order
    # copy of a block and the axes take about 2.5 MiB
    assert traced_peak(lambda: _run_wigner(cfg, _OutputSink(str(tmp_path)))) < 4 * 2 ** 20
    data = (tmp_path / "field_wigner.f64").read_bytes()
    psi = gaussian_packet(make_grid(16.0, n), **cfg["wigner"]["initial"])
    assert data == wigner_from_density(psi).values.astype("<f8").tobytes()
