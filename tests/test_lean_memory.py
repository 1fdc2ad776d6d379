"""Memory-lean paths against the paths they replace, bit for bit.

A wave function goes into ``wigner_from_density`` without its n x n density
matrix, ``momentum_distribution`` gathers its skew sums in column blocks,
and the output sink writes and hashes a field from the array's own buffer.
Each must give the bytes of the whole-matrix or copying original and hold
less memory, measured with tracemalloc.
"""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from dynkit.cli import _OutputSink
from dynkit.errors import HermiticityError
from dynkit.grids import _alt_signs, make_grid
from dynkit.open_systems import (
    DensityMatrix,
    _skew_index,
    momentum_distribution,
    pure_state_density,
)
from dynkit.tdse import WaveFunction, gaussian_packet
from dynkit.wigner import wigner_from_density

SIZES = (4, 64, 256, 1024)


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
    grid = rho.grid
    s = np.take(rho.values, _skew_index(grid.n)).sum(axis=0)
    p = np.fft.fft(_alt_signs(grid.n) * s).real
    return p * (grid.dx ** 2 / (2.0 * np.pi * grid.hbar))


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
    momentum_distribution(rho)  # builds the cached index outside the measurement
    assert traced_peak(lambda: momentum_distribution(rho)) < n * n * 16 // 4


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
