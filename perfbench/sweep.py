"""Kernel sweep: direct calls into dynkit's public kernels at fixed sizes.

Each kernel is called in batches until its time budget is spent; the metric
is the median per-call time over the batches.  Results are grouped by the
workload that owns the layer, and only that workload's group runs:

    python3 perfbench/sweep.py wavepacket    # prints one JSON object
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from dynkit import (HamiltonianSpec, expm_pade, gaussian_packet,
                    lindblad_x_step, make_grid, pure_state_density,
                    split_op_step, wigner_from_density)
from dynkit.grids import fft_bridge

BUDGET_S = 0.25
MIN_BATCHES = 5

OSCILLATOR = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2,
                             potential=lambda t, x: x ** 2 / 2)


def per_call_seconds(fn) -> float:
    """Median per-call time of fn() over batches sized to about 2 ms each."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    batch = max(1, int(2e-3 / once))
    samples = []
    deadline = time.perf_counter() + BUDGET_S
    while len(samples) < MIN_BATCHES or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def _wavepacket():
    out = {}
    for n in (256, 1024, 4096):
        grid = make_grid(20.0, n)
        psi = gaussian_packet(grid, x0=1.0)
        values = psi.values
        bridge = per_call_seconds(lambda: fft_bridge(values))
        step = per_call_seconds(lambda: split_op_step(psi, 0.0, 1e-3, OSCILLATOR))
        bare = per_call_seconds(lambda: np.fft.fft(values))
        out[f"grids.fft_bridge.us.n{n}"] = 1e6 * bridge
        out[f"tdse.split_op_step.us.n{n}"] = 1e6 * step
        out[f"tdse.split_op_step.fft_ratio.n{n}"] = step / bare
    return out


def _density():
    out = {}
    coupling = lambda x: 0.3 * x
    for n in (64, 128, 256):
        grid = make_grid(8.0, n)
        rho = pure_state_density(gaussian_packet(grid, x0=1.0))
        out[f"open_systems.lindblad_x_step.ms.n{n}"] = 1e3 * per_call_seconds(
            lambda: lindblad_x_step(rho, 0.0, 0.01, OSCILLATOR, coupling))
        out[f"wigner.wigner_from_density.ms.n{n}"] = 1e3 * per_call_seconds(
            lambda: wigner_from_density(rho))
    return out


def _ensemble():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    a = (a + a.conj().T) / 2
    a /= np.linalg.norm(a, 1)
    return {f"matfunc.expm_pade.us.norm{norm}":
            1e6 * per_call_seconds(lambda: expm_pade(norm * a))
            for norm in (1, 16, 256)}


GROUPS = {"wavepacket": _wavepacket, "density": _density, "ensemble": _ensemble}

#: workload -> {metric: unit} for the sweep results that workload reports
METRICS = {
    "wavepacket": {f"{kernel}.n{n}": unit for n in (256, 1024, 4096)
                   for kernel, unit in (("grids.fft_bridge.us", "us"),
                                        ("tdse.split_op_step.us", "us"),
                                        ("tdse.split_op_step.fft_ratio", "ratio"))},
    "density": {f"{kernel}.ms.n{n}": "ms" for n in (64, 128, 256)
                for kernel in ("open_systems.lindblad_x_step",
                               "wigner.wigner_from_density")},
    "ensemble": {f"matfunc.expm_pade.us.norm{v}": "us" for v in (1, 16, 256)},
}


if __name__ == "__main__":
    print(json.dumps(GROUPS[sys.argv[1]]()))
