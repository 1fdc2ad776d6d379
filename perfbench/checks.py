"""Reference checks on the files one ``dynkit run`` wrote.

Every tolerance is the acceptance suite's (tests/test_acceptance.py, criterion
numbers in the comments); none is loosened.  Each check returns a list of
problems, empty when the output is correct.  Oracles come from dynkit's own
dense reference paths (dense eigensolve, superoperator exponential), which
the benchmarked fast paths do not use.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from dynkit import (HamiltonianSpec, build_spectral_hamiltonian, eigensolve,
                    gaussian_packet, lindblad_propagate, make_grid)
from dynkit.matfunc import PADE_NORM_BOUND

#: matrix products in one diagonal [6/6] Pade evaluation (b^2, b^4, b^6, b*odd)
PADE_APPLY_MULTS = 4


def file_digests(out_dir: str) -> dict:
    """SHA-256 of every data file; the manifest carries a wall time and is skipped."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _csv(out_dir, name):
    return np.loadtxt(os.path.join(out_dir, name), delimiter=",", skiprows=1,
                      ndmin=2)


def _field(out_dir, name):
    with open(os.path.join(out_dir, name + ".meta.json")) as fh:
        meta = json.load(fh)
    values = np.fromfile(os.path.join(out_dir, name + ".f64"), dtype="<f8")
    return values.reshape(meta["shape"]), meta


def _potential(cfg):
    name = cfg["name"]
    if name == "harmonic":
        omega = float(cfg.get("omega", 1.0))
        return lambda x: 0.5 * omega ** 2 * x ** 2
    if name == "quartic":
        a = float(cfg.get("strength", 1.0))
        return lambda x: a * x ** 4
    raise ValueError(f"no reference for potential {name!r}")


def _grid(cfg):
    g = cfg["grid"]
    return make_grid(float(g["L"]), int(g["n"]), float(g.get("hbar", 1.0)))


def _dense_levels(cfg):
    """Ascending eigenvalues of the dense spectral Hamiltonian on the config's grid."""
    grid = _grid(cfg)
    u = _potential(cfg["hamiltonian"]["potential"])
    spec = HamiltonianSpec(kinetic=lambda t, p: p ** 2 / 2.0,
                           potential=lambda t, x: u(x), hbar=grid.hbar)
    return eigensolve(build_spectral_hamiltonian(grid, spec), dx=grid.dx).energies


def _oscillator_omega(cfg):
    pot = cfg["hamiltonian"]["potential"]
    return float(pot.get("omega", 1.0)) if pot["name"] == "harmonic" else None


def check_common(cfg, out_dir, first_digests=None) -> list[str]:
    """Manifest checksums, rerun determinism (criterion 10) and the trace end time."""
    problems = []
    try:
        with open(os.path.join(out_dir, "manifest")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    digests = file_digests(out_dir)
    listed = {entry["name"]: entry["sha256"] for entry in manifest["outputs"]}
    if listed != digests:
        problems.append("manifest checksums differ from the files on disk")
    if first_digests is not None and digests != first_digests:
        changed = sorted(k for k in set(digests) | set(first_digests)
                         if digests.get(k) != first_digests.get(k))
        problems.append(f"data files differ from the first run: {changed}")
    if "trace.csv" in digests:
        block = cfg[cfg["task"]]
        if cfg["task"] == "classical":
            t_max = block["n_steps"] * block["dt"]
        else:
            t_max = block["t_max"]
        t_last = _csv(out_dir, "trace.csv")[-1, 0]
        if abs(t_last - t_max) > 1e-9 * max(1.0, abs(t_max)):
            problems.append(f"trace ends at t={t_last!r}, not t_max={t_max!r}")
    return problems


def _check_propagate(cfg, out_dir):
    block = cfg["propagate"]
    trace = _csv(out_dir, "trace.csv")
    norm = trace[:, 4]
    problems = []
    if "absorber" in block:
        growth = float(np.max(np.diff(norm), initial=0.0))
        if growth > 1e-12:
            problems.append(f"absorbed norm grew by {growth:.3e}")
        return problems
    drift = float(np.max(np.abs(norm - 1.0)))
    if drift > 1e-12:  # criterion 3
        problems.append(f"norm drift {drift:.3e} > 1e-12")
    return problems


def _accuracy_propagate(cfg, out_dir):
    block = cfg["propagate"]
    omega = _oscillator_omega(cfg)
    if omega is None or "absorber" in block:
        return []
    trace = _csv(out_dir, "trace.csv")
    t, x_mean = trace[:, 0], trace[:, 1]
    init = block.get("initial", {})
    x0, p0 = float(init.get("x0", 0.0)), float(init.get("p0", 0.0))
    exact = x0 * np.cos(omega * t) + p0 / omega * np.sin(omega * t)
    err = float(np.max(np.abs(x_mean - exact)))
    return [f"|x_mean - x(t)| = {err:.3e} > 1e-6"] if err > 1e-6 else []  # criterion 3


def _check_imagtime(cfg, out_dir):
    energies = _csv(out_dir, "energies.csv")[:, 1]
    levels = _dense_levels(cfg)
    problems = []
    for k, e in enumerate(energies):
        tol = 1e-6 if k == 0 else 1e-5  # criterion 4
        if abs(e - levels[k]) > tol:
            problems.append(f"E{k}={e!r} vs dense {levels[k]!r} (tol {tol})")
    return problems


def _check_gap(cfg, out_dir):
    gap = float(_csv(out_dir, "energies.csv")[0, 1])
    omega = _oscillator_omega(cfg)
    if abs(gap - omega) > 0.05 * omega:  # criterion 4
        return [f"gap {gap!r} not within 5% of {omega}"]
    return []


def _check_eigen(cfg, out_dir):
    energies = _csv(out_dir, "energies.csv")[:, 1]
    omega = _oscillator_omega(cfg)
    method = cfg["eigen"].get("method", "spectral")
    tol = 1e-6 if method == "spectral" else 1e-3  # criterion 2
    ladder = omega * (np.arange(len(energies)) + 0.5)
    err = float(np.max(np.abs(energies - ladder)))
    return [f"oscillator ladder error {err:.3e} > {tol}"] if err > tol else []


def _check_lindblad(cfg, out_dir):
    problems = []
    trace_drift = float(np.max(np.abs(_csv(out_dir, "trace.csv")[:, 4] - 1.0)))
    if trace_drift > 1e-10:  # criterion 7
        problems.append(f"trace drift {trace_drift:.3e} > 1e-10")
    stacked, _ = _field(out_dir, "field_rho")
    rho = stacked[0] + 1j * stacked[1]
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > 1e-10:
        problems.append(f"hermiticity defect {defect:.3e} > 1e-10")
    final_trace = np.trace(rho) * _grid(cfg).dx
    if abs(final_trace - 1.0) > 1e-10:
        problems.append(f"final trace {final_trace!r} != 1 within 1e-10")
    return problems


def _check_wigner(cfg, out_dir):
    w, meta = _field(out_dir, "field_wigner")
    x, p = np.asarray(meta["axes"]["x"]), np.asarray(meta["axes"]["p"])
    dx, dp = x[1] - x[0], p[1] - p[0]
    problems = []
    norm = float(w.sum() * dx * dp)
    if abs(norm - 1.0) > 1e-8:  # criterion 8
        problems.append(f"Wigner normalization {norm!r} != 1 within 1e-8")
    init = cfg.get("wigner", {}).get("initial", {})
    psi = gaussian_packet(_grid(cfg), x0=float(init.get("x0", 0.0)),
                          p0=float(init.get("p0", 0.0)),
                          sigma=float(init.get("sigma", 1.0)))
    err = float(np.max(np.abs(w.sum(axis=1)[::2] * dp - np.abs(psi.values) ** 2)))
    if err > 1e-8:
        problems.append(f"x-marginal error {err:.3e} > 1e-8")
    return problems


def _check_mcwf(cfg, out_dir):
    block = cfg["mcwf"]
    stacked, meta = _field(out_dir, "field_rho")
    rhos = stacked[0] + 1j * stacked[1]
    gamma = float(block.get("decay_rate", 1.0))
    rabi = float(block.get("rabi", 0.0))
    h = rabi * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ops = [math.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    psi0 = np.array([0.0, 1.0], dtype=complex)
    oracle = lindblad_propagate(np.outer(psi0, psi0.conj()), h, ops,
                                np.asarray(meta["axes"]["t"]))
    err = float(np.max(np.abs(rhos - oracle)))
    return [f"MCWF vs Lindblad {err:.3f} >= 0.05"] if err >= 0.05 else []  # criterion 7


def _check_expm(cfg, out_dir):
    block = cfg.get("expm-bench", cfg.get("expm_bench"))
    counts, _ = _field(out_dir, "field_expm_counts")
    rng = np.random.default_rng(int(block["seed"]))
    dim = int(block["dim"])
    problems = []
    previous = -1.0
    for (norm, taylor, pade, squarings), requested in zip(counts, block["norms"]):
        # the same draws as the runner, so the exact 1-norm fixes the squarings
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (a + a.conj().T) / 2
        a *= requested / np.linalg.norm(a, 1)
        actual = np.linalg.norm(a, 1)
        k = 0 if actual <= PADE_NORM_BOUND else \
            int(np.ceil(np.log2(actual / PADE_NORM_BOUND)))
        if squarings != k or pade != PADE_APPLY_MULTS + k:  # criterion 9
            problems.append(f"norm {norm}: Pade squarings/mults {squarings:g}/"
                            f"{pade:g}, expected {k}/{PADE_APPLY_MULTS + k}")
        if not (taylor > previous and taylor >= norm / math.e):
            problems.append(f"norm {norm}: Taylor count {taylor:g} does not "
                            "grow at least linearly")
        previous = taylor
    return problems


def _check_bands(cfg, out_dir):
    rows = _csv(out_dir, "bands.csv")
    n_bands = int(cfg["bands"]["n_bands"])
    energies = rows[:, 2].reshape(-1, n_bands)
    if not np.all(np.diff(energies, axis=1) >= 0.0):
        return ["band energies not ascending"]
    return []


#: Checks that hold for any step size, grid and sample count.
TASK_CHECKS = {
    "propagate": _check_propagate,
    "imagtime": _check_imagtime,
    "gap": _check_gap,
    "lindblad": _check_lindblad,
    "wigner": _check_wigner,
    "expm-bench": _check_expm,
    "bands": _check_bands,
}

#: Checks whose tolerance the acceptance suite sets for a given step size,
#: grid spacing or number of trajectories; the generated configs are sized
#: to meet them, the shipped examples are coarser.
ACCURACY_CHECKS = {
    "propagate": _accuracy_propagate,
    "eigen": _check_eigen,
    "mcwf": _check_mcwf,
}


def check_run(cfg, out_dir, first_digests=None, accuracy=True) -> list[str]:
    """All checks for one finished run of cfg whose outputs are in out_dir."""
    problems = check_common(cfg, out_dir, first_digests)
    task_checks = [TASK_CHECKS.get(cfg["task"])]
    if accuracy:
        task_checks.append(ACCURACY_CHECKS.get(cfg["task"]))
    for task_check in filter(None, task_checks):
        try:
            problems += task_check(cfg, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"output unreadable: {exc!r}")
    return problems
