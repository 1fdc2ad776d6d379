"""Batch front-end: validate a JSON simulation config, run it, write outputs.

``dynkit run <config> --out <dir>`` executes one task and writes CSV series,
raw little-endian float64 fields with JSON sidecars, and a ``manifest`` file
listing every output with its checksum.  ``dynkit validate <config>`` prints
all schema violations without running anything.  Exit codes: 0 success,
2 schema violation, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConvergenceError, HermiticityError
from .grids import make_grid
from . import classical as cl
from . import open_systems as osys
from . import stationary as st
from . import tdse
from . import wigner as wg
from .matfunc import expm_pade, expm_taylor

TASKS = ("eigen", "bands", "propagate", "imagtime", "gap", "classical",
         "lindblad", "mcwf", "wigner", "expm-bench")

POTENTIALS = ("harmonic", "quartic", "softcore", "cosine", "free", "poly")
KINETICS = ("free", "poly")


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


def _is_finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


class _Check:
    """Collects dotted-path diagnostics while walking the config tree."""

    def __init__(self):
        self.problems: list[str] = []

    def error(self, path, message):
        self.problems.append(f"{path}: {message}")

    def block(self, cfg, path, required, optional):
        if not isinstance(cfg, dict):
            self.error(path, "must be a mapping")
            return False
        for key in cfg:
            if key not in required and key not in optional:
                self.error(f"{path}.{key}", "unknown key")
        ok = True
        for key in required:
            if key not in cfg:
                self.error(f"{path}.{key}", "missing required key")
                ok = False
        return ok

    def number(self, cfg, path, key, default=None, minimum=None,
               maximum=None, exclusive_min=False):
        """The value as a float, default if absent, None if invalid."""
        if key not in cfg:
            return default
        value = cfg[key]
        if not _is_finite_number(value):
            self.error(f"{path}.{key}", "must be a finite number")
            return None
        problems = len(self.problems)
        if minimum is not None:
            if exclusive_min and value <= minimum:
                self.error(f"{path}.{key}", f"must be > {minimum}")
            elif not exclusive_min and value < minimum:
                self.error(f"{path}.{key}", f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            self.error(f"{path}.{key}", f"must be <= {maximum}")
        return float(value) if len(self.problems) == problems else None

    def run_length(self, cfg, path, span_key, dt_key, minimum=1):
        """Positive step and span making a whole number of >= ``minimum`` steps."""
        dt = self.number(cfg, path, dt_key, minimum=0.0, exclusive_min=True)
        span = self.number(cfg, path, span_key, minimum=0.0, exclusive_min=True)
        if span is None or dt is None:
            return
        try:
            n_steps = tdse.step_count(span, dt)
        except (ValueError, OverflowError):
            n_steps = None
        if n_steps is None or n_steps < minimum:
            self.error(f"{path}.{span_key}", f"must be a whole number of "
                       f"{dt_key} steps, at least {minimum}")

    def integer(self, cfg, path, key, default=None, minimum=None,
                choices=None):
        if key not in cfg:
            return default
        value = cfg[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(f"{path}.{key}", "must be an integer")
            return default
        if minimum is not None and value < minimum:
            self.error(f"{path}.{key}", f"must be >= {minimum}")
        if choices is not None and value not in choices:
            self.error(f"{path}.{key}", f"must be one of {sorted(choices)}")
        return value

    def string(self, cfg, path, key, choices, default=None):
        if key not in cfg:
            if default is None:
                self.error(f"{path}.{key}", "missing required key")
            return default
        value = cfg[key]
        if not isinstance(value, str) or value not in choices:
            self.error(f"{path}.{key}", f"must be one of {list(choices)}")
            return default
        return value


def _check_grid(check, cfg, path="grid"):
    if not check.block(cfg, path, required=("L", "n"), optional=("hbar",)):
        return
    check.number(cfg, path, "L", minimum=0.0, exclusive_min=True)
    n = check.integer(cfg, path, "n", minimum=4)
    if n is not None and n % 4 != 0:
        check.error(f"{path}.n", "must be divisible by 4")
    check.number(cfg, path, "hbar", default=1.0, minimum=0.0,
                 exclusive_min=True)


def _check_potential(check, cfg, path):
    if not check.block(cfg, path, required=("name",),
                       optional=("omega", "strength", "depth", "width",
                                 "amplitude", "period", "coeffs")):
        return
    name = check.string(cfg, path, "name", POTENTIALS)
    if name == "poly":
        coeffs = cfg.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs \
                or not all(_is_finite_number(c) for c in coeffs):
            check.error(f"{path}.coeffs",
                        "must be a nonempty list of finite numbers")
    check.number(cfg, path, "omega", default=1.0)
    check.number(cfg, path, "strength", default=1.0)
    check.number(cfg, path, "depth", default=1.0)
    check.number(cfg, path, "width", default=1.0, minimum=0.0,
                 exclusive_min=True)
    check.number(cfg, path, "amplitude", default=1.0)
    check.number(cfg, path, "period", default=2 * np.pi, minimum=0.0,
                 exclusive_min=True)


def _check_kinetic(check, cfg, path):
    if not check.block(cfg, path, required=("name",),
                       optional=("mass", "coeffs")):
        return
    name = check.string(cfg, path, "name", KINETICS)
    check.number(cfg, path, "mass", default=1.0, minimum=0.0,
                 exclusive_min=True)
    if name == "poly":
        coeffs = cfg.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs \
                or not all(_is_finite_number(c) for c in coeffs):
            check.error(f"{path}.coeffs",
                        "must be a nonempty list of finite numbers")


def _check_hamiltonian(check, cfg, path="hamiltonian"):
    if not check.block(cfg, path, required=("potential",),
                       optional=("kinetic",)):
        return
    _check_potential(check, cfg["potential"], f"{path}.potential")
    if "kinetic" in cfg:
        _check_kinetic(check, cfg["kinetic"], f"{path}.kinetic")


def _check_gaussian_state(check, cfg, path):
    if not check.block(cfg, path, required=(),
                       optional=("x0", "p0", "sigma")):
        return
    check.number(cfg, path, "x0", default=0.0)
    check.number(cfg, path, "p0", default=0.0)
    check.number(cfg, path, "sigma", default=1.0, minimum=0.0,
                 exclusive_min=True)


def validate_config(cfg) -> list[str]:
    """Return all schema diagnostics for a parsed config; empty means valid."""
    check = _Check()
    if not isinstance(cfg, dict):
        check.error("config", "top level must be a mapping")
        return check.problems
    task = cfg.get("task")
    if task not in TASKS:
        check.error("task", f"must be one of {list(TASKS)}")
        return check.problems

    needs_grid = task in ("eigen", "propagate", "imagtime", "gap",
                          "lindblad", "wigner")
    needs_hamiltonian = task in ("eigen", "bands", "propagate", "imagtime",
                                 "gap", "lindblad", "wigner")
    allowed = {"task"}
    if needs_grid:
        allowed.add("grid")
    if needs_hamiltonian:
        allowed.add("hamiltonian")
    block_name = task.replace("-", "_")
    allowed.add(block_name)
    for key in cfg:
        if key not in allowed:
            check.error(key, "unknown key")
    if needs_grid:
        if "grid" not in cfg:
            check.error("grid", "missing required block")
        else:
            _check_grid(check, cfg["grid"])
    if needs_hamiltonian:
        if "hamiltonian" not in cfg:
            check.error("hamiltonian", "missing required block")
        else:
            _check_hamiltonian(check, cfg["hamiltonian"])

    block = cfg.get(block_name, {})
    path = block_name
    if task == "eigen":
        if check.block(block, path, required=("n_states",),
                       optional=("method",)):
            check.integer(block, path, "n_states", minimum=1)
            check.string(block, path, "method",
                         ("central", "forward", "backward", "spectral"),
                         default="spectral")
    elif task == "bands":
        if check.block(block, path, required=("lattice_constant", "n_cell",
                                              "n_bands", "n_k"), optional=()):
            check.number(block, path, "lattice_constant", minimum=0.0,
                         exclusive_min=True)
            check.integer(block, path, "n_cell", minimum=2)
            check.integer(block, path, "n_bands", minimum=1)
            check.integer(block, path, "n_k", minimum=1)
    elif task == "propagate":
        if check.block(block, path, required=("dt", "t_max"),
                       optional=("order", "stride", "initial", "absorber")):
            check.run_length(block, path, "t_max", "dt")
            check.integer(block, path, "order", default=2, choices=(2, 4))
            check.integer(block, path, "stride", default=1, minimum=1)
            if "initial" in block:
                _check_gaussian_state(check, block["initial"], f"{path}.initial")
            if "absorber" in block:
                sub = block["absorber"]
                if check.block(sub, f"{path}.absorber", required=(),
                               optional=("fraction", "power")):
                    check.number(sub, f"{path}.absorber", "fraction",
                                 default=0.2, minimum=0.0, exclusive_min=True,
                                 maximum=0.49)
                    check.number(sub, f"{path}.absorber", "power",
                                 default=0.125, minimum=0.0,
                                 exclusive_min=True)
    elif task == "imagtime":
        if check.block(block, path, required=("dtau",),
                       optional=("tol", "n_states")):
            check.number(block, path, "dtau", minimum=0.0, exclusive_min=True)
            check.number(block, path, "tol", default=1e-12, minimum=0.0,
                         exclusive_min=True)
            check.integer(block, path, "n_states", default=1, minimum=1)
    elif task == "gap":
        if check.block(block, path, required=("dtau", "tau_max"),
                       optional=("observable", "initial")):
            check.run_length(block, path, "tau_max", "dtau", minimum=8)
            check.string(block, path, "observable", ("x", "x2"), default="x")
            if "initial" in block:
                _check_gaussian_state(check, block["initial"], f"{path}.initial")
    elif task == "classical":
        if check.block(block, path,
                       required=("dt", "n_steps", "n_particles", "seed"),
                       optional=("stride", "cloud", "forces", "drive")):
            check.number(block, path, "dt", minimum=0.0, exclusive_min=True)
            check.integer(block, path, "n_steps", minimum=1)
            check.integer(block, path, "n_particles", minimum=1)
            check.integer(block, path, "seed", minimum=0)
            check.integer(block, path, "stride", default=1, minimum=1)
            if "cloud" in block:
                sub = block["cloud"]
                if check.block(sub, f"{path}.cloud", required=(),
                               optional=("x0", "p0", "sigma_x", "sigma_p")):
                    check.number(sub, f"{path}.cloud", "x0", default=1.0)
                    check.number(sub, f"{path}.cloud", "p0", default=0.0)
                    check.number(sub, f"{path}.cloud", "sigma_x", default=0.2,
                                 minimum=0.0)
                    check.number(sub, f"{path}.cloud", "sigma_p", default=0.2,
                                 minimum=0.0)
            if "forces" in block:
                _check_potential(check, block["forces"], f"{path}.forces")
            if "drive" in block:
                sub = block["drive"]
                if check.block(sub, f"{path}.drive", required=(),
                               optional=("amplitude", "omega")):
                    check.number(sub, f"{path}.drive", "amplitude", default=0.0)
                    check.number(sub, f"{path}.drive", "omega", default=1.0)
    elif task == "lindblad":
        if check.block(block, path, required=("dt", "t_max"),
                       optional=("stride", "coupling", "initial")):
            check.run_length(block, path, "t_max", "dt")
            check.integer(block, path, "stride", default=1, minimum=1)
            if "coupling" in block:
                sub = block["coupling"]
                if check.block(sub, f"{path}.coupling", required=("name",),
                               optional=("strength",)):
                    check.string(sub, f"{path}.coupling", "name",
                                 ("linear", "constant"))
                    check.number(sub, f"{path}.coupling", "strength",
                                 default=0.1)
            if "initial" in block:
                _check_gaussian_state(check, block["initial"], f"{path}.initial")
    elif task == "mcwf":
        if check.block(block, path,
                       required=("dt", "t_max", "n_traj", "seed"),
                       optional=("stride", "decay_rate", "rabi")):
            check.run_length(block, path, "t_max", "dt")
            check.integer(block, path, "n_traj", minimum=1)
            check.integer(block, path, "seed", minimum=0)
            check.integer(block, path, "stride", default=1, minimum=1)
            check.number(block, path, "decay_rate", default=1.0, minimum=0.0)
            check.number(block, path, "rabi", default=0.0)
    elif task == "wigner":
        if check.block(block, path, required=(), optional=("initial",)):
            if "initial" in block:
                _check_gaussian_state(check, block["initial"], f"{path}.initial")
    elif task == "expm-bench":
        if check.block(block, path, required=("dim", "norms", "seed"),
                       optional=("tol",)):
            check.integer(block, path, "dim", minimum=2)
            check.integer(block, path, "seed", minimum=0)
            check.number(block, path, "tol", default=1e-12, minimum=0.0,
                         exclusive_min=True)
            norms = block.get("norms")
            if not isinstance(norms, list) or not norms \
                    or not all(_is_finite_number(v) and v > 0 for v in norms):
                check.error(f"{path}.norms",
                            "must be a nonempty list of positive finite numbers")
    return check.problems


# ---------------------------------------------------------------------------
# named potential/kinetic library
# ---------------------------------------------------------------------------


def potential_from_config(cfg):
    """(U(x), dU/dx(x)) callables for a named potential block."""
    name = cfg["name"]
    if name == "harmonic":
        omega = float(cfg.get("omega", 1.0))
        return (lambda x: 0.5 * omega ** 2 * np.asarray(x) ** 2,
                lambda x: omega ** 2 * np.asarray(x))
    if name == "quartic":
        a = float(cfg.get("strength", 1.0))
        return (lambda x: a * np.asarray(x) ** 4,
                lambda x: 4.0 * a * np.asarray(x) ** 3)
    if name == "softcore":
        depth = float(cfg.get("depth", 1.0))
        width = float(cfg.get("width", 1.0))
        return (lambda x: -depth / np.sqrt(np.asarray(x) ** 2 + width ** 2),
                lambda x: depth * np.asarray(x)
                / (np.asarray(x) ** 2 + width ** 2) ** 1.5)
    if name == "cosine":
        amp = float(cfg.get("amplitude", 1.0))
        period = float(cfg.get("period", 2 * np.pi))
        k = 2 * np.pi / period
        return (lambda x: amp * np.cos(k * np.asarray(x)),
                lambda x: -amp * k * np.sin(k * np.asarray(x)))
    if name == "free":
        return (lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    if name == "poly":
        coeffs = np.asarray(cfg["coeffs"], dtype=float)
        deriv = coeffs[1:] * np.arange(1, len(coeffs))
        return (lambda x: np.polynomial.polynomial.polyval(np.asarray(x), coeffs),
                lambda x: np.polynomial.polynomial.polyval(np.asarray(x), deriv)
                if len(deriv) else np.zeros_like(np.asarray(x, dtype=float)))
    raise ValueError(f"unknown potential {name!r}")


def kinetic_from_config(cfg):
    """(K(p), dK/dp(p)) callables; defaults to p^2/2."""
    if cfg is None:
        cfg = {"name": "free"}
    name = cfg["name"]
    if name == "free":
        mass = float(cfg.get("mass", 1.0))
        return (lambda p: np.asarray(p) ** 2 / (2.0 * mass),
                lambda p: np.asarray(p) / mass)
    if name == "poly":
        coeffs = np.asarray(cfg["coeffs"], dtype=float)
        deriv = coeffs[1:] * np.arange(1, len(coeffs))
        return (lambda p: np.polynomial.polynomial.polyval(np.asarray(p), coeffs),
                lambda p: np.polynomial.polynomial.polyval(np.asarray(p), deriv)
                if len(deriv) else np.zeros_like(np.asarray(p, dtype=float)))
    raise ValueError(f"unknown kinetic {name!r}")


def _hamiltonian_spec(cfg, hbar):
    u, _ = potential_from_config(cfg["potential"])
    k, _ = kinetic_from_config(cfg.get("kinetic"))
    mass = float(cfg.get("kinetic", {}).get("mass", 1.0))
    return st.HamiltonianSpec(kinetic=lambda t, p: k(p),
                              potential=lambda t, x: u(x),
                              hbar=hbar, mass=mass, time_independent=True)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return format(float(value), ".17g")


class _OutputSink:
    def __init__(self, directory):
        self.directory = directory
        self.files: list[dict] = []

    def _register(self, name):
        path = os.path.join(self.directory, name)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        self.files.append({"name": name, "sha256": digest,
                           "bytes": os.path.getsize(path)})

    def csv(self, name, header, rows):
        path = os.path.join(self.directory, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self._register(name)

    def field(self, name, array, axes=None, notes=None):
        array = np.ascontiguousarray(array, dtype="<f8")
        path = os.path.join(self.directory, name + ".f64")
        with open(path, "wb") as fh:
            fh.write(array.tobytes())
        self._register(name + ".f64")
        sidecar = {
            "file": name + ".f64",
            "dtype": "float64",
            "byte_order": "little",
            "order": "C",
            "shape": list(array.shape),
        }
        if axes:
            sidecar["axes"] = {key: [float(v) for v in values]
                               for key, values in axes.items()}
        if notes:
            sidecar["notes"] = notes
        meta_name = name + ".meta.json"
        with open(os.path.join(self.directory, meta_name), "w",
                  newline="\n") as fh:
            json.dump(sidecar, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self._register(meta_name)


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def _grid_from_config(cfg):
    return make_grid(float(cfg["L"]), int(cfg["n"]),
                     float(cfg.get("hbar", 1.0)))


def _gaussian_from_config(grid, cfg):
    cfg = cfg or {}
    return tdse.gaussian_packet(grid, x0=float(cfg.get("x0", 0.0)),
                                p0=float(cfg.get("p0", 0.0)),
                                sigma=float(cfg.get("sigma", 1.0)))


def _run_eigen(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg["eigen"]
    method = block.get("method", "spectral")
    spec = _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)
    if method == "spectral":
        h = st.build_spectral_hamiltonian(grid, spec)
        energies = st.eigensolve(h, dx=grid.dx).energies
    else:
        u, _ = potential_from_config(cfg["hamiltonian"]["potential"])
        h = st.build_fd_hamiltonian(grid, u, method, mass=spec.mass)
        if method == "central":
            energies = st.eigensolve(h, dx=grid.dx).energies
        else:
            energies = np.sort(np.linalg.eigvals(h).real)
    n_states = min(int(block["n_states"]), grid.n)
    sink.csv("energies.csv", ("index", "E"),
             [(i, energies[i]) for i in range(n_states)])


def _run_bands(cfg, sink):
    block = cfg["bands"]
    a = float(block["lattice_constant"])
    spec = _hamiltonian_spec(cfg["hamiltonian"], 1.0)
    ks = np.linspace(-np.pi / a, np.pi / a, int(block["n_k"]))
    bands = st.band_structure(spec, a, int(block["n_cell"]), ks,
                              int(block["n_bands"]))
    rows = []
    for i, k in enumerate(ks):
        for n in range(bands.shape[1]):
            rows.append((k, n, bands[i, n]))
    sink.csv("bands.csv", ("k", "n", "E"), rows)


def _trace_rows(trace):
    return [(t, x, p, e, nrm) for t, x, p, e, nrm in
            zip(trace.times, trace.x_mean, trace.p_mean, trace.energy,
                trace.norm)]


def _run_propagate(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg["propagate"]
    spec = _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)
    psi0 = _gaussian_from_config(grid, block.get("initial"))
    mask = None
    if "absorber" in block:
        mask = tdse.cosine_absorbing_mask(
            grid, fraction=float(block["absorber"].get("fraction", 0.2)),
            power=float(block["absorber"].get("power", 0.125)))
    _, trace = tdse.propagate(psi0, 0.0, float(block["t_max"]),
                              float(block["dt"]), spec,
                              stride=int(block.get("stride", 1)),
                              order=int(block.get("order", 2)),
                              absorbing_mask=mask)
    sink.csv("trace.csv", ("t", "x_mean", "p_mean", "energy", "norm"),
             _trace_rows(trace))


def _run_imagtime(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg["imagtime"]
    spec = _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)
    dtau = float(block["dtau"])
    tol = float(block.get("tol", 1e-12))
    n_states = int(block.get("n_states", 1))
    energies = []
    states = []
    for n in range(n_states):
        guess = tdse.gaussian_packet(grid, x0=0.3 * n, sigma=1.0 / (1.0 + 0.3 * n))
        if n == 0:
            e, psi = tdse.imaginary_time_ground(guess, dtau, spec, tol)
        else:
            e, psi = tdse.imaginary_time_excited(n, states, guess, dtau, spec,
                                                 tol)
        energies.append(e)
        states.append(psi)
    sink.csv("energies.csv", ("index", "E"), list(enumerate(energies)))


def _run_gap(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg["gap"]
    spec = _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)
    initial = dict(block.get("initial") or {"p0": 1.0})
    psi0 = _gaussian_from_config(grid, initial)
    observable = grid.x if block.get("observable", "x") == "x" else grid.x ** 2
    gap = tdse.spectral_gap_estimate(psi0, observable, float(block["dtau"]),
                                     float(block["tau_max"]), spec)
    sink.csv("energies.csv", ("index", "E"), [(0, gap)])


def _run_classical(cfg, sink):
    block = cfg["classical"]
    u_fun, du = potential_from_config(block.get("forces", {"name": "harmonic"}))
    k_fun, dk = kinetic_from_config(None)
    drive = block.get("drive")
    if drive:
        amp = float(drive.get("amplitude", 0.0))
        omega = float(drive.get("omega", 1.0))
        spec = cl.extend_time_dependent(
            lambda p, t: dk(p),
            lambda x, t: du(x) - amp * np.cos(omega * t))
    else:
        spec = cl.ClassicalSpec(dk_dp=lambda p, s: dk(p),
                                du_dx=lambda x, s: du(x))
    cloud = block.get("cloud", {})
    rng = np.random.default_rng(int(block["seed"]))
    n = int(block["n_particles"])
    x = rng.normal(float(cloud.get("x0", 1.0)),
                   float(cloud.get("sigma_x", 0.2)), n)
    p = rng.normal(float(cloud.get("p0", 0.0)),
                   float(cloud.get("sigma_p", 0.2)), n)
    ens = cl.ClassicalEnsemble(x=x, p=p, weights=cl.uniform_weights(n))
    snaps = cl.propagate_ensemble(ens, float(block["dt"]),
                                  int(block["n_steps"]), spec,
                                  stride=int(block.get("stride", 1)))
    rows = []
    for snap in snaps:
        energy = float(np.sum(snap.weights * (k_fun(snap.p) + u_fun(snap.x))))
        rows.append((snap.s, float(np.sum(snap.weights * snap.x)),
                     float(np.sum(snap.weights * snap.p)), energy,
                     float(np.sum(snap.weights))))
    sink.csv("trace.csv", ("t", "x_mean", "p_mean", "energy", "norm"), rows)


def _run_lindblad(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg["lindblad"]
    spec = _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)
    coupling_cfg = block.get("coupling", {"name": "linear", "strength": 0.1})
    strength = float(coupling_cfg.get("strength", 0.1))
    if coupling_cfg["name"] == "linear":
        coupling = lambda x: strength * x
    else:
        coupling = lambda x: np.full_like(np.asarray(x, dtype=float), strength)
    rho = osys.pure_state_density(_gaussian_from_config(grid,
                                                        block.get("initial")))
    dt = float(block["dt"])
    n_steps = tdse.step_count(float(block["t_max"]), dt)
    stride = int(block.get("stride", 1))
    rows = []

    def record(step, rho):
        px = osys.position_distribution(rho)
        pp = osys.momentum_distribution(rho)
        dpm = grid.p_fft[1] - grid.p_fft[0]
        x_mean = float(np.sum(grid.x * px) * grid.dx)
        p_mean = float(np.sum(grid.p_fft * pp) * dpm)
        energy = float(np.sum(spec.kinetic(0.0, grid.p_fft) * pp) * dpm
                       + np.sum(spec.potential(0.0, grid.x) * px) * grid.dx)
        rows.append((step * dt, x_mean, p_mean, energy, rho.trace().real))

    record(0, rho)
    for m in range(n_steps):
        rho = osys.lindblad_x_step(rho, m * dt, dt, spec, coupling)
        if (m + 1) % stride == 0 or m == n_steps - 1:
            record(m + 1, rho)
    sink.csv("trace.csv", ("t", "x_mean", "p_mean", "energy", "norm"), rows)
    stacked = np.stack([rho.values.real, rho.values.imag])
    sink.field("field_rho", stacked,
               axes={"x": grid.x},
               notes="final density matrix; leading axis = (re, im)")


def _run_mcwf(cfg, sink):
    block = cfg["mcwf"]
    gamma = float(block.get("decay_rate", 1.0))
    rabi = float(block.get("rabi", 0.0))
    h = rabi * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ops = [np.sqrt(gamma) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    psi0 = np.array([0.0, 1.0], dtype=complex)
    times, rhos = osys.mcwf_ensemble(psi0, h, ops, float(block["dt"]),
                                     float(block["t_max"]),
                                     int(block["n_traj"]),
                                     base_seed=int(block["seed"]),
                                     stride=int(block.get("stride", 1)))
    stacked = np.stack([rhos.real, rhos.imag])
    sink.field("field_rho", stacked, axes={"t": times},
               notes="two-level ensemble density; axes (re/im, t, row, col)")


def _run_wigner(cfg, sink):
    grid = _grid_from_config(cfg["grid"])
    block = cfg.get("wigner", {})
    psi = _gaussian_from_config(grid, block.get("initial"))
    w = wg.wigner_from_density(osys.pure_state_density(psi))
    sink.field("field_wigner", w.values, axes={"x": w.x, "p": w.p},
               notes="Wigner function W[x, p]")


def _run_expm_bench(cfg, sink):
    block = cfg["expm-bench"] if "expm-bench" in cfg else cfg["expm_bench"]
    rng = np.random.default_rng(int(block["seed"]))
    dim = int(block["dim"])
    tol = float(block.get("tol", 1e-12))
    rows = []
    for norm in block["norms"]:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (a + a.conj().T) / 2
        a *= norm / np.linalg.norm(a, 1)
        taylor = expm_taylor(a, tol=tol)
        pade = expm_pade(a)
        rows.append((float(norm), float(taylor.matrix_multiplications),
                     float(pade.matrix_multiplications), float(pade.squarings)))
    sink.field("field_expm_counts", np.asarray(rows, dtype=float),
               notes="columns: norm, taylor_mults, pade_mults, pade_squarings")


_RUNNERS = {
    "eigen": _run_eigen,
    "bands": _run_bands,
    "propagate": _run_propagate,
    "imagtime": _run_imagtime,
    "gap": _run_gap,
    "classical": _run_classical,
    "lindblad": _run_lindblad,
    "mcwf": _run_mcwf,
    "wigner": _run_wigner,
    "expm-bench": _run_expm_bench,
}


def run(config_path: str, out_dir: str, threads: int = 1) -> int:
    """Execute one config; returns a process exit code."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    problems = validate_config(cfg)
    if problems:
        for problem in problems:
            print(f"schema error: {problem}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        os.makedirs(out_dir, exist_ok=True)
        sink = _OutputSink(out_dir)
    except OSError as exc:
        print(f"error: cannot prepare output directory: {exc}", file=sys.stderr)
        return 4
    task = cfg["task"]
    block_key = task.replace("-", "_")
    if block_key != task and block_key in cfg:
        cfg = dict(cfg)
        cfg[task] = cfg[block_key]
    try:
        _RUNNERS[task](cfg, sink)
    except (ConvergenceError, HermiticityError, np.linalg.LinAlgError,
            FloatingPointError, ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    manifest = {
        "config": cfg,
        "version": __version__,
        "threads": threads,
        "wall_time_seconds": time.monotonic() - started,
        "outputs": sink.files,
    }
    try:
        tmp_path = os.path.join(out_dir, "manifest.tmp")
        with open(tmp_path, "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, os.path.join(out_dir, "manifest"))
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


def validate(config_path: str) -> int:
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}")
        return 2
    problems = validate_config(cfg)
    if problems:
        for problem in problems:
            print(problem)
        return 2
    print("ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dynkit",
                                     description="batch simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a simulation config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="upper bound on worker threads")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        return run(args.config, args.out, threads=args.threads)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
