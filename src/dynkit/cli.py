"""Batch front-end: validate a JSON simulation config, run it, write outputs.

``dynkit run <config> --out <dir>`` executes one task and writes CSV series,
raw little-endian float64 fields with JSON sidecars, and a ``manifest`` file
listing every output with its checksum.  ``dynkit validate <config>`` prints
all schema violations without running anything; only a config without any is
then checked against the memory budget, and its over-budget sizes printed.
Exit codes: 0 success, 2 schema violation (an over-budget size included),
3 numerical failure (running out of memory included), 4 I/O failure.
``run`` sizes numpy's BLAS pools from ``--threads`` (default 1) before numpy
loads, so its outputs do not depend on the host's core count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from itertools import chain
from typing import NamedTuple

from . import __version__
from .errors import ConvergenceError
from .steps import is_finite_number, step_count

# ---------------------------------------------------------------------------
# config schema: one table both validates a config and fills its defaults
# ---------------------------------------------------------------------------


_REQUIRED = object()  # default of a key the config must give
_ABSENT = object()    # the value of a key the config leaves out


class _Field(NamedTuple):
    """One config key: its kind, default and bounds.

    ``kind`` is ``number`` (a finite float), ``integer``, ``choice`` (one of
    the strings in ``choices``), ``numbers`` (a nonempty list of finite
    floats) or ``block`` (a mapping whose keys are ``fields``).  An absent
    block with a default mapping is filled in from it like a given block; a
    default of None leaves the block off.  ``rule`` runs the cross-field
    checks of a block once its keys are resolved.
    """

    kind: str
    default: object = _REQUIRED
    minimum: float | None = None  # inclusive
    above: float | None = None    # exclusive lower bound
    maximum: float | None = None
    choices: tuple = ()
    fields: dict | None = None
    rule: object = None
    when: tuple | None = None     # (sibling key, value): read only in that case
    empty_default: bool = False   # an empty block also takes the default


def _number(default=_REQUIRED, **bounds):
    return _Field("number", default, **bounds)


def _integer(default=_REQUIRED, **bounds):
    return _Field("integer", default, **bounds)


def _choice(*choices, default=_REQUIRED):
    return _Field("choice", default, choices=choices)


def _block(fields, default=_REQUIRED, **options):
    return _Field("block", default, fields=fields, **options)


#: Elements a valid config may make a run keep because of any one of its keys
#: (the ``kept`` of each task record).  2**22 complex128 values take 64 MiB.
MAX_ARRAY_ELEMENTS = 2 ** 22

#: Columns of every ``trace.csv``.
_TRACE_COLUMNS = ("t", "x_mean", "p_mean", "energy", "norm")


def _grid_rule(grid, path, problems):
    if grid["n"] is not None and grid["n"] % 4:
        problems.append(f"{path}.n: must be divisible by 4")


def _bands_rule(bands, path, problems):
    n_bands, n_cell = bands["n_bands"], bands["n_cell"]
    if n_bands is not None and n_cell is not None and n_bands > n_cell:
        problems.append(f"{path}.n_bands: must be <= n_cell")


def _fd_kinetic_rule(cfg, problems):
    """A finite-difference ``eigen`` method needs the free kinetic.

    The stencils discretize -hbar^2/(2m) d^2/dx^2 only, so they would solve
    p^2/2m whatever other kinetic the config names.
    """
    method = (cfg.get("eigen") or {}).get("method")
    kinetic = (cfg.get("hamiltonian") or {}).get("kinetic") or {}
    if method in ("central", "forward", "backward") and kinetic.get("name") == "poly":
        problems.append(f"hamiltonian.kinetic.name: must be 'free' for eigen.method "
                        f"{method!r}; the stencils discretize p^2/2m only")


def _whole_steps(span_key, dt_key, minimum=1):
    """Rule: ``span_key / dt_key`` is a whole number of steps, at least ``minimum``."""
    def rule(block, path, problems):
        if block[span_key] is None or block[dt_key] is None:
            return
        try:
            steps = step_count(block[span_key], block[dt_key])
        except (ValueError, OverflowError):
            steps = -1
        if steps < minimum:
            problems.append(f"{path}.{span_key}: must be a whole number of "
                            f"{dt_key} steps, at least {minimum}")
    return rule


POTENTIALS = ("harmonic", "quartic", "softcore", "cosine", "free", "poly")
KINETICS = ("free", "poly")

_POTENTIAL_FIELDS = {
    "name": _choice(*POTENTIALS),
    "coeffs": _Field("numbers", when=("name", "poly")),
    "omega": _number(1.0),
    "strength": _number(1.0),
    "depth": _number(1.0),
    "width": _number(1.0, above=0.0),
    "amplitude": _number(1.0),
    "period": _number(2 * math.pi, above=0.0),
}
_POTENTIAL = _block(_POTENTIAL_FIELDS)
_KINETIC = _block({"name": _choice(*KINETICS),
                   "mass": _number(1.0, above=0.0),
                   "coeffs": _Field("numbers", when=("name", "poly"))},
                  default={"name": "free"})


_GRID = _block({"L": _number(above=0.0),
                "n": _integer(minimum=4),
                "hbar": _number(1.0, above=0.0)}, rule=_grid_rule)
_HAMILTONIAN = _block({"potential": _POTENTIAL, "kinetic": _KINETIC})
_GAUSSIAN = {"x0": _number(0.0), "p0": _number(0.0),
             "sigma": _number(1.0, above=0.0)}
_INITIAL = _block(_GAUSSIAN, default={})
_POSITIVE = _number(above=0.0)
_STRIDE = _integer(1, minimum=1)
_SEED = _integer(minimum=0)
_TOL = _number(1e-12, above=0.0)

def _series(cfg, name, span_key, width, dt_key=None):
    """(key, elements) of the rows a run records and keeps until it writes them.

    A run of ``span_key`` steps, or ``span_key / dt_key`` steps, records its
    start, every ``stride``-th step and the last; each row keeps ``width`` values.
    """
    block = cfg[name]
    steps = step_count(block[span_key], block[dt_key]) if dt_key else block[span_key]
    return f"{name}.{span_key}", width * (1 + -(-steps // block.get("stride", 1)))


def _problem(field, value):
    """Why ``value`` does not fit a non-block field, or None if it does."""
    if field.kind == "choice":
        if isinstance(value, str) and value in field.choices:
            return None
        return f"must be one of {list(field.choices)}"
    if field.kind == "numbers":
        low = -math.inf if field.above is None else field.above
        if isinstance(value, list) and value and all(
                is_finite_number(v) and v > low for v in value):
            return None
        sign = "" if field.above is None else "positive "
        return f"must be a nonempty list of {sign}finite numbers"
    if field.kind == "integer" and (isinstance(value, bool)
                                    or not isinstance(value, int)):
        return "must be an integer"
    if field.kind == "number" and not is_finite_number(value):
        return "must be a finite number"
    if field.above is not None and value <= field.above:
        return f"must be > {field.above}"
    if field.minimum is not None and value < field.minimum:
        return f"must be >= {field.minimum}"
    if field.maximum is not None and value > field.maximum:
        return f"must be <= {field.maximum}"
    if field.choices and value not in field.choices:
        return f"must be one of {list(field.choices)}"
    return None


def _resolve(field, value, path, problems):
    """``value`` with every default filled in, or None where it is invalid.

    Each problem is appended to ``problems`` as ``"<dotted path>: <why>"``.
    """
    if field.default is not _REQUIRED and (
            value is _ABSENT or (field.empty_default and value == {})):
        if field.kind != "block" or field.default is None:
            return field.default
        value = field.default
    if field.kind != "block":
        problem = _problem(field, value)
        if problem:
            problems.append(f"{path}: {problem}")
            return None
        if field.kind == "number":
            return float(value)
        if field.kind == "numbers":
            return [float(v) for v in value]
        return value
    if not isinstance(value, dict):
        problems.append(f"{path}: must be a mapping")
        return None
    problems += [f"{path}.{key}: unknown key" for key in value
                 if key not in field.fields]
    missing = [f"{path}.{key}: missing required key"
               for key, sub in field.fields.items()
               if sub.default is _REQUIRED and sub.when is None
               and key not in value]
    if missing:
        problems += missing
        return None
    block = {}
    for key, sub in field.fields.items():
        if sub.when is None or block[sub.when[0]] == sub.when[1]:
            block[key] = _resolve(sub, value.get(key, _ABSENT),
                                  f"{path}.{key}", problems)
    if field.rule:
        field.rule(block, path, problems)
    return block


def _walk(cfg):
    """(problems, resolved config); the config is None unless it is valid."""
    if not isinstance(cfg, dict):
        return ["config: top level must be a mapping"], None
    task = cfg.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        return [f"task: must be one of {list(TASKS)}"], None
    record = _TASKS[task]
    problems = [f"{key}: unknown key" for key in cfg
                if key != "task" and key not in record.blocks]
    resolved = {"task": task}
    for name, field in record.blocks.items():
        if field.default is _REQUIRED and name not in cfg:
            problems.append(f"{name}: missing required block")
        else:
            resolved[name] = _resolve(field, cfg.get(name, _ABSENT), name,
                                      problems)
    if record.rule:  # runs beside the block problems, so both are reported
        record.rule(resolved, problems)
    if not problems:  # sizes are read only from an otherwise valid config
        problems = [f"{key}: keeps {count} elements, over MAX_ARRAY_ELEMENTS = "
                    f"{MAX_ARRAY_ELEMENTS}" for key, count in record.kept(resolved)
                    if count > MAX_ARRAY_ELEMENTS]
    return problems, None if problems else resolved


def validate_config(cfg) -> list[str]:
    """Return the diagnostics of a parsed config; empty means valid.

    These are all its schema violations or, when it has none, every key whose
    size makes the run keep more than ``MAX_ARRAY_ELEMENTS`` elements.
    """
    return _walk(cfg)[0]


def _filled(field, cfg, path):
    """One block resolved through the table; ValueError if it is invalid."""
    problems = []
    block = _resolve(field, _ABSENT if cfg is None else cfg, path, problems)
    if problems:
        raise ValueError("; ".join(problems))
    return block


# ---------------------------------------------------------------------------
# named potential/kinetic library
# ---------------------------------------------------------------------------


def _poly(coeffs):
    """(P, dP/dz) callables of the power series with ``coeffs``, lowest first."""
    import numpy as np

    coeffs = np.asarray(coeffs, dtype=float)
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    return (lambda z: np.polynomial.polynomial.polyval(np.asarray(z), coeffs),
            lambda z: np.polynomial.polynomial.polyval(np.asarray(z), deriv)
            if len(deriv) else np.zeros_like(np.asarray(z, dtype=float)))


def potential_from_config(cfg):
    """(U(x), dU/dx(x)) callables for a named potential block."""
    import numpy as np

    cfg = _filled(_POTENTIAL, cfg, "potential")
    name = cfg["name"]
    if name == "harmonic":
        omega = cfg["omega"]
        return (lambda x: 0.5 * omega ** 2 * np.asarray(x) ** 2,
                lambda x: omega ** 2 * np.asarray(x))
    if name == "quartic":
        a = cfg["strength"]
        # products, not ``x ** 4`` and ``x ** 3``: numpy fast-paths only
        # ``** 2``, and other integer powers of negative x call libm's pow
        return (lambda x: a * np.square(np.square(x)),
                lambda x: 4.0 * a * (np.square(x) * x))
    if name == "softcore":
        depth, width = cfg["depth"], cfg["width"]
        return (lambda x: -depth / np.sqrt(np.asarray(x) ** 2 + width ** 2),
                lambda x: depth * np.asarray(x)
                / (np.asarray(x) ** 2 + width ** 2) ** 1.5)
    if name == "cosine":
        amp = cfg["amplitude"]
        k = 2 * np.pi / cfg["period"]
        return (lambda x: amp * np.cos(k * np.asarray(x)),
                lambda x: -amp * k * np.sin(k * np.asarray(x)))
    if name == "free":
        return (lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return _poly(cfg["coeffs"])


def kinetic_from_config(cfg):
    """(K(p), dK/dp(p)) callables; defaults to p^2/2."""
    import numpy as np

    cfg = _filled(_KINETIC, cfg, "kinetic")
    if cfg["name"] == "free":
        mass = cfg["mass"]
        return (lambda p: np.asarray(p) ** 2 / (2.0 * mass),
                lambda p: np.asarray(p) / mass)
    return _poly(cfg["coeffs"])


def _hamiltonian_spec(cfg, hbar):
    from .stationary import HamiltonianSpec

    u, _ = potential_from_config(cfg["potential"])
    k, _ = kinetic_from_config(cfg["kinetic"])
    return HamiltonianSpec(kinetic=lambda t, p: k(p),
                           potential=lambda t, x: u(x),
                           hbar=hbar, mass=cfg["kinetic"]["mass"],
                           time_independent=True)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _builtin_sha256():
    """The interpreter's own SHA-256 constructor, or None in a build without one.

    No run needs OpenSSL, whose libcrypto ``hashlib`` maps (3.6 MB resident).
    """
    for module in ("_sha2", "_sha256"):  # Python >= 3.12, then 3.10 and 3.11
        try:
            return __import__(module).sha256
        except ImportError:
            pass
    return None


class _OutputSink:
    def __init__(self, directory):
        self.directory = directory
        self.files: list[dict] = []

    def _write(self, name, chunks):
        """Write the byte buffers ``chunks`` to ``name``; list it with their sha256 and size.

        The first buffer is drawn before the file is opened, so a refusal of
        it leaves no file; a later one leaves a partial file, never listed.
        The digest is the interpreter's built-in SHA-256 (see _builtin_sha256).
        """
        sha256 = _builtin_sha256()
        if sha256 is None:  # a build without one
            from hashlib import sha256

        chunks = iter(chunks)
        first = next(chunks, b"")
        digest, size = sha256(), 0
        with open(os.path.join(self.directory, name), "wb") as fh:
            for chunk in chain([first], chunks):
                fh.write(chunk)
                digest.update(chunk)
                size += len(chunk)
        self.files.append({"name": name, "sha256": digest.hexdigest(), "bytes": size})

    @staticmethod
    def _require_finite(name, values):
        import numpy as np

        # NaN and inf reach the min or the max, so no mask of values is made
        if values.size and not np.isfinite([values.min(), values.max()]).all():
            raise FloatingPointError(f"{name} has non-finite values")

    def csv(self, name, header, rows):
        import numpy as np

        rows = list(rows)
        self._require_finite(name, np.asarray(rows, dtype=float))
        # %.17g formats each value as a float, with the 17 digits that round-trip it
        line = ",".join(["%.17g"] * len(header)) + "\n"
        text = ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows)
        self._write(name, [text.encode()])

    def field(self, name, blocks, axes=None, notes=None):
        """Write a float64 field given as blocks that join along axis 0.

        ``blocks`` is an iterable of arrays; an array alone is one block.
        Each block is checked, written and hashed in turn, from its own
        buffer when it is C-order float64, so the field is never held whole.
        """
        import numpy as np

        shape = []

        def chunks():
            for block in [blocks] if isinstance(blocks, np.ndarray) else blocks:
                block = np.ascontiguousarray(block, dtype="<f8")
                self._require_finite(name, block)
                if not shape:
                    shape.extend(block.shape)
                elif list(block.shape[1:]) == shape[1:]:
                    shape[0] += len(block)
                else:
                    raise ValueError(f"{name}: a block of shape {block.shape} "
                                     f"does not join {tuple(shape)}")
                yield memoryview(block).cast("B")

        self._write(name + ".f64", chunks())
        sidecar = {
            "file": name + ".f64",
            "dtype": "float64",
            "byte_order": "little",
            "order": "C",
            "shape": shape,
        }
        if axes:
            sidecar["axes"] = {key: [float(v) for v in values]
                               for key, values in axes.items()}
        if notes:
            sidecar["notes"] = notes
        self._write(name + ".meta.json",
                    [(json.dumps(sidecar, indent=1, sort_keys=True) + "\n").encode()])


# ---------------------------------------------------------------------------
# task runners: each reads a config resolved by _walk, every key present, and
# may return a dict of numerical diagnostics for the manifest.  Each imports
# numpy and the library modules it uses itself, so that ``validate`` loads
# neither and ``run`` loads only what its task needs.
# ---------------------------------------------------------------------------


def _numpy_random():
    """numpy.random, imported so that it binds the built-in hashes where there are any.

    Its bit generators import ``secrets``, whose ``hmac`` imports ``_hashlib``
    and so libcrypto.  While ``_hashlib`` is None in ``sys.modules``, ``hmac``
    and ``hashlib`` fall back to the built-in hashes; the random streams are
    the same.  The block lasts for this one import, and is not set in a
    process that loaded ``_hashlib`` already.
    """
    block = "_hashlib" not in sys.modules and _builtin_sha256() is not None
    if block:
        sys.modules["_hashlib"] = None
    try:
        import numpy.random
    finally:
        if block:
            del sys.modules["_hashlib"]
    return numpy.random


def _grid_and_spec(cfg):
    """(grid, HamiltonianSpec) of a config's ``grid`` and ``hamiltonian`` blocks."""
    from .grids import make_grid

    grid = make_grid(cfg["grid"]["L"], cfg["grid"]["n"], cfg["grid"]["hbar"])
    return grid, _hamiltonian_spec(cfg["hamiltonian"], grid.hbar)


def _run_eigen(cfg, sink):
    from . import stationary as st

    grid, spec = _grid_and_spec(cfg)
    block = cfg["eigen"]
    method = block["method"]
    if method == "spectral":
        h = st.build_spectral_hamiltonian(grid, spec)
        energies = st.eigenvalues(h)
    else:
        u, _ = potential_from_config(cfg["hamiltonian"]["potential"])
        if method == "central":
            h = st.build_fd_hamiltonian(grid, u, method, mass=spec.mass)
            energies = st.eigenvalues(h)
        else:  # triangular: the sorted diagonal, with no matrix built
            energies = st.triangular_fd_energies(grid, u, method, mass=spec.mass)
    n_states = min(block["n_states"], grid.n)
    sink.csv("energies.csv", ("index", "E"),
             [(i, energies[i]) for i in range(n_states)])


def _run_bands(cfg, sink):
    import numpy as np
    from . import stationary as st

    block = cfg["bands"]
    a = block["lattice_constant"]
    spec = _hamiltonian_spec(cfg["hamiltonian"], 1.0)
    ks = np.linspace(-np.pi / a, np.pi / a, block["n_k"])
    bands = st.band_structure(spec, a, block["n_cell"], ks, block["n_bands"])
    nb = bands.shape[1]
    sink.csv("bands.csv", ("k", "n", "E"),
             zip(np.repeat(ks, nb), np.tile(range(nb), len(ks)), bands.ravel()))


def _run_propagate(cfg, sink):
    from . import tdse

    grid, spec = _grid_and_spec(cfg)
    block = cfg["propagate"]
    psi0 = tdse.gaussian_packet(grid, **block["initial"])
    mask = None
    if block["absorber"] is not None:
        mask = tdse.cosine_absorbing_mask(grid, **block["absorber"])
    _, trace = tdse.propagate(psi0, 0.0, block["t_max"], block["dt"], spec,
                              stride=block["stride"], order=block["order"],
                              absorbing_mask=mask)
    sink.csv("trace.csv", _TRACE_COLUMNS, zip(trace.times, trace.x_mean,
                                              trace.p_mean, trace.energy,
                                              trace.norm))


def _run_imagtime(cfg, sink):
    from . import tdse

    grid, spec = _grid_and_spec(cfg)
    block = cfg["imagtime"]
    dtau, tol = block["dtau"], block["tol"]
    energies = []
    states = []
    for n in range(block["n_states"]):
        guess = tdse.gaussian_packet(grid, x0=0.3 * n, sigma=1.0 / (1.0 + 0.3 * n))
        e, psi = tdse.imaginary_time_excited(n, states, guess, dtau, spec, tol)
        energies.append(e)
        states.append(psi)
    sink.csv("energies.csv", ("index", "E"), list(enumerate(energies)))


def _run_gap(cfg, sink):
    from . import tdse

    grid, spec = _grid_and_spec(cfg)
    block = cfg["gap"]
    psi0 = tdse.gaussian_packet(grid, **block["initial"])
    observable = grid.x if block["observable"] == "x" else grid.x ** 2
    gap = tdse.spectral_gap_estimate(psi0, observable, block["dtau"],
                                     block["tau_max"], spec)
    sink.csv("energies.csv", ("index", "E"), [(0, gap)])


def _run_classical(cfg, sink):
    import numpy as np
    from . import classical as cl

    block = cfg["classical"]
    u_fun, du = potential_from_config(block["forces"])
    k_fun, dk = kinetic_from_config(None)
    drive = block["drive"]
    if drive is not None:
        amp, omega = drive["amplitude"], drive["omega"]
        spec = cl.extend_time_dependent(
            lambda p, t: dk(p),
            lambda x, t: du(x) - amp * np.cos(omega * t))
    else:
        spec = cl.ClassicalSpec(dk_dp=lambda p, s: dk(p),
                                du_dx=lambda x, s: du(x))
    cloud = block["cloud"]
    rng = _numpy_random().default_rng(block["seed"])
    n = block["n_particles"]
    x = rng.normal(cloud["x0"], cloud["sigma_x"], n)
    p = rng.normal(cloud["p0"], cloud["sigma_p"], n)
    w = cl.uniform_weights(n)
    # each state becomes its row as it arrives, so no snapshot is kept
    states = chain([(x, p, 0.0)], cl._kick_drift_kick(
        x, p, 0.0, block["dt"], block["n_steps"], spec, block["stride"]))
    sink.csv("trace.csv", _TRACE_COLUMNS, (
        (s, float(np.sum(w * x)), float(np.sum(w * p)),
         float(np.sum(w * (k_fun(p) + u_fun(x)))), float(np.sum(w)))
        for x, p, s in states))


def _run_lindblad(cfg, sink):
    import numpy as np
    from . import open_systems as osys
    from .tdse import SplitStepEngine, gaussian_packet

    grid, spec = _grid_and_spec(cfg)
    block = cfg["lindblad"]
    strength = block["coupling"]["strength"]
    if block["coupling"]["name"] == "linear":
        coupling = lambda x: strength * x
    else:
        coupling = lambda x: np.full_like(np.asarray(x, dtype=float), strength)
    rho = osys.pure_state_density(gaussian_packet(grid, **block["initial"]))
    dt = block["dt"]
    n_steps = step_count(block["t_max"], dt)
    engine = SplitStepEngine(grid, spec)
    u, k = engine.terms()
    dp = grid.p_fft[1] - grid.p_fft[0]
    rows = []

    def record(step, rho):
        px = osys.position_distribution(rho)
        pp = osys.momentum_distribution(rho)
        x_mean = float(np.sum(grid.x * px) * grid.dx)
        p_mean = float(np.sum(grid.p_fft * pp) * dp)
        energy = float(np.sum(k * pp) * dp + np.sum(u * px) * grid.dx)
        rows.append((step * dt, x_mean, p_mean, energy, rho.trace().real))

    record(0, rho)
    g = osys.coupling_factor(grid, coupling, dt)
    states = osys.run_density(engine, rho.values, 0.0, dt, n_steps, g, block["stride"])
    # drop each n x n array once spent: the initial state after the first
    # step has read it, each recorded state but the last, and g at the end
    del rho
    for m, values in states:
        rho = osys.DensityMatrix(values, grid)
        record(m, rho)
        if m < n_steps:
            del rho, values
    del g
    sink.csv("trace.csv", _TRACE_COLUMNS, rows)
    sink.field("field_rho", (rho.values.real[None], rho.values.imag[None]),
               axes={"x": grid.x},
               notes="final density matrix; leading axis = (re, im)")
    return {"steps": n_steps,
            "max_trace_drift": max(abs(row[-1] - 1.0) for row in rows),
            "hermiticity_defect": rho.hermiticity_defect()}


def _run_mcwf(cfg, sink):
    import numpy as np
    from . import open_systems as osys

    _numpy_random()  # mcwf_ensemble seeds its generators from it
    block = cfg["mcwf"]
    h = block["rabi"] * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ops = [np.sqrt(block["decay_rate"])
           * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    psi0 = np.array([0.0, 1.0], dtype=complex)
    times, rhos = osys.mcwf_ensemble(psi0, h, ops, block["dt"], block["t_max"],
                                     block["n_traj"], base_seed=block["seed"],
                                     stride=block["stride"])
    sink.field("field_rho", (rhos.real[None], rhos.imag[None]), axes={"t": times},
               notes="two-level ensemble density; axes (re/im, t, row, col)")


def _run_wigner(cfg, sink):
    from .grids import make_grid
    from .tdse import gaussian_packet
    from .wigner import _wigner_axes, _wigner_rows

    grid = make_grid(cfg["grid"]["L"], cfg["grid"]["n"], cfg["grid"]["hbar"])
    psi = gaussian_packet(grid, **cfg["wigner"]["initial"])
    x, p, _ = _wigner_axes(grid)
    # the field goes to disk block by block as the transform yields it
    sink.field("field_wigner", _wigner_rows(psi), axes={"x": x, "p": p},
               notes="Wigner function W[x, p]")


def _run_expm_bench(cfg, sink):
    import numpy as np
    from .matfunc import expm_pade, expm_taylor

    block = cfg["expm_bench"]
    rng = _numpy_random().default_rng(block["seed"])
    dim = block["dim"]
    rows = []
    for norm in block["norms"]:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (a + a.conj().T) / 2
        a *= norm / np.linalg.norm(a, 1)
        taylor = expm_taylor(a, tol=block["tol"])
        pade = expm_pade(a)
        rows.append((norm, float(taylor.matrix_multiplications),
                     float(pade.matrix_multiplications), float(pade.squarings)))
    sink.field("field_expm_counts", np.asarray(rows, dtype=float),
               notes="columns: norm, taylor_mults, pade_mults, pade_squarings")


# ---------------------------------------------------------------------------
# task table: one record per task
# ---------------------------------------------------------------------------


class _Task(NamedTuple):
    """What a task's config holds, what its run keeps and how it runs.

    ``blocks`` maps each top-level key to its field; an absent task block
    reads as {}, so each of its required keys is reported by name.  ``kept``
    maps a config that is otherwise valid to ``[(config key, elements the run
    keeps because of it)]``.  ``run(cfg, sink)`` executes a resolved config.
    ``rule(cfg, problems)`` checks across blocks; it runs even when a block
    has problems, so it reads the resolved config with ``.get``.
    """

    blocks: dict
    kept: object
    run: object
    rule: object = None


# Kept elements: the n x n matrices of eigen, lindblad, bands cells and
# expm-bench, the (2n, n) Wigner field, the length-n grids (a triangular eigen
# stencil keeps only its diagonal), the imagtime states and the particle and
# trajectory vectors.  A recorded row keeps the 5 values of a trace.csv row, a
# gap sample's tau and ln|<[H, O]>|, an eigen row's index and energy, or re and
# im of an MCWF 2 x 2 density.
_TASKS = {
    "eigen": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "eigen": _block({
            "n_states": _integer(minimum=1),
            "method": _choice("central", "forward", "backward", "spectral",
                              default="spectral"),
        }, default={}),
    }, lambda c: [("grid.n", c["grid"]["n"] ** (
        1 if c["eigen"]["method"] in ("forward", "backward") else 2)),
                  ("eigen.n_states", 2 * min(c["eigen"]["n_states"], c["grid"]["n"]))],
        _run_eigen, rule=_fd_kinetic_rule),
    "bands": _Task({
        "hamiltonian": _HAMILTONIAN,
        "bands": _block({
            "lattice_constant": _POSITIVE,
            "n_cell": _integer(minimum=2),
            "n_bands": _integer(minimum=1),
            "n_k": _integer(minimum=1),
        }, default={}, rule=_bands_rule),
    }, lambda c: [("bands.n_cell", c["bands"]["n_cell"] ** 2),
                  ("bands.n_k", c["bands"]["n_k"] * c["bands"]["n_bands"])],
        _run_bands),
    "propagate": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "propagate": _block({
            "dt": _POSITIVE, "t_max": _POSITIVE,
            "order": _integer(2, choices=(2, 4)),
            "stride": _STRIDE,
            "initial": _INITIAL,
            "absorber": _block({"fraction": _number(0.2, above=0.0,
                                                    maximum=0.49),
                                "power": _number(0.125, above=0.0)},
                               default=None),
        }, default={}, rule=_whole_steps("t_max", "dt")),
    }, lambda c: [("grid.n", c["grid"]["n"]),
                  _series(c, "propagate", "t_max", 5, "dt")],
        _run_propagate),
    "imagtime": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "imagtime": _block({"dtau": _POSITIVE, "tol": _TOL,
                            "n_states": _integer(1, minimum=1)}, default={}),
    }, lambda c: [("grid.n", c["grid"]["n"]),
                  ("imagtime.n_states", c["imagtime"]["n_states"] * c["grid"]["n"])],
        _run_imagtime),
    "gap": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "gap": _block({
            "dtau": _POSITIVE, "tau_max": _POSITIVE,
            "observable": _choice("x", "x2", default="x"),
            "initial": _block(_GAUSSIAN, default={"p0": 1.0},
                              empty_default=True),
        }, default={}, rule=_whole_steps("tau_max", "dtau", minimum=8)),
    }, lambda c: [("grid.n", c["grid"]["n"]),
                  _series(c, "gap", "tau_max", 2, "dtau")],
        _run_gap),
    "classical": _Task({
        "classical": _block({
            "dt": _POSITIVE,
            "n_steps": _integer(minimum=1),
            "n_particles": _integer(minimum=1),
            "seed": _SEED,
            "stride": _STRIDE,
            "cloud": _block({"x0": _number(1.0), "p0": _number(0.0),
                             "sigma_x": _number(0.2, minimum=0.0),
                             "sigma_p": _number(0.2, minimum=0.0)},
                            default={}),
            "forces": _block(_POTENTIAL_FIELDS, default={"name": "harmonic"}),
            "drive": _block({"amplitude": _number(0.0),
                             "omega": _number(1.0)}, default=None),
        }, default={}),
    }, lambda c: [("classical.n_particles", c["classical"]["n_particles"]),
                  _series(c, "classical", "n_steps", 5)],
        _run_classical),
    "lindblad": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "lindblad": _block({
            "dt": _POSITIVE, "t_max": _POSITIVE,
            "stride": _STRIDE,
            "coupling": _block({"name": _choice("linear", "constant"),
                                "strength": _number(0.1)},
                               default={"name": "linear"}),
            "initial": _INITIAL,
        }, default={}, rule=_whole_steps("t_max", "dt")),
    }, lambda c: [("grid.n", c["grid"]["n"] ** 2),
                  _series(c, "lindblad", "t_max", 5, "dt")],
        _run_lindblad),
    "mcwf": _Task({
        "mcwf": _block({
            "dt": _POSITIVE, "t_max": _POSITIVE,
            "n_traj": _integer(minimum=1),
            "seed": _SEED,
            "stride": _STRIDE,
            "decay_rate": _number(1.0, minimum=0.0),
            "rabi": _number(0.0),
        }, default={}, rule=_whole_steps("t_max", "dt")),
    }, lambda c: [("mcwf.n_traj", c["mcwf"]["n_traj"]),
                  _series(c, "mcwf", "t_max", 8, "dt")],
        _run_mcwf),
    "wigner": _Task({
        "grid": _GRID, "hamiltonian": _HAMILTONIAN,
        "wigner": _block({"initial": _INITIAL}, default={}),
    }, lambda c: [("grid.n", 2 * c["grid"]["n"] ** 2)], _run_wigner),
    "expm-bench": _Task({
        "expm_bench": _block({
            "dim": _integer(minimum=2),
            "norms": _Field("numbers", above=0.0),
            "seed": _SEED,
            "tol": _TOL,
        }, default={}),
    }, lambda c: [("expm_bench.dim", c["expm_bench"]["dim"] ** 2)],
        _run_expm_bench),
}
TASKS = tuple(_TASKS)


def _load(config_path, stream, prefix):
    """Read, validate and resolve a config: (exit code, config, resolved).

    Invalid JSON and schema problems go to ``stream`` behind ``prefix``;
    the exit code is 0 only for a readable, valid config.
    """
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4, None, None
    except json.JSONDecodeError as exc:
        print(f"{prefix}config is not valid JSON: {exc}", file=stream)
        return 2, None, None
    problems, resolved = _walk(cfg)
    for problem in problems:
        print(prefix + problem, file=stream)
    if problems:
        return 2, None, None
    return 0, cfg, resolved


def _pin_blas_threads(threads):
    """Set numpy's BLAS and OpenMP pools to ``threads``; returns the pin, or None.

    The pools read their size once, when numpy loads, so the pin is set only
    while numpy is not loaded yet, and then it overrides the environment.
    Once numpy is loaded, ``os.environ`` is left alone and None returned.
    """
    if "numpy" in sys.modules:
        return None
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = str(threads)
    return threads


def run(config_path: str, out_dir: str, threads: int | None = None) -> int:
    """Execute one config; returns a process exit code.

    ``threads`` is the BLAS thread pin in effect, recorded in the manifest;
    None (null) means the run has whatever threading numpy's BLAS has.
    """
    code, cfg, resolved = _load(config_path, sys.stderr, "schema error: ")
    if code:
        return code
    import numpy as np

    started = time.monotonic()
    try:
        os.makedirs(out_dir, exist_ok=True)
        sink = _OutputSink(out_dir)
    except OSError as exc:
        print(f"error: cannot prepare output directory: {exc}", file=sys.stderr)
        return 4
    try:
        # overflow, 0/0 and x/0 in numpy raise FloatingPointError instead of
        # warning and carrying inf or nan into the outputs
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            diagnostics = _TASKS[cfg["task"]].run(resolved, sink)
    except (ConvergenceError, ArithmeticError, ValueError) as exc:
        # ValueError covers HermiticityError and numpy's LinAlgError;
        # ArithmeticError covers overflow, zero division and floating point
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"numerical failure: out of memory: {detail}", file=sys.stderr)
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
    if diagnostics:
        manifest["diagnostics"] = diagnostics
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
    code, _, _ = _load(config_path, sys.stdout, "")
    if code == 0:
        print("ok")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dynkit",
                                     description="batch simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a simulation config")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=int, default=1,
                       help="BLAS and OpenMP threads, set before numpy loads; "
                            "overrides OPENBLAS_NUM_THREADS, OMP_NUM_THREADS "
                            "and MKL_NUM_THREADS")
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        # bounded only where the pin takes effect: see _pin_blas_threads
        cpus = os.cpu_count() or 1
        if args.threads > cpus and "numpy" not in sys.modules:
            print(f"error: --threads must be <= {cpus}, the number of CPUs",
                  file=sys.stderr)
            return 2
        return run(args.config, args.out,
                   threads=_pin_blas_threads(args.threads))
    return validate(args.config)


def entry() -> int:
    """The ``dynkit`` process: main(), then freeze what lives until exit (numpy's
    ~22 000 tracked objects) so the collector's shutdown passes skip it."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
