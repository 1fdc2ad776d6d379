"""Span tracing of dynkit from outside the package, and the per-layer metrics.

The tracer replaces, by name, every public function of the dynkit modules in
every dynkit namespace that holds it (``split_op_step`` sits in both ``tdse``
and ``open_systems``, ``expm_pade`` in ``matfunc``, ``open_systems`` and
``cli``), plus ``numpy.fft.fft``/``ifft``, the output sink's writers and the
callables the CLI builds for named potentials and kinetics.  Each call
becomes a span (name, start, end, parent, tag) kept in memory and written
when the run ends; nothing under ``src/`` is modified.

Run as a script it stands in for the ``dynkit`` command:

    python3 perfbench/tracing.py SPANS.json run CONFIG --out DIR
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

#: dynkit modules, one layer each
LAYERS = ("grids", "tdse", "open_systems", "wigner", "stationary", "matfunc",
          "classical", "cli")


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, tag]
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, tag=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if tag is not None:
            span[4] = tag(args, kwargs, result)
        return result

    def wrap(self, name, fn, tag=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, tag)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)


def load_spans(path):
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    return [(names[i], start, end, parent, tag)
            for i, start, end, parent, tag in data["spans"]]


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _tags(mods):
    """Per-call quantities recorded as the span tag, keyed by span name."""
    mcwf_args = _bound(mods["open_systems"].mcwf_ensemble)

    def traj_steps(args, kwargs, result):
        a = mcwf_args(args, kwargs)
        return a["n_traj"] * int(round(a["t_max"] / a["dt"]))

    mults = lambda args, kwargs, result: result.matrix_multiplications
    return {
        "open_systems.lindblad_x_step":
            lambda args, kwargs, result: result.values.shape[0],
        "open_systems.mcwf_ensemble": traj_steps,
        "matfunc.expm_pade": mults,
        "matfunc.expm_taylor": mults,
    }


def _written_bytes(directory, names):
    return sum(os.path.getsize(os.path.join(directory, n)) for n in names)


def install(tracer: Tracer):
    """Wrap dynkit and numpy.fft in place for the rest of the process."""
    import numpy as np
    import dynkit

    mods = {layer: importlib.import_module(f"dynkit.{layer}") for layer in LAYERS}
    namespaces = [dynkit, *mods.values()]
    tags = _tags(mods)
    cli = mods["cli"]

    def traced_factory(fn):
        # callbacks built per config are re-evaluated every step
        def factory(*args, **kwargs):
            return tuple(tracer.wrap("cli.callback", f) for f in fn(*args, **kwargs))
        return factory

    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            inner = traced_factory(fn) if attr in ("potential_from_config",
                                                   "kinetic_from_config") else fn
            traced = tracer.wrap(name, inner, tags.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)

    points = lambda args, kwargs, result: np.asarray(args[0]).size
    for attr in ("fft", "ifft"):
        setattr(np.fft, attr, tracer.wrap("numpy.fft", getattr(np.fft, attr), points))

    sink = cli._OutputSink
    csv_bytes = lambda args, kwargs, result: _written_bytes(args[0].directory,
                                                            [args[1]])
    field_bytes = lambda args, kwargs, result: _written_bytes(
        args[0].directory, [args[1] + ".f64", args[1] + ".meta.json"])
    sink.csv = tracer.wrap("cli.write", sink.csv, csv_bytes)
    sink.field = tracer.wrap("cli.write", sink.field, field_bytes)
    return mods


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _outermost(spans, names):
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    inside = [False] * len(spans)
    keep = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        under = parent >= 0 and inside[parent]
        inside[i] = under or name in names
        if name in names and not under:
            keep.append(i)
    return keep


def _under(spans, names):
    """For every span, whether some ancestor is named in ``names``."""
    below = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            below[i] = below[parent] or spans[parent][0] in names
    return below


OBSERVABLES = ("tdse.position_mean", "tdse.momentum_mean",
               "tdse.energy_expectation")
IMAGTIME = ("tdse.imaginary_time_ground", "tdse.imaginary_time_excited")


class _Run:
    """Queries over the spans of one traced ``dynkit run``."""

    def __init__(self, spans):
        self.spans = spans
        self.own = self_times(spans)

    def calls(self, *names):
        return sum(1 for s in self.spans if s[0] in names)

    def inclusive(self, *names):
        """Time inside the named spans, nested repeats counted once."""
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in _outermost(self.spans, set(names)))

    def self_s(self, *names):
        return sum(t for s, t in zip(self.spans, self.own) if s[0] in names)

    def tags(self, name):
        return sum(s[4] for s in self.spans if s[0] == name)

    def calls_under(self, name, ancestors):
        below = _under(self.spans, set(ancestors))
        return sum(1 for s, b in zip(self.spans, below) if b and s[0] == name)


#: per-layer metric -> (unit, its value for one run), summed over a pass
SUMMED = {
    "grids.fft_bridge.calls": ("count", lambda r: r.calls("grids.fft_bridge")),
    "grids.ifft_bridge.calls": ("count", lambda r: r.calls("grids.ifft_bridge")),
    "grids.bridge.self_s":
        ("s", lambda r: r.self_s("grids.fft_bridge", "grids.ifft_bridge")),
    "fft.calls": ("count", lambda r: r.calls("numpy.fft")),
    "fft.points": ("count", lambda r: r.tags("numpy.fft")),
    "tdse.split_op_step.calls": ("count", lambda r: r.calls("tdse.split_op_step")),
    "tdse.split_op_step.self_s": ("s", lambda r: r.self_s("tdse.split_op_step")),
    "tdse.observables.calls": ("count", lambda r: r.calls(*OBSERVABLES)),
    "tdse.observables.s": ("s", lambda r: r.inclusive(*OBSERVABLES)),
    "tdse.imagtime.iterations":
        ("count", lambda r: r.calls_under("tdse.split_op_step", IMAGTIME)),
    "tdse.propagate.s": ("s", lambda r: r.inclusive("tdse.propagate")),
    "tdse.imaginary_time.s": ("s", lambda r: r.inclusive(*IMAGTIME)),
    "tdse.spectral_gap_estimate.s":
        ("s", lambda r: r.inclusive("tdse.spectral_gap_estimate")),
    "open_systems.lindblad_x_step.calls":
        ("count", lambda r: r.calls("open_systems.lindblad_x_step")),
    "open_systems.lindblad_x_step.self_s":
        ("s", lambda r: r.self_s("open_systems.lindblad_x_step")),
    "open_systems.momentum_distribution.calls":
        ("count", lambda r: r.calls("open_systems.momentum_distribution")),
    "open_systems.momentum_distribution.s":
        ("s", lambda r: r.inclusive("open_systems.momentum_distribution")),
    "open_systems.mcwf_ensemble.s":
        ("s", lambda r: r.inclusive("open_systems.mcwf_ensemble")),
    "wigner.wigner_from_density.s":
        ("s", lambda r: r.inclusive("wigner.wigner_from_density")),
    "stationary.build_spectral_hamiltonian.s":
        ("s", lambda r: r.inclusive("stationary.build_spectral_hamiltonian")),
    "stationary.eigensolve.s": ("s", lambda r: r.inclusive("stationary.eigensolve")),
    "stationary.band_structure.s":
        ("s", lambda r: r.inclusive("stationary.band_structure")),
    "matfunc.expm_pade.calls": ("count", lambda r: r.calls("matfunc.expm_pade")),
    "matfunc.expm_pade.s": ("s", lambda r: r.inclusive("matfunc.expm_pade")),
    "matfunc.expm_pade.mults": ("count", lambda r: r.tags("matfunc.expm_pade")),
    "matfunc.expm_taylor.s": ("s", lambda r: r.inclusive("matfunc.expm_taylor")),
    "matfunc.expm_taylor.mults": ("count", lambda r: r.tags("matfunc.expm_taylor")),
    "classical.verlet_step.calls": ("count", lambda r: r.calls("classical.verlet_step")),
    "classical.verlet_step.self_s": ("s", lambda r: r.self_s("classical.verlet_step")),
    "classical.propagate_ensemble.s":
        ("s", lambda r: r.inclusive("classical.propagate_ensemble")),
    "cli.validate_config.s": ("s", lambda r: r.inclusive("cli.validate_config")),
    "cli.callbacks.calls": ("count", lambda r: r.calls("cli.callback")),
    "cli.callbacks.s": ("s", lambda r: r.inclusive("cli.callback")),
    "cli.write.s": ("s", lambda r: r.inclusive("cli.write")),
    "cli.write.bytes": ("count", lambda r: r.tags("cli.write")),
}

LINDBLAD_SIZES = (256, 512)

#: every per-layer metric from the traced pass -> unit
UNITS = {name: unit for name, (unit, _) in SUMMED.items()}
UNITS.update({f"open_systems.lindblad_x_step.ms_per_call.n{n}": "ms"
              for n in LINDBLAD_SIZES})
UNITS["open_systems.mcwf.us_per_traj_step"] = "us"


def layer_metrics(span_lists) -> dict:
    """Per-layer metrics of one pass, from its span lists (one per config)."""
    total = dict.fromkeys(UNITS, 0.0)
    lindblad = defaultdict(lambda: [0, 0.0])  # n -> [calls, seconds]
    traj_steps = 0
    for spans in span_lists:
        run = _Run(spans)
        for name, (_, value) in SUMMED.items():
            total[name] += value(run)
        for name, start, end, _, tag in spans:
            if name == "open_systems.lindblad_x_step":
                lindblad[tag][0] += 1
                lindblad[tag][1] += end - start
            elif name == "open_systems.mcwf_ensemble":
                traj_steps += tag
    for n in LINDBLAD_SIZES:
        calls, seconds = lindblad.get(n, (0, 0.0))
        total[f"open_systems.lindblad_x_step.ms_per_call.n{n}"] = \
            1e3 * seconds / calls if calls else 0.0
    if traj_steps:
        total["open_systems.mcwf.us_per_traj_step"] = \
            1e6 * total["open_systems.mcwf_ensemble.s"] / traj_steps
    return total


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    mods = install(tracer)
    try:
        code = mods["cli"].main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
