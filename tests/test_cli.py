import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from dynkit.cli import _OutputSink, main, run, validate, validate_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_eigen_config():
    return {
        "task": "eigen",
        "grid": {"L": 10.0, "n": 512},
        "hamiltonian": {"potential": {"name": "harmonic", "omega": 1.0}},
        "eigen": {"method": "central", "n_states": 3},
    }


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return header, np.asarray(rows)


class TestValidate:
    def test_valid_config_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_eigen_config())
        assert validate(path) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_misspelled_key_named(self, tmp_path, capsys):
        cfg = minimal_eigen_config()
        cfg["eigen"]["n_sates"] = 3
        del cfg["eigen"]["n_states"]
        path = write_config(tmp_path, cfg)
        assert validate(path) == 2
        out = capsys.readouterr().out
        assert "n_sates" in out and "n_states" in out

    def test_out_of_range_dt(self, tmp_path, capsys):
        cfg = {
            "task": "propagate",
            "grid": {"L": 10.0, "n": 64},
            "hamiltonian": {"potential": {"name": "free"}},
            "propagate": {"dt": -0.1, "t_max": 1.0},
        }
        path = write_config(tmp_path, cfg)
        assert validate(path) == 2
        assert "propagate.dt" in capsys.readouterr().out

    def test_unreadable_file(self, tmp_path):
        assert validate(str(tmp_path / "missing.json")) == 4

    def test_unknown_top_level_key(self):
        cfg = minimal_eigen_config()
        cfg["grud"] = {}
        problems = validate_config(cfg)
        assert any("grud" in p for p in problems)

    def test_grid_divisibility_enforced(self):
        cfg = minimal_eigen_config()
        cfg["grid"]["n"] = 510
        problems = validate_config(cfg)
        assert any("grid.n" in p for p in problems)


class TestRun:
    def test_minimal_eigen_run(self, tmp_path):
        path = write_config(tmp_path, minimal_eigen_config())
        out = tmp_path / "out"
        assert run(path, str(out)) == 0
        header, rows = read_csv(out / "energies.csv")
        assert header == ["index", "E"]
        assert abs(rows[0, 1] - 0.5) < 1e-3

    def test_empty_config_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert run(str(path), str(tmp_path / "out")) == 2

    def test_schema_violation_exit_code(self, tmp_path):
        cfg = minimal_eigen_config()
        cfg["eigen"]["method"] = "sideways"
        path = write_config(tmp_path, cfg)
        assert run(path, str(tmp_path / "out")) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # the exact ground state has a vanishing gap commutator; the fit
        # cannot find a decay window and the library error maps to exit 3
        cfg = {
            "task": "gap",
            "grid": {"L": 10.0, "n": 128},
            "hamiltonian": {"potential": {"name": "harmonic", "omega": 1.0}},
            "gap": {"dtau": 0.05, "tau_max": 8.0, "observable": "x",
                    "initial": {"x0": 0.0, "p0": 0.0,
                                "sigma": 0.7071067811865476}},
        }
        path = write_config(tmp_path, cfg)
        assert run(path, str(tmp_path / "out")) == 3

    def test_manifest_lists_outputs_with_checksums(self, tmp_path):
        path = write_config(tmp_path, minimal_eigen_config())
        out = tmp_path / "out"
        assert run(path, str(out)) == 0
        manifest = json.loads((out / "manifest").read_text())
        assert manifest["version"]
        names = {entry["name"] for entry in manifest["outputs"]}
        assert names == {"energies.csv"}
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_lindblad_manifest_reports_diagnostics(self, tmp_path):
        out = tmp_path / "out"
        path = os.path.join(CONFIG_DIR, "lindblad_dephasing.json")
        assert run(path, str(out)) == 0
        diagnostics = json.loads((out / "manifest").read_text())["diagnostics"]
        assert set(diagnostics) == {"steps", "max_trace_drift",
                                    "hermiticity_defect"}
        assert diagnostics["steps"] == 50
        assert 0.0 <= diagnostics["max_trace_drift"] <= 1e-12
        assert 0.0 <= diagnostics["hermiticity_defect"] <= 1e-12

    def test_field_output_roundtrip(self, tmp_path):
        cfg = {
            "task": "wigner",
            "grid": {"L": 8.0, "n": 64},
            "hamiltonian": {"potential": {"name": "harmonic"}},
            "wigner": {"initial": {"sigma": 0.7071067811865476}},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, str(out)) == 0
        meta = json.loads((out / "field_wigner.meta.json").read_text())
        raw = np.frombuffer((out / "field_wigner.f64").read_bytes(),
                            dtype="<f8").reshape(meta["shape"])
        dx = meta["axes"]["x"][1] - meta["axes"]["x"][0]
        dp = meta["axes"]["p"][1] - meta["axes"]["p"][0]
        assert abs(raw.sum() * dx * dp - 1.0) < 1e-8

    def test_main_entry_point(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_eigen_config())
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == 0


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_bundled_configs_validate(name):
    assert validate(os.path.join(CONFIG_DIR, name)) == 0


def _data_checksums(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name == "manifest":
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", ["eigen_oscillator.json",
                                  "classical_driven.json",
                                  "mcwf_decay.json"])
def test_bundled_config_determinism(tmp_path, name):
    config = os.path.join(CONFIG_DIR, name)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run(config, str(first)) == 0
    assert run(config, str(second)) == 0
    assert _data_checksums(first) == _data_checksums(second)


# ---------------------------------------------------------------------------
# defaults: a config that omits every optional key runs exactly like the same
# config with each default written out
# ---------------------------------------------------------------------------

GRID = {"L": 5.0, "n": 32}
GRID_FULL = {"L": 5.0, "n": 32, "hbar": 1.0}
HARMONIC_FULL = {"name": "harmonic", "omega": 1.0, "strength": 1.0,
                 "depth": 1.0, "width": 1.0, "amplitude": 1.0,
                 "period": 2 * np.pi}
HAMILTONIAN = {"potential": {"name": "harmonic"}}
HAMILTONIAN_FULL = {"potential": HARMONIC_FULL,
                    "kinetic": {"name": "free", "mass": 1.0}}
GAUSSIAN_FULL = {"x0": 0.0, "p0": 0.0, "sigma": 1.0}


def _gap_pair(initial, initial_full):
    short = {"dtau": 0.02, "tau_max": 8.0}
    if initial is not None:
        short["initial"] = initial
    return ({"task": "gap", "grid": GRID, "hamiltonian": HAMILTONIAN,
             "gap": short},
            {"task": "gap", "grid": GRID_FULL, "hamiltonian": HAMILTONIAN_FULL,
             "gap": {"dtau": 0.02, "tau_max": 8.0, "observable": "x",
                     "initial": initial_full}})


DEFAULTS = {  # name: (config with defaults omitted, written out, exit code)
    "eigen": (
        {"task": "eigen", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "eigen": {"n_states": 3}},
        {"task": "eigen", "grid": GRID_FULL, "hamiltonian": HAMILTONIAN_FULL,
         "eigen": {"n_states": 3, "method": "spectral"}}, 0),
    "bands": (
        {"task": "bands", "hamiltonian": {"potential": {"name": "cosine"}},
         "bands": {"lattice_constant": 2 * np.pi, "n_cell": 8, "n_bands": 2,
                   "n_k": 3}},
        {"task": "bands",
         "hamiltonian": {"potential": dict(HARMONIC_FULL, name="cosine"),
                         "kinetic": {"name": "free", "mass": 1.0}},
         "bands": {"lattice_constant": 2 * np.pi, "n_cell": 8, "n_bands": 2,
                   "n_k": 3}}, 0),
    "propagate": (
        {"task": "propagate", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "propagate": {"dt": 0.05, "t_max": 0.5}},
        {"task": "propagate", "grid": GRID_FULL,
         "hamiltonian": HAMILTONIAN_FULL,
         "propagate": {"dt": 0.05, "t_max": 0.5, "order": 2, "stride": 1,
                       "initial": GAUSSIAN_FULL}}, 0),
    "propagate_absorber": (
        {"task": "propagate", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "propagate": {"dt": 0.05, "t_max": 0.5, "absorber": {}}},
        {"task": "propagate", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "propagate": {"dt": 0.05, "t_max": 0.5,
                       "absorber": {"fraction": 0.2, "power": 0.125}}}, 0),
    "imagtime": (
        {"task": "imagtime", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "imagtime": {"dtau": 0.05}},
        {"task": "imagtime", "grid": GRID_FULL,
         "hamiltonian": HAMILTONIAN_FULL,
         "imagtime": {"dtau": 0.05, "tol": 1e-12, "n_states": 1}}, 0),
    # absent or empty: boosted to p0 = 1 so the gap commutator is nonzero
    "gap_initial_absent": (*_gap_pair(None, {"x0": 0.0, "p0": 1.0,
                                             "sigma": 1.0}), 0),
    "gap_initial_empty": (*_gap_pair({}, {"x0": 0.0, "p0": 1.0,
                                          "sigma": 1.0}), 0),
    # any other block fills in p0 = 0: a real state, no decay window to fit
    "gap_initial_x0": (*_gap_pair({"x0": 0.4}, {"x0": 0.4, "p0": 0.0,
                                                 "sigma": 1.0}), 3),
    "classical": (
        {"task": "classical",
         "classical": {"dt": 0.05, "n_steps": 20, "n_particles": 8,
                       "seed": 1}},
        {"task": "classical",
         "classical": {"dt": 0.05, "n_steps": 20, "n_particles": 8, "seed": 1,
                       "stride": 1,
                       "cloud": {"x0": 1.0, "p0": 0.0, "sigma_x": 0.2,
                                 "sigma_p": 0.2},
                       "forces": HARMONIC_FULL}}, 0),
    "classical_drive": (
        {"task": "classical",
         "classical": {"dt": 0.05, "n_steps": 20, "n_particles": 8, "seed": 1,
                       "drive": {}}},
        {"task": "classical",
         "classical": {"dt": 0.05, "n_steps": 20, "n_particles": 8, "seed": 1,
                       "drive": {"amplitude": 0.0, "omega": 1.0}}}, 0),
    "lindblad": (
        {"task": "lindblad", "grid": GRID, "hamiltonian": HAMILTONIAN,
         "lindblad": {"dt": 0.01, "t_max": 0.05}},
        {"task": "lindblad", "grid": GRID_FULL,
         "hamiltonian": HAMILTONIAN_FULL,
         "lindblad": {"dt": 0.01, "t_max": 0.05, "stride": 1,
                      "coupling": {"name": "linear", "strength": 0.1},
                      "initial": GAUSSIAN_FULL}}, 0),
    "mcwf": (
        {"task": "mcwf",
         "mcwf": {"dt": 0.02, "t_max": 0.2, "n_traj": 4, "seed": 5}},
        {"task": "mcwf",
         "mcwf": {"dt": 0.02, "t_max": 0.2, "n_traj": 4, "seed": 5,
                  "stride": 1, "decay_rate": 1.0, "rabi": 0.0}}, 0),
    "wigner": (
        {"task": "wigner", "grid": GRID, "hamiltonian": HAMILTONIAN},
        {"task": "wigner", "grid": GRID_FULL, "hamiltonian": HAMILTONIAN_FULL,
         "wigner": {"initial": GAUSSIAN_FULL}}, 0),
    "expm-bench": (
        {"task": "expm-bench",
         "expm_bench": {"dim": 4, "norms": [1.0, 8.0], "seed": 2}},
        {"task": "expm-bench",
         "expm_bench": {"dim": 4, "norms": [1.0, 8.0], "seed": 2,
                        "tol": 1e-12}}, 0),
}


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_omitted_defaults_match_written_out(tmp_path, capsys, name):
    short, full, code = DEFAULTS[name]
    assert validate_config(short) == [] and validate_config(full) == []
    assert run(write_config(tmp_path, short, "short.json"),
               str(tmp_path / "short")) == code
    assert run(write_config(tmp_path, full, "full.json"),
               str(tmp_path / "full")) == code
    short_files = _data_checksums(tmp_path / "short")
    assert short_files == _data_checksums(tmp_path / "full")
    assert bool(short_files) == (code == 0)


# ---------------------------------------------------------------------------
# exit-code contract: rejected at validation, or a one-line numerical failure
# ---------------------------------------------------------------------------


def test_more_bands_than_cells_rejected(tmp_path, capsys):
    cfg = {"task": "bands",
           "hamiltonian": {"potential": {"name": "cosine", "amplitude": 1.0,
                                         "period": 2.0}},
           "bands": {"lattice_constant": 2.0, "n_cell": 2, "n_bands": 3,
                     "n_k": 9}}
    assert validate_config(cfg) == ["bands.n_bands: must be <= n_cell"]
    path = write_config(tmp_path, cfg)
    assert validate(path) == 2
    assert run(path, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == "schema error: bands.n_bands: must be <= n_cell\n"
    cfg["bands"]["n_bands"] = 2
    assert validate_config(cfg) == []


def _shipped_with(name, *keys_and_value):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    *keys, last, value = keys_and_value
    node = cfg
    for key in keys:
        node = node[key]
    node[last] = value
    return cfg


LIBRARY_FAILURES = {
    "omega_overflow": _shipped_with("propagate_coherent.json", "hamiltonian",
                                    "potential", "omega", 1e200),
    "sigma_overflow": _shipped_with("propagate_coherent.json", "propagate",
                                    "initial", "sigma", 1e200),
    "potential_not_finite": _shipped_with("eigen_central_fd.json", "grid", "L",
                                          1e200),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_FAILURES))
def test_library_errors_exit_3(tmp_path, capsys, name):
    path = write_config(tmp_path, LIBRARY_FAILURES[name])
    assert validate(path) == 0
    capsys.readouterr()
    assert run(path, str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    failures = [line for line in err.splitlines()
                if line.startswith("numerical failure: ")]
    assert len(failures) == 1 and "Traceback" not in err
    assert not (tmp_path / "out" / "manifest").exists()


# each of these used to run to exit 0, writing NaN and printing RuntimeWarnings
NON_FINITE_RUNS = {
    "classical_dt": _shipped_with("classical_driven.json", "classical", "dt",
                                  1e200),
    "coupling_strength": _shipped_with("lindblad_dephasing.json", "lindblad",
                                       "coupling", "strength", 1e200),
    "mcwf_rabi": _shipped_with("mcwf_decay.json", "mcwf", "rabi", 1e200),
    "wigner_sigma": _shipped_with("wigner_ground.json", "wigner", "initial",
                                  "sigma", 1e-300),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
def test_non_finite_run_exits_3_without_warnings(tmp_path, capsys, name):
    path = write_config(tmp_path, NON_FINITE_RUNS[name])
    assert validate(path) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(path, str(tmp_path / "out")) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "manifest").exists()


def test_output_sink_refuses_non_finite_data(tmp_path):
    sink = _OutputSink(str(tmp_path))
    with pytest.raises(FloatingPointError, match="field_x has non-finite"):
        sink.field("field_x", np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError, match="trace.csv has non-finite"):
        sink.csv("trace.csv", ("t", "x"), [(0.0, 1.0), (1.0, np.inf)])
    assert sink.files == [] and os.listdir(tmp_path) == []


@pytest.mark.parametrize("name, block", [("propagate_coherent.json", "propagate"),
                                         ("wigner_ground.json", "wigner")])
def test_zero_initial_sigma_rejected(tmp_path, capsys, name, block):
    path = write_config(tmp_path, _shipped_with(name, block, "initial", "sigma",
                                                0.0))
    assert validate(path) == 2
    assert capsys.readouterr().out == f"{block}.initial.sigma: must be > 0.0\n"
    assert run(path, str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# validate_config is total: any JSON value anywhere yields a list of strings
# ---------------------------------------------------------------------------


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _node_paths(value, prefix + (index,))


def _replaced(node, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


def test_validate_config_total_on_mutated_shipped_configs():
    hypothesis = pytest.importorskip("hypothesis")
    hst = hypothesis.strategies
    shipped = []
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            shipped.append(json.load(fh))
    json_values = hst.recursive(
        hst.none() | hst.booleans() | hst.integers() | hst.floats()
        | hst.text(max_size=8),
        lambda inner: hst.lists(inner, max_size=4)
        | hst.dictionaries(hst.text(max_size=8), inner, max_size=4),
        max_leaves=10)

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(hst.data())
    def check(data):
        cfg = data.draw(hst.sampled_from(shipped))
        path = data.draw(hst.sampled_from(list(_node_paths(cfg))))
        problems = validate_config(_replaced(cfg, path, data.draw(json_values)))
        assert isinstance(problems, list)
        assert all(isinstance(problem, str) for problem in problems)

    check()


# ---------------------------------------------------------------------------
# memory budget: sizes whose largest array exceeds MAX_ARRAY_ELEMENTS are
# refused at validation, without allocating anything
# ---------------------------------------------------------------------------


HUGE = 4_000_000_000_000

OVER_BUDGET = {
    "eigen_n": (("eigen_oscillator.json", "grid", "n", HUGE),
                "grid.n: must be <= 2048"),
    "lindblad_n": (("lindblad_dephasing.json", "grid", "n", 2052),
                   "grid.n: must be <= 2048"),
    "wigner_n": (("wigner_ground.json", "grid", "n", 1452),
                 "grid.n: must be <= 1448"),
    "propagate_n": (("propagate_coherent.json", "grid", "n", 2 ** 22 + 4),
                    "grid.n: must be <= 4194304"),
    "bands_n_cell": (("bands_cosine.json", "bands", "n_cell", 2049),
                     "bands.n_cell: must be <= 2048"),
    "bands_n_k": (("bands_cosine.json", "bands", "n_k", HUGE),
                  "bands.n_k: n_k * n_bands must be <= 4194304"),
    "expm_dim": (("expm_bench.json", "expm_bench", "dim", 2049),
                 "expm_bench.dim: must be <= 2048"),
    "classical_n_particles": (("classical_driven.json", "classical",
                               "n_particles", HUGE),
                              "classical.n_particles: must be <= 4194304"),
    "mcwf_n_traj": (("mcwf_decay.json", "mcwf", "n_traj", HUGE),
                    "mcwf.n_traj: must be <= 4194304"),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_over_budget_sizes_rejected_at_validation(tmp_path, capsys, name):
    mutation, message = OVER_BUDGET[name]
    path = write_config(tmp_path, _shipped_with(*mutation))
    assert validate(path) == 2
    assert capsys.readouterr().out == message + "\n"


def test_budget_edges_stay_valid():
    from dynkit.cli import MAX_ARRAY_ELEMENTS

    assert MAX_ARRAY_ELEMENTS == 2 ** 22
    for mutation in [("eigen_oscillator.json", "grid", "n", 2048),
                     ("lindblad_dephasing.json", "grid", "n", 2048),
                     ("wigner_ground.json", "grid", "n", 1448),
                     ("expm_bench.json", "expm_bench", "dim", 2048),
                     ("classical_driven.json", "classical", "n_particles",
                      2 ** 22)]:
        assert validate_config(_shipped_with(*mutation)) == []


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    from dynkit import cli

    def exhausted(cfg, sink):
        raise MemoryError("Unable to allocate 119. TiB")

    monkeypatch.setitem(cli._RUNNERS, "eigen", exhausted)
    path = write_config(tmp_path, minimal_eigen_config())
    assert run(path, str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == (
        "numerical failure: out of memory: Unable to allocate 119. TiB\n")
    assert not (tmp_path / "out" / "manifest").exists()


# ---------------------------------------------------------------------------
# run-level exit codes: every mutated shipped config exits 0, 2, 3 or 4, and
# one that validates never exits 2
# ---------------------------------------------------------------------------


def _leaf_mutations(cfg):
    """Drop each key, and set each number to 0, -1, NaN, a string or a bool."""
    for path in _node_paths(cfg):
        node = cfg
        for key in path:
            node = node[key]
        if path and isinstance(path[-1], str):
            yield f"drop {'.'.join(map(str, path))}", _dropped(cfg, path)
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            for value in (0, -1, float("nan"), "1", True):
                yield (f"{'.'.join(map(str, path))} = {value!r}",
                       _replaced(cfg, path, value))


def _dropped(cfg, path):
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return cfg


def test_mutated_shipped_configs_exit_0_2_3_or_4(tmp_path, capsys):
    from dynkit.cli import TASKS

    cases = []
    for name in sorted(os.listdir(CONFIG_DIR)):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            cfg = json.load(fh)
        cases += [(name, label, mutated)
                  for label, mutated in _leaf_mutations(cfg)]
        cases += [(name, f"task = {task!r}", dict(cfg, task=task))
                  for task in (*TASKS, "nope") if task != cfg["task"]]
    codes = {}
    for i, (name, label, mutated) in enumerate(cases):
        path = write_config(tmp_path, mutated, name=f"case{i}.json")
        out = str(tmp_path / f"out{i}")
        code = run(path, out)
        assert code in (0, 2, 3, 4), (name, label, code)
        if validate_config(mutated) == []:
            assert code != 2, (name, label, capsys.readouterr().err)
        codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # the mutations reach the runners, not only the schema
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0
