import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dynkit.cli import (_OutputSink, _pin_blas_threads, main, run, validate,
                        validate_config)

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


def test_every_task_has_a_shipped_config():
    # CI runs every shipped config twice, so this puts every task's runner
    # under its byte-identical rerun check
    from dynkit.cli import TASKS

    tasks = set()
    for name in os.listdir(CONFIG_DIR):
        if name.endswith(".json"):
            with open(os.path.join(CONFIG_DIR, name)) as fh:
                tasks.add(json.load(fh)["task"])
    assert tasks == set(TASKS)


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
HARMONIC_FULL = {"name": "harmonic", "omega": 1.0}
COSINE_FULL = {"name": "cosine", "amplitude": 1.0, "period": 2 * np.pi}
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
         "hamiltonian": {"potential": COSINE_FULL,
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
    # the gap's p0 defaults to 1, so the gap commutator is nonzero whether
    # the initial block is absent, empty or partial
    "gap_initial_absent": (*_gap_pair(None, {"x0": 0.0, "p0": 1.0,
                                             "sigma": 1.0}), 0),
    "gap_initial_empty": (*_gap_pair({}, {"x0": 0.0, "p0": 1.0,
                                          "sigma": 1.0}), 0),
    "gap_initial_x0": (*_gap_pair({"x0": 0.4}, {"x0": 0.4, "p0": 1.0,
                                                 "sigma": 1.0}), 0),
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
# memory budget: sizes that make a run keep more than MAX_ARRAY_ELEMENTS
# elements are refused at validation, without allocating anything
# ---------------------------------------------------------------------------


HUGE = 4_000_000_000_000
OVER = " elements, over MAX_ARRAY_ELEMENTS = 4194304"


def _eigen_fd(method, n):
    """``eigen_central_fd.json`` with another stencil or method and grid size."""
    cfg = _shipped_with("eigen_central_fd.json", "eigen", "method", method)
    cfg["grid"]["n"] = n
    return cfg


OVER_BUDGET = {
    "eigen_n": (_shipped_with("eigen_oscillator.json", "grid", "n", HUGE),
                "grid.n: keeps 16000000000000000000000000" + OVER),
    # the dense methods keep the n x n Hamiltonian, the triangular stencils
    # only length-n arrays
    "eigen_central_n": (_eigen_fd("central", 4096),
                        "grid.n: keeps 16777216" + OVER),
    "eigen_spectral_n": (_eigen_fd("spectral", 4096),
                         "grid.n: keeps 16777216" + OVER),
    "eigen_forward_n": (_eigen_fd("forward", 2 ** 22 + 4),
                        "grid.n: keeps 4194308" + OVER),
    "lindblad_n": (_shipped_with("lindblad_dephasing.json", "grid", "n", 2052),
                   "grid.n: keeps 4210704" + OVER),
    "wigner_n": (_shipped_with("wigner_ground.json", "grid", "n", 1452),
                 "grid.n: keeps 4216608" + OVER),
    "propagate_n": (_shipped_with("propagate_coherent.json", "grid", "n",
                                  2 ** 22 + 4),
                    "grid.n: keeps 4194308" + OVER),
    "bands_n_cell": (_shipped_with("bands_cosine.json", "bands", "n_cell", 2049),
                     "bands.n_cell: keeps 4198401" + OVER),
    "bands_n_k": (_shipped_with("bands_cosine.json", "bands", "n_k", HUGE),
                  "bands.n_k: keeps 12000000000000" + OVER),
    "expm_dim": (_shipped_with("expm_bench.json", "expm_bench", "dim", 2049),
                 "expm_bench.dim: keeps 4198401" + OVER),
    "classical_n_particles": (_shipped_with("classical_driven.json",
                                            "classical", "n_particles", HUGE),
                              "classical.n_particles: keeps 4000000000000"
                              + OVER),
    "mcwf_n_traj": (_shipped_with("mcwf_decay.json", "mcwf", "n_traj", HUGE),
                    "mcwf.n_traj: keeps 4000000000000" + OVER),
}


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_over_budget_sizes_rejected_at_validation(tmp_path, capsys, name):
    cfg, message = OVER_BUDGET[name]
    path = write_config(tmp_path, cfg)
    assert validate(path) == 2
    assert capsys.readouterr().out == message + "\n"


def test_budget_edges_stay_valid():
    from dynkit.cli import MAX_ARRAY_ELEMENTS

    assert MAX_ARRAY_ELEMENTS == 2 ** 22
    for cfg in [_shipped_with("eigen_oscillator.json", "grid", "n", 2048),
                _shipped_with("lindblad_dephasing.json", "grid", "n", 2048),
                _shipped_with("wigner_ground.json", "grid", "n", 1448),
                _shipped_with("expm_bench.json", "expm_bench", "dim", 2048),
                _shipped_with("classical_driven.json", "classical",
                              "n_particles", 2 ** 22),
                _eigen_fd("forward", 4096), _eigen_fd("backward", 4096),
                _eigen_fd("forward", 2 ** 22), _eigen_fd("backward", 2 ** 22)]:
        assert validate_config(cfg) == []


def test_eigen_budget_counts_the_written_rows(tmp_path, capsys):
    # each energies.csv row keeps its index and energy, 2 values: at n = 2**22
    # with a triangular stencil 2**21 rows fit and one more does not
    cfg = _eigen_fd("forward", 2 ** 22)
    cfg["eigen"]["n_states"] = 2 ** 21
    assert validate_config(cfg) == []
    cfg["eigen"]["n_states"] += 1
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == "eigen.n_states: keeps 4194306" + OVER + "\n"
    # at most n rows are written, however many states are asked for
    cfg = _eigen_fd("backward", 4096)
    cfg["eigen"]["n_states"] = HUGE
    assert validate_config(cfg) == []
    # a dense config already over budget in grid.n also reports its rows
    cfg = _eigen_fd("central", 2 ** 22)
    cfg["eigen"]["n_states"] = 2 ** 21 + 1
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == ("grid.n: keeps 17592186044416" + OVER + "\n"
                                       "eigen.n_states: keeps 4194306" + OVER + "\n")


@pytest.mark.parametrize("method", ["forward", "backward"])
def test_triangular_eigen_runs_above_the_dense_edge(tmp_path, capsys, method):
    # n = 4096 keeps 4096 elements here, where a dense method keeps 16777216
    path = write_config(tmp_path, _eigen_fd(method, 4096))
    assert validate(path) == 0
    assert capsys.readouterr().out == "ok\n"
    assert run(path, str(tmp_path / "out")) == 0
    _, rows = read_csv(tmp_path / "out" / "energies.csv")
    assert len(rows) == 4 and np.all(np.diff(rows[:, 1]) >= 0)


def test_imagtime_budget_counts_every_kept_state(tmp_path, capsys):
    # the runner keeps every converged state: 1000 states of 2**22 points
    # would take 64 GiB
    cfg = _shipped_with("imagtime_ladder.json", "grid", "n", 2 ** 22)
    cfg["imagtime"]["n_states"] = 1000
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == (
        "imagtime.n_states: keeps 4194304000" + OVER + "\n")
    # n_states * n == 2**22 fits; one more state does not
    cfg["grid"]["n"], cfg["imagtime"]["n_states"] = 2 ** 12, 2 ** 10
    assert validate(write_config(tmp_path, cfg)) == 0
    assert capsys.readouterr().out == "ok\n"
    cfg["imagtime"]["n_states"] += 1
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == (
        "imagtime.n_states: keeps 4198400" + OVER + "\n")


def test_sizes_are_checked_only_once_the_schema_holds(tmp_path, capsys):
    cfg = _shipped_with("lindblad_dephasing.json", "grid", "n", 4096)
    cfg["lindblad"]["dt"] = -1
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == "lindblad.dt: must be > 0.0\n"
    cfg["lindblad"]["dt"] = 0.01
    assert validate(write_config(tmp_path, cfg)) == 2
    assert capsys.readouterr().out == "grid.n: keeps 16777216" + OVER + "\n"


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    from dynkit import cli

    def exhausted(cfg, sink):
        raise MemoryError("Unable to allocate 119. TiB")

    monkeypatch.setitem(cli._TASKS, "eigen",
                        cli._TASKS["eigen"]._replace(run=exhausted))
    path = write_config(tmp_path, minimal_eigen_config())
    assert run(path, str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == (
        "numerical failure: out of memory: Unable to allocate 119. TiB\n")
    assert not (tmp_path / "out" / "manifest").exists()


def test_absorber_fraction_above_its_bound_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, _shipped_with("propagate_coherent.json", "propagate",
                                                "absorber", {"fraction": 0.5}))
    message = "propagate.absorber.fraction: must be <= 0.49"
    assert validate(path) == 2
    assert capsys.readouterr().out == message + "\n"
    assert run(path, str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"schema error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_builder_refuses_a_bad_parameter_by_its_path():
    from dynkit.cli import potential_from_config

    with pytest.raises(ValueError, match=r"^potential\.omega: must be a finite number$"):
        potential_from_config({"name": "harmonic", "omega": "fast"})


def _out_below_a_file(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "out"


def _writer_fails(tmp_path, monkeypatch):
    def full(self, name, chunks):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(_OutputSink, "_write", full)
    return tmp_path / "out"


def _manifest_not_replaced(tmp_path, monkeypatch):
    # the tests run as root, so a read-only directory would not refuse it
    def refused(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refused)
    return tmp_path / "out"


#: (the output directory a failure is set up for, the one line run prints)
IO_FAILURES = {
    "out_below_a_file": (_out_below_a_file,
                         "error: cannot prepare output directory: [Errno 20] "
                         "Not a directory: "),
    "writer_fails": (_writer_fails, "i/o failure: [Errno 28] No space left on device"),
    "manifest_not_replaced": (_manifest_not_replaced,
                              "i/o failure: [Errno 13] Permission denied"),
}


@pytest.mark.parametrize("name", sorted(IO_FAILURES))
def test_io_failures_exit_4_with_one_line(tmp_path, capsys, monkeypatch, name):
    setup, line = IO_FAILURES[name]
    path = write_config(tmp_path, minimal_eigen_config())
    out = setup(tmp_path, monkeypatch)
    assert run(path, str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "manifest").exists()


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


# ---------------------------------------------------------------------------
# recorded series: a run keeps every recorded row until it writes them, so the
# rows times the values each keeps are bounded by MAX_ARRAY_ELEMENTS, from the
# config alone at validation
# ---------------------------------------------------------------------------


OVER_LONG = {
    "propagate": (("propagate_coherent.json", "propagate", "dt", 1e-8),
                  "propagate.t_max: keeps 100000005" + OVER),
    "gap": (("gap_oscillator.json", "gap", "dtau", 1e-8),
            "gap.tau_max: keeps 1600000002" + OVER),
    "lindblad": (("lindblad_dephasing.json", "lindblad", "dt", 1e-8),
                 "lindblad.t_max: keeps 50000005" + OVER),
    "mcwf": (("mcwf_decay.json", "mcwf", "dt", 1e-8),
             "mcwf.t_max: keeps 160000008" + OVER),
    "classical": (("classical_driven.json", "classical", "n_steps", 10 ** 9),
                  "classical.n_steps: keeps 500000005" + OVER),
}


@pytest.mark.parametrize("name", sorted(OVER_LONG))
def test_over_long_series_rejected_at_validation(tmp_path, capsys, name):
    mutation, message = OVER_LONG[name]
    path = write_config(tmp_path, _shipped_with(*mutation))
    assert validate(path) == 2
    assert capsys.readouterr().out == message + "\n"


# (config, block, steps key, step key or None, values per row, stride)
SERIES = [("propagate_coherent.json", "propagate", "t_max", "dt", 5, 1),
          ("propagate_coherent.json", "propagate", "t_max", "dt", 5, 10),
          ("gap_oscillator.json", "gap", "tau_max", "dtau", 2, None),
          ("lindblad_dephasing.json", "lindblad", "t_max", "dt", 5, 1),
          ("lindblad_dephasing.json", "lindblad", "t_max", "dt", 5, 7),
          ("mcwf_decay.json", "mcwf", "t_max", "dt", 8, 1),
          ("mcwf_decay.json", "mcwf", "t_max", "dt", 8, 3),
          ("classical_driven.json", "classical", "n_steps", None, 5, 1),
          ("classical_driven.json", "classical", "n_steps", None, 5, 10)]


@pytest.mark.parametrize("name,block,steps_key,dt_key,per_row,stride", SERIES,
                         ids=[f"{s[1]}-stride{s[5]}" for s in SERIES])
def test_series_budget_edges(name, block, steps_key, dt_key, per_row, stride):
    from dynkit.cli import MAX_ARRAY_ELEMENTS

    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    if stride is not None:
        cfg[block]["stride"] = stride
    # the most steps whose 1 + ceil(steps / stride) rows fit the budget
    most = (MAX_ARRAY_ELEMENTS // per_row - 1) * (stride or 1)
    for steps, valid in ((most, True), (most + 1, False)):
        if dt_key is None:
            cfg[block][steps_key] = steps
        else:
            cfg[block][dt_key], cfg[block][steps_key] = 1.0, float(steps)
        assert (validate_config(cfg) == []) is valid, (steps, validate_config(cfg))


def test_shipped_and_workload_configs_fit_the_series_budget(tmp_path):
    import importlib.util

    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                         "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = []
    for workload in workloads.NAMES:
        for seed in (1, 2):
            out = tmp_path / f"{workload}{seed}"
            out.mkdir()
            configs += [cfg for _, _, cfg in
                        workloads.build(workload, seed, CONFIG_DIR, str(out))]
    assert len(configs) > 2 * len(os.listdir(CONFIG_DIR))
    for cfg in configs:
        assert validate_config(cfg) == []


def test_poly_builder_values_and_derivatives():
    from dynkit.cli import _poly

    z = np.linspace(-2.0, 2.0, 9)
    value, slope = _poly(np, [1.0, -2.0, 0.5, 0.25])
    assert np.allclose(value(z), 1.0 - 2.0 * z + 0.5 * z ** 2 + 0.25 * z ** 3,
                       rtol=1e-14, atol=1e-14)
    assert np.allclose(slope(z), -2.0 + z + 0.75 * z ** 2, rtol=1e-14, atol=1e-14)
    value, slope = _poly(np, [2.5])  # a constant has no derivative coefficients
    assert np.array_equal(value(z), np.full_like(z, 2.5))
    assert np.array_equal(slope(z), np.zeros_like(z))
    assert slope(3).shape == ()


def test_named_potentials_and_kinetics_match_closed_forms():
    from dynkit.cli import kinetic_from_config, potential_from_config

    x = np.linspace(-3.0, 3.0, 13)
    u, du = potential_from_config({"name": "softcore", "depth": 2.0,
                                   "width": 0.5})
    assert np.allclose(u(x), -2.0 / np.sqrt(x ** 2 + 0.25), rtol=1e-14)
    assert np.allclose(du(x), 2.0 * x / (x ** 2 + 0.25) ** 1.5,
                       rtol=1e-14, atol=1e-15)
    # the closed form of the derivative agrees with a central difference
    h = 1e-5
    assert np.allclose(du(x), (u(x + h) - u(x - h)) / (2 * h), atol=1e-8)
    u, du = potential_from_config({"name": "free"})
    assert np.array_equal(u(x), np.zeros_like(x))
    assert np.array_equal(du(x), np.zeros_like(x))
    u, du = potential_from_config({"name": "poly", "coeffs": [0.0, 1.0, 3.0]})
    assert np.allclose(u(x), x + 3.0 * x ** 2, rtol=1e-14, atol=1e-14)
    assert np.allclose(du(x), 1.0 + 6.0 * x, rtol=1e-14, atol=1e-14)
    k, dk = kinetic_from_config({"name": "free", "mass": 2.0})
    assert np.allclose(k(x), x ** 2 / 4.0, rtol=1e-15)
    assert np.allclose(dk(x), x / 2.0, rtol=1e-15)
    k, dk = kinetic_from_config({"name": "poly", "coeffs": [0.0, 0.0, 0.5]})
    assert np.allclose(k(x), 0.5 * x ** 2, rtol=1e-15)
    assert np.allclose(dk(x), x, rtol=1e-15)


def test_eigen_with_poly_potential_gives_harmonic_energies(tmp_path):
    cfg = minimal_eigen_config()
    cfg["hamiltonian"]["potential"] = {"name": "poly", "coeffs": [0, 0, 0.5]}
    cfg["eigen"] = {"method": "spectral", "n_states": 4}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    _, rows = read_csv(out / "energies.csv")
    assert np.allclose(rows[:, 1], [0.5, 1.5, 2.5, 3.5], atol=1e-9)


def test_classical_run_keeps_no_snapshots(tmp_path):
    import tracemalloc

    def peak(stride):
        cfg = {"task": "classical",
               "classical": {"dt": 0.01, "n_steps": 500, "seed": 7,
                             "n_particles": 2 ** 14, "stride": stride,
                             "drive": {"amplitude": 0.3, "omega": 1.6}}}
        path = write_config(tmp_path, cfg, f"classical{stride}.json")
        tracemalloc.start()
        try:
            assert run(path, str(tmp_path / f"out{stride}")) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(500)  # warm-up: imports and first-call caches
    sparse, dense = peak(500), peak(10)
    # 51 kept snapshots of 2 ** 14 particles would add about 13 MiB
    assert dense < 1.5 * sparse, (sparse, dense)


def _workload_configs(workload, seed, out):
    import importlib.util

    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                         "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {name: cfg for name, _, cfg in
            workloads.build(workload, seed, CONFIG_DIR, str(out))}


def test_eigen_energies_match_the_full_eigensolve(tmp_path):
    from dynkit.cli import _grid_and_spec, _walk
    from dynkit.stationary import (build_fd_hamiltonian,
                                   build_spectral_hamiltonian, eigensolve)

    configs = {}
    for name in ("eigen_central_fd", "eigen_oscillator"):
        with open(os.path.join(CONFIG_DIR, name + ".json")) as fh:
            configs[name] = json.load(fh)
    configs["eigen_spectral_n512"] = _workload_configs(
        "density", 1, tmp_path)["eigen_spectral_n512"]
    methods = set()
    for name, cfg in configs.items():
        out = tmp_path / name
        assert run(write_config(tmp_path, cfg, name + ".json"), str(out)) == 0
        _, rows = read_csv(out / "energies.csv")
        problems, resolved = _walk(cfg)
        assert problems == []
        grid, spec = _grid_and_spec(resolved)
        method = resolved["eigen"]["method"]
        methods.add(method)
        if method == "spectral":
            h = build_spectral_hamiltonian(grid, spec)
        else:
            h = build_fd_hamiltonian(grid, lambda x: spec.potential(0.0, x),
                                     method,
                                     mass=resolved["hamiltonian"]["kinetic"]["mass"])
        energies = eigensolve(h, dx=grid.dx).energies
        assert len(rows) == min(resolved["eigen"]["n_states"], grid.n)
        assert np.array_equal(rows[:, 0], np.arange(len(rows)))
        assert np.max(np.abs(rows[:, 1] - energies[:len(rows)])) <= 1e-10
    assert methods == {"spectral", "central"}


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CONFIG_DIR)
                                        if f.endswith(".json")))
def test_every_shipped_manifest_matches_the_files_on_disk(tmp_path, name):
    out = tmp_path / "out"
    assert run(os.path.join(CONFIG_DIR, name), str(out)) == 0
    manifest = json.loads((out / "manifest").read_text())
    names = [entry["name"] for entry in manifest["outputs"]]
    assert sorted(names) == sorted(set(os.listdir(out)) - {"manifest"})
    for entry in manifest["outputs"]:
        data = (out / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("method", ["forward", "backward"])
@pytest.mark.parametrize("n", [64, 128, 512])
def test_triangular_stencil_energies_equal_the_general_eigensolve(tmp_path, method, n):
    from dynkit.cli import _grid_and_spec, _walk, potential_from_config
    from dynkit.stationary import build_fd_hamiltonian

    cfg = minimal_eigen_config()
    cfg["grid"]["n"] = n
    cfg["hamiltonian"]["potential"] = {"name": "softcore", "depth": 2.0}
    cfg["eigen"] = {"method": method, "n_states": n}
    out = tmp_path / "out"
    assert run(write_config(tmp_path, cfg), str(out)) == 0
    _, rows = read_csv(out / "energies.csv")
    resolved = _walk(cfg)[1]
    u, _ = potential_from_config(resolved["hamiltonian"]["potential"])
    h = build_fd_hamiltonian(_grid_and_spec(resolved)[0], u, method)
    reference = np.sort(np.linalg.eigvals(h).real)
    assert rows[:, 1].tobytes() == reference.tobytes()


@pytest.mark.parametrize("method", ["central", "forward", "backward"])
def test_finite_differences_refuse_a_poly_kinetic(tmp_path, capsys, method):
    cfg = minimal_eigen_config()
    cfg["eigen"]["method"] = method
    cfg["hamiltonian"]["kinetic"] = {"name": "poly", "coeffs": [0, 0, 2]}
    cfg["grid"]["n"] = 30  # reported alongside the other schema problems
    assert validate(write_config(tmp_path, cfg)) == 2
    out = capsys.readouterr().out
    assert "grid.n: must be divisible by 4" in out
    assert f"hamiltonian.kinetic.name: must be 'free' for eigen.method '{method}'" in out
    cfg["grid"]["n"] = 32
    cfg["eigen"]["method"] = "spectral"
    assert validate(write_config(tmp_path, cfg)) == 0


# ---------------------------------------------------------------------------
# named families: each potential, kinetic and coupling name takes its own
# parameters only, and a key its builder would not read is refused
# ---------------------------------------------------------------------------


FOREIGN = {  # case: (config, the schema errors it exits 2 with)
    "harmonic_depth_period": (
        _shipped_with("propagate_coherent.json", "hamiltonian", "potential",
                      {"name": "harmonic", "omega": 1.0, "depth": 5.0,
                       "period": 3.0}),
        ["hamiltonian.potential.depth: not a parameter of harmonic",
         "hamiltonian.potential.period: not a parameter of harmonic"]),
    "harmonic_coeffs": (
        _shipped_with("propagate_coherent.json", "hamiltonian", "potential",
                      {"name": "harmonic", "omega": 1.0, "coeffs": [0, 0, 7]}),
        ["hamiltonian.potential.coeffs: not a parameter of harmonic"]),
    "forces_strength": (
        _shipped_with("classical_driven.json", "classical", "forces",
                      {"name": "harmonic", "omega": 1.0, "strength": 2.0}),
        ["classical.forces.strength: not a parameter of harmonic"]),
    "poly_kinetic_mass": (
        _shipped_with("propagate_coherent.json", "hamiltonian", "kinetic",
                      {"name": "poly", "coeffs": [0, 0, 0.5], "mass": 2.0}),
        ["hamiltonian.kinetic.mass: not a parameter of poly"]),
    "coupling_omega": (
        _shipped_with("lindblad_dephasing.json", "lindblad", "coupling",
                      {"name": "constant", "strength": 0.3, "omega": 1.0}),
        ["lindblad.coupling.omega: not a parameter of constant"]),
}


@pytest.mark.parametrize("name", sorted(FOREIGN))
def test_foreign_parameter_refused_naming_it(tmp_path, capsys, name):
    cfg, messages = FOREIGN[name]
    path = write_config(tmp_path, cfg)
    assert validate(path) == 2
    assert capsys.readouterr().out == "".join(m + "\n" for m in messages)
    assert run(path, str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "".join(
        f"schema error: {m}\n" for m in messages)
    assert not (tmp_path / "out" / "manifest").exists()


@pytest.mark.parametrize("block", [{"name": ["harmonic"]}, {"name": {"a": 1}},
                                   {"name": 1.0}, {"name": None}, {"omega": 1.0}],
                         ids=["list", "mapping", "number", "null", "absent"])
def test_named_block_without_a_known_name_refused(block):
    cfg = _shipped_with("propagate_coherent.json", "hamiltonian", "potential",
                        block)
    assert validate_config(cfg) == [
        "hamiltonian.potential.name: must be one of ['harmonic', 'quartic', "
        "'softcore', 'cosine', 'free', 'poly']"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_blas_pin_is_set_only_before_numpy_loads(monkeypatch):
    for key in BLAS_THREAD_VARS:
        monkeypatch.setenv(key, "7")
    assert _pin_blas_threads(4096) is None  # numpy is loaded in this process
    assert all(os.environ[key] == "7" for key in BLAS_THREAD_VARS)
    # hidden only while the pin runs, which imports nothing
    monkeypatch.delitem(sys.modules, "numpy")
    assert _pin_blas_threads(4096) == 4096
    assert all(os.environ[key] == "4096" for key in BLAS_THREAD_VARS)


def test_in_process_run_records_no_pin(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path, minimal_eigen_config()),
                 "--out", str(out), "--threads", "4096"]) == 0
    assert json.loads((out / "manifest").read_text())["threads"] is None
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"


def test_eigen_bytes_do_not_depend_on_the_environment_thread_count(tmp_path):
    # two OpenBLAS threads change the last bits of eigvalsh at n = 512
    cfg = _workload_configs("density", 1, tmp_path)["eigen_spectral_n512"]
    path = write_config(tmp_path, cfg)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-m", "dynkit.cli", "run", path,
                        "--out", str(out)], env=env, check=True)
        assert json.loads((out / "manifest").read_text())["threads"] == 1
        outputs[threads] = _data_checksums(out)
    assert outputs["1"] == outputs["2"]


def test_threads_above_the_cpu_count_are_refused_before_numpy_loads(
        tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, minimal_eigen_config())
    for key in BLAS_THREAD_VARS:
        monkeypatch.setenv(key, "7")
    started = []
    # no run, pool or second numpy import is started, whatever main decides
    monkeypatch.setattr("dynkit.cli.run",
                        lambda config, out, threads: started.append(threads) or 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # hidden as in a fresh `dynkit run` process; the check imports nothing
    monkeypatch.delitem(sys.modules, "numpy")
    for threads in ("3", "99999"):
        assert main(["run", path, "--out", str(tmp_path / "o"),
                     "--threads", threads]) == 2
        assert "--threads must be <= 2, the number of CPUs" in capsys.readouterr().err
    assert started == [] and "numpy" not in sys.modules
    assert all(os.environ[key] == "7" for key in BLAS_THREAD_VARS)
    assert main(["run", path, "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
    assert started == [2]


# ---------------------------------------------------------------------------
# the process entry: `python -m dynkit.cli` and the installed `dynkit` script
# freeze the heap once main returns; in-process callers see no difference
# ---------------------------------------------------------------------------

# runs the CLI as ``python -m dynkit.cli ARGS`` does, then prints its exit
# code and the collector's state as the last line of standard output
_CLI_THEN_GC = """
import gc, json, runpy, sys
sys.argv[0] = "dynkit"
try:
    runpy.run_module("dynkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count(), gc.isenabled()]))
"""


def _process(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(CONFIG_DIR, "..", "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"dynkit": "dynkit.cli:entry"}


@pytest.mark.parametrize("command", ["validate", "run"])
def test_process_entry_freezes_the_heap_on_exit(tmp_path, command):
    args = [command, os.path.join(CONFIG_DIR, "propagate_coherent.json")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    proc = _process("-c", _CLI_THEN_GC, *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, frozen, enabled = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and frozen > 0 and enabled


def test_in_process_calls_leave_the_collector_alone(tmp_path, capsys):
    config = os.path.join(CONFIG_DIR, "propagate_coherent.json")
    assert main(["validate", config]) == 0
    assert main(["run", config, "--out", str(tmp_path / "main")]) == 0
    assert validate(config) == 0
    assert run(config, str(tmp_path / "run")) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()


@pytest.mark.parametrize("name", ["propagate_coherent.json", "wigner_ground.json"])
def test_process_run_writes_the_in_process_bytes(tmp_path, name):
    config = os.path.join(CONFIG_DIR, name)
    proc = _process("-m", "dynkit.cli", "run", config, "--out", str(tmp_path / "process"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert main(["run", config, "--out", str(tmp_path / "in_process")]) == 0
    assert _data_checksums(tmp_path / "process") == _data_checksums(tmp_path / "in_process")


def test_process_exits_print_the_in_process_messages(tmp_path, capsys):
    bad_schema = minimal_eigen_config()
    bad_schema["eigen"]["method"] = "sideways"
    # the exact ground state leaves the gap fit no decay window (exit 3)
    no_gap = {"task": "gap", "grid": {"L": 10.0, "n": 128},
              "hamiltonian": {"potential": {"name": "harmonic", "omega": 1.0}},
              "gap": {"dtau": 0.05, "tau_max": 8.0, "observable": "x",
                      "initial": {"x0": 0.0, "p0": 0.0,
                                  "sigma": 0.7071067811865476}}}
    schema = write_config(tmp_path, bad_schema, "schema.json")
    gap = write_config(tmp_path, no_gap, "gap.json")
    missing = str(tmp_path / "missing.json")
    cases = [(2, ["validate", schema]), (2, ["run", schema, "--out", str(tmp_path / "a")]),
             (2, ["run", schema, "--out", str(tmp_path / "b"), "--threads", "0"]),
             (2, ["run", schema]),  # argparse: --out is required
             (3, ["run", gap, "--out", str(tmp_path / "c")]),
             (4, ["validate", missing]), (4, ["run", missing, "--out", str(tmp_path / "d")])]
    for code, args in cases:
        try:
            in_process = main(args)
        except SystemExit as exc:
            in_process = exc.code
        expected = capsys.readouterr()
        proc = _process("-m", "dynkit.cli", *args)
        assert in_process == proc.returncode == code, args
        assert (proc.stdout, proc.stderr) == (expected.out, expected.err), args
        assert expected.out or expected.err, args
