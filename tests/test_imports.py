"""What each dynkit command imports, and the lazily resolved package names.

The footprint tests run ``python -m dynkit.cli`` in a fresh interpreter
(through ``runpy``, as ``-m`` does) and list ``sys.modules`` when it exits.
"""

import ast
import graphlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import dynkit

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(dynkit.__file__)))

# the public names the package root imported eagerly before it resolved them
# on first use, by defining submodule
EXPORTED = {
    "grids": "HamiltonianSpec SpectralSignal UniformGrid cft_forward "
             "cft_forward_custom cft_inverse frft make_grid",
    "matfunc": "ExpmReport expm_pade expm_taylor func_of_hermitian",
    "stationary": "SpectrumResult band_structure "
                  "build_fd_hamiltonian build_spectral_hamiltonian eigensolve "
                  "find_spectral_peaks spectrum_via_propagation",
    "tdse": "EvolutionTrace PauliHamiltonianSpec SpinorWaveFunction "
            "SplitStepEngine WaveFunction apply_absorbing_boundary "
            "compute_uncertainty gaussian_packet imaginary_time_ground "
            "pauli_split_op_step propagate spectral_gap_estimate "
            "split_op_step",
    "classical": "ClassicalEnsemble ClassicalSpec ehrenfest_series "
                 "multi_dim_verlet_step propagate_ensemble verlet_step",
    "open_systems": "DensityMatrix RateMatrix "
                    "dissipator_split fermi_dirac_rates gibbs_density "
                    "gibbs_rates lindblad_propagate lindblad_superoperator "
                    "lindblad_x_step mcwf_ensemble mcwf_trajectory "
                    "pauli_master_solve pure_state_density "
                    "random_collision_step",
    "wigner": "MoleculeSpec TwoStateWigner WignerFunction density_from_wigner "
              "moyal_two_state_step wigner_from_density wigner_marginals",
}
NAMES = [(module, name) for module, names in EXPORTED.items()
         for name in names.split()]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


# runs the CLI as ``python -m dynkit.cli ARGS`` does, then prints its exit
# code and every loaded module as the last line of standard output
_CLI_THEN_MODULES = """
import json, runpy, sys
sys.argv[0] = "dynkit"
try:
    runpy.run_module("dynkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _cli(*args):
    """(exit code, CLI stdout, loaded module names) of ``dynkit ARGS``."""
    proc = _python("-c", _CLI_THEN_MODULES, *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *out, last = proc.stdout.splitlines()
    code, modules = json.loads(last)
    return code, out, set(modules)


def _numpy(modules):
    return sorted(m for m in modules if m.split(".")[0] == "numpy")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_validate_imports_no_numpy(name):
    code, out, modules = _cli("validate", os.path.join(CONFIG_DIR, name))
    assert (code, out) == (0, ["ok"])
    assert "dynkit.steps" in modules
    assert _numpy(modules) == []


def test_validate_refuses_a_foreign_parameter_without_numpy(tmp_path):
    with open(os.path.join(CONFIG_DIR, "propagate_coherent.json")) as fh:
        cfg = json.load(fh)
    cfg["hamiltonian"]["potential"]["depth"] = 5
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(cfg))
    code, out, modules = _cli("validate", str(path))
    assert (code, out) == (
        2, ["hamiltonian.potential.depth: not a parameter of harmonic"])
    assert _numpy(modules) == []


def test_bare_package_import_loads_no_submodule():
    proc = _python("-c", "import json, sys, dynkit; print(json.dumps(sorted("
                         "m for m in sys.modules if m.split('.')[0] in "
                         "('dynkit', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["dynkit"]


# the library modules each shipped config's run loads, besides dynkit.cli,
# dynkit.errors and dynkit.steps
TASK_MODULES = {
    "bands_cosine.json": "stationary grids matfunc",
    "classical_driven.json": "classical",
    "eigen_central_fd.json": "stationary grids matfunc",
    "eigen_oscillator.json": "stationary grids matfunc",
    "expm_bench.json": "matfunc",
    "gap_oscillator.json": "tdse grids",
    "imagtime_ladder.json": "tdse grids",
    "lindblad_dephasing.json": "open_systems tdse grids matfunc",
    "mcwf_decay.json": "open_systems tdse grids matfunc",
    "propagate_coherent.json": "tdse grids",
    "wigner_ground.json": "wigner tdse grids",
}


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_run_imports_only_its_task_modules(tmp_path, name):
    code, _, modules = _cli("run", os.path.join(CONFIG_DIR, name),
                            "--out", str(tmp_path / "out"))
    assert code == 0
    assert "numpy" in modules
    loaded = {m for m in modules if m.startswith("dynkit.")} - {"dynkit.cli"}
    expected = {"errors", "steps", *TASK_MODULES[name].split()}
    assert sorted(loaded) == sorted(f"dynkit.{m}" for m in expected)


def _internal_imports(path, modules):
    """The dynkit modules that the source file ``path`` imports, function-local
    imports included; ``__init__`` stands for the package itself."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    names = []  # every imported name, made absolute
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to dynkit, which has no subpackages
                base = f"dynkit.{base}".rstrip(".")
            names += [f"{base}.{a.name}" for a in node.names]
    found = set()
    for name in names:
        top, _, rest = name.partition(".")
        if top == "dynkit":
            module = rest.split(".")[0]
            found.add(module if module in modules else "__init__")
    return found


def test_module_import_graph_has_no_cycle():
    package = os.path.dirname(dynkit.__file__)
    modules = {f[:-3] for f in os.listdir(package) if f.endswith(".py")}
    graph = {m: _internal_imports(os.path.join(package, f"{m}.py"), modules)
             for m in modules}
    # function-local imports count: stationary's SplitStepEngine import
    assert {"grids", "matfunc", "steps", "tdse"} <= graph["stationary"]
    assert {"__init__", "errors", "steps"} <= graph["cli"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# (module, name): why a public name with neither an export nor a reader in
# the package stays
UNREAD = {}


def _reads(package, modules):
    """{(module, name)} of what the package's modules read from one another:
    a name loaded in its own module, a name imported from a module, or an
    attribute of a module imported under some name."""
    reads = set()
    for module in modules:
        with open(os.path.join(package, f"{module}.py")) as fh:
            tree = ast.parse(fh.read())
        bound = {}  # local name -> the dynkit module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        bound[alias.asname or alias.name] = alias.name
                    else:
                        reads.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((module, node.id))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in bound):
                reads.add((bound[node.value.id], node.attr))
    return reads


def test_every_public_definition_is_exported_or_read_in_the_package():
    package = os.path.dirname(dynkit.__file__)
    reads = _reads(package, [f[:-3] for f in os.listdir(package)
                             if f.endswith(".py")])
    unread = set()
    for module in dynkit._EXPORTS:
        with open(os.path.join(package, f"{module}.py")) as fh:
            body = ast.parse(fh.read()).body
        unread |= {(module, node.name) for node in body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and node.name not in dynkit.__all__
                   and (module, node.name) not in reads}
    # a test-only helper belongs in its test; a stale exemption goes too
    assert sorted(unread) == sorted(UNREAD)


@pytest.mark.parametrize("module, name", NAMES)
def test_exported_names_resolve_to_submodule_objects(module, name):
    assert getattr(dynkit, name) is getattr(
        importlib.import_module(f"dynkit.{module}"), name)


def test_all_and_dir_list_every_exported_name():
    assert sorted(dynkit.__all__) == sorted(name for _, name in NAMES)
    assert {name for _, name in NAMES} <= set(dir(dynkit))
    assert {"cli", "tdse", "wigner", "__version__"} <= set(dir(dynkit))
    # every other public name of the package is one of its submodules
    submodules = {m.name for m in pkgutil.iter_modules(dynkit.__path__)}
    public = {name for name in dir(dynkit) if not name.startswith("_")}
    assert public - set(dynkit.__all__) - submodules == set()


def test_submodules_resolve_as_attributes():
    for module in (*EXPORTED, "cli", "errors", "steps"):
        assert getattr(dynkit, module) is importlib.import_module(
            f"dynkit.{module}")


def test_unknown_attribute_loads_nothing():
    code = """
import sys, dynkit
try:
    dynkit.no_such_name
except AttributeError as exc:
    message = str(exc)
else:
    sys.exit("no AttributeError")
assert not hasattr(dynkit, "numpy"), "hasattr found numpy"
from dynkit import cli
print(message)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "module 'dynkit' has no attribute 'no_such_name'", "[]"]


def test_hamiltonian_spec_is_defined_once():
    from dynkit import grids, open_systems, stationary, tdse

    assert stationary.HamiltonianSpec is grids.HamiltonianSpec
    assert tdse.HamiltonianSpec is grids.HamiltonianSpec
    assert open_systems.HamiltonianSpec is grids.HamiltonianSpec


def test_step_helpers_are_shared():
    from dynkit import classical, open_systems, steps, tdse

    assert tdse.step_count is steps.step_count
    assert tdse.require_step is steps.require_step
    assert classical.require_step is steps.require_step
    assert open_systems.step_count is steps.step_count
