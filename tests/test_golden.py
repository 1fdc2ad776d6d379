"""The outputs of the shipped and the seed-1 benchmark configs, held against
committed values.

Each of the configs in ``configs/``, and each config that
``perfbench/workloads.py`` builds for the ``wavepacket``, ``density`` and
``ensemble`` workloads at seed 1, runs once, in-process, and three checks
read what it wrote:

- ``tests/golden/digests.json`` holds the SHA-256 and size of every data
  file (all but the manifest) of every config.  They must match bit for
  bit, but only under the Python, numpy and machine that wrote them
  (``tests/golden/provenance.json``): another numpy's FFTs may round
  differently.  Elsewhere the check is skipped, and says why.
- ``tests/golden/<config>/`` holds each CSV file of a config that writes
  one.  The same files, headers and row counts are required, and every
  value is compared at ``RTOL``/``ATOL``: far inside the acceptance
  tolerances, yet loose enough for another numpy.
- ``tests/golden/fields.json`` holds the shape, sum, min and max of every
  ``.f64`` field, compared at the same tolerances.

The configs in ``PROCESS_RUNS`` write bytes that depend on the BLAS thread
count (a dense eigensolve), so they run as a ``python -m dynkit.cli run``
process, which pins one thread, for the checks and for their golden values.

After a change that moves a number or a bit on purpose, regenerate the
files with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import pytest

from dynkit.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")
GOLDEN_DIR = os.path.join(HERE, "golden")
SRC = os.path.join(HERE, "..", "src")
SHIPPED = sorted(f[:-len(".json")] for f in os.listdir(CONFIG_DIR)
                 if f.endswith(".json"))
_spec = spec_from_file_location(
    "perfbench_workloads", os.path.join(HERE, "..", "perfbench", "workloads.py"))
workloads = module_from_spec(_spec)
_spec.loader.exec_module(workloads)
WORKLOADS = ("wavepacket", "density", "ensemble")
SEED = 1
NAMES = SHIPPED + [name for workload in WORKLOADS
                   for name, _ in workloads.GENERATORS[workload](SEED)]
PROCESS_RUNS = ("eigen_spectral_n512",)
RTOL, ATOL = 1e-12, 1e-14


def _configs(directory):
    """name -> config path of every name in NAMES; the workload configs are
    written into ``directory``."""
    configs = {name: os.path.join(CONFIG_DIR, name + ".json") for name in SHIPPED}
    for workload in WORKLOADS:
        for name, path, _ in workloads.build(workload, SEED, CONFIG_DIR, directory):
            configs[name] = path
    return configs


def _run(name, path, out):
    """Run the config at ``path`` into ``out``; returns the data files it wrote."""
    if name in PROCESS_RUNS:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "dynkit.cli", "run", path,
                               "--out", out], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    else:
        assert run(path, out) == 0, name
    return sorted(f for f in os.listdir(out) if f != "manifest")


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return header, np.array(rows)


def _digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _field_summary(out, f64):
    with open(os.path.join(out, f64[:-len(".f64")] + ".meta.json")) as fh:
        shape = json.load(fh)["shape"]
    values = np.fromfile(os.path.join(out, f64), dtype="<f8").reshape(shape)
    return {"shape": shape, "sum": float(values.sum()),
            "min": float(values.min()), "max": float(values.max())}


def _load(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


def _provenance():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each config run once: name -> (its output directory, its data files)."""
    root = tmp_path_factory.mktemp("golden")
    runs = {}
    for name, path in _configs(str(root)).items():
        out = str(root / name)
        runs[name] = out, _run(name, path, out)
    return runs


def test_every_config_has_golden_digests():
    assert len(set(NAMES)) == len(NAMES) == 23
    assert sorted(_load("digests.json")) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_data_files_match_the_golden_digests(outputs, name):
    written = _load("provenance.json")
    if written != _provenance():
        pytest.skip(f"digests written under {written}, running under {_provenance()}")
    out, files = outputs[name]
    golden = _load("digests.json")[name]
    assert files == sorted(golden), name
    for f in files:
        assert _digest(os.path.join(out, f)) == golden[f], f"{name}/{f}"


@pytest.mark.parametrize("name", NAMES)
def test_csv_outputs_match_the_golden_values(outputs, name):
    out, files = outputs[name]
    written = [f for f in files if f.endswith(".csv")]
    golden_dir = os.path.join(GOLDEN_DIR, name)
    assert written == (sorted(os.listdir(golden_dir)) if os.path.isdir(golden_dir) else [])
    for csv in written:
        header, got = _read_csv(os.path.join(out, csv))
        golden_header, golden = _read_csv(os.path.join(GOLDEN_DIR, name, csv))
        assert header == golden_header, f"{name}/{csv}"
        assert got.shape == golden.shape, f"{name}/{csv}"
        np.testing.assert_allclose(got, golden, rtol=RTOL, atol=ATOL,
                                   err_msg=f"{name}/{csv}")


def test_field_summaries_match_the_golden_values(outputs):
    golden = _load("fields.json")
    got = {f"{name}/{f}": _field_summary(out, f)
           for name, (out, files) in outputs.items() for f in files
           if f.endswith(".f64")}
    assert sorted(got) == sorted(golden)
    for key, summary in got.items():
        assert summary["shape"] == golden[key]["shape"], key
        for stat in ("sum", "min", "max"):
            np.testing.assert_allclose(summary[stat], golden[key][stat],
                                       rtol=RTOL, atol=ATOL,
                                       err_msg=f"{key} {stat}")


def _dump(name, data):
    with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _regenerate():
    digests, fields = {}, {}
    with tempfile.TemporaryDirectory() as root:
        for name, path in _configs(root).items():
            out = os.path.join(root, name)
            files = _run(name, path, out)
            digests[name] = {f: _digest(os.path.join(out, f)) for f in files}
            fields.update({f"{name}/{f}": _field_summary(out, f)
                           for f in files if f.endswith(".f64")})
            target = os.path.join(GOLDEN_DIR, name)
            shutil.rmtree(target, ignore_errors=True)
            csvs = [f for f in files if f.endswith(".csv")]
            if csvs:
                os.makedirs(target)
            for f in csvs:
                shutil.copy(os.path.join(out, f), target)
            shutil.rmtree(out)
    _dump("digests.json", digests)
    _dump("fields.json", fields)
    _dump("provenance.json", _provenance())


if __name__ == "__main__":
    _regenerate()
