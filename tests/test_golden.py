"""The outputs of the shipped configs, held against committed values.

Each of the configs in ``configs/`` runs once, in-process, and three checks
read what it wrote:

- ``tests/golden/digests.json`` holds the SHA-256 and size of every data
  file (all but the manifest) of every config.  They must match bit for
  bit, but only under the Python, numpy and machine that wrote them
  (``tests/golden/provenance.json``): another numpy's FFTs may round
  differently.  Elsewhere the check is skipped, and says why.
- ``tests/golden/<config>/`` holds each CSV file of the configs in
  ``CSV_CONFIGS``.  The same files, headers and row counts are required,
  and every value is compared at ``RTOL``/``ATOL``: far inside the
  acceptance tolerances, yet loose enough for another numpy.
- ``tests/golden/fields.json`` holds the shape, sum, min and max of every
  ``.f64`` field, compared at the same tolerances.

After a change that moves a number or a bit on purpose, regenerate the
files with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import platform
import shutil
import tempfile

import numpy as np
import pytest

from dynkit.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "..", "configs")
GOLDEN_DIR = os.path.join(HERE, "golden")
SHIPPED = sorted(f[:-len(".json")] for f in os.listdir(CONFIG_DIR)
                 if f.endswith(".json"))
CSV_CONFIGS = ("bands_cosine", "classical_driven", "eigen_central_fd",
               "eigen_oscillator", "gap_oscillator", "imagtime_ladder",
               "lindblad_dephasing", "propagate_coherent")
RTOL, ATOL = 1e-12, 1e-14


def _run(name, out):
    """Run configs/<name>.json into ``out``; returns the data files it wrote."""
    assert run(os.path.join(CONFIG_DIR, name + ".json"), out) == 0, name
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
    """Each shipped config run once: name -> (its output directory, its data files)."""
    root = tmp_path_factory.mktemp("golden")
    runs = {}
    for name in SHIPPED:
        out = str(root / name)
        runs[name] = out, _run(name, out)
    return runs


def test_every_shipped_config_has_golden_digests():
    assert sorted(_load("digests.json")) == SHIPPED


@pytest.mark.parametrize("name", SHIPPED)
def test_data_files_match_the_golden_digests(outputs, name):
    written = _load("provenance.json")
    if written != _provenance():
        pytest.skip(f"digests written under {written}, running under {_provenance()}")
    out, files = outputs[name]
    golden = _load("digests.json")[name]
    assert files == sorted(golden), name
    for f in files:
        assert _digest(os.path.join(out, f)) == golden[f], f"{name}/{f}"


@pytest.mark.parametrize("name", CSV_CONFIGS)
def test_csv_outputs_match_the_golden_values(outputs, name):
    out, files = outputs[name]
    written = [f for f in files if f.endswith(".csv")]
    assert written == sorted(os.listdir(os.path.join(GOLDEN_DIR, name)))
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
    for name in SHIPPED:
        with tempfile.TemporaryDirectory() as out:
            files = _run(name, out)
            digests[name] = {f: _digest(os.path.join(out, f)) for f in files}
            fields.update({f"{name}/{f}": _field_summary(out, f)
                           for f in files if f.endswith(".f64")})
            if name in CSV_CONFIGS:
                target = os.path.join(GOLDEN_DIR, name)
                shutil.rmtree(target, ignore_errors=True)
                os.makedirs(target)
                for f in files:
                    if f.endswith(".csv"):
                        shutil.copy(os.path.join(out, f), target)
    _dump("digests.json", digests)
    _dump("fields.json", fields)
    _dump("provenance.json", _provenance())


if __name__ == "__main__":
    _regenerate()
