"""The CSV outputs of the shipped configs that draw no random numbers, held
against committed values.

``tests/golden/<config>/`` holds each CSV file that ``dynkit run`` wrote for
the configs in ``CONFIGS``, and ``tests/golden/provenance.json`` the Python
and numpy that wrote them.  Each test runs its config in-process, requires
the same files, headers and row counts, and compares every value at
``RTOL``/``ATOL``: far inside the acceptance tolerances, yet loose enough for
another numpy's FFTs to round differently.  After a change that moves a
number on purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

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
CONFIGS = ("bands_cosine", "eigen_central_fd", "eigen_oscillator",
           "gap_oscillator", "imagtime_ladder", "lindblad_dephasing",
           "propagate_coherent")
RTOL, ATOL = 1e-12, 1e-14


def _run(name, out):
    """Run configs/<name>.json into ``out``; returns the CSV files it wrote."""
    assert run(os.path.join(CONFIG_DIR, name + ".json"), out) == 0, name
    return sorted(f for f in os.listdir(out) if f.endswith(".csv"))


def _read(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    return header, np.array(rows)


@pytest.mark.parametrize("name", CONFIGS)
def test_csv_outputs_match_the_golden_values(tmp_path, name):
    written = _run(name, str(tmp_path))
    assert written == sorted(os.listdir(os.path.join(GOLDEN_DIR, name)))
    for csv in written:
        header, got = _read(tmp_path / csv)
        golden_header, golden = _read(os.path.join(GOLDEN_DIR, name, csv))
        assert header == golden_header, f"{name}/{csv}"
        assert got.shape == golden.shape, f"{name}/{csv}"
        np.testing.assert_allclose(got, golden, rtol=RTOL, atol=ATOL,
                                   err_msg=f"{name}/{csv}")


def _regenerate():
    for name in CONFIGS:
        target = os.path.join(GOLDEN_DIR, name)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        with tempfile.TemporaryDirectory() as out:
            for csv in _run(name, out):
                shutil.copy(os.path.join(out, csv), target)
    provenance = {"python": platform.python_version(),
                  "numpy": np.__version__, "machine": platform.machine()}
    with open(os.path.join(GOLDEN_DIR, "provenance.json"), "w") as fh:
        json.dump(provenance, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
