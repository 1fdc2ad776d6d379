"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's test suite does not
collect it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dynkit import cli  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, None),
        ("a.child", 2.0, 3.0, 1, None),
        ("b", 3.5, 6.0, 0, None),     # overlaps a: the union counts once
        ("c", 9.0, 12.0, 0, None),    # runs past root: clipped to it
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_count_outermost_and_imagtime_steps():
    spans = [
        ("tdse.imaginary_time_ground", 0.0, 4.0, -1, None),
        ("tdse.split_op_step", 0.0, 1.0, 0, None),
        ("grids.fft_bridge", 0.1, 0.4, 1, None),
        ("numpy.fft", 0.2, 0.3, 2, 256),
        ("tdse.split_op_step", 1.0, 2.0, 0, None),
        ("tdse.split_op_step", 5.0, 6.0, -1, None),
        ("tdse.energy_expectation", 6.0, 7.0, -1, None),
    ]
    m = tracing.layer_metrics([spans])
    assert m["tdse.split_op_step.calls"] == 3
    assert m["tdse.imagtime.iterations"] == 2
    assert m["tdse.imaginary_time.s"] == pytest.approx(4.0)
    assert m["tdse.split_op_step.self_s"] == pytest.approx(2.7)
    assert m["grids.bridge.self_s"] == pytest.approx(0.2)
    assert (m["fft.calls"], m["fft.points"]) == (1, 256)
    assert m["tdse.observables.calls"] == 1


@pytest.fixture(scope="module")
def eigen_run(tmp_path_factory):
    """One real ``dynkit run`` of a small oscillator spectrum."""
    base = tmp_path_factory.mktemp("eigen")
    cfg = {"task": "eigen", "grid": {"L": 10.0, "n": 128},
           "hamiltonian": {"potential": {"name": "harmonic"}},
           "eigen": {"method": "spectral", "n_states": 4}}
    path = base / "eigen.json"
    path.write_text(json.dumps(cfg))
    out = base / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return cfg, str(out)


def _copy(out, tmp_path):
    dest = str(tmp_path / "copy")
    shutil.copytree(out, dest)
    return dest


def test_clean_run_passes(eigen_run):
    cfg, out = eigen_run
    assert checks.check_run(cfg, out, checks.file_digests(out)) == []


def test_flipped_byte_is_a_failure(eigen_run, tmp_path):
    cfg, out = eigen_run
    first = checks.file_digests(out)
    copy = _copy(out, tmp_path)
    path = os.path.join(copy, "energies.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 0x01
    open(path, "wb").write(bytes(data))
    problems = checks.check_run(cfg, copy, first)
    assert any("differ from the first run" in p for p in problems)
    assert any("manifest checksums" in p for p in problems)


def test_perturbed_energy_is_a_failure(eigen_run, tmp_path):
    cfg, out = eigen_run
    copy = _copy(out, tmp_path)
    path = os.path.join(copy, "energies.csv")
    lines = open(path).read().splitlines()
    index, energy = lines[1].split(",")
    lines[1] = f"{index},{float(energy) + 1e-5!r}"
    open(path, "w").write("\n".join(lines) + "\n")
    problems = checks.check_run(cfg, copy)
    assert any("oscillator ladder error" in p for p in problems)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_generated_config_validates(workload, tmp_path, capsys):
    for seed in (0, 12345):
        for name, path, _ in workloads.build(workload, seed,
                                             os.path.join(ROOT, "configs"),
                                             str(tmp_path)):
            assert cli.main(["validate", path]) == 0, name
            assert capsys.readouterr().out.strip() == "ok", name


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "shipped", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


def test_benchmark_json_matches_what_run_reports():
    import run
    import sweep

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = dict(tracing.UNITS, **{"trace.overhead_frac": "ratio"})
    for group in sweep.METRICS.values():
        per_layer.update(group)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
