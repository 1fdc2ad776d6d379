"""The output sink's SHA-256 and the memory floor it keeps.

No CLI run loads ``_hashlib``, and so none maps OpenSSL's libcrypto:
``_OutputSink._write`` hashes with the interpreter's built-in SHA-256
(``_sha2`` from Python 3.12, ``_sha256`` before), a run that draws no random
numbers never imports ``numpy.random``, and the three tasks that do
(``mcwf``, ``classical``, ``expm-bench``) import it with ``_hashlib`` blocked,
so that its ``hmac`` and ``hashlib`` bind the built-in hashes.  The library
blocks nothing: a Python caller keeps OpenSSL's ``hashlib``.

Each case runs in a fresh interpreter, where ``sys.modules`` shows what the
run itself loaded; the runs that draw no random numbers go first.  The digests
are checked here against ``hashlib``, and against a second run forced onto
the ``hashlib`` fallback, which the random tasks then reach through OpenSSL.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
NON_RANDOM = ["propagate_coherent", "wigner_ground", "lindblad_dephasing",
              "eigen_oscillator"]
RANDOM = ["mcwf_decay", "classical_driven", "expm_bench"]
ALL = NON_RANDOM + ["wigner_n1024"] + RANDOM

# runs each (config, out) pair through dynkit.cli.main in this interpreter and
# writes one empty output; prints, per run, its exit code, whether _hashlib
# (loaded, or still blocked as None) and numpy.random are in sys.modules after
# it, whether libcrypto is mapped (None where /proc/self/maps does not exist)
# and how many buffers each output took
_RUNS = """
import json, os, sys
if sys.argv[1] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from dynkit.cli import _OutputSink, main

real, chunks = _OutputSink._write, {}

def counted(self, name, buffers):
    def each():
        for buffer in buffers:
            chunks[name] = chunks.get(name, 0) + 1
            yield buffer
    return real(self, name, each())

def libcrypto():
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as fh:
        return "libcrypto" in fh.read()

_OutputSink._write = counted
report = []
for config, out in zip(sys.argv[2::2], sys.argv[3::2]):
    chunks.clear()
    code = main(["run", config, "--out", out])
    report.append([code, "_hashlib" in sys.modules, "numpy.random" in sys.modules,
                   libcrypto(), dict(chunks)])
sink = _OutputSink(out)
sink._write("empty", [])
report.append(sink.files)
print(json.dumps(report))
"""

# calls the library's MCWF ensemble for a decaying two-level system, with no
# CLI involved; prints the name of the module _hashlib is bound to afterwards
_LIBRARY = """
import sys
import numpy as np
from dynkit.open_systems import mcwf_ensemble
lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
mcwf_ensemble(np.array([0.0, 1.0], dtype=complex), np.diag([0.0, 1.0]).astype(complex),
              [lower], 0.1, 0.2, 4, base_seed=1)
print(getattr(sys.modules.get("_hashlib"), "__name__", None))
"""


def _wigner_n1024(tmp_path):
    with open(os.path.join(CONFIG_DIR, "wigner_ground.json")) as fh:
        cfg = json.load(fh)
    cfg["grid"]["n"] = 1024
    path = tmp_path / "wigner_n1024.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{mode: (output directory per config, report per config, the empty output's entry)}."""
    tmp = tmp_path_factory.mktemp("hash")
    configs = {name: os.path.join(CONFIG_DIR, name + ".json") for name in ALL}
    configs["wigner_n1024"] = _wigner_n1024(tmp)
    result = {}
    for mode in ("builtin", "fallback"):
        outs = {name: tmp / mode / name for name in ALL}
        args = [a for name in ALL for a in (configs[name], str(outs[name]))]
        proc = subprocess.run([sys.executable, "-c", _RUNS, mode, *args], env=_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        *per_run, empty = json.loads(proc.stdout.splitlines()[-1])
        result[mode] = (outs, dict(zip(ALL, per_run)), empty)
    return result


def _outputs(directory):
    return json.loads((directory / "manifest").read_text())["outputs"]


@pytest.mark.parametrize("name", NON_RANDOM + ["wigner_n1024"])
def test_a_run_without_random_numbers_loads_no_openssl(runs, name):
    code, openssl, _, libcrypto, _ = runs["builtin"][1][name]
    assert code == 0
    assert not openssl
    assert not libcrypto


@pytest.mark.parametrize("name", NON_RANDOM + ["wigner_n1024"])
def test_a_run_without_random_numbers_imports_no_numpy_random(runs, name):
    # numpy.random alone adds about 5.5 MB to a process's peak
    assert not runs["builtin"][1][name][2]


@pytest.mark.parametrize("name", RANDOM)
def test_a_random_run_loads_no_openssl(runs, name):
    code, openssl, numpy_random, libcrypto, _ = runs["builtin"][1][name]
    assert code == 0
    assert numpy_random
    assert not openssl
    assert not libcrypto


@pytest.mark.parametrize("mode", ["builtin", "fallback"])
@pytest.mark.parametrize("name", ALL)
def test_every_manifest_entry_is_the_sha256_of_its_file(runs, mode, name):
    outs, _, _ = runs[mode]
    entries = _outputs(outs[name])
    assert sorted(e["name"] for e in entries) == sorted(
        set(os.listdir(outs[name])) - {"manifest", "empty"})
    for entry in entries:
        data = (outs[name] / entry["name"]).read_bytes()
        assert entry["bytes"] == len(data)
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()


def test_the_n1024_wigner_field_is_written_in_64_blocks(runs):
    outs, report, _ = runs["builtin"]
    assert report["wigner_n1024"][4]["field_wigner.f64"] == 64
    [entry] = [e for e in _outputs(outs["wigner_n1024"])
               if e["name"] == "field_wigner.f64"]
    assert entry["bytes"] == 2048 * 1024 * 8


@pytest.mark.parametrize("mode", ["builtin", "fallback"])
def test_an_empty_output_has_the_empty_digest(runs, mode):
    outs, _, [entry] = runs[mode]
    assert entry == {"name": "empty", "sha256": hashlib.sha256(b"").hexdigest(),
                     "bytes": 0}
    assert (outs[RANDOM[-1]] / "empty").read_bytes() == b""


def test_the_hashlib_fallback_lists_the_same_outputs(runs):
    builtin_outs, _, builtin_empty = runs["builtin"]
    fallback_outs, report, fallback_empty = runs["fallback"]
    # the fallback route imported hashlib, and the random tasks numpy.random,
    # through OpenSSL; the random streams and so the bytes are the same
    assert all(code == 0 and openssl for code, openssl, *_ in report.values())
    for name in builtin_outs:
        assert _outputs(fallback_outs[name]) == _outputs(builtin_outs[name])
    assert fallback_empty == builtin_empty


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                    reason="this interpreter has no OpenSSL hashlib")
def test_the_library_leaves_the_hosts_hashlib_alone():
    # only the CLI's runners block _hashlib; a caller of mcwf_ensemble keeps
    # OpenSSL's hashlib, pbkdf2_hmac and the OpenSSL-only algorithms included
    proc = subprocess.run([sys.executable, "-c", _LIBRARY], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["_hashlib"]
