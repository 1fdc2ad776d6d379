"""Identities between tasks, run through ``cli.main`` on variants of
``configs/propagate_coherent.json``.

Two routes to the same numbers check the wiring from config keys to specs,
which tests of one route and rerun checksums cannot see:

- ``lindblad`` with a ``constant`` coupling has the coupling factor G = 1,
  so it propagates rho = |psi><psi| as ``propagate`` propagates psi, and the
  two ``trace.csv`` files agree to rounding.
- For a harmonic potential the Strang step moves <x> and <p> exactly as
  Verlet's kick-drift-kick does, so ``propagate`` agrees with a one-particle
  ``classical`` run of zero spread.  With mass m and frequency omega the
  quantum kick is -omega^2 x and the drift p / m; the classical run (mass 1)
  takes omega / sqrt(m) and carries p / m.
- ``eigen`` with the central stencil, the one method that reads the spec's
  mass, agrees with the spectral method to the stencil's O(dx^2) error.
- ``eigen`` (spectral), ``imagtime`` and ``gap`` on the shipped configs
  find the oscillator's levels n + 1/2 and their spacing 1, in units of
  omega / sqrt(m), so a mass or an omega lost on the way to the spec moves
  all three.

Each tolerance is about ten times the largest difference measured when the
test was written, which is stated beside it.
"""

import json
import os

import numpy as np
import pytest

from dynkit import cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

#: (mass, omega, coherent-state sigma (2 m omega_eff)^-1/2); omega / sqrt(m) = 1
#: in both, so the classical twin is the shipped oscillator
HAMILTONIANS = {"shipped": (1.0, 1.0, 0.5 ** 0.5), "mass4-omega2": (4.0, 2.0, 8.0 ** -0.5)}


def _coherent(mass, omega, sigma):
    with open(os.path.join(CONFIG_DIR, "propagate_coherent.json")) as fh:
        cfg = json.load(fh)
    cfg["hamiltonian"] = {"potential": {"name": "harmonic", "omega": omega},
                          "kinetic": {"name": "free", "mass": mass}}
    cfg["propagate"]["initial"]["sigma"] = sigma
    return cfg


def _run(tmp_path, name, cfg, output):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    return np.loadtxt(out / output, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("hamiltonian", sorted(HAMILTONIANS))
def test_propagate_is_lindblad_with_a_constant_coupling(tmp_path, hamiltonian):
    cfg = _coherent(*HAMILTONIANS[hamiltonian])
    block = cfg.pop("propagate")
    wave = _run(tmp_path, "propagate", dict(cfg, propagate=block), "trace.csv")
    cfg["task"] = "lindblad"
    cfg["lindblad"] = {"dt": block["dt"], "t_max": block["t_max"],
                       "stride": block["stride"], "initial": block["initial"],
                       "coupling": {"name": "constant", "strength": 0.3}}
    density = _run(tmp_path, "lindblad", cfg, "trace.csv")
    assert wave.shape == density.shape == (21, 5)
    assert np.array_equal(wave[:, 0], density[:, 0])
    d = np.max(np.abs(wave - density), axis=0)
    assert d[1] <= 3e-14  # x_mean, measured 3.3e-15
    assert d[2] <= 2e-13  # p_mean, measured 1.6e-14
    assert d[3] <= 3e-12  # energy, measured 2.9e-13
    assert d[4] <= 1e-13  # norm, measured 7.2e-15


@pytest.mark.parametrize("hamiltonian", sorted(HAMILTONIANS))
def test_harmonic_propagate_moves_its_means_like_one_classical_particle(
        tmp_path, hamiltonian):
    mass, omega, sigma = HAMILTONIANS[hamiltonian]
    cfg = _coherent(mass, omega, sigma)
    wave = _run(tmp_path, "propagate", cfg, "trace.csv")
    block = cfg["propagate"]
    particle = {"task": "classical", "classical": {
        "dt": block["dt"], "n_steps": round(block["t_max"] / block["dt"]),
        "n_particles": 1, "seed": 0, "stride": block["stride"],
        "cloud": {"x0": block["initial"]["x0"], "p0": block["initial"]["p0"],
                  "sigma_x": 0.0, "sigma_p": 0.0},
        "forces": {"name": "harmonic", "omega": omega / mass ** 0.5}}}
    classical = _run(tmp_path, "classical", particle, "trace.csv")
    assert wave.shape == classical.shape == (21, 5)
    assert np.max(np.abs(wave[:, 0] - classical[:, 0])) <= 2e-15  # t, measured 1.3e-15
    # x_mean swings between 1 and -0.42 over the run
    assert np.ptp(wave[:, 1]) > 1.0
    assert np.max(np.abs(wave[:, 1] - classical[:, 1])) <= 3e-14  # measured 2.5e-15
    assert np.max(np.abs(wave[:, 2] / mass - classical[:, 2])) <= 2e-14  # measured 1.4e-15


def test_central_stencil_reads_the_mass_the_spectral_method_does(tmp_path):
    mass, omega, _ = HAMILTONIANS["mass4-omega2"]
    cfg = _coherent(mass, omega, 1.0)
    del cfg["propagate"]
    cfg.update(task="eigen", grid={"L": 10.0, "n": 512})
    energies = {}
    for method in ("central", "spectral"):
        cfg["eigen"] = {"method": method, "n_states": 4}
        energies[method] = _run(tmp_path, method, cfg, "energies.csv")[:, 1]
    # omega / sqrt(m) = 1: the levels are k + 1/2
    assert np.max(np.abs(energies["spectral"] - np.arange(4) - 0.5)) <= 1e-10
    # the stencil's error, measured 4.8e-3 at the fourth level (dx = 0.039)
    assert np.max(np.abs(energies["central"] - energies["spectral"])) <= 5e-2


@pytest.mark.parametrize("hamiltonian", sorted(HAMILTONIANS))
def test_eigen_imagtime_and_gap_find_the_oscillator_spacing(tmp_path, hamiltonian):
    mass, omega, _ = HAMILTONIANS[hamiltonian]
    energies = {}
    for name in ("eigen_oscillator", "imagtime_ladder", "gap_oscillator"):
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
            cfg = json.load(fh)
        cfg["hamiltonian"] = {"potential": {"name": "harmonic", "omega": omega},
                              "kinetic": {"name": "free", "mass": mass}}
        energies[cfg["task"]] = _run(tmp_path, name, cfg, "energies.csv")[:, 1]
    levels = np.arange(8) + 0.5
    assert energies["eigen"].shape == (8,) and energies["imagtime"].shape == (2,)
    assert np.max(np.abs(energies["eigen"] - levels)) <= 2e-12  # measured 1.3e-13
    assert np.max(np.abs(energies["imagtime"] - levels[:2])) <= 2e-9  # measured 1.7e-10
    # the gap fits the decay of <x> over tau_max = 8, measured 0.99997 and 0.99998
    assert energies["gap"].shape == (1,)
    assert abs(energies["gap"][0] - 1.0) <= 3e-4
