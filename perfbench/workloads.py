"""Benchmark workloads: each is a fixed list of dynkit configs.

The sizes are chosen so that compute, not interpreter start-up, dominates
three of the four workloads; ``shipped`` keeps the example configs as they
are, where start-up, import and validation dominate.  Only the stochastic
configs (``mcwf``, ``classical``, ``expm-bench``) take their seeds from the
benchmark seed, so the amount of work, and with it the timing, is the same
for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random

SQRT_HALF = 1.0 / math.sqrt(2.0)

def _wavepacket(seed):
    harmonic = {"name": "harmonic", "omega": 1.0}
    return [
        ("propagate_harmonic", {
            "task": "propagate",
            "grid": {"L": 20.0, "n": 1024},
            "hamiltonian": {"potential": harmonic},
            "propagate": {"dt": 1e-3, "t_max": 2.0, "order": 2, "stride": 1,
                          "initial": {"x0": 1.0, "p0": 0.0, "sigma": SQRT_HALF}},
        }),
        ("propagate_softcore_absorbed", {
            "task": "propagate",
            "grid": {"L": 40.0, "n": 4096},
            "hamiltonian": {"potential": {"name": "softcore", "depth": 1.0,
                                          "width": 1.0}},
            "propagate": {"dt": 5e-3, "t_max": 2.0, "order": 4, "stride": 50,
                          "initial": {"x0": 10.0, "p0": 10.0, "sigma": 1.0},
                          "absorber": {"fraction": 0.2, "power": 0.125}},
        }),
        ("imagtime_quartic", {
            "task": "imagtime",
            "grid": {"L": 10.0, "n": 256},
            "hamiltonian": {"potential": {"name": "quartic", "strength": 0.1}},
            "imagtime": {"dtau": 5e-3, "n_states": 3},
        }),
        ("gap_harmonic", {
            "task": "gap",
            "grid": {"L": 10.0, "n": 512},
            "hamiltonian": {"potential": harmonic},
            "gap": {"dtau": 0.01, "tau_max": 8.0, "observable": "x",
                    "initial": {"x0": 0.4, "p0": 1.0, "sigma": 1.0}},
        }),
    ]


def _density(seed):
    harmonic = {"name": "harmonic", "omega": 1.0}
    coupling = {"name": "linear", "strength": 0.3}
    initial = {"x0": 1.0, "p0": 0.0, "sigma": SQRT_HALF}
    return [
        ("lindblad_n256", {
            "task": "lindblad",
            "grid": {"L": 16.0, "n": 256},
            "hamiltonian": {"potential": harmonic},
            "lindblad": {"dt": 0.01, "t_max": 1.0, "stride": 5,
                         "coupling": coupling, "initial": initial},
        }),
        ("lindblad_n512", {
            "task": "lindblad",
            "grid": {"L": 16.0, "n": 512},
            "hamiltonian": {"potential": harmonic},
            "lindblad": {"dt": 0.01, "t_max": 0.3, "stride": 5,
                         "coupling": coupling, "initial": initial},
        }),
        ("wigner_n1024", {
            "task": "wigner",
            "grid": {"L": 16.0, "n": 1024},
            "hamiltonian": {"potential": harmonic},
            "wigner": {"initial": {"x0": 0.5, "p0": 0.8, "sigma": 0.9}},
        }),
        ("eigen_spectral_n512", {
            "task": "eigen",
            "grid": {"L": 10.0, "n": 512},
            "hamiltonian": {"potential": harmonic},
            "eigen": {"method": "spectral", "n_states": 16},
        }),
    ]


def _ensemble(seed):
    rng = random.Random(seed)
    mcwf_seed, classical_seed, expm_seed = (rng.randrange(2 ** 31)
                                            for _ in range(3))
    # 2000 trajectories, the sample size criterion 7 sets its 0.05 tolerance
    # for; 1000 trajectories over 100 steps came within 0.0015 of it in 40 seeds
    return [
        ("mcwf_two_level", {
            "task": "mcwf",
            "mcwf": {"dt": 0.02, "t_max": 1.0, "n_traj": 2000,
                     "seed": mcwf_seed, "stride": 1, "decay_rate": 1.0,
                     "rabi": 0.5},
        }),
        ("classical_quartic_driven", {
            "task": "classical",
            "classical": {"dt": 0.005, "n_steps": 2000, "n_particles": 5000,
                          "seed": classical_seed, "stride": 10,
                          "cloud": {"x0": 1.0, "p0": 0.0, "sigma_x": 0.2,
                                    "sigma_p": 0.2},
                          "forces": {"name": "quartic", "strength": 0.1},
                          "drive": {"amplitude": 0.3, "omega": 1.6}},
        }),
        ("expm_dim64", {
            "task": "expm-bench",
            "expm_bench": {"dim": 64, "seed": expm_seed,
                           "norms": [float(2 ** k) for k in range(9)]},
        }),
        ("bands_cosine_nk101", {
            "task": "bands",
            "hamiltonian": {"potential": {"name": "cosine", "amplitude": 1.0,
                                          "period": 2.0}},
            "bands": {"lattice_constant": 2.0, "n_cell": 32, "n_bands": 3,
                      "n_k": 101},
        }),
    ]


def _shipped(config_dir):
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    configs = []
    for name in names:
        with open(os.path.join(config_dir, name)) as fh:
            configs.append((name[:-len(".json")], json.load(fh)))
    return configs


GENERATORS = {"wavepacket": _wavepacket, "density": _density,
              "ensemble": _ensemble}
#: in BENCHMARK.json order, which also says why each workload is there
NAMES = ("wavepacket", "density", "ensemble", "shipped")


def build(workload: str, seed: int, config_dir: str, out_dir: str):
    """Write the workload's configs into out_dir; returns [(name, path, cfg)].

    ``shipped`` reads the example configs from config_dir and runs them from
    where they are; the other workloads are generated from the seed.
    """
    if workload == "shipped":
        return [(name, os.path.join(config_dir, name + ".json"), cfg)
                for name, cfg in _shipped(config_dir)]
    out = []
    for name, cfg in GENERATORS[workload](seed):
        path = os.path.join(out_dir, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        out.append((name, path, cfg))
    return out
