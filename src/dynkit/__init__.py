"""dynkit: spectral-grid dynamics for quantum and classical systems.

Subpackages cover uniform grids with FFT bridges to the continuous Fourier
transform, dense matrix functions, stationary spectra and band structures,
split-operator wave-function propagation (real and imaginary time), symplectic
classical ensembles, open-system density-matrix and Monte-Carlo dynamics, and
the Wigner phase-space representation.  The ``dynkit`` command line runs
declarative JSON configs through these modules.

Names are imported on first use (PEP 562): ``import dynkit`` loads no
submodule and no numpy, so ``dynkit validate`` starts without them.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: submodule -> the public names the package re-exports from it
_EXPORTS = {
    "grids": ("HamiltonianSpec", "SpectralSignal", "UniformGrid",
              "cft_forward", "cft_forward_custom", "cft_inverse", "frft",
              "make_grid"),
    "matfunc": ("ExpmReport", "expm_pade", "expm_taylor",
                "func_of_hermitian"),
    "stationary": ("SpectrumResult", "band_structure",
                   "build_fd_hamiltonian", "build_spectral_hamiltonian",
                   "eigensolve", "find_spectral_peaks",
                   "spectrum_via_propagation"),
    "tdse": ("EvolutionTrace", "PauliHamiltonianSpec", "SpinorWaveFunction",
             "SplitStepEngine", "WaveFunction", "apply_absorbing_boundary",
             "compute_uncertainty", "gaussian_packet",
             "imaginary_time_ground", "pauli_split_op_step", "propagate",
             "spectral_gap_estimate", "split_op_step"),
    "classical": ("ClassicalEnsemble", "ClassicalSpec", "ehrenfest_series",
                  "multi_dim_verlet_step", "propagate_ensemble",
                  "verlet_step"),
    "open_systems": ("DensityMatrix", "RateMatrix", "dissipator_split",
                     "fermi_dirac_rates", "gibbs_density", "gibbs_rates",
                     "lindblad_propagate", "lindblad_superoperator",
                     "lindblad_x_step", "mcwf_ensemble", "mcwf_trajectory",
                     "pauli_master_solve", "pure_state_density",
                     "random_collision_step"),
    "wigner": ("MoleculeSpec", "TwoStateWigner", "WignerFunction",
               "density_from_wigner", "moyal_two_state_step",
               "wigner_from_density", "wigner_marginals"),
}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "steps")
#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__all__})
