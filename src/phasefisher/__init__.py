"""Quantum Fisher information of lossy two-mode interferometry.

Closed forms for entangled-coherent and NOON probes with and without a
phase reference, a brute-force oracle on the truncated Fock space that
validates every one of them, and a CLI for sweeps and crossing searches.

The namespace is lazy (PEP 562): a name's module is imported the first time
the name is read, so the closed forms load no numpy until an array is built.
"""

import importlib

__version__ = "0.1.0"

# every public name, under the module that defines it
_MODULE_NAMES = {
    "channels": (
        "apply_loss", "apply_loss_via_bs", "phase_average", "single_arm_generator",
        "two_arm_generator",
    ),
    "exceptions": (
        "DegenerateSpectrum", "DimensionMismatch", "InvalidEta", "NegativeEigenvalue",
        "NoConvergence", "NoCrossingFound", "NonpositiveFisher", "NotHermitian",
        "NumericalOverflow", "OracleTooLarge", "PhaseFisherError", "TruncationTooSmall",
    ),
    "fock_core": (
        "DensityOperator", "FockTruncation", "StateVector", "coherent_vector",
        "truncation_for_tolerance",
    ),
    "qfi_analytic": (
        "EcsLossySpectrum", "QFIResult", "basis_overlap_matrix", "qfi_ecs_noref",
        "qfi_ecs_noref_blocksum", "qfi_ecs_ref", "qfi_ecs_ref_asymptotic", "qfi_noon",
        "qfi_noon_continuous", "sensitivity", "sigma_spectrum",
    ),
    "qfi_oracle": (
        "CheckResult", "VerificationReport", "build_scenario", "qfi_numeric",
        "scenario_mixture", "scenario_qfi", "two_level_matrix_numeric", "verify_all",
    ),
    "states": (
        "WITH_REFERENCE", "WITHOUT_REFERENCE", "ProbeSpec", "alpha_for_mean_photon",
        "ecs_normalization", "ecs_sector_weights", "ecs_vector", "mean_photon_number",
        "noon_vector",
    ),
}
_HOME = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
