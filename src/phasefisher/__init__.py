"""Quantum Fisher information of lossy two-mode interferometry.

Closed forms for entangled-coherent and NOON probes with and without a
phase reference, a brute-force oracle on the truncated Fock space that
validates every one of them, and a CLI for sweeps and crossing searches.
"""

from .channels import (
    apply_loss,
    apply_loss_via_bs,
    phase_average,
    single_arm_generator,
    two_arm_generator,
)
from .exceptions import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidEta,
    NegativeEigenvalue,
    NoConvergence,
    NoCrossingFound,
    NonpositiveFisher,
    NotHermitian,
    NumericalOverflow,
    OracleTooLarge,
    PhaseFisherError,
    TruncationTooSmall,
)
from .fock_core import (
    DensityOperator,
    FockTruncation,
    StateVector,
    coherent_vector,
    truncation_for_tolerance,
)
from .qfi_analytic import (
    EcsLossySpectrum,
    QFIResult,
    basis_overlap_matrix,
    qfi_ecs_noref,
    qfi_ecs_noref_blocksum,
    qfi_ecs_ref,
    qfi_ecs_ref_asymptotic,
    qfi_noon,
    qfi_noon_continuous,
    sensitivity,
    sigma_spectrum,
)
from .qfi_oracle import (
    WITH_REFERENCE,
    WITHOUT_REFERENCE,
    CheckResult,
    VerificationReport,
    build_scenario,
    qfi_numeric,
    scenario_mixture,
    scenario_qfi,
    two_level_matrix_numeric,
    verify_all,
)
from .states import (
    ProbeSpec,
    alpha_for_mean_photon,
    ecs_normalization,
    ecs_sector_weights,
    ecs_vector,
    mean_photon_number,
    noon_vector,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DegenerateSpectrum",
    "DensityOperator",
    "DimensionMismatch",
    "EcsLossySpectrum",
    "FockTruncation",
    "InvalidEta",
    "NegativeEigenvalue",
    "NoConvergence",
    "NoCrossingFound",
    "NonpositiveFisher",
    "NotHermitian",
    "NumericalOverflow",
    "OracleTooLarge",
    "PhaseFisherError",
    "ProbeSpec",
    "QFIResult",
    "StateVector",
    "TruncationTooSmall",
    "VerificationReport",
    "WITH_REFERENCE",
    "WITHOUT_REFERENCE",
    "alpha_for_mean_photon",
    "apply_loss",
    "apply_loss_via_bs",
    "basis_overlap_matrix",
    "build_scenario",
    "coherent_vector",
    "ecs_normalization",
    "ecs_sector_weights",
    "ecs_vector",
    "mean_photon_number",
    "noon_vector",
    "phase_average",
    "qfi_ecs_noref",
    "qfi_ecs_noref_blocksum",
    "qfi_ecs_ref",
    "qfi_ecs_ref_asymptotic",
    "qfi_noon",
    "qfi_noon_continuous",
    "qfi_numeric",
    "scenario_mixture",
    "scenario_qfi",
    "sensitivity",
    "sigma_spectrum",
    "single_arm_generator",
    "truncation_for_tolerance",
    "two_arm_generator",
    "two_level_matrix_numeric",
    "verify_all",
]
