"""Entanglement entropy of free Lifshitz fermion chains.

Correlation-matrix entropies on periodic lattices with sin^z dispersion,
a brute-force many-body oracle for small chains, thermal-expansion fits,
and cMERA / geodesic closed forms.
"""

from .cmera import (
    bogoliubov_angle,
    ee_cmera,
    energy_density,
    g_closed_form,
    g_from_phi_numeric,
    geodesic_length,
    geodesic_length_massive,
    metric_guu,
    minimizing_angle,
)
from .entropy import (
    EntropyPoint,
    entanglement_entropy,
    entropy_of,
    hermitian_eigenvalues,
)
from .errors import (
    DegenerateGroundState,
    DegenerateInterval,
    DuplicateSite,
    EechainError,
    EigenvalueOutOfRange,
    EmptySeries,
    GroundStateNotFound,
    IllConditioned,
    InsufficientData,
    InsufficientSampling,
    InvalidKind,
    InvalidParameter,
    IoError,
    NotHermitian,
    RegimeUnreachable,
    SiteOutOfRange,
    UsageError,
)
from .lattice import (
    CorrelationMatrix,
    LatticeSpec,
    ModeGrid,
    build_correlation_matrix,
    build_mode_grid,
    validate_beta,
)
from .oracle import (
    FockState,
    many_body_state,
    mode_correlators,
    reduced_entropy,
    single_particle_hamiltonian,
)
from .output import emit_plot, emit_table, parse_table
from .thermal import (
    FitResult,
    SweepTable,
    cft_reference,
    default_high_temperature_betas,
    default_low_temperature_betas,
    fit_high_temperature,
    fit_low_temperature,
    regime_scales,
    sweep_entropy,
)

__version__ = "0.1.0"


def backend_name():
    """Name of the kernel backend: numpy is the only one.  It takes each
    profile by closed form, short chain, partial DFT or FFT (see
    eechain.lattice)."""
    return "numpy"


__all__ = [
    "CorrelationMatrix",
    "DegenerateGroundState",
    "DegenerateInterval",
    "DuplicateSite",
    "EechainError",
    "EigenvalueOutOfRange",
    "EmptySeries",
    "EntropyPoint",
    "FitResult",
    "FockState",
    "GroundStateNotFound",
    "IllConditioned",
    "InsufficientData",
    "InsufficientSampling",
    "InvalidKind",
    "InvalidParameter",
    "IoError",
    "LatticeSpec",
    "ModeGrid",
    "NotHermitian",
    "RegimeUnreachable",
    "SiteOutOfRange",
    "SweepTable",
    "UsageError",
    "backend_name",
    "bogoliubov_angle",
    "build_correlation_matrix",
    "build_mode_grid",
    "cft_reference",
    "default_high_temperature_betas",
    "default_low_temperature_betas",
    "ee_cmera",
    "emit_plot",
    "emit_table",
    "energy_density",
    "entanglement_entropy",
    "entropy_of",
    "fit_high_temperature",
    "fit_low_temperature",
    "g_closed_form",
    "g_from_phi_numeric",
    "geodesic_length",
    "geodesic_length_massive",
    "hermitian_eigenvalues",
    "many_body_state",
    "metric_guu",
    "minimizing_angle",
    "mode_correlators",
    "parse_table",
    "reduced_entropy",
    "regime_scales",
    "single_particle_hamiltonian",
    "sweep_entropy",
    "validate_beta",
]
