"""Bosonic SSH chain simulator for lumped-element superconducting circuits.

Builds tight-binding and circuit Hamiltonians of a finite two-site-per-cell
chain, computes spectra and topological diagnostics across the
trivial/topological transition, simulates two-port microwave transmission
and estimates circuit parameters from measured eigenfrequencies.
"""

from .chain import (
    ChainSpec,
    CircuitSpec,
    build_tb_hamiltonian,
    chiral_defect,
    default_circuit,
    map_circuit_to_tb,
)
from .errors import (
    DegenerateMidgapError,
    ExtrapolationError,
    FitUnsupportedError,
    GapClosingError,
    NumericalError,
    ValidationError,
)
from .estimation import (
    FitOptions,
    FitProblem,
    FitResult,
    disorder_report,
    fit_circuit_params,
    model_eigenfrequencies,
)
from .microwave import (
    BoxMode,
    GateModel,
    Peak,
    S21Trace,
    apply_gate_setting,
    background_normalize,
    circuit_mode_frequencies,
    extract_peaks,
    joint_gate_settings,
    ladder_abcd,
    mode_linewidths,
    nanowire_inductance,
    s21_trace,
    single_gate_settings,
)
from .spectral import (
    ModeClassification,
    Spectrum,
    SweepPoint,
    classify_modes,
    eigendecompose,
    find_fsr_crossing,
    normalized_spectrum,
    sweep_coupling,
)
from .topology import (
    DisorderConfig,
    DisorderSample,
    EnsembleResult,
    WindingResult,
    disorder_ensemble,
    flatband,
    ipr,
    localization_length_fit,
    winding_number_k_space,
    winding_number_real_space,
)

__version__ = "0.1.0"
