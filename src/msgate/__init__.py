"""Design and simulation toolkit for frequency-robust Molmer-Sorensen
gates on linear trapped-ion chains.

The package computes chain equilibria and normal modes, closed-form gate
dynamics (phase-space trajectories and entangling phases), error budgets,
and the balanced detuning that makes the entangling phase first-order
insensitive to common motional-frequency error.
"""

__version__ = "0.1.0"

from .chain import IonChain, axial_freq_for_center_spacing, build_chain, equilibrium_positions
from .config import (
    ConfigError,
    PulseSpec,
    SystemConfig,
    angular_to_hz,
    hz_to_angular,
    load_config,
)
from .design import (
    BracketError,
    GateDesign,
    SensitivityEdgeError,
    breakdown_curve,
    design_gate,
    phase_and_derivative,
    sensitivity,
    solve_balance,
)
from .errors import (
    displacement_error,
    exact_fidelity,
    parity_scan,
    reduced_density_matrix,
    rotation_error,
    spin_eigensystem,
)
from .modes import (
    GateCoupling,
    ModeStructure,
    ZigZagInstabilityError,
    build_coupling,
    radial_modes,
)
from .oracle import CutoffError, OracleReport, OracleSpec, run_oracle
from .pulses import (
    PulseShape,
    SplineGaussianPulse,
    SquarePulse,
    TruncGaussianPulse,
    make_pulse,
)
from .trajectory import ResonanceError, TrajectoryEngine

__all__ = [
    "BracketError", "ConfigError", "CutoffError", "GateCoupling", "GateDesign", "IonChain",
    "ModeStructure", "OracleReport", "OracleSpec", "PulseShape", "PulseSpec",
    "ResonanceError", "SensitivityEdgeError", "SplineGaussianPulse", "SquarePulse", "SystemConfig",
    "TrajectoryEngine", "TruncGaussianPulse", "ZigZagInstabilityError", "angular_to_hz",
    "axial_freq_for_center_spacing", "breakdown_curve", "build_chain", "build_coupling",
    "design_gate", "displacement_error", "equilibrium_positions", "exact_fidelity", "hz_to_angular",
    "load_config", "make_pulse", "parity_scan", "phase_and_derivative", "radial_modes",
    "reduced_density_matrix", "rotation_error", "run_oracle", "sensitivity", "solve_balance",
    "spin_eigensystem",
]
