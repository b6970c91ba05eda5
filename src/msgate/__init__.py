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
    LaserGeometry,
    PhysicalConstants,
    PulseSpec,
    SystemConfig,
    angular_to_hz,
    hz_to_angular,
    load_config,
)
from .design import (
    BracketError,
    GateDesign,
    breakdown_curve,
    calibrate_omega0,
    design_gate,
    midpoint_guess,
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
    axial_modes,
    build_coupling,
    gate_coupling,
    radial_modes,
)
from .oracle import CutoffError, OracleReport, OracleSpec, run_oracle
from .pulses import (
    PulseShape,
    SplineGaussianPulse,
    SquarePulse,
    TruncGaussianPulse,
    make_pulse,
    spline_gaussian,
)
from .trajectory import (
    DetuningContext,
    PhaseResult,
    ResonanceError,
    Trajectory,
    TrajectoryEngine,
    phase_and_derivative,
)

__all__ = [name for name in dir() if not name.startswith("_")]
