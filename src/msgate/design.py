"""Balanced gate design: pick the carrier detuning that makes the
rotation angle stationary, then set the peak Rabi rate.

Between two modes whose eta products have opposite signs, the detuning
derivative of the rotation angle changes sign, so a root exists where
frequency errors that inflate one mode's contribution are cancelled to
first order by the other's. Because a symmetric shift of both laser
tones enters every sideband detuning exactly like a carrier-detuning
offset, d theta / d delta_c = 0 is the same statement as first-order
insensitivity to common motional frequency error.

The balance root is the zero of d theta / d delta_c in a sign-change
bracket inside one admissible interval [nu1 + margin, nu2 - margin]: the
interval's ends, or else the scanned cell nearest the midpoint of the two
modes. Safeguarded Newton on the analytic first and second derivatives
converges it to a step below 1e-6 Hz. theta is exactly quadratic in the
peak Rabi rate, so the design runs at unit rate and sets the rate last.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ConvergenceError, build_chain
from .config import QUAD_REL, TWO_PI, SystemConfig, angular_to_hz, hz_to_angular
from .errors import displacement_error, exact_fidelity, rotation_error, spin_eigensystem
from .modes import GateCoupling, build_coupling
from .pulses import PulseShape, make_pulse
from .trajectory import RESONANCE_GUARD, check_resonance, gate_integrals, gate_resolution, gate_series

THETA_TARGET = math.pi / 2.0
TARGET_MODES = ("radial_b", 0, 1)  # the balanced pair: the two lowest radial-b modes
SENS_HALF_RANGE_HZ = 3e3  # half width of the window ``sensitivity`` scores
_SENS_GRID_STEP = TWO_PI * 50.0
_ROOT_STEP = TWO_PI * 1e-6  # a balance Newton step or sensitivity bracket below this ends the search
_NEWTON_MAX_ITER = 100


class BracketError(ValueError):
    """No sign change of d theta / d delta_c across the candidate bracket."""


class SensitivityEdgeError(ValueError):
    """The eps_s minimum lies on the edge of the extended sensitivity search."""


def _target_freqs(coupling: GateCoupling) -> tuple[float, float]:
    """Frequencies nu1 < nu2 of the two target modes, rad/s."""
    direction, k1, k2 = TARGET_MODES
    return tuple(coupling.freqs[coupling.flat_index(direction, k)] for k in (k1, k2))


@dataclass(frozen=True)
class GateDesign:
    """A calibrated, balanced gate: coupling, pulse and carrier detuning.

    ``quad_rel`` is the quadrature accuracy it was designed with; every
    study of the design evaluates its integrals to the same accuracy.
    """

    coupling: GateCoupling
    pulse: PulseShape
    delta_c: float  # rad/s, blue-tone detuning from the carrier
    theta: float  # rad, achieved rotation angle (pi/2 after calibration)
    diagnostics: dict = field(default_factory=dict)
    quad_rel: float = QUAD_REL

    @property
    def delta0(self) -> float:
        """Detuning above the lowest radial-b mode, rad/s."""
        return self.delta_c - _target_freqs(self.coupling)[0]

    def record(self) -> dict:
        """Serializable summary (frequencies in Hz)."""
        return {
            "delta_c_hz": angular_to_hz(self.delta_c),
            "delta0_hz": angular_to_hz(self.delta0),
            "omega0_hz": angular_to_hz(self.pulse.omega0),
            "theta": self.theta,
            "pulse_type": self.pulse.variant,
            "tau_s": self.pulse.tau,
            "z_s": getattr(self.pulse, "z", None),
            "target_modes": list(TARGET_MODES),
            "target_pair": list(self.coupling.pair),
            "even_flip": self.coupling.even_flip,
            "diagnostics": self.diagnostics,
        }

    def record_json(self) -> str:
        return json.dumps(self.record(), indent=2, sort_keys=True)


def _theta(coupling: GateCoupling, values):
    """sum_k eta1_k eta2_k values_k over the last axis of (..., K) ``values``.

    One row-by-vector dot product per row, so a row's theta depends on
    that row alone. The rows themselves do not always: on a product grid
    of more shifts than its interval's series order, the kernel takes them
    from the interval's Chebyshev series (``gate_integrals``), within
    ``quad_error`` of the point-by-point values.
    """
    return (values[..., None, :] @ coupling.eta_products[:, None])[..., 0, 0]


def phase_and_derivative(coupling: GateCoupling, pulse: PulseShape, delta_cs, quad_rel: float = QUAD_REL):
    """Rotation angle theta and its analytic derivative d theta/d delta_c.

    ``delta_cs`` is one carrier detuning or an array of them (rad/s); the
    result is two 1-d arrays with one entry per detuning.
    dtheta/d delta_c = sum_k eta1_k eta2_k dB/d delta at delta_c - nu_k,
    from the s R(s) transform; all detunings go through one kernel call.
    No resonance check: callers that need one run ``check_resonance``.
    """
    _, phases, slopes = gate_integrals(
        pulse, -coupling.freqs, shifts=delta_cs, alpha=False, derivatives=1, quad_rel=quad_rel
    )
    return _theta(coupling, phases), _theta(coupling, slopes)


def _bracket_margin(pulse: PulseShape, gap: float) -> float:
    """Initial distance to keep from each mode while root hunting.

    2/z keeps the displacement suppression factor exp(-(delta z)^2)
    small for Gaussian envelopes; capped so the bracket stays non-empty
    for closely spaced modes.
    """
    z = getattr(pulse, "z", None)
    margin = max(2.0 / z if z else 0.0, TWO_PI * 2e3)
    return min(margin, 0.25 * gap)


def _slope_and_curvature(coupling: GateCoupling, pulse: PulseShape, delta_c: float, quad_rel: float):
    """d theta/d delta_c and d2 theta/d delta_c2 at one carrier detuning, in one
    kernel call; raises ResonanceError within the guard band of a mode."""
    deltas = delta_c - coupling.freqs
    check_resonance(deltas)
    _, _, slopes, curvatures = gate_integrals(pulse, deltas, alpha=False, derivatives=2, quad_rel=quad_rel)
    return float(coupling.eta_products @ slopes), float(coupling.eta_products @ curvatures)


def _newton_root(func, a: float, b: float, fa: float, fb: float, x: float) -> float:
    """Zero of f in the sign-change bracket [a, b] by safeguarded Newton from x.

    ``func(x)`` returns (f(x), f'(x)); every evaluation narrows the bracket.
    A Newton step that leaves the bracket, or is longer than half the step
    before last, is replaced by bisection (rtsafe). Stops when a step is
    below _ROOT_STEP; _NEWTON_MAX_ITER evaluations without one raise
    ConvergenceError.
    """
    neg, pos = (a, b) if fa < 0.0 else (b, a)  # f(neg) < 0 < f(pos)
    last = before = abs(b - a)
    for _ in range(_NEWTON_MAX_ITER):
        f, slope = func(x)
        if f == 0.0:
            return x
        if f < 0.0:
            neg = x
        else:
            pos = x
        target = x - f / slope if slope else math.nan
        if not (min(neg, pos) <= target <= max(neg, pos) and abs(target - x) <= 0.5 * before):
            target = 0.5 * (neg + pos)
        before, last = last, abs(target - x)
        x = target
        if last < _ROOT_STEP:
            return x
    raise ConvergenceError(
        f"balance Newton step still {angular_to_hz(last):.3g} Hz after {_NEWTON_MAX_ITER} evaluations"
    )


def solve_balance(coupling: GateCoupling, pulse: PulseShape, quad_rel: float = QUAD_REL) -> float:
    """Carrier detuning between the two target modes where d theta/d delta_c = 0.

    The root is independent of the Rabi rate (theta scales as omega0^2
    uniformly). It is sought in one admissible interval [a, b] = [nu1 +
    margin, nu2 - margin] (``_bracket_margin``): the bracket is [a, b] when
    the derivative changes sign across it. Otherwise (the interval then
    holds an even number of roots) the derivative is scanned at the interior
    points of a uniform grid on [a, b], and the bracket is the sign-change
    cell nearest the midpoint of the two modes. Safeguarded Newton on the
    analytic (d theta, d2 theta) starts from the bracket's secant point and
    stops at a step below 1e-6 Hz (``_newton_root``). Every point
    evaluation raises ResonanceError within the guard band of a mode; the
    scan does not check. A BracketError reports both interval-end derivatives.
    """
    nu1, nu2 = _target_freqs(coupling)

    def derivatives(delta_c: float) -> tuple[float, float]:
        return _slope_and_curvature(coupling, pulse, delta_c, quad_rel)

    margin = _bracket_margin(pulse, nu2 - nu1)
    a, b = nu1 + margin, nu2 - margin
    fa, fb = derivatives(a)[0], derivatives(b)[0]
    if np.sign(fa) == np.sign(fb):
        # about six samples per 2 pi / tau, the ripple period of the finite window
        grid = np.linspace(a, b, max(33, int(np.ceil((b - a) * pulse.tau)) + 1))
        values = np.concatenate(([fa], phase_and_derivative(coupling, pulse, grid[1:-1], quad_rel)[1], [fb]))
        signs = np.sign(values)
        changes = np.flatnonzero(signs[:-1] != signs[1:])
        if not changes.size:
            direction, k1, k2 = TARGET_MODES
            raise BracketError(
                "d theta/d delta_c does not change sign between modes "
                f"{k1} and {k2} of {direction}: f({angular_to_hz(a):.6g} Hz) = {fa:.6g}, "
                f"f({angular_to_hz(b):.6g} Hz) = {fb:.6g}"
            )
        centres = 0.5 * (grid[changes] + grid[changes + 1])
        i = changes[np.argmin(np.abs(centres - 0.5 * (nu1 + nu2)))]
        a, b, fa, fb = grid[i], grid[i + 1], values[i], values[i + 1]
    secant = a - fa * (b - a) / (fb - fa)
    root = _newton_root(derivatives, a, b, fa, fb, secant)
    if not (nu1 < root < nu2):
        raise BracketError("balance root escaped the inter-mode interval")
    return float(root)


def design_gate(config: SystemConfig, delta0_override: float | None = None) -> GateDesign:
    """Full design chain: modes, balance solve, Rabi rate.

    Balances between the two lowest radial-b modes (TARGET_MODES).
    ``delta0_override`` (rad/s above the lowest radial-b mode) skips the
    balance solve and produces an unbalanced reference design at a fixed
    detuning. The design runs at unit peak Rabi rate; one kernel call at the
    design detuning gives theta_1, and omega0 = sqrt((pi/2)/|theta_1|) scales
    that call's alpha by omega0 and B by omega0^2, so |theta| = pi/2. When
    theta_1 < 0 the second ion's differential-phase flip is toggled, which
    flips theta exactly and leaves the displacement error untouched. Every
    quadrature runs to ``config.tol.quad_rel``; the design keeps it, and its
    diagnostics give the panel count and error estimate of the design-point
    integrals. Raises ResonanceError when the design detuning sits on a mode.
    """
    coupling = build_coupling(config, build_chain(config))
    unit = make_pulse(config.pulse)
    nu1, nu2 = _target_freqs(coupling)
    quad_rel = config.tol.quad_rel

    balanced = delta0_override is None
    if balanced:
        delta_c = solve_balance(coupling, unit, quad_rel)
    else:
        delta_c = nu1 + delta0_override

    deltas = delta_c - coupling.freqs
    check_resonance(deltas)
    alphas, phases, slopes, curvatures = gate_integrals(unit, deltas, derivatives=2, quad_rel=quad_rel)
    theta_unit = float(coupling.eta_products @ phases)
    if theta_unit == 0.0:
        raise ValueError("rotation angle is zero at the design detuning; cannot set omega0")
    omega0 = math.sqrt(THETA_TARGET / abs(theta_unit))
    if theta_unit < 0.0:
        coupling = coupling.flipped()
    alphas = omega0 * alphas
    phases, slopes, curvatures = (omega0 * omega0 * x for x in (phases, slopes, curvatures))
    panels, quad_error = gate_resolution(unit, deltas, quad_rel=quad_rel)
    eps_d, eps_r, fidelity = _error_budget(coupling, alphas, phases)
    diagnostics = {
        "dtheta_ddelta_c": float(coupling.eta_products @ slopes),
        "d2theta_ddelta_c2": float(coupling.eta_products @ curvatures),
        "bracket_hz": [angular_to_hz(nu1), angular_to_hz(nu2)] if balanced else None,
        "balanced": balanced,
        "eps_d": eps_d,
        "eps_r": eps_r,
        "eps_s": eps_d + eps_r,
        "fidelity": fidelity,
        "quad_panels": panels,
        "quad_error": quad_error,
    }
    return GateDesign(
        coupling=coupling,
        pulse=unit.with_omega0(omega0),
        delta_c=float(delta_c),
        theta=omega0 * omega0 * abs(theta_unit),
        diagnostics=diagnostics,
        quad_rel=quad_rel,
    )


def _error_budget(coupling: GateCoupling, alphas, phases, with_fidelity: bool = True):
    """eps_d, eps_r and the exact fidelity from (..., K) end-of-gate alpha and B.

    Without ``with_fidelity`` the fidelity is NaN of the same shape. Each
    theta is summed by ``_theta``, so a grid point's figures depend on its
    own alpha and B alone; on a grid wider than the kernel's series order
    those come from the grid interval's series, within ``quad_error`` (see
    ``_theta``).
    """
    eigsys = spin_eigensystem(coupling)
    _, eps_d = displacement_error(eigsys, alphas)
    eps_r = rotation_error(_theta(coupling, phases))
    fidelity = exact_fidelity(eigsys, alphas, phases) if with_fidelity else np.full(np.shape(eps_d), np.nan)
    return eps_d, eps_r, fidelity


@dataclass(frozen=True)
class BreakdownCurve:
    """Vectorised error metrics over a grid of frequency errors."""

    domegas: np.ndarray
    eps_d: np.ndarray
    eps_r: np.ndarray
    fidelity: np.ndarray
    flags: np.ndarray  # True where some mode sits inside the resonance guard

    @property
    def eps_s(self) -> np.ndarray:
        return self.eps_d + self.eps_r


def breakdown_curve(design: GateDesign, domegas, with_fidelity: bool = True) -> BreakdownCurve:
    """eps_d / eps_r / fidelity over an array of frequency errors.

    All (grid-point, mode) pairs go through the quadrature as one
    separable batch and the error budget takes the (grid, modes) arrays
    whole. Points where a shifted detuning falls inside the resonance
    guard are still evaluated (the quadrature is regular there) but
    flagged; ``design_gate`` instead raises ResonanceError at its
    design point.
    """
    domegas = np.asarray(domegas, dtype=float)
    base = design.delta_c - design.coupling.freqs
    alphas, phases = gate_integrals(design.pulse, base, shifts=domegas, quad_rel=design.quad_rel)
    eps_d, eps_r, fid = _error_budget(design.coupling, alphas, phases, with_fidelity)
    flags = np.any(np.abs(base[None, :] + domegas[:, None]) < RESONANCE_GUARD, axis=1)
    return BreakdownCurve(domegas=domegas, eps_d=eps_d, eps_r=eps_r, fidelity=fid, flags=flags)


def _eps_s_interpolant(design: GateDesign, reach: float):
    """eps_s(s) for |s| <= ``reach``, from one Chebyshev series in the shift
    (``gate_series``, one kernel call)."""
    base = design.delta_c - design.coupling.freqs
    series = gate_series(design.pulse, base, -reach, reach, quad_rel=design.quad_rel)
    eigsys = spin_eigensystem(design.coupling)

    def eps_s(shifts) -> np.ndarray:
        alphas, phases = series(shifts)
        _, eps_d = displacement_error(eigsys, alphas)
        return eps_d + rotation_error(_theta(design.coupling, phases))

    return eps_s


def sensitivity(design: GateDesign) -> float:
    """Worst eps_s within +-SENS_HALF_RANGE_HZ of the error that minimises eps_s.

    Every eps_s comes from one interpolant over +-5 SENS_HALF_RANGE_HZ. The
    minimum is located on a 50 Hz grid over +-2 SENS_HALF_RANGE_HZ, extended by
    2 SENS_HALF_RANGE_HZ on an edge argmin's side; an argmin then on either edge
    raises SensitivityEdgeError. 33-point grids narrow the grid triple around
    the argmin to a bracket below 1e-6 Hz. The window maximum is taken on a
    50 Hz grid with both endpoints, so it follows the minimiser to first order.
    """
    half_range, step = hz_to_angular(SENS_HALF_RANGE_HZ), _SENS_GRID_STEP
    eps_s = _eps_s_interpolant(design, 5.0 * half_range)
    n = round(2.0 * half_range / step)
    ks = np.arange(-n, n + 1)
    i_min = int(np.argmin(eps_s(step * ks)))
    if i_min in (0, ks.size - 1):
        ks = np.sign(ks[i_min]) * np.arange(-n, 2 * n + 1)  # 2 SENS_HALF_RANGE_HZ more on the argmin's side
        i_min = int(np.argmin(eps_s(step * ks)))
        if i_min in (0, ks.size - 1):
            edge_khz = angular_to_hz(step * ks[i_min]) / 1e3
            raise SensitivityEdgeError(f"eps_s still falls at the {edge_khz:+.3g} kHz edge of the sensitivity search")
    best, half = step * ks[i_min], step
    while 2.0 * half > _ROOT_STEP:
        points = best + np.linspace(-half, half, 33)
        best = points[np.argmin(eps_s(points))]
        half /= 16.0  # the spacing of the 33 points: next, the triple around their argmin
    window = np.arange(best - half_range, best + half_range + 0.5 * step, step)
    window[-1] = best + half_range  # include the far endpoint exactly
    return float(eps_s(window).max())
