"""Brute-force check of the closed-form gate dynamics.

Integrates the time-dependent Schrodinger equation for the drive
Hamiltonian (spin-conditioned sideband terms, linearised in the
Lamb-Dicke parameters)

    H(t) = -Omega(t) sum_k S_k (a_k exp(i delta_k t) + a_k^dag exp(-i delta_k t)),
    S_k  = (eta1_k sigma_y1 + eta2_k sigma_y2) / 2,

in a truncated Fock space with a fixed-step fourth-order Runge-Kutta
scheme, and compares the final state against the analytic form: per spin
branch, a product of coherent states displaced by lambda alpha_k with the
accumulated phase exp(-i B_k lambda^2). Nothing here reuses the
displacement/phase algebra of the analytic path beyond alpha_k and B_k
themselves, so agreement validates both the propagator structure and the
sign convention of the entangling phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .modes import GateCoupling
from .pulses import PulseShape
from .trajectory import gate_integrals

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_LEAK_TOL = 1e-8


class CutoffError(RuntimeError):
    """Population reached the top of the Fock truncation."""


@dataclass(frozen=True)
class OracleSpec:
    """Scope of one oracle run: which modes, how big a Fock space."""

    mode_indices: tuple[int, ...]
    n_max: int = 15
    n_steps: int = 200_000

    def __post_init__(self):
        if not 1 <= len(self.mode_indices) <= 3:
            raise ValueError("oracle handles 1 to 3 modes")
        if self.n_max < 5:
            raise ValueError("n_max must be at least 5")
        if self.n_steps < 1000:
            raise ValueError("integrator needs a sensible step count")
        if 4 * self.n_max ** len(self.mode_indices) > 4 * 15**3:
            raise ValueError("truncated Hilbert space too large")


@dataclass(frozen=True)
class OracleReport:
    overlap: float  # |<analytic|numeric>|^2
    leakage: np.ndarray = field(repr=False)  # per mode, top-two-level population
    alpha_analytic: np.ndarray = field(repr=False)
    alpha_numeric: np.ndarray = field(repr=False)
    phase_analytic: np.ndarray = field(repr=False)  # B_k from quadrature
    phase_numeric: np.ndarray = field(repr=False)  # B_k extracted from the state
    norm_drift: float = 0.0

    def summary_lines(self):
        lines = [f"overlap = {self.overlap:.12f}", f"norm drift = {self.norm_drift:.3e}"]
        for k in range(self.alpha_analytic.size):
            lines.append(
                f"mode {k}: alpha analytic {self.alpha_analytic[k]:.6e} "
                f"numeric {self.alpha_numeric[k]:.6e} | B analytic "
                f"{self.phase_analytic[k]:+.6e} numeric {self.phase_numeric[k]:+.6e}"
            )
            lines.append(f"mode {k}: top-level leakage {self.leakage[k]:.3e}")
        return lines


def _spin_operators(eta1: np.ndarray, eta2: np.ndarray) -> list[np.ndarray]:
    eye = np.eye(2)
    s1 = np.kron(_SIGMA_Y, eye)
    s2 = np.kron(eye, _SIGMA_Y)
    return [0.5 * (e1 * s1 + e2 * s2) for e1, e2 in zip(eta1, eta2)]


def _branch_eigenvalues(eta1: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    """lambda[mode, branch] with branches ordered (++, +-, -+, --)."""
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    return 0.5 * (eta1[:, None] * signs[None, :, 0] + eta2[:, None] * signs[None, :, 1])


def _coherent_vector(beta: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes of |beta>, fine directly for the small beta used here."""
    n = np.arange(n_max)
    factorial = np.cumprod(np.concatenate([[1.0], np.arange(1.0, n_max)]))
    return np.exp(-0.5 * abs(beta) ** 2) * (complex(beta) ** n) / np.sqrt(factorial)


def _spin_basis() -> np.ndarray:
    yp = np.array([1.0, 1.0j]) / sqrt(2.0)
    ym = np.array([1.0, -1.0j]) / sqrt(2.0)
    return np.stack([np.kron(yp, yp), np.kron(yp, ym), np.kron(ym, yp), np.kron(ym, ym)], axis=1)


def _analytic_state(lam, alphas, phases, n_max):
    """Sum over spin branches of coherent-product states with B phases."""
    basis = _spin_basis()
    n_modes = lam.shape[0]
    shape = (4,) + (n_max,) * n_modes
    state = np.zeros(shape, dtype=complex)
    for s in range(4):
        weight = 0.5 * np.exp(-1j * np.sum(phases * lam[:, s] ** 2))  # <s|00> = 1/2
        branch = np.array([1.0 + 0j])
        for k in range(n_modes):
            branch = np.multiply.outer(branch, _coherent_vector(lam[k, s] * alphas[k], n_max))
        branch = branch.reshape(shape[1:])
        state += weight * np.multiply.outer(basis[:, s], branch)
    return state


def run_oracle(
    coupling: GateCoupling,
    pulse: PulseShape,
    delta_c: float,
    spec: OracleSpec,
    domega: float = 0.0,
) -> OracleReport:
    """Integrate the reduced-mode model numerically and compare.

    Raises CutoffError if the top two Fock levels of any mode hold more
    than 1e-8 population at the end of the gate (the truncation would
    then be biasing the comparison).
    """
    idx = np.asarray(spec.mode_indices, dtype=int)
    eta1 = coupling.eta1[idx]
    eta2 = coupling.eta2[idx]
    deltas = delta_c - coupling.freqs[idx] + domega
    n_modes = idx.size
    n_max = spec.n_max

    spins = _spin_operators(eta1, eta2)
    sqrt_n = np.sqrt(np.arange(1, n_max))
    shape = (4,) + (n_max,) * n_modes
    psi = np.zeros(shape, dtype=complex)
    psi[(0,) + (0,) * n_modes] = 1.0  # |00> and motional ground

    tau = pulse.tau
    h = tau / spec.n_steps
    # Omega on the RK4 half-step grid
    omega_grid = pulse.amplitude(np.arange(2 * spec.n_steps + 1) * (h / 2.0))

    mode_axes = [1 + k for k in range(n_modes)]
    broadcasts = []
    for k in range(n_modes):
        bshape = [1] * (1 + n_modes)
        bshape[mode_axes[k]] = n_max - 1
        broadcasts.append(sqrt_n.reshape(bshape))

    def rhs(psi_in, t, omega):
        # d psi/dt = i Omega(t) sum_k S_k (a e^{i d t} + a^dag e^{-i d t}) psi
        out = np.zeros_like(psi_in)
        for k in range(n_modes):
            ax = mode_axes[k]
            up = np.exp(1j * deltas[k] * t)
            buf = np.zeros_like(psi_in)
            lower = [slice(None)] * (1 + n_modes)
            upper = [slice(None)] * (1 + n_modes)
            lower[ax] = slice(0, n_max - 1)
            upper[ax] = slice(1, n_max)
            buf[tuple(lower)] = up * (broadcasts[k] * psi_in[tuple(upper)])
            buf[tuple(upper)] += np.conj(up) * (broadcasts[k] * psi_in[tuple(lower)])
            out += np.tensordot(spins[k], buf, axes=(1, 0))
        out *= 1j * omega
        return out

    for step in range(spec.n_steps):
        t = step * h
        om0 = omega_grid[2 * step]
        om_half = omega_grid[2 * step + 1]
        om1 = omega_grid[2 * step + 2]
        k1 = rhs(psi, t, om0)
        k2 = rhs(psi + 0.5 * h * k1, t + 0.5 * h, om_half)
        k3 = rhs(psi + 0.5 * h * k2, t + 0.5 * h, om_half)
        k4 = rhs(psi + h * k3, t + h, om1)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    norm_drift = abs(np.vdot(psi, psi).real - 1.0)

    # truncation adequacy: population in the two highest Fock levels per mode
    prob = np.abs(psi) ** 2
    leakage = np.empty(n_modes)
    for k in range(n_modes):
        ax = mode_axes[k]
        sl = [slice(None)] * (1 + n_modes)
        sl[ax] = slice(n_max - 2, n_max)
        leakage[k] = prob[tuple(sl)].sum()
    if np.any(leakage > _LEAK_TOL):
        raise CutoffError(
            f"Fock truncation too small: top-two-level population {leakage.max():.3e} "
            f"(n_max = {n_max})"
        )

    # analytic reference from the quadrature path
    alphas, phases = gate_integrals(pulse, deltas)
    lam = _branch_eigenvalues(eta1, eta2)
    reference = _analytic_state(lam, alphas, phases, n_max)
    overlap = abs(np.vdot(reference, psi)) ** 2

    alpha_num, b_num = _extract_mode_quantities(psi, lam, alphas, phases, n_max, n_modes)

    return OracleReport(
        overlap=float(overlap),
        leakage=leakage,
        alpha_analytic=alphas,
        alpha_numeric=alpha_num,
        phase_analytic=phases,
        phase_numeric=b_num,
        norm_drift=float(norm_drift),
    )


def _extract_mode_quantities(psi, lam, alphas, phases, n_max, n_modes):
    """Per-mode alpha and B read off the numeric state.

    alpha comes from <a_k> in the spin branch with the largest eigenvalue
    on that mode (a coherent state's ladder expectation is its
    displacement). The signed B comes from the phase of the (++, +-)
    branch-amplitude ratio, which equals -sum_k B_k (lambda++^2 -
    lambda+-^2); mode k's share is isolated by subtracting the other
    modes' analytic contributions, so for single-mode runs the extraction
    is fully independent of the analytic value.
    """
    basis = _spin_basis()
    shape = (4,) + (n_max,) * n_modes
    psi_mat = psi.reshape(4, -1)
    alpha_num = np.empty(n_modes, dtype=complex)
    b_num = np.empty(n_modes)
    sqrt_n = np.sqrt(np.arange(1, n_max)).reshape((-1,) + (1,) * (n_modes - 1))
    for k in range(n_modes):
        # use the spin branch with the largest displacement on this mode
        s = int(np.argmax(np.abs(lam[k, :])))
        branch_state = (basis[:, s].conj() @ psi_mat).reshape(shape[1:])
        norm = np.vdot(branch_state, branch_state).real
        moved = np.moveaxis(branch_state, k, 0)
        a_exp = np.sum(np.conj(moved[:-1]) * sqrt_n * moved[1:])
        alpha_num[k] = a_exp / norm / lam[k, s]

        # phase of <s, coh | psi> for two branches; other modes' B cancel in
        # the single-mode difference because their lambdas are equal there
        amp = {}
        for s in (0, 1):
            coh = np.array([1.0 + 0j])
            for kk in range(n_modes):
                coh = np.multiply.outer(coh, _coherent_vector(lam[kk, s] * alphas[kk], n_max))
            coh = coh.reshape(shape[1:])
            full = np.multiply.outer(basis[:, s], coh)
            amp[s] = np.vdot(full, psi)
        lam_sq_diff = lam[:, 0] ** 2 - lam[:, 1] ** 2
        total = -np.angle(amp[0] / amp[1])
        other = np.sum(np.delete(phases * lam_sq_diff, k))
        if abs(lam_sq_diff[k]) > 1e-30:
            b_num[k] = (total - other) / lam_sq_diff[k]
        else:
            b_num[k] = np.nan
    return alpha_num, b_num
