"""Gate error decomposition, exact fidelity and the parity-scan estimator.

The spin operator coupling a mode to the target pair has the four
eigenvalues (eta1 +- eta2)/2, one per joint eigenstate of sigma_y on the
two ions. Everything in this module reduces to sums over those four
branches: the surviving overlap of a displaced motional ground state is
exp(-|lambda alpha|^2 / 2) per mode, and each branch accumulates the
phase exp(-i B_k lambda^2).

The target state is (|00> + i|11>)/sqrt(2) together with all modes back
in their motional ground state.

The error functions take the end-of-gate displacements alpha_k and phases
B_k as arrays of shape (..., K) for K modes and broadcast over the leading
axes, so a whole grid of frequency errors is one call; plain K-vectors
give plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modes import GateCoupling

# single-qubit sigma_y eigenvectors (|0> +- i|1>)/sqrt(2), columns = (+, -)
_YP = np.array([1.0, 1.0j]) / np.sqrt(2.0)
_YM = np.array([1.0, -1.0j]) / np.sqrt(2.0)

# computational-basis columns of the joint eigenbasis, order (++, +-, -+, --)
SPIN_BASIS = np.stack(
    [np.kron(_YP, _YP), np.kron(_YP, _YM), np.kron(_YM, _YP), np.kron(_YM, _YM)], axis=1
)

TARGET_STATE = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)  # (|00> + i|11>)/sqrt(2)

# branch signs of (s1, s2) in the eigenvalue (s1 eta1 + s2 eta2)/2
_BRANCH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PARITY_OP = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


@dataclass(frozen=True)
class SpinEigensystem:
    """Branch eigenvalues lambda[k, s] plus the fixed basis amplitudes.

    ``initial`` holds <s|00> (all 1/2) and ``target`` holds <s|Phi>.
    """

    eigenvalues: np.ndarray = field(repr=False)  # (n_modes, 4)
    initial: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.shape[0]


def spin_eigensystem(coupling: GateCoupling) -> SpinEigensystem:
    lam = 0.5 * (
        coupling.eta1[:, None] * _BRANCH_SIGNS[None, :, 0]
        + coupling.eta2[:, None] * _BRANCH_SIGNS[None, :, 1]
    )
    initial = SPIN_BASIS.conj().T @ np.array([1.0, 0.0, 0.0, 0.0])
    target = SPIN_BASIS.conj().T @ TARGET_STATE
    return SpinEigensystem(eigenvalues=lam, initial=initial, target=target)


def displacement_error(eigsys: SpinEigensystem, alphas):
    """Per-mode and total infidelity from residual displacement.

    eps_{d,k} = 1 - | (1/4) sum_branches exp(-|lambda alpha_k|^2 / 2) |^2,
    evaluated via the per-branch deficits 1 - exp(-x) so the tiny errors
    of a well-closed trajectory keep full relative precision.

    Broadcasts over the leading axes of (..., K) ``alphas``: per_mode has
    their shape and the total drops the mode axis (a float for K-vectors).
    """
    if np.shape(alphas)[-1] != eigsys.n_modes:
        raise ValueError("alphas and eigensystem cover different mode sets")
    mag2 = (np.abs(alphas)[..., None] * eigsys.eigenvalues) ** 2
    deficit = -np.expm1(-mag2 / 2.0).mean(axis=-1)  # 1 - mean overlap
    per_mode = deficit * (2.0 - deficit)
    return per_mode, _scalar(per_mode.sum(axis=-1))


def rotation_error(theta):
    """eps_r = |theta - pi/2|^2 / 4, elementwise for an array of angles.

    Squared by one multiplication for scalars and arrays alike, so an angle
    gets the same eps_r alone and inside a grid.
    """
    return _scalar(np.square(np.asarray(theta, dtype=float) - np.pi / 2.0) / 4.0)


def exact_fidelity(eigsys: SpinEigensystem, alphas, phases):
    """|<Phi| Psi(tau)>|^2 with every mode starting in its ground state.

    Branch s keeps amplitude <s|00> times, per mode, the phase
    exp(-i B_k lambda^2) and the ground-state overlap
    exp(-|lambda alpha_k|^2 / 2) of the displaced mode. Broadcasts over
    the leading axes of (..., K) ``alphas`` and ``phases`` (a float for
    K-vectors).
    """
    lam = eigsys.eigenvalues
    branch_log = -1j * np.asarray(phases)[..., None] * lam**2 - 0.5 * (
        lam * np.abs(alphas)[..., None]
    ) ** 2
    branch = np.exp(branch_log.sum(axis=-2))
    amp = np.sum(eigsys.target.conj() * eigsys.initial * branch, axis=-1)
    return _scalar(np.square(np.abs(amp)))


def _scalar(values):
    """A 0-d result as a Python float, anything larger unchanged."""
    return float(values) if np.ndim(values) == 0 else values


def reduced_density_matrix(eigsys: SpinEigensystem, alphas, phases) -> np.ndarray:
    """Two-qubit density matrix after tracing out the motion, from the
    K-vectors of end-of-gate alpha_k and B_k.

    Off-branch coherences decay with the displacement separation:
    <lambda' alpha | lambda alpha> = exp(-|alpha|^2 (lambda - lambda')^2 / 2)
    for real lambda, lambda'. Returned in the computational basis.

    Raises ValueError if numerical negativity exceeds 1e-8 (which would
    indicate an implementation bug, not bad physics input).
    """
    lam = eigsys.eigenvalues  # (n_modes, 4)
    b = np.asarray(phases)[:, None, None]
    lam_s = lam[:, :, None]
    lam_t = lam[:, None, :]
    log_coh = (
        -1j * b * (lam_s**2 - lam_t**2)
        - 0.5 * (np.abs(alphas)[:, None, None] * (lam_s - lam_t)) ** 2
    )
    coherence = np.exp(log_coh.sum(axis=0))
    rho_s = np.outer(eigsys.initial, eigsys.initial.conj()) * coherence
    rho = SPIN_BASIS @ rho_s @ SPIN_BASIS.conj().T
    eigvals = np.linalg.eigvalsh(rho)
    if eigvals.min() < -1e-8:
        raise ValueError(f"density matrix has negative eigenvalue {eigvals.min():.3e}")
    return rho


def analysis_rotation(phi: float) -> np.ndarray:
    """Global pi/2 rotation about the equatorial axis at azimuth phi."""
    axis = np.cos(phi) * _PAULI_X + np.sin(phi) * _PAULI_Y
    single = (np.eye(2, dtype=complex) - 1j * axis) / np.sqrt(2.0)
    return np.kron(single, single)


@dataclass(frozen=True)
class ParityScan:
    phis: np.ndarray
    parities: np.ndarray
    amplitude: float  # fitted oscillation amplitude A_pi
    degenerate: bool = False

    def fidelity_estimate(self, rho: np.ndarray) -> float:
        """Population-plus-parity estimator (rho00 + rho11)/2 + A_pi/2."""
        populations = np.real(np.diag(rho))
        return float(0.5 * (populations[0] + populations[3]) + 0.5 * self.amplitude)


def parity_scan(rho: np.ndarray, phis) -> ParityScan:
    """Simulated parity oscillation <sigma_z sigma_z>(phi) and its sine fit.

    Fits A sin(2 phi + phi0) + C by linear least squares with the
    two-ion parity frequency held fixed at 2 phi.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.size < 8:
        raise ValueError("need at least 8 analysis phases")
    parities = np.empty(phis.size)
    for i, phi in enumerate(phis):
        r = analysis_rotation(phi)
        rotated = r @ rho @ r.conj().T
        parities[i] = np.real(np.trace(rotated @ _PARITY_OP))
    design = np.column_stack([np.sin(2.0 * phis), np.cos(2.0 * phis), np.ones(phis.size)])
    coeff, *_ = np.linalg.lstsq(design, parities, rcond=None)
    a, b = coeff[:2]
    amplitude = float(np.hypot(a, b))
    degenerate = np.ptp(parities) < 1e-12
    if degenerate:
        amplitude = 0.0
    return ParityScan(
        phis=phis,
        parities=parities,
        amplitude=amplitude,
        degenerate=degenerate,
    )
