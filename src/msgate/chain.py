"""Equilibrium structure of a linear ion chain in a harmonic axial well.

Positions are solved in the usual dimensionless form: with the length
scale ``l`` defined by ``l^3 = coulomb_coeff / (m * omega_z^2)``, the
scaled positions ``u_i`` minimise

    V(u) = sum_i u_i^2 / 2 + sum_{i<j} 1 / |u_i - u_j|

and the physical positions are ``x_i = l * u_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import COULOMB_COEFF, ION_MASS, SystemConfig, hz_to_angular


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""


def _center_pair(n: int) -> tuple[int, int]:
    i = (n - 1) // 2
    return (i, i + 1)


@dataclass(frozen=True)
class IonChain:
    """Immutable equilibrium configuration of ``n`` ions."""

    n: int
    omega_z: float  # axial COM angular frequency, rad/s
    length_scale: float  # m
    u: np.ndarray = field(repr=False)  # dimensionless positions, ascending

    @property
    def positions(self) -> np.ndarray:
        """Physical equilibrium positions in metres."""
        return self.length_scale * self.u

    def center_pair(self) -> tuple[int, int]:
        """Indices of the two designated centre ions (right neighbour for odd n)."""
        return _center_pair(self.n)

    def center_spacing(self) -> float:
        """Separation of the designated centre ions in metres."""
        i, j = self.center_pair()
        return float(self.positions[j] - self.positions[i])


def _force(u: np.ndarray) -> np.ndarray:
    """Gradient of the dimensionless potential (zero at equilibrium)."""
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    inv2 = np.sign(diff) / diff**2
    return u - inv2.sum(axis=1)


def _hessian(u: np.ndarray) -> np.ndarray:
    """Dimensionless axial Hessian; also the Newton Jacobian of _force."""
    diff = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(diff, np.inf)
    inv3 = 1.0 / diff**3
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * inv3.sum(axis=1))
    return h


@lru_cache(maxsize=None)
def _equilibrium_cached(n: int) -> tuple[float, ...]:
    if n < 2:
        raise ValueError("need at least 2 ions")
    # spread the initial guess like the real chain extent, which grows
    # slightly faster than sqrt(n)
    u = np.linspace(-float(n) ** 0.56, float(n) ** 0.56, n)
    fu = _force(u)
    res = np.abs(fu).max()
    for _ in range(200):
        if res <= 1e-13:
            break
        step = np.linalg.solve(_hessian(u), fu)
        scale = 1.0
        for _ in range(60):
            trial = u - scale * step
            if np.all(np.diff(trial) > 0):
                f_trial = _force(trial)
                r_trial = np.abs(f_trial).max()
                if r_trial < res:
                    u, fu, res = trial, f_trial, r_trial
                    break
            scale *= 0.5  # damp on overshoot or ion crossing
        else:
            # roundoff floor reached; fine as long as the contract holds
            if res <= 5e-13:
                break
            raise ConvergenceError("equilibrium damping stalled")
    else:
        raise ConvergenceError(
            f"equilibrium positions did not converge for n={n} (residual {res:.3e})"
        )
    # the exact solution is mirror symmetric and zero-sum; project out roundoff
    u = 0.5 * (u - u[::-1])
    if np.abs(_force(u)).max() > 1e-12:
        raise ConvergenceError(f"equilibrium residual too large for n={n}")
    return tuple(u)


def equilibrium_positions(n: int) -> np.ndarray:
    """Dimensionless equilibrium positions, strictly ascending and zero-sum.

    Solved by damped Newton iteration on the force balance; the residual
    of the returned solution is below 1e-12 for every ion.
    """
    return np.array(_equilibrium_cached(int(n)))


def center_spacing_dimensionless(n: int) -> float:
    """Scaled separation of the designated centre ions."""
    i, j = _center_pair(n)
    u = equilibrium_positions(n)
    return float(u[j] - u[i])


def axial_freq_for_center_spacing(n: int, spacing: float) -> float:
    """Axial COM angular frequency that puts the centre ions ``spacing`` apart.

    Closed form: the dimensionless centre spacing fixes the length scale
    ``l = spacing / du_center(n)`` and then
    ``omega_z = sqrt(coulomb_coeff / (m l^3))``, so doubling the spacing
    divides omega_z by 2**1.5.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    du = center_spacing_dimensionless(n)
    length = spacing / du
    return float(np.sqrt(COULOMB_COEFF / (ION_MASS * length**3)))


def chain_for_axial_freq(n: int, omega_z: float) -> IonChain:
    """IonChain for a given axial COM angular frequency (rad/s)."""
    if omega_z <= 0:
        raise ValueError("omega_z must be positive")
    length = (COULOMB_COEFF / (ION_MASS * omega_z**2)) ** (1.0 / 3.0)
    return IonChain(n=int(n), omega_z=float(omega_z), length_scale=float(length), u=equilibrium_positions(n))


def build_chain(config: SystemConfig) -> IonChain:
    """IonChain from a SystemConfig (direct axial frequency or centre spacing)."""
    if config.axial_freq_hz is not None:
        omega_z = hz_to_angular(config.axial_freq_hz)
    else:
        omega_z = axial_freq_for_center_spacing(config.n_ions, config.center_spacing_m)
    return chain_for_axial_freq(config.n_ions, omega_z)

