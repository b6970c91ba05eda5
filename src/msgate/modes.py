"""Radial normal modes of the chain and Lamb-Dicke couplings for a target pair.

The dimensionless radial mode matrix for a trap frequency omega_t (the
radial COM mode) has entries

    A_ii = (omega_t/omega_z)^2 - sum_{m != i} |u_i - u_m|^-3,
    A_ij = +|u_i - u_j|^-3,

and its eigenvalues mu_k give the mode frequencies ``omega_z * sqrt(mu_k)``.
The highest radial mode is always the centre-of-mass mode at exactly omega_t.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import IonChain
from .config import HBAR, ION_MASS, TWO_PI, SystemConfig, angular_to_hz, hz_to_angular

LAMB_DICKE_WARN = 0.2  # |eta| beyond this leaves the regime the model assumes


class ZigZagInstabilityError(ValueError):
    """The radial confinement is too weak for a linear chain."""


class DegenerateModesError(ValueError):
    """Two modes of one direction are too close to order reliably."""


@dataclass(frozen=True)
class ModeStructure:
    """Eigenmodes of one principal direction.

    ``freqs`` are angular frequencies in rad/s, ascending; column k of
    ``participation`` is the orthonormal displacement pattern of mode k,
    sign-fixed so that the first entry of significant size is positive.
    """

    direction: str  # 'radial_a' | 'radial_b'
    freqs: np.ndarray = field(repr=False)
    participation: np.ndarray = field(repr=False)

    def splitting(self, k1: int = 0, k2: int = 1) -> float:
        """Frequency gap nu_k2 - nu_k1 in rad/s."""
        return float(self.freqs[k2] - self.freqs[k1])


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry of each column positive.

    Entries that vanish by mirror symmetry come out of the eigensolver as
    O(1e-16) noise, so "nonzero" means above 1e-8 of the column maximum;
    that keeps the sign choice reproducible run to run.
    """
    size = np.abs(vectors)
    first = np.argmax(size > 1e-8 * size.max(axis=0), axis=0)
    return np.where(vectors[first, np.arange(vectors.shape[1])] < 0, -vectors, vectors)


def _check_nondegenerate(freqs: np.ndarray, direction: str) -> None:
    gaps = np.diff(freqs)
    if np.any(gaps < 1e-6 * freqs[:-1]):
        raise DegenerateModesError(
            f"near-degenerate {direction} modes; frequency ordering is not reliable"
        )


def radial_hessian(chain: IonChain, trap_freq: float) -> np.ndarray:
    diff = np.abs(chain.u[:, None] - chain.u[None, :])
    np.fill_diagonal(diff, np.inf)
    inv3 = 1.0 / diff**3
    a = inv3.copy()
    ratio2 = (trap_freq / chain.omega_z) ** 2
    np.fill_diagonal(a, ratio2 - inv3.sum(axis=1))
    return a


def radial_modes(chain: IonChain, trap_freq: float, direction: str = "radial_b") -> ModeStructure:
    """Radial eigenmodes for a trap (COM) angular frequency ``trap_freq``.

    Raises ZigZagInstabilityError when the lowest eigenvalue is not
    positive, i.e. the chain would buckle out of the line.
    """
    mu, b = np.linalg.eigh(radial_hessian(chain, trap_freq))
    if mu[0] <= 0.0:
        raise ZigZagInstabilityError(
            f"zig-zag mode unstable: lowest radial eigenvalue {mu[0]:.6g} "
            f"(omega_z/2pi = {angular_to_hz(chain.omega_z):.6g} Hz is too stiff "
            f"for trap {angular_to_hz(trap_freq):.6g} Hz)"
        )
    freqs = chain.omega_z * np.sqrt(mu)
    _check_nondegenerate(freqs, direction)
    return ModeStructure(
        direction=direction,
        freqs=freqs,
        participation=_fix_column_signs(b),
    )


@dataclass(frozen=True)
class GateCoupling:
    """Sideband couplings of one ion pair to all 2n radial modes.

    Mode arrays concatenate the radial-a block first, then radial-b.
    ``eta1``/``eta2`` are the Lamb-Dicke parameters of the first and
    second target ion; a differential drive phase of pi on the second
    ion (``even_flip``) is folded in as ``eta2 -> -eta2``.
    """

    pair: tuple[int, int]
    freqs: np.ndarray = field(repr=False)  # rad/s, per mode
    eta1: np.ndarray = field(repr=False)
    eta2: np.ndarray = field(repr=False)
    directions: tuple[str, ...] = field(repr=False, default=())
    mode_indices: tuple[int, ...] = field(repr=False, default=())
    even_flip: bool = False

    @property
    def eta_products(self) -> np.ndarray:
        """Per-mode eta1*eta2; these weight the entangling phase."""
        return self.eta1 * self.eta2

    def flat_index(self, direction: str, k: int) -> int:
        """Position of mode (direction, k) in the concatenated arrays."""
        for flat, (d, i) in enumerate(zip(self.directions, self.mode_indices)):
            if d == direction and i == k:
                return flat
        raise KeyError(f"no mode {k} in direction {direction!r}")

    def flipped(self) -> "GateCoupling":
        """Same coupling with the differential pi phase toggled."""
        return replace(self, eta2=-self.eta2, even_flip=not self.even_flip)


def lamb_dicke_parameters(modes: ModeStructure, config: SystemConfig, ion: int) -> np.ndarray:
    """eta_k of one ion for every mode of one radial direction."""
    ground_extent = np.sqrt(HBAR / (2.0 * ION_MASS * modes.freqs))
    k_proj = config.wavevector_factor * TWO_PI / config.wavelength_m * np.cos(config.projection_angle_rad)
    return modes.participation[ion, :] * k_proj * ground_extent


def build_coupling(config: SystemConfig, chain: IonChain) -> GateCoupling:
    """Couplings of the configured target pair to the 2n radial modes.

    Radial-a modes come first, then radial-b. Even chains get the
    differential pi phase (``even_flip``), which keeps the gate phase sign
    uniform across chain lengths.
    """
    modes = [
        radial_modes(chain, hz_to_angular(config.radial_a_freq_hz), "radial_a"),
        radial_modes(chain, hz_to_angular(config.radial_b_freq_hz), "radial_b"),
    ]
    i1, i2 = config.target_pair
    eta1 = np.concatenate([lamb_dicke_parameters(m, config, i1) for m in modes])
    eta2 = np.concatenate([lamb_dicke_parameters(m, config, i2) for m in modes])
    even_flip = config.n_ions % 2 == 0
    if even_flip:
        eta2 = -eta2
    worst = max(np.abs(eta1).max(), np.abs(eta2).max())
    if worst >= LAMB_DICKE_WARN:
        warnings.warn(
            f"Lamb-Dicke parameter {worst:.3f} exceeds {LAMB_DICKE_WARN}; "
            "the linearised sideband model is questionable",
            stacklevel=2,
        )
    return GateCoupling(
        pair=(int(i1), int(i2)),
        freqs=np.concatenate([m.freqs for m in modes]),
        eta1=eta1,
        eta2=eta2,
        directions=tuple(m.direction for m in modes for _ in range(chain.n)),
        mode_indices=tuple(range(chain.n)) * 2,
        even_flip=even_flip,
    )
