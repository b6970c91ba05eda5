"""Phase-space trajectories and entangling phases of the driven modes.

For a drive envelope Omega(t) and a constant sideband detuning delta,
the coherent displacement of a mode and its accumulated geometric phase
are

    alpha(tau) = i * integral_0^tau Omega(t) exp(-i delta t) dt
    B(tau)     = integral over t2 < t1 of Omega(t1) Omega(t2) sin(delta (t1 - t2))
               = integral_0^tau R(s) sin(delta s) ds,

with R(s) = integral_s^tau Omega(t) Omega(t - s) dt the envelope
autocorrelation (``PulseShape.autocorrelation``). alpha is (up to the
factor i) the finite-window Fourier transform of the envelope, B the sine
transform of R: odd in delta and quadratic in the Rabi rate. The
detuning derivatives are transforms of the same table,

    dB/d delta     =  integral_0^tau s R(s) cos(delta s) ds,
    d2B/d delta^2  = -integral_0^tau s^2 R(s) sin(delta s) ds.

A ``TrajectoryEngine`` tabulates the quadrature weights of Omega and R
once per pulse shape, on composite Gauss-Legendre nodes t_n (uniform
panels, aligned to the pieces of a piecewise-polynomial envelope). Every
evaluation is then a sum W_n exp(i delta t_n). Studies evaluate product
grids delta[j, k] = (delta_c - nu_k) + domega_j; because the exponential
factors as exp(i (delta_c - nu_k) t) exp(i domega_j t), a whole
(grid x modes) batch is one matrix product of two exponential tables.
Within each panel the exponentials factor again into a panel-start and a
node-offset term, so a batch of J x K detunings costs (J + K) times
(panels + order) complex exponentials plus the product. The shared
tables are kept per shape at unit peak Rabi rate (alpha ~ omega0,
B ~ omega0^2), so a calibrated pulse reuses its trial pulse's table.

The total gate rotation angle is theta = sum_k eta1_k eta2_k B_k(tau)
over all driven modes, and its derivative with respect to the carrier
detuning is the quantity the balanced designs drive to zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import TWO_PI
from .pulses import PulseShape

GL_ORDER = 8
DEFAULT_PANELS = 512
RESONANCE_GUARD = TWO_PI * 100.0  # rad/s; sideband drives closer than this are rejected
_GL_NODES, _GL_WEIGHTS = leggauss(GL_ORDER)
_BLOCK = 64  # detunings per exponential table: bounds temporaries to a few MB


class ResonanceError(ValueError):
    """A shifted sideband detuning sits on top of a motional mode."""


def square_alpha_closed_form(omega0: float, tau: float, delta: float) -> complex:
    """alpha(tau) of the square pulse: Omega0 (1 - exp(-i delta tau)) / delta."""
    x = delta * tau
    if abs(x) < 1e-6:
        return omega0 * tau * (1j + x / 2.0 - 1j * x * x / 6.0)
    return omega0 * (1.0 - np.exp(-1j * x)) / delta


def square_phase_closed_form(omega0: float, tau: float, delta: float) -> float:
    """B(tau) of the square pulse: Omega0^2 (delta tau - sin delta tau) / delta^2."""
    x = delta * tau
    if abs(x) < 1e-3:
        return omega0**2 * tau**2 * x * (1.0 / 6.0 - x * x / 120.0)
    return omega0**2 * (x - np.sin(x)) / delta**2


def _phasors(deltas, starts, offsets):
    """exp(i delta t_n) on the nodes t_n = starts_p + offsets_i, shape (len(deltas), P*G)."""
    d = deltas[:, None]
    table = np.exp(1j * d * starts)[:, :, None] * np.exp(1j * d * offsets)[:, None, :]
    return table.reshape(deltas.size, -1)


class TrajectoryEngine:
    """Quadrature tables of one pulse shape and the transforms built on them.

    For each panel count the table holds the panel starts, the node
    offsets within a panel and the weights w_n Omega(t_n), w_n R(t_n),
    w_n t_n R(t_n) and w_n t_n^2 R(t_n); every alpha, B and dB/d delta is
    a weighted sum of exp(i delta t_n) over that one node set. The panel
    count is DEFAULT_PANELS unless a call asks for another.
    """

    def __init__(self, pulse: PulseShape):
        self.pulse = pulse
        self._tables: dict[int, tuple] = {}

    def _table(self, panels: int):
        cached = self._tables.get(panels)
        if cached is not None:
            return cached
        if panels < 1:
            raise ValueError("need at least one panel")
        pieces = self.pulse.pieces
        aligned = -(-panels // pieces) * pieces
        h = self.pulse.tau / aligned
        starts = h * np.arange(aligned)
        offsets = h * (_GL_NODES + 1.0) / 2.0
        t = starts[None, :] + offsets[:, None]  # (order, panels)
        w = (h / 2.0) * _GL_WEIGHTS[:, None]
        lag = w * self.pulse.autocorrelation(t)
        weights = np.concatenate([w * self.pulse.amplitude(t), lag, t * lag, t * t * lag], axis=1)
        table = (starts, offsets, weights)
        self._tables[panels] = table
        return table

    def _transform(self, deltas, shifts, table, rows: slice):
        """sum_n W[r, n] exp(i (deltas_k + shifts_j) t_n) for the weight rows
        ``rows`` of the table, shape (J, K, R); J = 1 without shifts.

        One detuning costs panels + order exponentials: the panel-start
        and node-offset factors are contracted separately. A product grid
        is one (J x N) . (N x K R) matrix product of exponential tables.
        """
        starts, offsets, weights = table
        n_panels = starts.size
        w = weights[:, rows.start * n_panels : rows.stop * n_panels]  # (order, R * panels)
        n_rows = rows.stop - rows.start
        if shifts is not None and shifts.size == 1:
            deltas, shifts = deltas + shifts[0], None
        out = np.empty((1 if shifts is None else shifts.size, deltas.size, n_rows), dtype=complex)
        if shifts is None:
            for k0 in range(0, deltas.size, _BLOCK):
                d = deltas[k0 : k0 + _BLOCK, None]
                e_off = np.exp(1j * d * offsets)
                inner = e_off.real @ w + 1j * (e_off.imag @ w)
                inner = inner.reshape(d.size, n_rows, n_panels)
                out[0, k0 : k0 + _BLOCK] = (inner @ np.exp(1j * d * starts)[:, :, None])[..., 0]
            return out
        w = w.reshape(offsets.size, n_rows, n_panels).transpose(1, 2, 0).reshape(n_rows, -1)
        for k0 in range(0, deltas.size, _BLOCK):
            right = _phasors(deltas[k0 : k0 + _BLOCK], starts, offsets)
            rw = (right[:, None, :] * w[None, :, :]).reshape(-1, w.shape[1])
            for j0 in range(0, shifts.size, _BLOCK):
                left = _phasors(shifts[j0 : j0 + _BLOCK], starts, offsets)
                block = (left @ rw.T).reshape(left.shape[0], -1, n_rows)
                out[j0 : j0 + _BLOCK, k0 : k0 + _BLOCK] = block
        return out

    def alpha_and_phase_many(
        self, deltas, panels: int | None = None, *, shifts=None, alpha: bool = True, derivatives: int = 0
    ):
        """alpha(tau) and B(tau) for an array of detunings (rad/s).

        With ``shifts`` (J values) the detunings are the product grid
        deltas[k] + shifts[j] and the results have shape (J,) + deltas.shape;
        otherwise they have the shape of ``deltas``. ``alpha=False``
        returns None for alpha and skips its transform. ``derivatives``
        (0, 1 or 2) appends dB/d delta and then d2B/d delta^2 to the result.
        """
        deltas = np.asarray(deltas, dtype=float)
        shape = deltas.shape
        if shifts is not None:
            shifts = np.atleast_1d(np.asarray(shifts, dtype=float)).ravel()
            shape = shifts.shape + shape
        rows = slice(0 if alpha else 1, 2 + derivatives)  # table rows: Omega, R, t R, t^2 R
        table = self._table(DEFAULT_PANELS if panels is None else panels)
        f = self._transform(deltas.ravel(), shifts, table, rows)
        lag = f[..., 1 if alpha else 0 :]
        out = [1j * f[..., 0].conj().reshape(shape) if alpha else None, lag[..., 0].imag.reshape(shape)]
        if derivatives >= 1:
            out.append(lag[..., 1].real.reshape(shape))
        if derivatives >= 2:
            out.append(-lag[..., 2].imag.reshape(shape))
        return tuple(out)

    def trajectory_path(self, delta: float, n_samples: int) -> np.ndarray:
        """alpha(t) sampled at n_samples uniform times across [0, tau].

        Diagnostic resolution: each partial integral re-runs the panel
        quadrature on [0, t], so the endpoint matches the table's alpha.
        """
        if n_samples < 2:
            raise ValueError("need at least two samples")
        tau = self.pulse.tau
        times = np.linspace(0.0, tau, int(n_samples))
        out = np.empty(times.size, dtype=complex)
        out[0] = 0.0
        for s, t in enumerate(times[1:], start=1):
            panels = max(1, int(np.ceil(DEFAULT_PANELS * t / tau)))
            h = t / panels
            pts = (h * np.arange(panels))[:, None] + (h * (_GL_NODES + 1.0) / 2.0)[None, :]
            om = self.pulse.amplitude(pts)
            out[s] = 1j * np.sum((h / 2.0) * _GL_WEIGHTS[None, :] * om * np.exp(-1j * delta * pts))
        return out


@lru_cache(maxsize=32)
def engine_for(pulse: PulseShape):
    """Shared engine cache; pulses are frozen dataclasses, hence hashable."""
    return TrajectoryEngine(pulse)


def gate_integrals(pulse: PulseShape, deltas, shifts=None, alpha=True, derivatives=0):
    """``alpha_and_phase_many`` of ``pulse`` through the shape's shared table.

    The table is built for the shape at unit peak Rabi rate, so every
    pulse that differs only in omega0 shares one engine; alpha is then
    scaled by omega0 and B and its derivatives by omega0^2.
    """
    unit = engine_for(pulse.with_omega0(1.0))
    out = unit.alpha_and_phase_many(deltas, shifts=shifts, alpha=alpha, derivatives=derivatives)
    scale = pulse.omega0
    alphas = None if out[0] is None else scale * out[0]
    return (alphas,) + tuple(scale * scale * x for x in out[1:])


def check_resonance(deltas: np.ndarray) -> None:
    """Raise ResonanceError if a sideband detuning is within RESONANCE_GUARD of zero."""
    bad = np.flatnonzero(np.abs(deltas) < RESONANCE_GUARD)
    if bad.size:
        raise ResonanceError(
            f"sideband detuning within {RESONANCE_GUARD / TWO_PI:.0f} Hz of modes {bad.tolist()}"
        )
