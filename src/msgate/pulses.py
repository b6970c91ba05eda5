"""Carrier Rabi-rate envelopes Omega(t) for the three pulse families.

All shapes vanish outside the gate window [0, tau] and are non-negative
inside it. ``omega0`` is the peak angular Rabi rate in rad/s; the config
builds every shape at unit rate, and a design sets its own. Each shape
also gives its autocorrelation R(s) = integral_s^tau Omega(t) Omega(t-s) dt
exactly (closed form, or exact piecewise-polynomial quadrature for the
spline); the entangling phase is the sine transform of R. The natural
cubic spline S that the spline envelope squares is defined here too. It
is fitted once per shape (tau, z, n_knots) at unit peak rate, and
Omega = omega0 S^2 at any rate. ``PulseShape.node_samples`` gives Omega
and R on the trajectory engine's quadrature nodes: node by node for the
closed forms, and for the spline from one pattern of node positions that
every knot piece shares, and ``log_bounds`` bounds both on complex times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebvander
from numpy.polynomial.legendre import leggauss

from .config import PulseSpec


class NaturalCubicSpline:
    """Natural cubic spline through (x, y) with zero end curvature.

    Evaluation clamps to the end intervals, so querying slightly outside
    [x[0], x[-1]] extrapolates the boundary cubics; callers that need
    compact support apply their own window.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 3:
            raise ValueError("need matching 1-d arrays with at least 3 knots")
        if np.any(np.diff(x) <= 0):
            raise ValueError("knots must be strictly increasing")
        self.x = x
        self.y = y
        self.m = self._second_derivatives(x, y)

    @staticmethod
    def _second_derivatives(x, y):
        h = np.diff(x)
        # tridiagonal system for the interior second derivatives
        matrix = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
        rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
        m = np.zeros(x.size)
        m[1:-1] = np.linalg.solve(matrix, rhs)
        return m

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        x0 = self.x[idx]
        x1 = self.x[idx + 1]
        h = x1 - x0
        return self._cubic((x1 - t) / h, (t - x0) / h, idx, h)

    def on_intervals(self, u):
        """S at x_j + u (x_j+1 - x_j) on every interval j, shape u.shape + (intervals,)."""
        u = np.asarray(u, dtype=float)[..., None]
        return self._cubic(1.0 - u, u, np.arange(self.x.size - 1), np.diff(self.x))

    def _cubic(self, a, b, idx, h):
        """The cubic of interval ``idx`` at local weights a = 1 - b, b = (t - x0) / h."""
        return (
            a * self.y[idx]
            + b * self.y[idx + 1]
            + ((a**3 - a) * self.m[idx] + (b**3 - b) * self.m[idx + 1]) * h**2 / 6.0
        )


@dataclass(frozen=True)
class PulseShape:
    """Base envelope; subclasses implement the in-window profile."""

    omega0: float  # rad/s
    tau: float  # s

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def _profile(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def autocorrelation(self, s: np.ndarray) -> np.ndarray:
        """R(s) = integral_s^tau Omega(t) Omega(t - s) dt for lags s in [0, tau]."""
        raise NotImplementedError

    @property
    def pieces(self) -> int:
        """Equal sub-intervals of [0, tau] on which the envelope is one
        analytic function; quadrature panels are aligned to them."""
        return 1

    def node_samples(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Omega and R at the quadrature nodes t of uniform panels, shape
        (order, panels), the panel count a multiple of ``pieces``."""
        return self.amplitude(t), self.autocorrelation(t)

    def log_bounds(self, lo, hi, y):
        """log of bounds on |Omega| and |R| over the complex rectangles [lo, hi]
        x [-y, y], ``lo``, ``hi`` of shape (groups, len(y)); a group's
        rectangles lie over one piece, whose analytic continuation is bounded."""
        raise NotImplementedError

    def amplitude(self, t):
        """Omega(t) in rad/s; zero outside [0, tau]."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.tau)
        out = np.zeros(t.shape)
        if np.any(inside):
            out[inside] = self._profile(t[inside])
        if out.ndim == 0 or t.ndim == 0:
            return float(np.where(inside, out, 0.0))
        return out

    def with_omega0(self, omega0: float) -> "PulseShape":
        """Same shape rescaled to a new peak Rabi rate."""
        raise NotImplementedError

    @cached_property
    def unit_rate(self) -> "PulseShape":
        """``with_omega0(1.0)``, built once per pulse."""
        return self.with_omega0(1.0)


@dataclass(frozen=True)
class SquarePulse(PulseShape):
    """Constant Rabi rate over the whole gate window."""

    variant = "square"

    def _profile(self, t):
        return np.full(t.shape, self.omega0)

    def autocorrelation(self, s):
        return self.omega0**2 * (self.tau - np.asarray(s, dtype=float))

    def log_bounds(self, lo, hi, y):
        far = np.maximum(np.abs(self.tau - lo), np.abs(self.tau - hi))
        return np.log(self.omega0) + 0.0 * far, 2.0 * np.log(self.omega0) + 0.5 * np.log(far * far + y * y)

    def with_omega0(self, omega0):
        return SquarePulse(omega0=omega0, tau=self.tau)


@dataclass(frozen=True)
class TruncGaussianPulse(PulseShape):
    """Gaussian of width z centred on tau/2, truncated to [0, tau]."""

    z: float = 25e-6  # s

    variant = "trunc_gaussian"

    def __post_init__(self):
        super().__post_init__()
        if self.z <= 0:
            raise ValueError("z must be positive")

    def _profile(self, t):
        return self.omega0 * np.exp(-((t - self.tau / 2.0) ** 2) / (2.0 * self.z**2))

    def autocorrelation(self, s):
        # Omega(t) Omega(t - s) = omega0^2 exp(-s^2/4z^2) exp(-u^2/z^2), u = t - (tau + s)/2
        s = np.asarray(s, dtype=float)
        half_width = (self.tau - s) / (2.0 * self.z)
        erf = np.fromiter(map(math.erf, half_width.ravel().tolist()), float, half_width.size).reshape(s.shape)
        gauss = np.exp(-(s**2) / (4.0 * self.z**2))
        return self.omega0**2 * self.z * math.sqrt(math.pi) * gauss * erf

    def log_bounds(self, lo, hi, y):
        """|Omega(x + iy)| = Omega(x) exp(y^2 / 2z^2). R is omega0^2 z sqrt(pi)
        exp(-t^2 / 4z^2) erf(u + iv) with u + iv = (tau - t) / 2z, and
        |erf(u + iv)| <= 1 + (2 / sqrt(pi)) |v| exp(v^2 - u^2); lo < tau and hi > 0."""
        four_z2, y2 = 4.0 * self.z**2, y * y
        near = np.clip(self.tau / 2.0, lo, hi) - self.tau / 2.0
        log_erf = np.logaddexp(0.0, np.log(y / (self.z * math.sqrt(math.pi))) + (y2 - np.maximum(self.tau - hi, 0.0) ** 2) / four_z2)
        log_lag = np.log(self.omega0**2 * self.z * math.sqrt(math.pi)) + (y2 - np.maximum(lo, 0.0) ** 2) / four_z2
        return np.log(self.omega0) + (y2 - near * near) / (0.5 * four_z2), log_lag + log_erf

    def with_omega0(self, omega0):
        return TruncGaussianPulse(omega0=omega0, tau=self.tau, z=self.z)


_SPLINE_R_DEGREE = 13  # degree of R(s) between knot-aligned lags (6 + 6 + 1)
_GL7_NODES, _GL7_WEIGHTS = leggauss(7)  # exact for the degree-12 products of two Omega pieces
_CUBIC_SAMPLES = (np.cos(np.pi * np.arange(4) / 3.0) + 1.0) / 2.0  # local positions in a knot piece
_CUBIC_FROM_SAMPLES = np.linalg.inv(chebvander(2.0 * _CUBIC_SAMPLES - 1.0, 3))  # a cubic's Chebyshev coefficients


@lru_cache(maxsize=64)
def _unit_spline(tau: float, z: float, n_knots: int) -> NaturalCubicSpline:
    """The spline S through sqrt-Gaussian knots at unit peak rate (width
    z sqrt 2 in amplitude), fitted once per shape."""
    knot_t = np.linspace(0.0, tau, n_knots)
    return NaturalCubicSpline(knot_t, np.exp(-((knot_t - tau / 2.0) ** 2) / (4.0 * z**2)))


@dataclass(frozen=True)
class SplineGaussianPulse(PulseShape):
    """Squared natural cubic spline through square-root-of-Gaussian knots.

    The hardware this models shapes each beam with a spline through
    sqrt-Gaussian amplitude samples; the two-photon Rabi rate is the
    square of that spline, so it matches the truncated Gaussian exactly
    at every knot and is non-negative by construction. Knot times are
    equally spaced across [0, tau] with non-zero endpoint values. The
    spline S is fitted at unit peak rate, once per (tau, z, n_knots), and
    Omega = omega0 S^2, so ``with_omega0`` and ``unit_rate`` refit nothing.
    """

    z: float = 25e-6  # s, width of the squared (two-photon) Gaussian
    n_knots: int = 13

    variant = "spline_gaussian"

    def __post_init__(self):
        super().__post_init__()
        if self.z <= 0:
            raise ValueError("z must be positive")
        if self.n_knots < 4:
            raise ValueError("need at least 4 knots")
        object.__setattr__(self, "_spline", _unit_spline(self.tau, self.z, self.n_knots))

    def _profile(self, t):
        return self.omega0 * self._spline(t) ** 2

    @property
    def pieces(self) -> int:
        return self.n_knots - 1

    def node_samples(self, t):
        """Omega and R at the table nodes from one node pattern per knot piece.

        The panels are aligned to the pieces, so every piece holds the same
        q = panels / pieces panels and the same local node positions, those
        of the first piece. Omega is each piece's cubic at that pattern,
        squared; R is one Chebyshev basis of the pattern times
        ``_lag_coefficients`` (its lag interval is the node's piece).
        """
        order, panels = t.shape
        q = panels // self.pieces
        local = t[:, :q] / (self._spline.x[1] - self._spline.x[0])  # (order, q) in [0, 1)
        omega = self.omega0 * self._spline.on_intervals(local) ** 2
        lag = chebvander(2.0 * local - 1.0, _SPLINE_R_DEGREE) @ self._lag_coefficients
        # (order, q, pieces) -> (order, panels): panel p = piece * q + local panel
        return tuple(np.swapaxes(x, 1, 2).reshape(order, panels) for x in (omega, lag))

    @cached_property
    def _lag_coefficients(self) -> np.ndarray:
        """Chebyshev coefficients of R on every knot-aligned lag interval,
        shape (_SPLINE_R_DEGREE + 1, pieces); solved once per pulse.

        Omega is a degree-6 polynomial between knots, so on each lag
        interval s = (m + r) h (h the knot spacing, 0 <= r <= 1) R is a
        polynomial of degree 13 in r. It is sampled at 14 Chebyshev points
        r and interpolated. A sample splits the integrand at the knots of
        t and of t - s: on t in [t_j + r h, t_j+1] it pairs interval j
        with interval j - m, on [t_j, t_j + r h] interval j with j - m - 1,
        and 7-point Gauss-Legendre is exact on every such piece.
        """
        knots = self._spline.x
        h = knots[1] - knots[0]
        u = (_GL7_NODES + 1.0) / 2.0
        cheb = np.cos(np.pi * np.arange(_SPLINE_R_DEGREE + 1) / _SPLINE_R_DEGREE)
        r = (cheb[:, None] + 1.0) / 2.0
        # Omega on every knot interval at the four sets of local positions in [0, 1]
        local = np.stack([r + (1.0 - r) * u, (1.0 - r) * u, r * u, 1.0 - r + r * u])
        late_hi, late_lo, early_hi, early_lo = self._profile(knots[:-1, None, None] + h * local[:, None])
        w_late, w_early = (1.0 - r) * _GL7_WEIGHTS / 2.0, r * _GL7_WEIGHTS / 2.0
        n = self.pieces
        samples = np.empty((_SPLINE_R_DEGREE + 1, n))
        for m in range(n):
            late = np.sum(late_hi[m:] * late_lo[: n - m] * w_late, axis=(0, 2))
            early = np.sum(early_hi[m + 1 :] * early_lo[: n - m - 1] * w_early, axis=(0, 2))
            samples[:, m] = h * (late + early)
        return np.linalg.solve(chebvander(cheb, _SPLINE_R_DEGREE), samples)

    @cached_property
    def _abs_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """|Chebyshev coefficients| of S and of R on each knot piece, (pieces, 4) and (pieces, 14)."""
        return np.abs(_CUBIC_FROM_SAMPLES @ self._spline.on_intervals(_CUBIC_SAMPLES)).T, np.abs(self._lag_coefficients).T

    def log_bounds(self, lo, hi, y):
        """sum_k |c_k| sigma^k over the piece's Chebyshev coefficients of S
        (Omega = omega0 S^2) and of R, sigma the piece's Bernstein ellipse
        through the rectangle's corner."""
        h = self._spline.x[1] - self._spline.x[0]
        piece = ((lo[:, :1] + hi[:, :1]) // (2.0 * h)).astype(int)  # that of the group's centre
        centre = (piece + 0.5) * h
        corner = (np.maximum(centre - lo, hi - centre) + 1j * y) * (2.0 / h)  # in the piece's [-1, 1]
        sigma = np.abs(corner + np.sqrt(corner - 1.0) * np.sqrt(corner + 1.0))
        powers = sigma[..., None] ** np.arange(_SPLINE_R_DEGREE + 1)
        spline, lag = (np.einsum("gsk,gk->gs", powers[..., : c.shape[1]], c[piece[:, 0]]) for c in self._abs_coefficients)
        return np.log(self.omega0) + 2.0 * np.log(spline), np.log(lag)

    def autocorrelation(self, s):
        """Exact R(s) from its piecewise-polynomial structure (``_lag_coefficients``)."""
        s = np.asarray(s, dtype=float)
        h = self._spline.x[1] - self._spline.x[0]
        m = np.clip(np.floor(s / h), 0, self.pieces - 1).astype(int)
        basis = chebvander(2.0 * (s / h - m) - 1.0, _SPLINE_R_DEGREE)
        return np.sum(basis * np.moveaxis(self._lag_coefficients[:, m], 0, -1), axis=-1)

    def with_omega0(self, omega0):
        return SplineGaussianPulse(omega0=omega0, tau=self.tau, z=self.z, n_knots=self.n_knots)


def make_pulse(spec: PulseSpec) -> PulseShape:
    """The config's PulseShape (times in s) at unit peak Rabi rate, omega0 = 1."""
    if spec.type == "square":
        return SquarePulse(omega0=1.0, tau=spec.tau_s)
    if spec.type == "trunc_gaussian":
        return TruncGaussianPulse(omega0=1.0, tau=spec.tau_s, z=spec.z_s)
    if spec.type == "spline_gaussian":
        return SplineGaussianPulse(omega0=1.0, tau=spec.tau_s, z=spec.z_s, n_knots=spec.n_knots)
    raise ValueError(f"unknown pulse type {spec.type!r}")
