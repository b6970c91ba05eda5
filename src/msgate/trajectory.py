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
panels, aligned to the pieces of a piecewise-polynomial envelope). The
shape gives Omega and R at the nodes (``PulseShape.node_samples``): node
by node for the closed forms, and for the spline from one node pattern
that every knot piece shares. Every evaluation is then a sum
W_n exp(i delta t_n). Studies evaluate product grids
delta[j, k] = (delta_c - nu_k) + domega_j; because the exponential
factors as exp(i (delta_c - nu_k) t) exp(i domega_j t), a whole
(grid x modes) batch is one matrix product over the panels. Within each
panel the exponentials factor again into a panel-start and a node-offset
term. The panel starts are uniform, s_p = p h, so with p = q B + r
(B about sqrt(panels)) the panel-start term is exp(i delta h B q) times
exp(i delta h r), two short tables joined by one complex product. A batch
of J x K detunings then costs (J + K) times (2 sqrt(panels) + order)
exponentials plus the products. The shared tables are kept per shape at
unit peak Rabi rate (alpha ~ omega0, B ~ omega0^2), so a calibrated pulse
reuses its trial pulse's table.

The panel count of a call follows from a relative accuracy quad_rel
(``tol.quad_rel`` of the config) and the call's bandwidth max |delta| tau
over all its detunings, shifts included, rounded up to a bucket top
2^(b/8). The counts form a ladder of rungs P = 64, 128, ..., 4 096. A
rung serves no bandwidth above 2 pi P (more than one oscillation of
exp(i delta t) per panel lines the panel phases up at the alias
2 pi P, where the Gauss-Legendre errors add coherently). Below that
limit its capacity is the widest bucket on whose probe P and 2P panels
agree to quad_rel; buckets are tried from the limit down. The probe of a
bucket is a coarse sweep of [0, top] and one ripple period 2 pi of the
finite window just below the top, where the error of an alias-free rule
is largest. A call gets the smallest rung whose capacity covers its
bucket; the agreement gap at that capacity is its error estimate. Each
gap is the largest difference of alpha, B, dB/d delta and d2B/d delta^2,
each relative to the sum of its weights |W_n| (a bound on that transform
at every detuning). A gap cannot fall below the rounding of the phases
delta t_n and of the node sums, about eps * (top + sqrt(nodes)) of that
scale, so this floor is added to quad_rel and no estimate is reported
below it. Past every capacity a call uses the cap, 4 096 panels, and
reports the gap of 2 048 and 4 096 panels on its own bucket, which may
exceed quad_rel. Capacities depend on (shape, quad_rel, rung) alone, so
the count of a call never depends on the calls before it.

The total gate rotation angle is theta = sum_k eta1_k eta2_k B_k(tau)
over all driven modes, and its derivative with respect to the carrier
detuning is the quantity the balanced designs drive to zero.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import QUAD_REL, TWO_PI
from .pulses import PulseShape

GL_ORDER = 8
MIN_PANELS = 64  # first rung of the panel ladder
MAX_PANELS = 4096  # the ladder's cap
RESONANCE_GUARD = TWO_PI * 100.0  # rad/s; sideband drives closer than this are rejected
_GL_NODES, _GL_WEIGHTS = leggauss(GL_ORDER)
_BLOCK = 64  # detunings per exponential table: bounds temporaries to a few MB
_RIPPLE_POINTS = 16  # probe points per ripple period 2 pi of delta tau
_BUCKETS_PER_OCTAVE = 8  # bandwidth buckets 2^(1/8) apart


class ResonanceError(ValueError):
    """A shifted sideband detuning sits on top of a motional mode."""


def _bucket(deltas: np.ndarray, shifts, tau: float) -> int:
    """Smallest b >= 0 with _top(b) >= max |delta + shift| tau over the call."""
    if deltas.size == 0 or (shifts is not None and shifts.size == 0):
        return 0
    lo, hi = deltas.min(), deltas.max()
    if shifts is not None:
        lo, hi = lo + shifts.min(), hi + shifts.max()
    bandwidth = max(-lo, hi) * tau
    if not math.isfinite(bandwidth):
        raise ValueError("detunings must be finite")
    return math.ceil(_BUCKETS_PER_OCTAVE * math.log2(bandwidth)) if bandwidth > 1.0 else 0


def _top(bucket: int) -> float:
    """Largest bandwidth max |delta| tau of a bucket."""
    return 2.0 ** (bucket / _BUCKETS_PER_OCTAVE)


def _probe(top: float) -> np.ndarray:
    """Probe bandwidths delta tau in [0, top]: a coarse sweep, and the last
    ripple period of the finite window (2 pi in delta tau) sampled finely,
    where the Gauss-Legendre error of an alias-free rule is largest."""
    ripple = top - TWO_PI * np.arange(1, _RIPPLE_POINTS) / _RIPPLE_POINTS
    return np.concatenate([np.linspace(0.0, top, 9), ripple[ripple > 0.0]])


def _floor(top: float) -> float:
    """Rounding floor of a relative gap: the phases delta t_n (eps * top)
    and the sums over the nodes (eps * sqrt(nodes) at the cap)."""
    return np.finfo(float).eps * (top + math.sqrt(GL_ORDER * MAX_PANELS))


def _panel_phasors(deltas: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """exp(i delta_k s_p) for the uniform panel starts s_p = p h, shape (panels, K).

    With p = q B + r and B = ceil(sqrt(panels)) the phasor is
    exp(i delta s_qB) exp(i delta s_r): two tables of about sqrt(panels)
    exponentials each, joined by one complex product. Where B does not
    divide the panel count the product runs to the next multiple of B and
    is cut back. Each factor's phase rounds like the direct one, so the
    phasor differs from exp(i delta s_p) by a few ulp times |delta s_p|.
    """
    block = math.isqrt(starts.size - 1) + 1
    coarse = np.exp(1j * np.multiply.outer(starts[::block], deltas))  # (Q, K)
    fine = np.exp(1j * np.multiply.outer(starts[:block], deltas))  # (B, K)
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, deltas.size)[: starts.size]


class TrajectoryEngine:
    """Quadrature tables of one pulse shape and the transforms built on them.

    For each panel count the table holds the panel starts, the node
    offsets within a panel and the weights w_n Omega(t_n), w_n R(t_n),
    w_n t_n R(t_n) and w_n t_n^2 R(t_n); every alpha, B and dB/d delta is
    a weighted sum of exp(i delta t_n) over that one node set.

    A call that names no panel count gets the ladder's count for its
    quad_rel and bandwidth bucket (see the module docstring): the first
    rung from MIN_PANELS up, doubling, whose capacity covers the bucket;
    a rung's capacity is the widest bucket below its alias limit 2 pi P
    on whose probe P and 2P panels agree to quad_rel plus the rounding
    floor. Capacities are cached per (rung, quad_rel); past all of them a
    call gets MAX_PANELS and the gap it reports.
    """

    def __init__(self, pulse: PulseShape):
        self.pulse = pulse
        self._tables: dict[int, tuple] = {}
        self._capacities: dict[tuple[int, float], tuple[int, float]] = {}

    def _aligned(self, panels: int) -> int:
        """Panels actually used: ``panels`` rounded up to whole envelope pieces."""
        return -(-panels // self.pulse.pieces) * self.pulse.pieces

    def _table(self, panels: int):
        cached = self._tables.get(panels)
        if cached is not None:
            return cached
        if panels < 1:
            raise ValueError("need at least one panel")
        aligned = self._aligned(panels)
        h = self.pulse.tau / aligned
        starts = h * np.arange(aligned)
        offsets = h * (_GL_NODES + 1.0) / 2.0
        t = starts[None, :] + offsets[:, None]  # (order, panels)
        w = (h / 2.0) * _GL_WEIGHTS[:, None]
        omega, lag = self.pulse.node_samples(t)
        lag = w * lag
        weights = np.concatenate([w * omega, lag, t * lag, t * t * lag], axis=1)
        table = (starts, offsets, weights)
        self._tables[panels] = table
        return table

    def resolution(self, deltas, shifts=None, quad_rel: float = QUAD_REL) -> tuple[int, float]:
        """(panel count, error estimate) of a call on ``deltas`` (+ ``shifts``).

        The count is the first rung whose capacity covers the call's
        bandwidth bucket, and the estimate that rung's gap at its capacity.
        Past every capacity the count is MAX_PANELS and the estimate the
        gap of MAX_PANELS / 2 and MAX_PANELS panels on the call's bucket,
        which may exceed quad_rel.
        """
        deltas = np.asarray(deltas, dtype=float).ravel()
        if shifts is not None:
            shifts = np.asarray(shifts, dtype=float).ravel()
        bucket = _bucket(deltas, shifts, self.pulse.tau)
        panels = MIN_PANELS
        while panels < MAX_PANELS:
            # a rung serves no bandwidth above its alias limit, so the
            # capacities of rungs below the bucket are never computed
            if _top(bucket) <= TWO_PI * self._aligned(panels):
                capacity, gap = self._capacity(panels, quad_rel)
                if capacity >= bucket:
                    return panels, gap
            panels *= 2
        return MAX_PANELS, self._gap(MAX_PANELS // 2, _top(bucket))

    def _capacity(self, panels: int, quad_rel: float) -> tuple[int, float]:
        """Widest bucket a rung serves, and its agreement gap there.

        Buckets are tried from the rung's alias limit 2 pi panels down; the
        first on whose probe ``panels`` and ``2 * panels`` agree to quad_rel
        (plus the rounding floor) is the capacity; -1 if none does.
        """
        key = (panels, quad_rel)
        if key not in self._capacities:
            limit = math.floor(_BUCKETS_PER_OCTAVE * math.log2(TWO_PI * self._aligned(panels)))
            for bucket in range(limit, -1, -1):
                gap, floor = self._gap(panels, _top(bucket)), _floor(_top(bucket))
                if gap <= quad_rel + floor:
                    self._capacities[key] = (bucket, max(gap, floor))
                    break
            else:
                self._capacities[key] = (-1, math.inf)
        return self._capacities[key]

    def _gap(self, panels: int, top: float) -> float:
        """Largest difference of the four transforms between ``panels`` and
        ``2 * panels`` on the probe of bandwidth ``top``, each relative to
        its weight sum."""
        probe = _probe(top) / self.pulse.tau
        coarse = self._evaluate(probe, None, panels)
        fine = self._evaluate(probe, None, 2 * panels)
        scale = np.abs(self._table(2 * panels)[2]).reshape(GL_ORDER, 4, -1).sum(axis=(0, 2))
        diffs = np.array([np.abs(c - f).max() for c, f in zip(coarse, fine)])
        return float(np.max(np.divide(diffs, scale, out=np.zeros(4), where=scale > 0)))

    def _transform(self, deltas, shifts, table, rows: slice):
        """sum_n W[r, n] exp(i (deltas_k + shifts_j) t_n) for the weight rows
        ``rows`` of the table, shape (J, K, R); J = 1 without shifts.

        One detuning costs about 2 sqrt(panels) + order exponentials
        (``_panel_phasors``): the panel-start and node-offset factors are
        contracted separately, the panel starts first. Without shifts that
        is one real matrix product with the cosines and sines of
        delta s_p; a product grid is one (J x panels) . (panels x K order R)
        matrix product.
        """
        starts, offsets, weights = table
        n_panels = starts.size
        w = weights[:, rows.start * n_panels : rows.stop * n_panels]  # (order, R * panels)
        n_rows = rows.stop - rows.start
        if shifts is not None and shifts.size == 1:
            deltas, shifts = deltas + shifts[0], None
        out = np.empty((1 if shifts is None else shifts.size, deltas.size, n_rows), dtype=complex)
        if shifts is None:
            w = w.reshape(offsets.size * n_rows, n_panels)
            for k0 in range(0, deltas.size, _BLOCK):
                d = deltas[k0 : k0 + _BLOCK]
                # a complex (panels, K) table read as real (panels, 2K): its
                # columns interleave cos and sin, so one real product takes both
                by_offset = (w @ _panel_phasors(d, starts).view(float)).view(complex)
                by_offset = by_offset.reshape(offsets.size, n_rows, -1)
                out[0, k0 : k0 + _BLOCK] = np.einsum("ki,irk->kr", np.exp(1j * d[:, None] * offsets), by_offset)
            return out
        w = w.reshape(offsets.size, n_rows, n_panels)
        for k0 in range(0, deltas.size, _BLOCK):
            d = deltas[k0 : k0 + _BLOCK]
            # W[i, r, p] exp(i d_k s_p) with the panels last: (panels, K * order * R);
            # the phasors are made detuning-major first, for unit-stride reads
            right = np.ascontiguousarray(_panel_phasors(d, starts).T)[:, None, None, :] * w
            right = right.reshape(-1, n_panels).T
            e_off = np.exp(1j * np.multiply.outer(d, offsets))  # (K, order)
            for j0 in range(0, shifts.size, _BLOCK):
                s = shifts[j0 : j0 + _BLOCK]
                by_offset = np.ascontiguousarray(_panel_phasors(s, starts).T) @ right
                by_offset = by_offset.reshape(s.size, d.size, offsets.size, n_rows)
                phases = e_off * np.exp(1j * np.multiply.outer(s, offsets))[:, None, :]  # (J, K, order)
                out[j0 : j0 + _BLOCK, k0 : k0 + _BLOCK] = np.einsum("jki,jkir->jkr", phases, by_offset)
        return out

    def alpha_and_phase_many(
        self,
        deltas,
        panels: int | None = None,
        *,
        shifts=None,
        alpha: bool = True,
        derivatives: int = 0,
        quad_rel: float = QUAD_REL,
    ):
        """alpha(tau) and B(tau) for an array of detunings (rad/s).

        With ``shifts`` (J values) the detunings are the product grid
        deltas[k] + shifts[j] and the results have shape (J,) + deltas.shape;
        otherwise they have the shape of ``deltas``. ``alpha=False``
        returns None for alpha and skips its transform. ``derivatives``
        (0, 1 or 2) appends dB/d delta and then d2B/d delta^2 to the result.
        ``panels`` fixes the resolution; without it the panel count is
        ``resolution(deltas, shifts, quad_rel)``.
        """
        deltas = np.asarray(deltas, dtype=float)
        if shifts is not None:
            shifts = np.atleast_1d(np.asarray(shifts, dtype=float)).ravel()
        if panels is None:
            panels = self.resolution(deltas, shifts, quad_rel)[0]
        return self._evaluate(deltas, shifts, panels, alpha, derivatives)

    def _evaluate(self, deltas, shifts, panels: int, alpha: bool = True, derivatives: int = 2):
        """``alpha_and_phase_many`` at a fixed panel count, on float arrays."""
        shape = deltas.shape if shifts is None else shifts.shape + deltas.shape
        rows = slice(0 if alpha else 1, 2 + derivatives)  # table rows: Omega, R, t R, t^2 R
        f = self._transform(deltas.ravel(), shifts, self._table(panels), rows)
        lag = f[..., 1 if alpha else 0 :]
        out = [1j * f[..., 0].conj().reshape(shape) if alpha else None, lag[..., 0].imag.reshape(shape)]
        if derivatives >= 1:
            out.append(lag[..., 1].real.reshape(shape))
        if derivatives >= 2:
            out.append(-lag[..., 2].imag.reshape(shape))
        return tuple(out)


@lru_cache(maxsize=32)
def engine_for(pulse: PulseShape):
    """Shared engine cache; pulses are frozen dataclasses, hence hashable."""
    return TrajectoryEngine(pulse)


def gate_integrals(pulse: PulseShape, deltas, shifts=None, alpha=True, derivatives=0, quad_rel=QUAD_REL):
    """``alpha_and_phase_many`` of ``pulse`` through the shape's shared table.

    The table is built for the shape at unit peak Rabi rate, so every
    pulse that differs only in omega0 shares one engine; alpha is then
    scaled by omega0 and B and its derivatives by omega0^2.
    """
    unit = engine_for(pulse.unit_rate)
    out = unit.alpha_and_phase_many(
        deltas, shifts=shifts, alpha=alpha, derivatives=derivatives, quad_rel=quad_rel
    )
    scale = pulse.omega0
    alphas = None if out[0] is None else scale * out[0]
    return (alphas,) + tuple(scale * scale * x for x in out[1:])


def gate_resolution(pulse: PulseShape, deltas, shifts=None, quad_rel=QUAD_REL) -> tuple[int, float]:
    """(panel count, error estimate) of the ``gate_integrals`` call with the same arguments."""
    return engine_for(pulse.unit_rate).resolution(deltas, shifts, quad_rel)


def check_resonance(deltas: np.ndarray) -> None:
    """Raise ResonanceError if a sideband detuning is within RESONANCE_GUARD of zero."""
    bad = np.flatnonzero(np.abs(deltas) < RESONANCE_GUARD)
    if bad.size:
        raise ResonanceError(
            f"sideband detuning within {RESONANCE_GUARD / TWO_PI:.0f} Hz of modes {bad.tolist()}"
        )
