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
2^(b/8). The counts form a ladder of rungs P = 64, 128, ..., 4 096. A rung
serves no bandwidth above its alias limit 2 pi P, where the panels' errors
add coherently. A call gets the first rung at or above that limit whose a
priori error bound at the bucket top is at most quad_rel, and reports the
bound plus the rounding floor eps (top + sqrt(nodes)). The bound follows
Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM Review
50, 67 (2008), Thm 4.5, panel by panel: from the Chebyshev coefficients
of exp(i delta t) (Bessel functions) and of each weight row (Cauchy's
estimate on Bernstein ellipses E_rho, rho on a fixed grid, with the
shape's ``log_bounds`` over about 16 panel groups), relative to the row's
weight sum. Past the cap, 4 096 panels, it may exceed quad_rel. The count
depends on (shape, quad_rel, bucket) alone, never on earlier calls.

alpha_k and B_k are entire in the shift s: sums of exp(i s t_n) with
|t_n| <= tau. On an interval of half-width r the Chebyshev coefficients of
exp(i s t) in (s - centre) / r are 2 i^j J_j(r t), and |J_j(x)| <=
(x/2)^j / j!. So m first-kind Chebyshev points carry every row of a call,
derivatives included, with a tail below (r tau/2)^m / m! of the row's
weight sum; m is the fewest points that put this tail at or below
_CHEB_TAIL = 1e-17 (``series_order``), 42 for +-10 kHz at tau = 200 us.
``shift_series`` evaluates rows at those m points, takes the coefficients
by discrete orthogonality and sums the series at any shifts. A product
grid of J shifts whose interval [min, max] needs m < J points is evaluated
that way, at the panel count ``resolution`` gives the J-shift call: the
tail sits below the rounding floor of ``quad_error``, which so keeps its
meaning. Grids of J <= m shifts, a zero-width interval and calls at a
fixed panel count are evaluated directly. This is the low-rank idea of
Ruiz-Antolin and Townsend, "A nonuniform fast Fourier transform based on
low rank approximation", SIAM J. Sci. Comput. 40, A529 (2018), on the
shift axis only; see also Trefethen, Approximation Theory and
Approximation Practice (SIAM, 2019), ch. 8.

The total gate rotation angle is theta = sum_k eta1_k eta2_k B_k(tau)
over all driven modes, and its derivative with respect to the carrier
detuning is the quantity the balanced designs drive to zero.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial.legendre import leggauss

from .config import QUAD_REL, TWO_PI
from .pulses import PulseShape

GL_ORDER = 8
MIN_PANELS = 64  # first rung of the panel ladder
MAX_PANELS = 4096  # the ladder's cap
RESONANCE_GUARD = TWO_PI * 100.0  # rad/s; sideband drives closer than this are rejected
_GL_NODES, _GL_WEIGHTS = leggauss(GL_ORDER)
_BLOCK = 64  # detunings per exponential table: bounds temporaries to a few MB
_RHO = np.geomspace(1.25, 160.0, 8)  # Bernstein ellipses E_rho of the error bound
_ELLIPSES = np.array([_RHO + 1.0 / _RHO - 2.0, _RHO - 1.0 / _RHO]) / 4.0  # overhang, half-height per panel width
_GROUPS = 16  # panel groups of the bound: its cost does not grow with the panel count
_TERMS = 16  # Chebyshev terms of exp(i a x) the bound sums one by one
_even = np.arange(0, 2 * _TERMS + 1, 2)
_RULE_ERRORS = np.zeros(2 * _TERMS + 1)  # |E_k|, the Gauss rule's error on T_k: zero for odd k
_RULE_ERRORS[_even] = np.abs(2.0 / (1.0 - _even**2.0) - np.cos(np.outer(_even, np.arccos(_GL_NODES))) @ _GL_WEIGHTS)
_RULE_ERRORS[: 2 * GL_ORDER] = 0.0  # exact below degree 2 GL_ORDER
_k = np.arange(_TERMS + 1)
_PAIR = (_RULE_ERRORS[np.add.outer(_k, _k)] + _RULE_ERRORS[np.abs(np.subtract.outer(_k, _k))]) / 2.0
_BUCKETS_PER_OCTAVE = 8  # bandwidth buckets 2^(1/8) apart
_CHEB_TAIL = 1e-17  # tail bound of a Chebyshev series in the shift, relative to a row's weight sum


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


def _floor(top: float) -> float:
    """Rounding floor of a relative error: the phases delta t_n (eps * top)
    and the sums over the nodes (eps * sqrt(nodes) at the cap)."""
    return np.finfo(float).eps * (top + math.sqrt(GL_ORDER * MAX_PANELS))


@lru_cache(maxsize=4096)
def _series(a: float) -> tuple[float, np.ndarray]:
    """(w0, w[rho]): the Gauss error of g(x) exp(i a' x) on [-1, 1], |a'| <= a,
    is at most w0 |g_0| + w[rho] M if |g_j| <= 2 M rho^-j for j >= 1.

    T_j T_m = (T_j+m + T_|j-m|) / 2, so the error is at most sum_jm |g_j| |e_m|
    (|E_j+m| + |E_|j-m||) / 2, where |e_m| <= 2 (a/2)^m / m! bound the
    exponential's coefficients 2 i^m J_m(a'). Past _TERMS terms of either
    factor, |E_k| <= 32/15 (Trefethen, proof of Thm 4.5).
    """
    m = np.arange(1.0, _TERMS + 2.0)
    with np.errstate(divide="ignore"):
        powers = np.exp(np.minimum(m * np.log(a / 2.0) - np.cumsum(np.log(m)), 700.0))  # (a/2)^m / m!
        e = np.concatenate([[1.0], 2.0 * powers[:-1]])
        e_tail = np.divide(2.0 * powers[-1], max(1.0 - a / (2.0 * _TERMS + 4.0), 0.0))  # m > _TERMS
    pair = _PAIR @ e
    w = 2.0 * _RHO[:, None] ** -_k[1:] @ pair[1:]
    w += (64.0 / 15.0) / (_RHO - 1.0) * ((e.sum() + e_tail) * _RHO**-_TERMS + e_tail)
    return pair[0] + (32.0 / 15.0) * e_tail, w


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


def series_order(half_width: float, tau: float) -> int:
    """Points m of a Chebyshev series in the shift over an interval of
    half-width ``half_width`` (rad/s): the fewest whose tail bound
    (half_width tau/2)^m / m! is at most _CHEB_TAIL."""
    m, tail = 0, 1.0
    while tail > _CHEB_TAIL:
        m += 1
        tail *= 0.5 * half_width * tau / m
    return m


@lru_cache(maxsize=64)
def _chebyshev_fit(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m first-kind Chebyshev points of [-1, 1] and the (m, m) matrix that
    takes values there to Chebyshev coefficients (discrete orthogonality)."""
    nodes = chebyshev.chebpts1(m)
    weights = np.where(np.arange(m) == 0, 1.0 / m, 2.0 / m)
    fit = (chebyshev.chebvander(nodes, m - 1) * weights).T
    nodes.flags.writeable = fit.flags.writeable = False
    return nodes, fit


def shift_series(evaluate, lo: float, hi: float, m: int):
    """Chebyshev series in the shift s over [lo, hi] (lo < hi) of the rows of ``evaluate``.

    ``evaluate(shifts)`` is called once, at the m first-kind Chebyshev
    points of [lo, hi], and returns a tuple of arrays with the shifts on
    their first axis, or None in place of a row. The coefficients come by
    discrete orthogonality at the points. The result ``series(shifts)``
    sums each row's series at ``shifts``, shape shifts.shape + the row's
    trailing shape, and keeps the None rows.
    """
    if not hi > lo:
        raise ValueError(f"a series interval needs lo < hi, got [{lo!r}, {hi!r}]")
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes, fit = _chebyshev_fit(m)
    rows = evaluate(centre + half * nodes)
    coefs = [None if row is None else (fit @ row.reshape(m, -1), row.shape[1:]) for row in rows]

    def series(shifts) -> tuple:
        shifts = np.asarray(shifts, dtype=float)
        vander = chebyshev.chebvander((shifts - centre) / half, m - 1)
        return tuple(None if c is None else (vander @ c[0]).reshape(shifts.shape + c[1]) for c in coefs)

    return series


class TrajectoryEngine:
    """Quadrature tables of one pulse shape and the transforms built on them.

    For each panel count the table holds the panel starts, the node
    offsets within a panel and the weights w_n Omega(t_n), w_n R(t_n),
    w_n t_n R(t_n) and w_n t_n^2 R(t_n); every alpha, B and dB/d delta is
    a weighted sum of exp(i delta t_n) over that one node set.

    A call that names no panel count gets the ladder's count for its
    quad_rel and bandwidth bucket (see the module docstring): the first
    rung at or above the bucket's alias rung whose ``_bound`` is at most
    quad_rel, else MAX_PANELS. Rungs are cached per (bucket, quad_rel),
    and each rung's envelope bounds per panel count.
    """

    def __init__(self, pulse: PulseShape):
        self.pulse = pulse
        self._tables: dict[int, tuple] = {}
        self._rungs: dict[tuple[int, float], tuple[int, float]] = {}
        self._envelopes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
        """(panel count, error bound) of a call on ``deltas`` (+ ``shifts``):
        the ladder's rung and its ``_bound`` at the call's bucket plus the
        rounding floor, which past the cap may exceed quad_rel."""
        deltas = np.asarray(deltas, dtype=float).ravel()
        if shifts is not None:
            shifts = np.asarray(shifts, dtype=float).ravel()
        key = (_bucket(deltas, shifts, self.pulse.tau), quad_rel)
        if key not in self._rungs:
            top, panels = _top(key[0]), MIN_PANELS
            while panels < MAX_PANELS and top > TWO_PI * self._aligned(panels):
                panels *= 2
            bound = self._bound(panels, top)
            while panels < MAX_PANELS and bound > quad_rel:
                panels *= 2
                bound = self._bound(panels, top)
            self._rungs[key] = (panels, float(bound + _floor(top)))
        return self._rungs[key]

    def _bound(self, panels: int, top: float) -> float:
        """A priori bound on the relative error of the four transforms at
        ``panels`` panels, for every |delta| tau <= ``top``.

        On a panel of width h, in x in [-1, 1], a weight row times the
        exponential is g(x) exp(i a x) with |a| <= top / (2 panels), and
        ``_series`` weighs bounds on the Chebyshev coefficients of g:
        |g_0| <= M(_RHO[0]) and |g_j| <= 2 M(rho) rho^-j (Cauchy), M(rho)
        >= |g| on a rectangle that holds the ellipses E_rho of all panels of
        one panel group (``log_bounds``). No group straddles an envelope
        piece. Each group's bound is minimised over rho, the groups are
        summed, and each row is divided by its weight sum in the rung's
        table (which the call then uses, unless the rung fails).
        """
        if panels not in self._envelopes:
            aligned, pieces = self._aligned(panels), self.pulse.pieces
            h, groups = self.pulse.tau / aligned, max(1, _GROUPS // pieces) * pieces
            edges = np.arange(groups + 1) * aligned // groups
            reach, y = h * _ELLIPSES
            lo, hi = h * edges[:-1, None] - reach, h * edges[1:, None] + reach
            scale = np.abs(self._table(panels)[2]).reshape(GL_ORDER, 4, -1).sum(axis=(0, 2))
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                log_omega, log_lag = self.pulse.log_bounds(lo, hi, y)
                log_t = 0.5 * np.log(hi * hi + y * y)  # |t| on the rectangle, as hi >= |lo|
                rows = np.exp([log_omega, log_lag, log_lag + log_t, log_lag + 2.0 * log_t])
                envelope = rows * ((h / 2.0) * np.diff(edges)[:, None]) / scale[:, None, None]
            self._envelopes[panels] = envelope[..., 0].sum(-1), envelope
        first, envelope = self._envelopes[panels]
        w0, w = _series(top / (2.0 * self._aligned(panels)))
        with np.errstate(over="ignore", invalid="ignore"):
            errors = w0 * first + (envelope * w).min(-1).sum(-1)
        return float(np.fmax.reduce(errors, initial=0.0))  # fmax skips the nan of a zero row

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
        block = max(1, min(_BLOCK, _BLOCK * 256 // n_panels))  # right's size stays that of 256 panels
        # one buffer for every block's right factor: a fresh array per block pays its page faults again
        buffer = np.empty((min(block, deltas.size), offsets.size, n_rows, n_panels), dtype=complex)
        for k0 in range(0, deltas.size, block):
            d = deltas[k0 : k0 + block]
            # W[i, r, p] exp(i d_k s_p) with the panels last: (panels, K * order * R);
            # the phasors are made detuning-major first, for unit-stride reads
            phasors = np.ascontiguousarray(_panel_phasors(d, starts).T)[:, None, None, :]
            right = np.multiply(phasors, w, out=buffer[: d.size]).reshape(-1, n_panels).T
            e_off = np.exp(1j * np.multiply.outer(d, offsets))  # (K, order)
            for j0 in range(0, shifts.size, _BLOCK):
                s = shifts[j0 : j0 + _BLOCK]
                by_offset = np.ascontiguousarray(_panel_phasors(s, starts).T) @ right
                by_offset = by_offset.reshape(s.size, d.size, offsets.size, n_rows)
                phases = e_off * np.exp(1j * np.multiply.outer(s, offsets))[:, None, :]  # (J, K, order)
                out[j0 : j0 + _BLOCK, k0 : k0 + block] = np.einsum("jki,jkir->jkr", phases, by_offset)
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

        ``panels`` fixes the resolution, and the call is evaluated directly.
        Without it the panel count is ``resolution(deltas, shifts,
        quad_rel)``, and a product grid whose J shifts exceed the
        ``series_order`` m of their interval [min, max] is evaluated at m
        Chebyshev points of that interval and interpolated (``shift_series``;
        Ruiz-Antolin and Townsend, SIAM J. Sci. Comput. 40, A529 (2018),
        on the shift axis; Trefethen, ATAP ch. 8): every row, within the tail
        bound 1e-17 of its weight sum, below ``quad_error``'s rounding
        floor. J <= m shifts, and J equal shifts, are evaluated directly.
        """
        deltas = np.asarray(deltas, dtype=float)
        if shifts is not None:
            shifts = np.atleast_1d(np.asarray(shifts, dtype=float)).ravel()
        if panels is not None:
            return self._evaluate(deltas, shifts, panels, alpha, derivatives)
        panels = self.resolution(deltas, shifts, quad_rel)[0]
        if shifts is not None and shifts.size > 1:
            lo, hi = float(shifts.min()), float(shifts.max())
            m = series_order(0.5 * (hi - lo), self.pulse.tau)
            if shifts.size > m and hi > lo:

                def at_nodes(nodes):
                    return self._evaluate(deltas, nodes, panels, alpha, derivatives)

                return shift_series(at_nodes, lo, hi, m)(shifts)
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
    return _at_rate(pulse.omega0, out)


def _at_rate(omega0: float, out: tuple) -> tuple:
    """Unit-rate kernel rows at peak Rabi rate omega0: alpha times omega0, the B rows times omega0^2."""
    alphas = None if out[0] is None else omega0 * out[0]
    return (alphas,) + tuple(omega0 * omega0 * x for x in out[1:])


def gate_series(pulse: PulseShape, deltas, lo: float, hi: float, alpha=True, derivatives=0, quad_rel=QUAD_REL):
    """Chebyshev series in the shift over [lo, hi] of ``gate_integrals(pulse,
    deltas, shifts, alpha, derivatives, quad_rel)``, from one kernel call.

    m is the ``series_order`` of the named interval (lo < hi). The call at
    its m points names the panel count ``resolution`` gives those points,
    so it is evaluated directly and never interpolated again.
    ``gate_series(...)(shifts)`` returns the rows at any shifts in [lo, hi],
    in ``gate_integrals``' units.
    """
    unit = engine_for(pulse.unit_rate)

    def at_nodes(nodes):
        panels = unit.resolution(deltas, nodes, quad_rel)[0]
        return _at_rate(pulse.omega0, unit.alpha_and_phase_many(
            deltas, panels, shifts=nodes, alpha=alpha, derivatives=derivatives
        ))

    return shift_series(at_nodes, lo, hi, series_order(0.5 * (hi - lo), pulse.tau))


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
