import inspect
import warnings
from dataclasses import replace

import numpy as np
import pytest

from msgate import (
    GateDesign,
    ResonanceError,
    TrajectoryEngine,
    build_chain,
    build_coupling,
    phase_and_derivative,
    run_oracle,
    solve_balance,
)
from msgate.config import Tolerances, default_target_pair
from msgate.modes import GateCoupling
from msgate.pulses import SplineGaussianPulse, SquarePulse, TruncGaussianPulse
from msgate.trajectory import (
    _GL_NODES,
    _GL_WEIGHTS,
    GL_ORDER,
    MAX_PANELS,
    MIN_PANELS,
    _floor,
    _panel_phasors,
    check_resonance,
    engine_for,
    gate_integrals,
    gate_resolution,
    gate_series,
    series_order,
)

from conftest import three_ion_config

TAU = 200e-6
TWO_PI = 2 * np.pi


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


def trajectory_path(pulse, delta: float, n_samples: int, panels: int = 512) -> np.ndarray:
    """alpha(t) sampled at n_samples uniform times across [0, tau].

    Each partial integral runs the panel quadrature on [0, t] with
    ``panels * t / tau`` panels (at least one), so the endpoint uses the
    same rule as a ``panels``-panel table.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    times = np.linspace(0.0, pulse.tau, int(n_samples))
    out = np.empty(times.size, dtype=complex)
    out[0] = 0.0
    for s, t in enumerate(times[1:], start=1):
        n = max(1, int(np.ceil(panels * t / pulse.tau)))
        h = t / n
        pts = (h * np.arange(n))[:, None] + (h * (_GL_NODES + 1.0) / 2.0)[None, :]
        om = pulse.amplitude(pts)
        out[s] = 1j * np.sum((h / 2.0) * _GL_WEIGHTS[None, :] * om * np.exp(-1j * delta * pts))
    return out


def _triangle_sum(pulse, delta, grid):
    t = np.linspace(0.0, pulse.tau, grid)
    w = np.full(grid, t[1] - t[0])
    w[0] = w[-1] = 0.5 * (t[1] - t[0])
    om = pulse.amplitude(t)
    kernel = np.sin(delta * (t[:, None] - t[None, :]))
    weights = np.outer(w * om, w * om)
    # diagonal carries half weight in the t2 < t1 triangle limit
    return float(np.sum(np.tril(weights * kernel, k=-1)) + 0.5 * np.trace(weights * kernel))


def brute_double_integral(pulse, delta, grid=2401):
    """Literal triangle sum of Omega(t1) Omega(t2) sin(delta (t1 - t2)).

    Trapezoid rule at two resolutions with Richardson extrapolation of
    the O(h^2) error term.
    """
    coarse = _triangle_sum(pulse, delta, (grid - 1) // 2 + 1)
    fine = _triangle_sum(pulse, delta, grid)
    return (4.0 * fine - coarse) / 3.0


def test_square_alpha_matches_closed_form():
    sq = SquarePulse(omega0=1.1e6, tau=TAU)
    eng = TrajectoryEngine(sq)
    deltas = TWO_PI * np.array([-90e3, -12e3, 5e3, 37e3, 160e3])
    a_quad, b_quad = eng.alpha_and_phase_many(deltas)
    for d, aq, bq in zip(deltas, a_quad, b_quad):
        assert aq == pytest.approx(square_alpha_closed_form(1.1e6, TAU, d), rel=1e-12)
        assert bq == pytest.approx(square_phase_closed_form(1.1e6, TAU, d), rel=1e-12)
    # loop closes exactly at integer loop detunings
    closed = square_alpha_closed_form(1.1e6, TAU, TWO_PI * 3 / TAU)
    assert abs(closed) < 1e-9 * 1.1e6 * TAU


def test_square_phase_sign_structure():
    # |B| = Omega0^2 |x - sin x| / delta^2 and B is odd in delta
    d = TWO_PI * 20e3
    b = square_phase_closed_form(1.0e6, TAU, d)
    x = d * TAU
    assert b == pytest.approx(1.0e6**2 * (x - np.sin(x)) / d**2, rel=1e-12)
    assert b > 0
    assert square_phase_closed_form(1.0e6, TAU, -d) == pytest.approx(-b, rel=1e-12)


def test_phase_odd_in_delta():
    pulse = TruncGaussianPulse(omega0=1.3e6, tau=TAU, z=25e-6)
    eng = engine_for(pulse)
    rng = np.random.default_rng(3)
    deltas = TWO_PI * rng.uniform(2e3, 150e3, 20)
    _, b_plus = eng.alpha_and_phase_many(deltas)
    _, b_minus = eng.alpha_and_phase_many(-deltas)
    np.testing.assert_allclose(b_minus, -b_plus, rtol=1e-10)


def test_alpha_magnitude_even_in_delta():
    pulse = SplineGaussianPulse(omega0=1.3e6, tau=TAU, z=25e-6, n_knots=13)
    eng = engine_for(pulse)
    deltas = TWO_PI * np.array([3e3, 17e3, 61e3])
    a_plus, _ = eng.alpha_and_phase_many(deltas)
    a_minus, _ = eng.alpha_and_phase_many(-deltas)
    np.testing.assert_allclose(np.abs(a_plus), np.abs(a_minus), rtol=1e-10)


def test_scaling_in_omega0():
    rng = np.random.default_rng(11)
    for scale in rng.uniform(0.2, 4.0, 3):
        base = TruncGaussianPulse(omega0=1e6, tau=TAU, z=25e-6)
        scaled = base.with_omega0(scale * base.omega0)
        d = TWO_PI * np.array([9e3, 41e3])
        a0, b0 = engine_for(base).alpha_and_phase_many(d)
        a1, b1 = engine_for(scaled).alpha_and_phase_many(d)
        # oscillatory cancellation amplifies the one-ulp difference of
        # (s * omega0) * exp(...) versus s * (omega0 * exp(...))
        np.testing.assert_allclose(a1, scale * a0, rtol=1e-9, atol=1e-12 * base.omega0 * TAU)
        np.testing.assert_allclose(b1, scale**2 * b0, rtol=1e-10)


def test_zero_drive_gives_zero():
    pulse = TruncGaussianPulse(omega0=0.0, tau=TAU, z=25e-6)
    a, b = engine_for(pulse).alpha_and_phase_many(TWO_PI * np.array([5e3, 50e3]))
    np.testing.assert_array_equal(a, 0.0)
    np.testing.assert_array_equal(b, 0.0)


def test_panel_doubling_stability():
    pulse = TruncGaussianPulse(omega0=1.4e6, tau=TAU, z=25e-6)
    eng = TrajectoryEngine(pulse)
    deltas = TWO_PI * np.linspace(-150e3, 150e3, 41)
    a1, b1 = eng.alpha_and_phase_many(deltas, panels=512)
    a2, b2 = eng.alpha_and_phase_many(deltas, panels=1024)
    scale_a = np.abs(a2).max()
    scale_b = np.abs(b2).max()
    assert np.abs(a1 - a2).max() <= 1e-10 * scale_a
    assert np.abs(b1 - b2).max() <= 1e-10 * scale_b


def test_single_point_api_verified():
    pulse = TruncGaussianPulse(omega0=1.2e6, tau=TAU, z=25e-6)
    eng = TrajectoryEngine(pulse)
    d = TWO_PI * 37e3
    a, b = eng.alpha_and_phase_many(d)
    a_ref, b_ref = eng.alpha_and_phase_many([d], panels=4096)
    assert a == pytest.approx(a_ref[0], rel=1e-10)
    assert b == pytest.approx(b_ref[0], rel=1e-10)


def test_gaussian_fourier_approximation():
    # |alpha|^2 ~ 2 pi Omega0^2 z^2 exp(-delta^2 z^2) within 10% for |delta| z <= 2
    z = 25e-6
    pulse = TruncGaussianPulse(omega0=1.0e6, tau=TAU, z=z)
    eng = engine_for(pulse)
    deltas = np.linspace(-2.0, 2.0, 33) / z
    a, _ = eng.alpha_and_phase_many(deltas)
    approx = 2 * np.pi * pulse.omega0**2 * z**2 * np.exp(-((deltas * z) ** 2))
    np.testing.assert_allclose(np.abs(a) ** 2, approx, rtol=0.10)


def test_double_integral_equivalence():
    for pulse in (
        TruncGaussianPulse(omega0=1.0e6, tau=TAU, z=25e-6),
        SquarePulse(omega0=1.0e6, tau=TAU),
    ):
        eng = engine_for(pulse)
        for d in (TWO_PI * 11e3, -TWO_PI * 43e3):
            _, b = eng.alpha_and_phase_many([d])
            assert b[0] == pytest.approx(brute_double_integral(pulse, d), rel=2e-5)


def test_trajectory_path():
    sq = SquarePulse(omega0=1.0e6, tau=TAU)
    # delta tau = 2 pi: one full loop returning to the origin
    d = TWO_PI / TAU
    path = trajectory_path(sq, d, 41)
    assert path[0] == 0.0
    assert abs(path[-1]) < 1e-9 * 1.0e6 * TAU
    g = TruncGaussianPulse(omega0=1.0e6, tau=TAU, z=25e-6)
    path_g = trajectory_path(g, TWO_PI * 37e3, 17)
    a_end = TrajectoryEngine(g).alpha_and_phase_many(TWO_PI * 37e3)[0]
    assert path_g[-1] == pytest.approx(a_end, abs=1e-9 * abs(a_end) + 1e-12)
    with pytest.raises(ValueError):
        trajectory_path(sq, d, 1)


def _toy_coupling():
    return GateCoupling(
        pair=(0, 1),
        freqs=TWO_PI * np.array([2.00e6, 2.10e6]),
        eta1=np.array([0.05, 0.06]),
        eta2=np.array([0.05, -0.06]),
        directions=("radial_b", "radial_b"),
        mode_indices=(0, 1),
    )


def test_phase_and_derivative_scalings():
    coupling = _toy_coupling()
    pulse = TruncGaussianPulse(omega0=0.8e6, tau=TAU, z=25e-6)
    delta_c = TWO_PI * 2.05e6
    theta, slope = phase_and_derivative(coupling, pulse, delta_c)
    theta2, _ = phase_and_derivative(coupling, pulse.with_omega0(2 * pulse.omega0), delta_c)
    assert theta2[0] == pytest.approx(4.0 * theta[0], rel=1e-10)
    theta_f, slope_f = phase_and_derivative(coupling.flipped(), pulse, delta_c)
    assert theta_f[0] == pytest.approx(-theta[0], rel=1e-12)
    assert abs(slope_f[0]) == pytest.approx(abs(slope[0]), rel=1e-9)


def test_resonance_guard():
    coupling = _toy_coupling()
    pulse = TruncGaussianPulse(omega0=0.8e6, tau=TAU, z=25e-6)
    with pytest.raises(ResonanceError, match=r"within 100 Hz of modes \[0\]"):
        check_resonance(TWO_PI * (2.00e6 + 50.0) - coupling.freqs)
    check_resonance(TWO_PI * (2.00e6 + 150.0) - coupling.freqs)
    # phase_and_derivative leaves the check to its callers (the balance scan runs without it)
    theta, slope = phase_and_derivative(coupling, pulse, TWO_PI * (2.00e6 + 50.0))
    assert np.isfinite(theta[0]) and np.isfinite(slope[0])


def test_one_point_shift_folds_bitwise():
    # a single shift is added to the detunings before the transform, so
    # -nu_k + delta_c rounds exactly like delta_c - nu_k
    coupling = _toy_coupling()
    pulse = TruncGaussianPulse(omega0=1e6, tau=TAU, z=25e-6)
    delta_c = TWO_PI * 2.04e6 + TWO_PI * 3e3
    shifted = gate_integrals(pulse, -coupling.freqs, shifts=delta_c, derivatives=1)
    direct = gate_integrals(pulse, delta_c - coupling.freqs, derivatives=1)
    for got, want in zip(shifted, direct):
        assert got.shape == (1, 2)
        np.testing.assert_array_equal(got[0], want)


def _square_slope(omega0, tau, delta):
    """dB/d delta of the square pulse, from its closed form."""
    x = delta * tau
    if abs(x) < 1e-3:
        return omega0**2 * tau**3 * (1.0 / 6.0 - x * x / 40.0)
    return omega0**2 * tau**3 * ((1.0 - np.cos(x)) / x**2 - 2.0 * (x - np.sin(x)) / x**3)


def test_square_transforms_match_closed_forms_near_zero():
    omega0 = 1.1e6
    eng = TrajectoryEngine(SquarePulse(omega0=omega0, tau=TAU))
    deltas = np.array([0.0, 1e-4 / TAU, -5e-4 / TAU, 0.9e-3 / TAU, TWO_PI * 5e3, -TWO_PI * 90e3])
    alphas, phases, slopes = eng.alpha_and_phase_many(deltas, derivatives=1)
    for d, a, b, db in zip(deltas, alphas, phases, slopes):
        assert a == pytest.approx(square_alpha_closed_form(omega0, TAU, d), rel=1e-12)
        assert db == pytest.approx(_square_slope(omega0, TAU, d), rel=1e-11)
        if d == 0.0:
            assert b == 0.0
        else:
            assert b == pytest.approx(square_phase_closed_form(omega0, TAU, d), rel=1e-11)


def test_analytic_derivatives_match_differences_of_theta():
    coupling = _toy_coupling()
    delta_c = TWO_PI * 2.05e6
    h = TWO_PI * 20.0
    for pulse in (
        TruncGaussianPulse(omega0=0.8e6, tau=TAU, z=25e-6),
        SplineGaussianPulse(omega0=0.8e6, tau=TAU, z=18e-6, n_knots=9),
        SquarePulse(omega0=0.8e6, tau=TAU),
    ):
        theta0, slope = phase_and_derivative(coupling, pulse, delta_c)
        deltas = delta_c - coupling.freqs
        curvature = coupling.eta_products @ gate_integrals(pulse, deltas, alpha=False, derivatives=2)[3]
        theta = {k: phase_and_derivative(coupling, pulse, delta_c + k * h / 2)[0][0]
                 for k in (-2, -1, 1, 2)}
        # central differences at steps h and h/2, Richardson-extrapolated
        d1 = (4 * (theta[1] - theta[-1]) / h - (theta[2] - theta[-2]) / (2 * h)) / 3
        d2 = (4 * (theta[1] - 2 * theta0[0] + theta[-1]) / (h / 2) ** 2
              - (theta[2] - 2 * theta0[0] + theta[-2]) / h**2) / 3
        assert slope[0] == pytest.approx(d1, rel=1e-7)
        assert curvature == pytest.approx(d2, rel=1e-5)


def test_separable_batch_equals_pointwise():
    for pulse in (
        TruncGaussianPulse(omega0=1.2e6, tau=TAU, z=25e-6),
        SplineGaussianPulse(omega0=1.2e6, tau=TAU, z=25e-6, n_knots=13),
    ):
        eng = TrajectoryEngine(pulse)
        modes = TWO_PI * np.array([-130e3, -41e3, 0.0, 17e3, 260e3])
        grid = TWO_PI * np.linspace(-10e3, 10e3, 7)
        batch = eng.alpha_and_phase_many(modes, shifts=grid, derivatives=2)
        point = eng.alpha_and_phase_many(modes[None, :] + grid[:, None], derivatives=2)
        for got, want in zip(batch, point):
            assert got.shape == (grid.size, modes.size)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        alone = eng.alpha_and_phase_many(modes[1] + grid[3])
        assert batch[0][3, 1] == pytest.approx(alone[0], rel=1e-12)
        assert batch[1][3, 1] == pytest.approx(alone[1], rel=1e-12)


def test_one_engine_per_shape_across_omega0():
    trial = TruncGaussianPulse(omega0=0.77e6, tau=TAU, z=23.7e-6)
    deltas = TWO_PI * np.array([8e3, 52e3])
    before = engine_for.cache_info().misses
    a1, b1 = gate_integrals(trial, deltas)
    a2, b2 = gate_integrals(trial.with_omega0(2.5 * trial.omega0), deltas)
    assert engine_for.cache_info().misses == before + 1
    np.testing.assert_allclose(a2, 2.5 * a1, rtol=1e-14)
    np.testing.assert_allclose(b2, 2.5**2 * b1, rtol=1e-14)
    a_own, b_own = engine_for(trial).alpha_and_phase_many(deltas)
    np.testing.assert_allclose(a1, a_own, rtol=0, atol=1e-14 * np.abs(a_own).max())
    np.testing.assert_allclose(b1, b_own, rtol=0, atol=1e-14 * np.abs(b_own).max())


def _dense_autocorrelation(pulse, s, panels=4000):
    nodes, weights = np.polynomial.legendre.leggauss(10)
    h = (pulse.tau - s) / panels
    t = s + h * (np.arange(panels)[:, None] + (nodes[None, :] + 1.0) / 2.0)
    return float(np.sum(h / 2.0 * weights * pulse.amplitude(t) * pulse.amplitude(t - s)))


def test_autocorrelation_against_dense_quadrature():
    for pulse in (
        SquarePulse(omega0=1.3e6, tau=TAU),
        TruncGaussianPulse(omega0=1.3e6, tau=TAU, z=25e-6),
        TruncGaussianPulse(omega0=1.3e6, tau=TAU, z=6e-6),
        SplineGaussianPulse(omega0=1.3e6, tau=TAU, z=25e-6, n_knots=13),
        SplineGaussianPulse(omega0=1.3e6, tau=TAU, z=40e-6, n_knots=6),
    ):
        knot = TAU / max(pulse.pieces, 4)
        lags = np.array([0.0, 0.37 * knot, knot, 1.61 * knot, 2.0 * knot, 0.5 * TAU, 0.93 * TAU])
        got = pulse.autocorrelation(lags)
        want = [_dense_autocorrelation(pulse, s) for s in lags]
        scale = _dense_autocorrelation(pulse, 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
        assert pulse.autocorrelation(TAU) == pytest.approx(0.0, abs=1e-13 * scale)


def _node_by_node_table(pulse, starts, offsets):
    """The four weight rows from ``amplitude`` and ``autocorrelation`` at each
    node of the table, shape (order, 4, panels)."""
    t = starts[None, :] + offsets[:, None]
    w = (pulse.tau / starts.size / 2.0) * _GL_WEIGHTS[:, None]
    lag = w * pulse.autocorrelation(t)
    return np.stack([w * pulse.amplitude(t), lag, t * lag, t * t * lag], axis=1)


@pytest.mark.parametrize("n_knots", [6, 9, 13])
@pytest.mark.parametrize("z", [12e-6, 25e-6, 40e-6])
def test_spline_tables_match_node_by_node(n_knots, z):
    pulse = SplineGaussianPulse(omega0=1.0, tau=TAU, z=z, n_knots=n_knots)
    for panels in (64, 100, 256, MAX_PANELS):  # 100 is not a multiple of the pieces
        starts, offsets, weights = TrajectoryEngine(pulse)._table(panels)
        assert starts.size % pulse.pieces == 0
        want = _node_by_node_table(pulse, starts, offsets)
        got = weights.reshape(GL_ORDER, 4, -1)
        bound = 4 * np.finfo(float).eps * np.abs(want).sum(axis=(0, 2))
        assert np.all(np.abs(got - want).max(axis=(0, 2)) <= bound), (panels, np.abs(got - want).max(axis=(0, 2)))


@pytest.mark.parametrize("pulse", [SquarePulse(omega0=1.0, tau=TAU), TruncGaussianPulse(omega0=1.0, tau=TAU, z=25e-6),
                                   TruncGaussianPulse(omega0=1.0, tau=TAU, z=7e-6)])
def test_closed_form_tables_are_node_by_node(pulse):
    for panels in (64, 100, 256, MAX_PANELS):
        starts, offsets, weights = TrajectoryEngine(pulse)._table(panels)
        np.testing.assert_array_equal(weights.reshape(GL_ORDER, 4, -1), _node_by_node_table(pulse, starts, offsets))


SHAPES = {
    "square": SquarePulse(omega0=1.0, tau=TAU),
    "trunc_gaussian": TruncGaussianPulse(omega0=1.0, tau=TAU, z=25e-6),
    "spline_gaussian": SplineGaussianPulse(omega0=1.0, tau=TAU, z=25e-6, n_knots=13),
}


@pytest.mark.parametrize(
    "shape, panels",
    [
        ("spline_gaussian", 256),  # 264 aligned panels, B = 17
        ("spline_gaussian", 512),  # 516 aligned panels, B = 23
        ("square", 128),  # B = 12
        ("square", MAX_PANELS),  # the cap, B = 64
    ],
)
def test_split_phasors_match_direct_exponentials(shape, panels):
    starts = TrajectoryEngine(SHAPES[shape])._table(panels)[0]
    # up to the rung's widest bandwidth, its alias limit 2 pi panels
    deltas = np.linspace(-1.0, 1.0, 41) * TWO_PI * starts.size / TAU
    phase = np.multiply.outer(starts, deltas)
    got = _panel_phasors(deltas, starts)
    assert got.shape == phase.shape
    ulps = np.abs(got - np.exp(1j * phase)) / (np.finfo(float).eps * (1.0 + np.abs(phase)))
    assert ulps.max() <= 4.0


def _modes(n_ions, spacing=3e-6):
    cfg = replace(three_ion_config(), n_ions=n_ions, center_spacing_m=spacing,
                  target_pair=default_target_pair(n_ions))
    coupling = build_coupling(cfg, build_chain(cfg))
    return coupling.freqs, coupling.freqs[coupling.flat_index("radial_b", 0)]


def _weight_sums(pulse, panels=2048):
    """Integrals of |Omega|, |R|, s |R| and s^2 |R| over [0, tau], by dense
    Gauss-Legendre: the scale each transform's error is measured against."""
    h = pulse.tau / panels
    t = (h * (np.arange(panels)[:, None] + (_GL_NODES + 1.0) / 2.0)).ravel()
    w = np.tile(h / 2.0 * _GL_WEIGHTS, panels)
    r = np.abs(pulse.autocorrelation(t))
    return np.array([w @ np.abs(pulse.amplitude(t)), w @ r, w @ (t * r), w @ (t * t * r)])


@pytest.mark.parametrize("shape", SHAPES)
def test_error_estimate_bounds_the_true_error(shape):
    pulse = SHAPES[shape]
    scales = _weight_sums(pulse)
    shifts = TWO_PI * np.linspace(-10e3, 10e3, 21)
    chain_freqs, chain_nu1 = _modes(33)  # the widest chain-study bandwidth
    spline_freqs, spline_nu1 = _modes(9)  # the -40 kHz design whose alpha is ~1e-5 of its scale
    widest = np.abs(chain_nu1 + TWO_PI * 30e3 - chain_freqs).max() + shifts.max()
    cases = {
        "chain N=33": (chain_nu1 + TWO_PI * 30e3 - chain_freqs, shifts),
        "N=9 at -40 kHz": (spline_nu1 - TWO_PI * 40e3 - spline_freqs, shifts),
        "uniform": (np.linspace(-widest, widest, 1201), None),
        "narrow": (TWO_PI * np.linspace(-60e3, 60e3, 241), None),
    }
    eng = TrajectoryEngine(pulse)
    for name, (deltas, grid) in cases.items():
        panels, estimate = eng.resolution(deltas, grid)
        assert panels < MAX_PANELS, name
        assert estimate <= 1e-10 + 1e-12, name
        got = eng.alpha_and_phase_many(deltas, shifts=grid, derivatives=2)
        ref = eng.alpha_and_phase_many(deltas, MAX_PANELS, shifts=grid, derivatives=2)
        errors = [np.abs(a - b).max() / s for a, b, s in zip(got, ref, scales)]
        assert max(errors) <= estimate, (name, panels, errors, estimate)


BOUND_SHAPES = {
    "square": SquarePulse(omega0=1.0, tau=TAU),
    **{f"gaussian z={z}us": TruncGaussianPulse(omega0=1.0, tau=TAU, z=z * 1e-6) for z in (5, 12, 25, 60)},
    **{f"spline {k} knots": SplineGaussianPulse(omega0=1.0, tau=TAU, z=25e-6, n_knots=k) for k in (6, 9, 13)},
}


@pytest.mark.parametrize("shape", BOUND_SHAPES)
def test_a_priori_bound_holds_at_each_rungs_widest_bandwidth(shape):
    pulse = BOUND_SHAPES[shape]
    scales = _weight_sums(pulse)
    eng = TrajectoryEngine(pulse)
    for panels in (64, 128, 256, 512, 1024):
        estimates = []
        for top in (np.pi * panels, TWO_PI * panels):  # half the alias limit, and the limit
            deltas = np.linspace(-1.0, 1.0, 41) * top / TAU
            estimate = eng._bound(panels, top) + _floor(top)
            got = eng.alpha_and_phase_many(deltas, panels, derivatives=2)
            ref = eng.alpha_and_phase_many(deltas, MAX_PANELS, derivatives=2)
            errors = [np.abs(a - b).max() / s for a, b, s in zip(got, ref, scales)]
            assert max(errors) <= estimate, (panels, top, errors, estimate)
            estimates.append(estimate)
        assert estimates[0] <= estimates[1], (panels, estimates)


def test_a_cold_call_builds_one_table():
    freqs, nu1 = _modes(3)
    deltas = nu1 + TWO_PI * 37e3 - freqs
    for pulse in SHAPES.values():
        engine_for.cache_clear()
        gate_integrals(pulse.with_omega0(2.0), deltas, derivatives=2)
        eng = engine_for(pulse)
        assert list(eng._tables) == [eng.resolution(deltas)[0]]


def test_past_the_cap_and_on_overflow():
    eng = TrajectoryEngine(SHAPES["trunc_gaussian"])
    panels, estimate = eng.resolution([3.0 * TWO_PI * MAX_PANELS / TAU])
    assert panels == MAX_PANELS and estimate > Tolerances().quad_rel
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        for pulse in BOUND_SHAPES.values():
            panels, estimate = TrajectoryEngine(pulse).resolution([-1e7 / TAU, 1e7 / TAU])
            assert panels == MAX_PANELS and not estimate <= Tolerances().quad_rel
    assert TrajectoryEngine(SHAPES["square"]).resolution([1.0])[0] == MIN_PANELS


def test_panel_choice_independent_of_history():
    base = TWO_PI * np.array([-370e3, -41e3, 37e3, 133e3])
    grid = TWO_PI * np.linspace(-10e3, 10e3, 21)
    for pulse in SHAPES.values():
        engine_for.cache_clear()
        cold = gate_integrals(pulse, base, shifts=grid, derivatives=2)
        engine_for.cache_clear()
        gate_integrals(pulse, TWO_PI * np.array([-2.5e6, 4e6]))  # a much wider bandwidth first
        warm = gate_integrals(pulse, base, shifts=grid, derivatives=2)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)


def test_quad_rel_picks_the_panel_count():
    pulse = SHAPES["trunc_gaussian"]
    deltas = TWO_PI * np.linspace(-1.2e6, 1.2e6, 5)
    loose, tight = (gate_resolution(pulse, deltas, quad_rel=q) for q in (1e-6, 1e-12))
    assert loose[0] < tight[0]
    assert loose[1] <= 1e-6 and tight[1] <= 1e-12 + 1e-12
    # the value a call gets is the value at the resolution it reports
    for q, (panels, _) in ((1e-6, loose), (1e-12, tight)):
        chosen = gate_integrals(pulse, deltas, derivatives=2, quad_rel=q)
        fixed = engine_for(pulse).alpha_and_phase_many(deltas, panels, derivatives=2)
        for a, b in zip(chosen, fixed):
            np.testing.assert_array_equal(a, b)


def test_quad_rel_defaults_are_the_config_default():
    default = Tolerances().quad_rel
    for func in (TrajectoryEngine.alpha_and_phase_many, TrajectoryEngine.resolution, gate_integrals,
                 gate_resolution, gate_series, phase_and_derivative, solve_balance, run_oracle):
        assert inspect.signature(func).parameters["quad_rel"].default is default, func.__name__
    assert GateDesign.__dataclass_fields__["quad_rel"].default is default


def _random_pulse(rng, kind):
    if kind == "square":
        return SquarePulse(omega0=1.0, tau=TAU)
    if kind == "trunc_gaussian":
        return TruncGaussianPulse(omega0=1.0, tau=TAU, z=rng.uniform(5e-6, 60e-6))
    z, n_knots = rng.uniform(12e-6, 45e-6), int(rng.integers(6, 14))
    return SplineGaussianPulse(omega0=1.0, tau=TAU, z=z, n_knots=n_knots)


def test_interpolated_grids_match_direct_ones():
    # random shapes, chains and shift intervals 1-240 kHz wide, centred and
    # off-centre; J = m is evaluated directly, m + 1 and 4 m from the series
    rng = np.random.default_rng(24)
    quad_rel = Tolerances().quad_rel
    for case in range(12):
        pulse = _random_pulse(rng, ("square", "trunc_gaussian", "spline_gaussian")[case % 3])
        freqs, nu1 = _modes(int(rng.integers(2, 34)), rng.uniform(3e-6, 6e-6))
        deltas = nu1 + TWO_PI * rng.uniform(-60e3, 120e3) - freqs
        half = TWO_PI * rng.uniform(0.5e3, 120e3)
        centre = 0.0 if case % 2 else TWO_PI * rng.uniform(-60e3, 60e3)
        m = series_order(half, TAU)
        eng = TrajectoryEngine(pulse)
        for n in (m, m + 1, 4 * m):
            shifts = centre + np.concatenate([[-half, half], rng.uniform(-half, half, n - 2)])
            panels = eng.resolution(deltas, shifts)[0]
            got = eng.alpha_and_phase_many(deltas, shifts=shifts, derivatives=2)
            want = eng._evaluate(deltas, shifts, panels)
            for row, (a, b) in enumerate(zip(got, want)):
                assert a.shape == b.shape == (n, deltas.size)
                if n == m:
                    np.testing.assert_array_equal(a, b)
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=quad_rel * np.abs(b).max(), err_msg=f"{case} {n} {row}")


def test_degenerate_and_unsorted_shift_sets():
    eng = TrajectoryEngine(SHAPES["trunc_gaussian"])
    freqs, nu1 = _modes(5)
    deltas = nu1 + TWO_PI * 20e3 - freqs
    spread = TWO_PI * np.linspace(-10e3, 10e3, 201)  # 201 shifts, m = 42
    cases = {
        "equal": np.full(60, TWO_PI * 3e3),  # J > 1 on a zero-width interval
        "single": np.array([TWO_PI * -4e3]),
        "descending": spread[::-1],
        "unsorted": np.random.default_rng(5).permutation(spread),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero half-width either
        for name, shifts in cases.items():
            panels = eng.resolution(deltas, shifts)[0]
            got = eng.alpha_and_phase_many(deltas, shifts=shifts, derivatives=2)
            want = eng._evaluate(deltas, shifts, panels)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.isfinite(a).all(), name
                if name in ("equal", "single"):
                    np.testing.assert_array_equal(a, b, err_msg=name)
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=Tolerances().quad_rel * np.abs(b).max(), err_msg=name)
