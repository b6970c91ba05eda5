import numpy as np
import pytest

from msgate import PulseSpec, SplineGaussianPulse, SquarePulse, TruncGaussianPulse, make_pulse

TAU = 200e-6


def test_square_amplitude():
    p = SquarePulse(omega0=2.0, tau=TAU)
    assert p.amplitude(0.0) == 2.0
    assert p.amplitude(TAU) == 2.0
    assert p.amplitude(-1e-9) == 0.0
    assert p.amplitude(TAU + 1e-9) == 0.0


def test_gaussian_peak_and_edges():
    p = TruncGaussianPulse(omega0=1.0, tau=TAU, z=25e-6)
    assert p.amplitude(TAU / 2) == pytest.approx(1.0)
    # (t - tau/2)^2 / (2 z^2) = 8 at the window edges
    assert p.amplitude(0.0) == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert p.amplitude(TAU) == pytest.approx(np.exp(-8.0), rel=1e-12)
    assert p.amplitude(-1e-9) == 0.0
    assert p.amplitude(TAU + 1e-9) == 0.0


def test_spline_matches_gaussian_at_knots():
    s = SplineGaussianPulse(omega0=1.0, tau=TAU, z=26.5e-6, n_knots=13)
    g = TruncGaussianPulse(omega0=1.0, tau=TAU, z=26.5e-6)
    knots = np.linspace(0.0, TAU, 13)
    np.testing.assert_allclose(s.amplitude(knots), g.amplitude(knots), atol=1e-12)
    # endpoints are non-zero truncations of the underlying Gaussian
    assert s.amplitude(0.0) > 0.0
    assert s.amplitude(TAU) > 0.0


def test_spline_dense_deviation_bound():
    ts = np.linspace(0.0, TAU, 10_000)
    g = TruncGaussianPulse(omega0=1.0, tau=TAU, z=26.5e-6)

    def deviation(n_knots):
        spline = SplineGaussianPulse(omega0=1.0, tau=TAU, z=26.5e-6, n_knots=n_knots)
        return np.abs(spline.amplitude(ts) - g.amplitude(ts)).max()

    dev13 = deviation(13)
    assert dev13 <= 0.01
    dev101 = deviation(101)
    assert dev101 < dev13


def test_symmetry_about_midpoint():
    offsets = np.linspace(0.0, TAU / 2, 300)
    for pulse in (
        SquarePulse(omega0=1.0, tau=TAU),
        TruncGaussianPulse(omega0=1.0, tau=TAU, z=25e-6),
        SplineGaussianPulse(omega0=1.0, tau=TAU, z=25e-6, n_knots=13),
    ):
        left = pulse.amplitude(TAU / 2 - offsets)
        right = pulse.amplitude(TAU / 2 + offsets)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_monotone_ramp_for_gaussian_variants():
    half = np.linspace(0.0, TAU / 2, 2000)
    for pulse in (
        TruncGaussianPulse(omega0=1.0, tau=TAU, z=25e-6),
        SplineGaussianPulse(omega0=1.0, tau=TAU, z=25e-6, n_knots=13),
        SplineGaussianPulse(omega0=1.0, tau=TAU, z=26.5e-6, n_knots=13),
    ):
        amp = pulse.amplitude(half)
        assert np.all(np.diff(amp) > -1e-12)


def test_omega0_homogeneity():
    ts = np.linspace(0.0, TAU, 101)
    for make in (
        lambda o: SquarePulse(omega0=o, tau=TAU),
        lambda o: TruncGaussianPulse(omega0=o, tau=TAU, z=25e-6),
        lambda o: SplineGaussianPulse(omega0=o, tau=TAU, z=25e-6, n_knots=13),
    ):
        base = make(1.0).amplitude(ts)
        scaled = make(3.7).amplitude(ts)
        np.testing.assert_allclose(scaled, 3.7 * base, rtol=1e-12, atol=1e-15)


def test_nonnegative_everywhere():
    ts = np.linspace(-10e-6, TAU + 10e-6, 5000)
    for pulse in (
        SquarePulse(omega0=1.0, tau=TAU),
        TruncGaussianPulse(omega0=1.0, tau=TAU, z=12e-6),
        SplineGaussianPulse(omega0=1.0, tau=TAU, z=12e-6, n_knots=13),
    ):
        assert np.all(pulse.amplitude(ts) >= 0.0)


def test_make_pulse_and_rescale():
    p = make_pulse(PulseSpec(type="spline_gaussian", tau_s=TAU, z_s=25e-6, n_knots=13))
    assert isinstance(p, SplineGaussianPulse)
    assert p.omega0 == 1.0
    p2 = p.with_omega0(2.0 * p.omega0)
    assert p2.amplitude(TAU / 2) == pytest.approx(2.0 * p.amplitude(TAU / 2), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        SquarePulse(omega0=-1.0, tau=TAU)
    with pytest.raises(ValueError):
        TruncGaussianPulse(omega0=1.0, tau=TAU, z=0.0)
    with pytest.raises(ValueError):
        SplineGaussianPulse(omega0=1.0, tau=TAU, z=25e-6, n_knots=3)


def _per_call_autocorrelation(pulse, s):
    """The spline's R(s) with the lag-interval Chebyshev solve redone on every
    call: the same arithmetic as ``SplineGaussianPulse.autocorrelation``
    before its coefficients were cached per pulse."""
    from numpy.polynomial.chebyshev import chebvander
    from numpy.polynomial.legendre import leggauss

    degree = 13
    s = np.asarray(s, dtype=float)
    knots = np.linspace(0.0, pulse.tau, pulse.n_knots)
    h = knots[1] - knots[0]
    nodes, weights = leggauss(7)
    u = (nodes + 1.0) / 2.0
    cheb = np.cos(np.pi * np.arange(degree + 1) / degree)
    r = (cheb[:, None] + 1.0) / 2.0

    def omega(x):
        return pulse._profile(knots[:-1, None, None] + h * x[None, :, :])

    late_hi, late_lo = omega(r + (1.0 - r) * u), omega((1.0 - r) * u)
    early_hi, early_lo = omega(r * u), omega(1.0 - r + r * u)
    w_late, w_early = (1.0 - r) * weights / 2.0, r * weights / 2.0
    n = pulse.pieces
    samples = np.empty((degree + 1, n))
    for m in range(n):
        late = np.sum(late_hi[m:] * late_lo[: n - m] * w_late, axis=(0, 2))
        early = np.sum(early_hi[m + 1 :] * early_lo[: n - m - 1] * w_early, axis=(0, 2))
        samples[:, m] = h * (late + early)
    coeffs = np.linalg.solve(chebvander(cheb, degree), samples)
    m = np.clip(np.floor(s / h), 0, n - 1).astype(int)
    basis = chebvander(2.0 * (s / h - m) - 1.0, degree)
    return np.sum(basis * np.moveaxis(coeffs[:, m], 0, -1), axis=-1)


def test_spline_autocorrelation_cached_bitwise():
    rng = np.random.default_rng(5)
    for z, knots in ((25e-6, 13), (12e-6, 9), (40e-6, 6)):
        pulse = SplineGaussianPulse(omega0=1.3e6, tau=200e-6, z=z, n_knots=knots)
        lags = [rng.uniform(0.0, 200e-6, 17), np.linspace(0.0, 200e-6, 8 * 64).reshape(8, 64), 0.0]
        for s in lags + lags:  # the second pass reads the cached coefficients
            np.testing.assert_array_equal(pulse.autocorrelation(s), _per_call_autocorrelation(pulse, s))
        # with_omega0 gives a new pulse, which solves its own coefficients
        scaled = pulse.with_omega0(2.0 * pulse.omega0)
        want = _per_call_autocorrelation(scaled, lags[0])
        np.testing.assert_array_equal(scaled.autocorrelation(lags[0]), want)


def test_kernel_calls_fit_a_spline_pulse_once(monkeypatch):
    import msgate.pulses
    from msgate.trajectory import gate_integrals

    pulse = SplineGaussianPulse(omega0=1.3e6, tau=TAU, z=25e-6, n_knots=13)
    fits = []

    class CountedSpline(msgate.pulses.NaturalCubicSpline):
        def __init__(self, x, y):
            fits.append(1)
            super().__init__(x, y)

    monkeypatch.setattr(msgate.pulses, "NaturalCubicSpline", CountedSpline)
    first = gate_integrals(pulse, 2 * np.pi * np.array([7e3, 41e3]))
    for _ in range(4):
        again = gate_integrals(pulse, 2 * np.pi * np.array([7e3, 41e3]))
    assert len(fits) <= 1  # the unit-rate pulse the engine is looked up by
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_design_fits_one_spline_per_shape(monkeypatch):
    import msgate.pulses
    from msgate import design_gate

    from conftest import three_ion_config

    fits = []

    class CountedSpline(msgate.pulses.NaturalCubicSpline):
        def __init__(self, x, y):
            fits.append(1)
            super().__init__(x, y)

    monkeypatch.setattr(msgate.pulses, "NaturalCubicSpline", CountedSpline)
    msgate.pulses._unit_spline.cache_clear()  # the shape below is new to this process
    config = three_ion_config("spline_gaussian", z_s=24.3e-6)
    balanced = design_gate(config)
    fixed = design_gate(config, delta0_override=2 * np.pi * -40e3)
    # trial pulse, its unit rate, the calibrated pulse and its unit rate share one fit
    assert len(fits) == 1
    assert balanced.pulse.omega0 != fixed.pulse.omega0


def test_spline_rate_scales_the_unit_spline():
    ts = np.linspace(0.0, TAU, 257)
    for w in (1.0, 3.7e5, 2 * np.pi * 1e5):
        silent = SplineGaussianPulse(omega0=0.0, tau=TAU, z=21e-6, n_knots=9)
        assert np.all(silent.amplitude(ts) == 0.0)
        want = SplineGaussianPulse(omega0=w, tau=TAU, z=21e-6, n_knots=9).amplitude(ts)
        np.testing.assert_allclose(silent.with_omega0(w).amplitude(ts), want, rtol=1e-15, atol=0)
        unit = SplineGaussianPulse(omega0=1.0, tau=TAU, z=21e-6, n_knots=9)
        np.testing.assert_allclose(want, w * unit.amplitude(ts), rtol=1e-15)
