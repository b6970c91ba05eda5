"""The natural cubic spline that the spline pulse squares (msgate.pulses)."""

import numpy as np
import pytest

from msgate.pulses import NaturalCubicSpline


def test_spline_interpolates_and_is_natural():
    x = np.linspace(0.0, 3.0, 9)
    y = np.sin(x)
    s = NaturalCubicSpline(x, y)
    np.testing.assert_allclose(s(x), y, atol=1e-12)
    # natural ends: zero second derivative stored at the boundary knots
    assert s.m[0] == 0.0 and s.m[-1] == 0.0
    # dense accuracy for a smooth function
    t = np.linspace(0.0, 3.0, 500)
    assert np.abs(s(t) - np.sin(t)).max() < 2e-3


def test_spline_reproduces_cubic_with_natural_ends():
    # any function with zero curvature at both ends is reproduced much better
    x = np.linspace(-1.0, 1.0, 11)
    y = x**3 - x  # second derivative 6x, nonzero at ends: only interpolation holds
    s = NaturalCubicSpline(x, y)
    np.testing.assert_allclose(s(x), y, atol=1e-12)
    line = NaturalCubicSpline(x, 2.0 * x + 1.0)
    t = np.linspace(-1, 1, 100)
    np.testing.assert_allclose(line(t), 2.0 * t + 1.0, atol=1e-12)


def _thomas_second_derivatives(x, y):
    """Reference: the tridiagonal natural-spline system by the Thomas algorithm."""
    h = np.diff(x)
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    k = x.size - 2
    cp, dp = np.zeros(k), np.zeros(k)
    cp[0], dp[0] = h[1] / diag[0], rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - h[i] * cp[i - 1]
        cp[i] = h[i + 1] / denom
        dp[i] = (rhs[i] - h[i] * dp[i - 1]) / denom
    m = np.zeros(x.size)
    m[-2] = dp[-1]
    for i in range(k - 2, -1, -1):
        m[i + 1] = dp[i] - cp[i] * m[i + 2]
    return m


@pytest.mark.parametrize("n", [3, 4, 13, 101])
def test_spline_second_derivatives_match_thomas_reference(n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = np.exp(-(((x - 0.5) / 0.2) ** 2)) + 0.1 * rng.normal(size=n)
    reference = _thomas_second_derivatives(x, y)
    # a different elimination order: rounding of a well-conditioned
    # diagonally dominant solve, a few ulp per knot
    np.testing.assert_allclose(NaturalCubicSpline(x, y).m, reference, rtol=0, atol=1e-13 * np.abs(reference).max())


def test_spline_rejects_bad_input():
    with pytest.raises(ValueError):
        NaturalCubicSpline([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        NaturalCubicSpline([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
