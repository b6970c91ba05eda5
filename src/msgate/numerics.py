"""Dependency-light numerical kernels: Brent root finding and natural
cubic splines, in plain numpy."""

from __future__ import annotations

import numpy as np


_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


def brent(func, a: float, b: float, xtol: float, fa: float | None = None, fb: float | None = None) -> float:
    """Root of ``func`` inside the sign-change bracket [a, b] (Brent's method).

    ``func(a)`` and ``func(b)`` must have opposite signs; a caller that
    has them already passes them as ``fa`` and ``fb``, and ``func`` is
    then not called at that end. Terminates once the bracket shrinks
    below ``2*eps*|x| + xtol``; raises ConvergenceError after 200
    iterations.
    """
    fa = func(a) if fa is None else fa
    fb = func(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise ValueError("brent requires a sign change across the bracket")

    c, fc = a, fa
    d = e = b - a
    eps = np.finfo(float).eps

    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = func(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError("brent exceeded the iteration limit")


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
        a = (x1 - t) / h
        b = (t - x0) / h
        return (
            a * self.y[idx]
            + b * self.y[idx + 1]
            + ((a**3 - a) * self.m[idx] + (b**3 - b) * self.m[idx + 1]) * h**2 / 6.0
        )
