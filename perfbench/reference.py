"""Independent reference computations for the benchmark's correctness checks.

Written with numpy only and sharing no code with msgate: the pulse
envelopes (including the natural cubic spline), the gate integrals alpha
and B, the chain equilibrium and the radial normal modes are all computed
here from their definitions, so a check that compares the program against
these functions tests the program and not a copy of it.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34  # J s
ION_MASS = 170.936 * 1.66053906660e-27  # kg, 171Yb+
COULOMB = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * EPSILON_0)


# --- pulse envelopes --------------------------------------------------------

def _natural_spline(x, y, t):
    """Natural cubic spline through (x, y) evaluated at t (dense solve)."""
    n = x.size
    h = np.diff(x)
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, 0] = a[-1, -1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1]
        a[i, i] = 2.0 * (h[i - 1] + h[i])
        a[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    m = np.linalg.solve(a, rhs)
    k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
    dx = t - x[k]
    hk = h[k]
    slope = (y[k + 1] - y[k]) / hk - hk * (2.0 * m[k] + m[k + 1]) / 6.0
    return y[k] + dx * (slope + dx * (m[k] / 2.0 + dx * (m[k + 1] - m[k]) / (6.0 * hk)))


def envelope(pulse: dict, omega0: float, t: np.ndarray) -> np.ndarray:
    """Omega(t) in rad/s on [0, tau] of a Gaussian or spline config-file pulse."""
    tau = pulse["tau_s"]
    kind = pulse["type"]
    z = pulse["z_s"]
    if kind == "trunc_gaussian":
        return omega0 * np.exp(-((t - tau / 2.0) ** 2) / (2.0 * z**2))
    if kind == "spline_gaussian":
        knots = np.linspace(0.0, tau, pulse["n_knots"])
        amp = math.sqrt(omega0) * np.exp(-((knots - tau / 2.0) ** 2) / (4.0 * z**2))
        return _natural_spline(knots, amp, t) ** 2
    raise ValueError(f"unknown pulse type {kind!r}")


# --- alpha and B ------------------------------------------------------------

def _phasor(deltas, steps, h):
    """exp(-i delta j h) for j = 0..steps, as products of two short tables."""
    k = int(math.isqrt(steps)) + 1
    coarse = np.exp(-1j * deltas[:, None] * (k * h * np.arange(steps // k + 1))[None, :])
    fine = np.exp(-1j * deltas[:, None] * (h * np.arange(k))[None, :])
    return (coarse[:, :, None] * fine[:, None, :]).reshape(deltas.size, -1)[:, : steps + 1]


def _nested_trapezoid(pulse, omega0, deltas, steps):
    h = pulse["tau_s"] / steps
    t = h * np.arange(steps + 1)
    f = envelope(pulse, omega0, t)[None, :] * _phasor(deltas, steps, h)

    def running(y):  # integral_0^t y(s) ds on the grid
        out = np.empty_like(y)
        out[:, 0] = 0.0
        np.cumsum(y[:, 1:] + y[:, :-1], axis=1, out=out[:, 1:])
        out[:, 1:] *= 0.5 * h
        return out

    def total(y):
        return h * (y.sum(axis=1) - 0.5 * (y[:, 0] + y[:, -1]))

    g = running(f)  # G(t) = integral_0^t Omega(s) exp(-i delta s) ds
    # B = integral over t2 < t1 of Omega(t1) Omega(t2) sin(delta (t1 - t2))
    #   = Im integral_0^tau Omega(t) exp(+i delta t) G(t) dt,
    # and its delta-derivative brings down (t1 - t2) under a cosine.
    alpha = 1j * g[:, -1]
    fc = f.conj()
    phases = total((fc * g).imag)
    g *= t
    g -= running(f * t)
    slopes = total((fc * g).real)
    return alpha, phases, slopes


MIN_STEPS = 600  # a multiple of 12: the knots of a 13-knot spline fall on grid points
PHASE_PER_STEP = 0.4  # rad; largest |delta| h on the coarsest of the three grids
CHUNK = 1 << 21  # grid values held at once per array


def _steps_for(delta_tau):
    """Coarsest step count for |delta| tau, in quarter-octave bins above MIN_STEPS."""
    need = np.maximum(delta_tau / PHASE_PER_STEP, MIN_STEPS)
    octaves = np.ceil(4.0 * np.log2(need / MIN_STEPS)) / 4.0
    return (12 * np.ceil(MIN_STEPS * 2.0**octaves / 12)).astype(int)


def alpha_and_phase(pulse: dict, omega0: float, deltas):
    """alpha(tau), B(tau) and dB/d delta for each detuning (rad/s).

    Fine-grid quadrature of the double-integral form: nested trapezoid
    rules on ``n``, ``2 n`` and ``4 n`` uniform intervals, combined by two
    Romberg (Richardson) steps. ``n`` grows with |delta| tau so that the
    phase advances at most PHASE_PER_STEP per step of the coarsest grid.
    A square pulse uses its closed form instead.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if pulse["type"] == "square":
        return square_closed_form(omega0, pulse["tau_s"], deltas)
    out = [np.empty(deltas.shape, complex), np.empty(deltas.shape), np.empty(deltas.shape)]
    steps = _steps_for(np.abs(deltas) * pulse["tau_s"])
    for n in np.unique(steps):
        index = np.flatnonzero(steps == n)
        rows = max(1, CHUNK // (4 * n))
        for lo in range(0, index.size, rows):
            part = index[lo:lo + rows]
            levels = [_nested_trapezoid(pulse, omega0, deltas[part], n * 2**k) for k in range(3)]
            for q in range(3):
                r = [level[q] for level in levels]
                r = [(4.0 * r[k + 1] - r[k]) / 3.0 for k in range(2)]
                out[q][part] = (16.0 * r[1] - r[0]) / 15.0
    return tuple(out)


def square_closed_form(omega0: float, tau: float, deltas):
    """alpha(tau), B(tau) and dB/d delta of a square pulse, in closed form.

    alpha = Omega0 (1 - exp(-i x)) / delta and B = Omega0^2 (x - sin x) / delta^2
    with x = delta tau.
    """
    x = deltas * tau
    alpha = omega0 * (1.0 - np.exp(-1j * x)) / deltas
    phases = omega0**2 * (x - np.sin(x)) / deltas**2
    slopes = omega0**2 * (tau * (1.0 - np.cos(x)) * deltas - 2.0 * (x - np.sin(x))) / deltas**3
    return alpha, phases, slopes


# --- chain and modes ----------------------------------------------------------

def equilibrium(n: int) -> np.ndarray:
    """Dimensionless equilibrium positions u of n ions, by damped Newton.

    Solves u_i = sum_{j != i} sign(u_i - u_j) / (u_i - u_j)^2.
    """
    u = np.linspace(-1.0, 1.0, n) * 0.9 * n**0.6
    for _ in range(500):
        d = u[:, None] - u[None, :]
        np.fill_diagonal(d, 1.0)
        inv2 = np.sign(d) / d**2
        inv3 = 1.0 / np.abs(d) ** 3
        np.fill_diagonal(inv2, 0.0)
        np.fill_diagonal(inv3, 0.0)
        force = u - inv2.sum(axis=1)
        if np.abs(force).max() < 1e-12:
            return u
        jac = -2.0 * inv3
        np.fill_diagonal(jac, 1.0 + 2.0 * inv3.sum(axis=1))
        step = np.linalg.solve(jac, force)
        scale = 1.0
        while np.any(np.diff(u - scale * step) <= 0.0):
            scale *= 0.5  # never let two ions cross
        u = u - scale * step
    raise RuntimeError(f"reference equilibrium did not converge for n={n}")


def center_pair(n: int) -> tuple[int, int]:
    """The two ions whose separation is the configured centre spacing."""
    return (n // 2 - 1, n // 2) if n % 2 == 0 else ((n - 1) // 2, (n + 1) // 2)


def axial_omega(config: dict) -> float:
    """Axial COM angular frequency that gives the configured centre spacing."""
    n = config["n_ions"]
    u = equilibrium(n)
    i, j = center_pair(n)
    length = config["center_spacing_m"] / (u[j] - u[i])
    return math.sqrt(COULOMB / (ION_MASS * length**3))


def length_scale(omega_z: float) -> float:
    """l with l^3 = e^2 / (4 pi eps0 m omega_z^2), in metres."""
    return (COULOMB / (ION_MASS * omega_z**2)) ** (1.0 / 3.0)


def radial_modes(u: np.ndarray, omega_z: float, trap_omega: float):
    """Radial mode angular frequencies (ascending) and orthonormal vectors.

    Hessian A_ii = (w_t / w_z)^2 - sum_m |u_i - u_m|^-3, A_ij = |u_i - u_j|^-3,
    diagonalised with np.linalg.eigh; frequencies are w_z sqrt(mu).
    """
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / d**3
    a = inv3.copy()
    np.fill_diagonal(a, (trap_omega / omega_z) ** 2 - inv3.sum(axis=1))
    mu, vecs = np.linalg.eigh(a)
    if mu[0] <= 0.0:
        raise ValueError("reference chain is radially unstable")
    return omega_z * np.sqrt(mu), vecs


def coupling(config: dict) -> dict:
    """Mode frequencies and eta products of the configured pair, radial-a block first."""
    n = config["n_ions"]
    omega_z = axial_omega(config)
    u = equilibrium(n)
    pair = config["target_pair"]
    k_eff = config.get("wavevector_factor", 2.0) * TWO_PI / config.get("wavelength_m", 355e-9)
    k_proj = k_eff * math.cos(config.get("projection_angle_rad", math.pi / 4.0))
    freqs, products = [], []
    for key in ("radial_a_freq_hz", "radial_b_freq_hz"):
        w, vecs = radial_modes(u, omega_z, TWO_PI * config[key])
        extent = np.sqrt(HBAR / (2.0 * ION_MASS * w))
        eta1 = vecs[pair[0], :] * k_proj * extent
        eta2 = vecs[pair[1], :] * k_proj * extent
        freqs.append(w)
        products.append(eta1 * eta2)
    return {
        "freqs": np.concatenate(freqs),
        "radial_b": freqs[1],
        "eta_products": np.concatenate(products),
    }


def rotation_angle(ref: dict, pulse: dict, omega0: float, delta_c):
    """theta = sum_k eta1_k eta2_k B_k and d theta / d delta_c at each carrier detuning."""
    delta_c = np.atleast_1d(np.asarray(delta_c, dtype=float))
    deltas = delta_c[:, None] - ref["freqs"][None, :]
    _, phases, slopes = alpha_and_phase(pulse, omega0, deltas.ravel())
    products = ref["eta_products"]
    return phases.reshape(deltas.shape) @ products, slopes.reshape(deltas.shape) @ products
