"""Brute-force check of the closed-form gate dynamics.

Integrates the time-dependent Schrodinger equation for the drive
Hamiltonian (spin-conditioned sideband terms, linearised in the
Lamb-Dicke parameters)

    H(t) = -Omega(t) sum_k S_k (a_k exp(i delta_k t) + a_k^dag exp(-i delta_k t)),
    S_k  = (eta1_k sigma_y1 + eta2_k sigma_y2) / 2,

in a truncated Fock space with a fixed-step fourth-order Runge-Kutta
scheme, and compares the final state against the analytic form: per spin
branch, a product of coherent states displaced by lambda alpha_k with the
accumulated phase exp(-i B_k lambda^2). Nothing here reuses the
displacement/phase algebra of the analytic path beyond alpha_k and B_k
themselves, so agreement validates both the propagator structure and the
sign convention of the entangling phase.

The integration runs in the spin branches of a numerical eigendecomposition
of the S_k built here (not the analytic branch eigenvalues used for the
reference state), and one RK4 steps the whole multi-mode state: no product
of per-mode propagators or other shortcut across modes.

``run_oracle`` integrates with the step count it is given.
``run_oracle_to_tolerance`` chooses it: it doubles the count from 1,000
until the step-doubling (Richardson) estimate of the error of the numeric
alpha and B, |X_n - X_{n/2}| / 15 for RK4's h^4 (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, Sec. II.4), is at most
STEP_TOL = 1e-10 of their largest value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import sqrt

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import QUAD_REL
from .modes import GateCoupling
from .pulses import PulseShape
from .trajectory import gate_integrals

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_GAUGE = np.diag([1.0, 1.0j])  # diag(1, i): sigma_y -> sigma_x
_LEAK_TOL = 1e-8
_MIX = np.sqrt([2.0, 3.0, 5.0])  # generic weights of the S_k combination that eigh diagonalises
_DIAG_TOL = 1e-12  # off-diagonal of V^dag S_k V relative to the largest |S_k| entry
_CHUNK_STEPS = 256  # RK4 steps per table of drive numbers
_RK4_ROWS = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0  # (h/6)(k1 + 2 k2 + 2 k3 + k4) from the stage rows
STEP_TOL = 1e-10  # relative step-doubling estimate at which run_oracle_to_tolerance stops
_FIRST_STEPS = 1_000  # the smallest count OracleSpec takes


class CutoffError(RuntimeError):
    """Population reached the top of the Fock truncation."""


@dataclass(frozen=True)
class OracleSpec:
    """Scope of one oracle run: which modes, how big a Fock space."""

    mode_indices: tuple[int, ...]
    n_max: int = 15
    n_steps: int = 200_000

    def __post_init__(self):
        if not 1 <= len(self.mode_indices) <= 3:
            raise ValueError("oracle handles 1 to 3 modes")
        if self.n_max < 5:
            raise ValueError("n_max must be at least 5")
        if self.n_steps < 1000:
            raise ValueError("integrator needs a sensible step count")
        if 4 * self.n_max ** len(self.mode_indices) > 4 * 15**3:
            raise ValueError("truncated Hilbert space too large")


@dataclass(frozen=True)
class OracleReport:
    overlap: float  # |<analytic|numeric>|^2
    leakage: np.ndarray = field(repr=False)  # per mode, top-two-level population
    alpha_analytic: np.ndarray = field(repr=False)
    alpha_numeric: np.ndarray = field(repr=False)
    phase_analytic: np.ndarray = field(repr=False)  # B_k from quadrature
    phase_numeric: np.ndarray = field(repr=False)  # B_k extracted from the state
    norm_drift: float = 0.0
    n_steps: int | None = None  # RK4 steps of the run
    step_error: float | None = None  # step-doubling estimate, relative, of alpha and B

    def summary_lines(self):
        lines = [f"overlap = {self.overlap:.12f}", f"norm drift = {self.norm_drift:.3e}"]
        if self.step_error is not None:
            lines.insert(0, f"steps = {self.n_steps} (step-doubling estimate {self.step_error:.1e} "
                            f"of alpha and B, tolerance {STEP_TOL:.0e})")
        for k in range(self.alpha_analytic.size):
            lines.append(
                f"mode {k}: alpha analytic {self.alpha_analytic[k]:.6e} "
                f"numeric {self.alpha_numeric[k]:.6e} | B analytic "
                f"{self.phase_analytic[k]:+.6e} numeric {self.phase_numeric[k]:+.6e}"
            )
            lines.append(f"mode {k}: top-level leakage {self.leakage[k]:.3e}")
        return lines


def _spin_operators(eta1: np.ndarray, eta2: np.ndarray) -> list[np.ndarray]:
    eye = np.eye(2)
    s1 = np.kron(_SIGMA_Y, eye)
    s2 = np.kron(eye, _SIGMA_Y)
    return [0.5 * (e1 * s1 + e2 * s2) for e1, e2 in zip(eta1, eta2)]


def _branch_eigenvalues(eta1: np.ndarray, eta2: np.ndarray) -> np.ndarray:
    """lambda[mode, branch] with branches ordered (++, +-, -+, --)."""
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    return 0.5 * (eta1[:, None] * signs[None, :, 0] + eta2[:, None] * signs[None, :, 1])


def _coherent_vector(beta: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes of |beta>, fine directly for the small beta used here."""
    n = np.arange(n_max)
    factorial = np.cumprod(np.concatenate([[1.0], np.arange(1.0, n_max)]))
    return np.exp(-0.5 * abs(beta) ** 2) * (complex(beta) ** n) / np.sqrt(factorial)


def _spin_basis() -> np.ndarray:
    yp = np.array([1.0, 1.0j]) / sqrt(2.0)
    ym = np.array([1.0, -1.0j]) / sqrt(2.0)
    return np.stack([np.kron(yp, yp), np.kron(yp, ym), np.kron(ym, yp), np.kron(ym, ym)], axis=1)


def _branch_states(lam, alphas, n_max):
    """|s> times the coherent product of displacements lambda_k[s] alpha_k,
    one (4, n_max, ..., n_max) state per spin branch s, stacked on axis 0."""
    basis = _spin_basis()
    n_modes = lam.shape[0]
    states = []
    for s in range(4):
        coh = np.array([1.0 + 0j])
        for k in range(n_modes):
            coh = np.multiply.outer(coh, _coherent_vector(lam[k, s] * alphas[k], n_max))
        states.append(np.multiply.outer(basis[:, s], coh.reshape((n_max,) * n_modes)))
    return np.stack(states)


def _analytic_state(lam, phases, branches):
    """Sum over spin branches of the coherent-product states with B phases."""
    state = np.zeros(branches.shape[1:], dtype=complex)
    for s in range(4):
        state += 0.5 * np.exp(-1j * np.sum(phases * lam[:, s] ** 2)) * branches[s]  # <s|00> = 1/2
    return state


def _spin_eigensystem(spins: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Common eigenbasis V of the commuting S_k and their eigenvalues lam[k, s].

    V = G Q, where Q comes from eigh of a generic real combination of the
    G^dag S_k G. The per-ion phase gauge G = diag(1, i) x diag(1, i) turns
    sigma_y into sigma_x, so these are real and the real symmetric solver
    the modes already use applies (the complex one would page in another
    LAPACK routine for a 4 x 4 problem). Every V^dag S_k V is checked to be
    diagonal, so a degeneracy of the combination that some S_k splits, or
    an S_k that the gauge leaves complex, raises instead of silently mixing
    spin branches.
    """
    gauge = np.kron(_GAUGE, _GAUGE)
    mix = sum(w * (gauge.conj().T @ s @ gauge) for w, s in zip(_MIX, spins))
    basis = gauge @ np.linalg.eigh(mix.real)[1]
    scale = max(np.abs(s).max() for s in spins)
    lam = np.empty((len(spins), basis.shape[1]))
    for k, s in enumerate(spins):
        rotated = basis.conj().T @ s @ basis
        lam[k] = np.diag(rotated).real
        if np.abs(rotated - np.diag(lam[k])).max() > _DIAG_TOL * scale:
            raise RuntimeError(f"spin operator {k} is not diagonal in the common eigenbasis")
    # an eigenvalue at rounding level is a zero: kept, it would drive the mode
    # in that branch with amplitudes that sink into subnormal floats, which
    # cost several times a normal float in every later step
    lam[np.abs(lam) <= _DIAG_TOL * scale] = 0.0
    return basis, lam


def _evolve(spins, deltas, pulse, spec) -> np.ndarray:
    """Final state, shape (4, n_max, ..., n_max), of a fixed-step RK4 over
    the whole multi-mode state, from |00> and the motional ground state.

    In the common eigenbasis V of the S_k the equation reads d phi/dt =
    i Omega(t) sum_k lam_k G_k(t) phi with G_k = exp(i delta_k t) a_k +
    exp(-i delta_k t) a_k^dag. On the flattened state, a_k^dag and a_k read
    the entries one mode-k stride below and above, with static real weights
    lam_k[s] sqrt(m) that are zero where the shift leaves the mode's Fock
    range. Two modes share one strided view of the padded state, so one
    multiply forms the weighted shifts of both. The drive enters only as one
    complex number per shift, (h/2) i Omega exp(+-i delta_k t), tabulated on
    the half-step grid _CHUNK_STEPS steps at a time; the third stage's row is
    doubled there, which is exact. So one stage is one multiply per pair of
    modes and one matrix-vector product with the drive numbers into a row of
    the (4, size) stage buffer g = (h/2 k1, h/2 k2, h k3, h/2 k4), and the
    RK4 combination is one real product of (1, 2, 1, 1) / 3 with g: 13 numpy
    calls per step for two modes, 17 for three, and no Python function call.
    psi is rebuilt as psi0 plus V times the departure phi - phi0: a silent
    drive adds exact zeros to phi, so it returns psi0 bit for bit.
    """
    n_modes, n_max, n_steps = deltas.size, spec.n_max, spec.n_steps
    h = pulse.tau / n_steps
    psi0 = np.zeros((4,) + (n_max,) * n_modes, dtype=complex)
    psi0.flat[0] = 1.0  # |00> and motional ground
    basis, lam = _spin_eigensystem(spins)
    size = psi0.size
    strides = [n_max ** (n_modes - 1 - k) for k in range(n_modes)]
    pad = strides[0]

    # shift weights per row 2k (a_k^dag) and 2k + 1 (a_k), repeated over the
    # real and imaginary parts of the interleaved float view of the state
    fock = np.indices(psi0.shape).reshape(1 + n_modes, size)
    branch = lam[:, fock[0]]
    raising = np.sqrt(np.arange(float(n_max)))  # a^dag: sqrt(m) from level m - 1
    lowering = np.append(raising[1:], 0.0)  # a: sqrt(m + 1) from level m + 1, none above the top
    weights = np.empty((n_modes, 2, 2 * size))
    weights[:, 0] = np.repeat(branch * raising[fock[1:]], 2, axis=1)
    weights[:, 1] = np.repeat(branch * lowering[fock[1:]], 2, axis=1)

    # modes k, k' (strides s, s') share one strided view, whose rows read the
    # state offset by -s, +s', -s', +s entries: rows 2k, 2k' + 1, 2k', 2k + 1.
    # A mode left over alone (k' = k) takes the first two.
    groups = [range(n_modes)[i : i + 2] for i in range(0, n_modes, 2)]
    rows = [r for k in groups for r in (2 * k[0], 2 * k[-1] + 1, 2 * k[-1], 2 * k[0] + 1)[: 2 * len(k)]]
    weights = weights.reshape(2 * n_modes, 2 * size)[rows]

    # stage inputs sit inside zero padding, so every shifted view is in range
    # and whatever it reads across a mode boundary meets a zero weight
    phi_pad, y_pad = np.zeros(size + 2 * pad, complex), np.zeros(size + 2 * pad, complex)
    phi, y = phi_pad[pad:-pad], y_pad[pad:-pad]
    phi0 = np.tensordot(basis.conj().T, psi0, axes=1).ravel()
    phi[:] = phi0
    shifted = np.empty((2 * n_modes, size), dtype=complex)
    g = np.empty((4, size), dtype=complex)  # stage k_j times (h/2, h/2, h, h/2)
    g0, g1, g2, g3 = g
    g_real, increment = g.view(float), np.empty(size, dtype=complex)
    increment_real = increment.view(float)

    def shift_terms(padded):
        # (weights, view, out) per group, as (len(k), 2, 2 * size) float arrays
        real, step, terms = padded.view(float), padded.itemsize // 2, []
        for k in groups:
            s, s2, rows_k = strides[k[0]], strides[k[-1]], slice(2 * k[0], 2 * k[0] + 2 * len(k))
            shape = (len(k), 2, 2 * size)
            view = as_strided(real[2 * (pad - s) :], shape, (2 * (s - s2) * step, 2 * (s + s2) * step, step),
                              writeable=False)
            terms.append((weights[rows_k].reshape(shape), view, shifted[rows_k].view(float).reshape(shape)))
        return terms

    phi_terms, y_terms = shift_terms(phi_pad), shift_terms(y_pad)
    multiply, dot, add = np.multiply, np.dot, np.add

    for s0 in range(0, n_steps, _CHUNK_STEPS):
        s1 = min(s0 + _CHUNK_STEPS, n_steps)
        t = np.arange(2 * s0, 2 * s1 + 1) * (h / 2.0)
        # (h/2) i Omega e^{i delta t} for a, minus its conjugate for a^dag
        up = (0.5j * h) * pulse.amplitude(t)[:, None] * np.exp(1j * np.multiply.outer(t, deltas))
        drive = np.stack([-np.conj(up), up], axis=2).reshape(t.size, 2 * n_modes)[:, rows]
        # per step the stage rows at t, t + h/2, t + h/2 (doubled, exactly) and t + h
        stages = np.stack([drive[:-2:2], drive[1::2], 2.0 * drive[1::2], drive[2::2]], axis=1)
        for d0, d1, d2, d3 in stages:
            for w, v, out in phi_terms:
                multiply(w, v, out=out)
            dot(d0, shifted, out=g0)
            add(phi, g0, out=y)
            for w, v, out in y_terms:
                multiply(w, v, out=out)
            dot(d1, shifted, out=g1)
            add(phi, g1, out=y)
            for w, v, out in y_terms:
                multiply(w, v, out=out)
            dot(d2, shifted, out=g2)
            add(phi, g2, out=y)
            for w, v, out in y_terms:
                multiply(w, v, out=out)
            dot(d3, shifted, out=g3)
            # phi += (h/6)(k1 + 2 k2 + 2 k3 + k4) as one real combination of the rows
            dot(_RK4_ROWS, g_real, out=increment_real)
            phi += increment
    return psi0 + np.tensordot(basis, (phi - phi0).reshape(psi0.shape), axes=1)


def run_oracle(
    coupling: GateCoupling,
    pulse: PulseShape,
    delta_c: float,
    spec: OracleSpec,
    domega: float = 0.0,
    quad_rel: float = QUAD_REL,
) -> OracleReport:
    """Integrate the reduced-mode model numerically and compare.

    The spin branches come from a numerical eigendecomposition of the built
    S_k; one fixed-step RK4 with spec.n_steps steps evolves the whole
    (4, n_max, ..., n_max) state in them.

    The analytic reference alpha and B are integrated to relative
    accuracy ``quad_rel``; pass the design's ``quad_rel``.

    Raises CutoffError if the top two Fock levels of any mode hold more
    than 1e-8 population at the end of the gate (the truncation would
    then be biasing the comparison).
    """
    idx = np.asarray(spec.mode_indices, dtype=int)
    eta1 = coupling.eta1[idx]
    eta2 = coupling.eta2[idx]
    deltas = delta_c - coupling.freqs[idx] + domega
    n_modes = idx.size
    n_max = spec.n_max

    psi = _evolve(_spin_operators(eta1, eta2), deltas, pulse, spec)
    norm_drift = abs(np.vdot(psi, psi).real - 1.0)

    # truncation adequacy: population in the two highest Fock levels per mode
    prob = np.abs(psi) ** 2
    leakage = np.empty(n_modes)
    for k in range(n_modes):
        sl = [slice(None)] * (1 + n_modes)
        sl[1 + k] = slice(n_max - 2, n_max)
        leakage[k] = prob[tuple(sl)].sum()
    if np.any(leakage > _LEAK_TOL):
        raise CutoffError(
            f"Fock truncation too small: top-two-level population {leakage.max():.3e} "
            f"(n_max = {n_max})"
        )

    # analytic reference from the quadrature path
    alphas, phases = gate_integrals(pulse, deltas, quad_rel=quad_rel)
    lam = _branch_eigenvalues(eta1, eta2)
    branches = _branch_states(lam, alphas, n_max)
    reference = _analytic_state(lam, phases, branches)
    overlap = abs(np.vdot(reference, psi)) ** 2

    alpha_num, b_num = _extract_mode_quantities(psi, lam, phases, branches, n_max, n_modes)

    return OracleReport(
        overlap=float(overlap),
        leakage=leakage,
        alpha_analytic=alphas,
        alpha_numeric=alpha_num,
        phase_analytic=phases,
        phase_numeric=b_num,
        norm_drift=float(norm_drift),
        n_steps=spec.n_steps,
    )


def run_oracle_to_tolerance(
    coupling: GateCoupling,
    pulse: PulseShape,
    delta_c: float,
    spec: OracleSpec,
    domega: float = 0.0,
    quad_rel: float = QUAD_REL,
) -> OracleReport:
    """``run_oracle`` at 1,000, 2,000, 4,000, ... steps, at most spec.n_steps,
    until the step-doubling estimate is at most STEP_TOL.

    The estimate of the run at n steps is max |X_n - X_{n/2}| / (15 max |X_n|),
    the larger over X = alpha_numeric and phase_numeric. The last run's
    report carries it as ``step_error``; if the doubling reaches spec.n_steps
    first, that estimate is above STEP_TOL (and None if only one run fits).
    """
    report, n = None, _FIRST_STEPS
    while n <= spec.n_steps:
        new = run_oracle(coupling, pulse, delta_c, replace(spec, n_steps=n), domega, quad_rel)
        if report is not None:
            pairs = ((new.alpha_numeric, report.alpha_numeric), (new.phase_numeric, report.phase_numeric))
            estimate = max(np.abs(x - old).max() / (15.0 * np.abs(x).max()) for x, old in pairs)
            new = replace(new, step_error=float(estimate))
            if estimate <= STEP_TOL:
                return new
        report, n = new, 2 * n
    return report


def _extract_mode_quantities(psi, lam, phases, branches, n_max, n_modes):
    """Per-mode alpha and B read off the numeric state.

    alpha comes from <a_k> in the spin branch with the largest eigenvalue
    on that mode (a coherent state's ladder expectation is its
    displacement). The signed B comes from the phase of the (++, +-)
    branch-amplitude ratio, which equals -sum_k B_k (lambda++^2 -
    lambda+-^2); mode k's share is isolated by subtracting the other
    modes' analytic contributions, so for single-mode runs the extraction
    is fully independent of the analytic value.
    """
    basis = _spin_basis()
    shape = (4,) + (n_max,) * n_modes
    psi_mat = psi.reshape(4, -1)
    alpha_num = np.empty(n_modes, dtype=complex)
    b_num = np.empty(n_modes)
    sqrt_n = np.sqrt(np.arange(1, n_max)).reshape((-1,) + (1,) * (n_modes - 1))

    # phase of <s, coh | psi> for the branches (++) and (+-); in mode k's
    # share below the other modes' B cancel in the single-mode difference
    # because their lambdas are equal there
    amp = [np.vdot(branches[s], psi) for s in (0, 1)]
    lam_sq_diff = lam[:, 0] ** 2 - lam[:, 1] ** 2
    total = -np.angle(amp[0] / amp[1])

    for k in range(n_modes):
        # use the spin branch with the largest displacement on this mode
        s = int(np.argmax(np.abs(lam[k, :])))
        branch_state = (basis[:, s].conj() @ psi_mat).reshape(shape[1:])
        norm = np.vdot(branch_state, branch_state).real
        moved = np.moveaxis(branch_state, k, 0)
        a_exp = np.sum(np.conj(moved[:-1]) * sqrt_n * moved[1:])
        alpha_num[k] = a_exp / norm / lam[k, s]

        other = np.sum(np.delete(phases * lam_sq_diff, k))
        if abs(lam_sq_diff[k]) > 1e-30:
            b_num[k] = (total - other) / lam_sq_diff[k]
        else:
            b_num[k] = np.nan
    return alpha_num, b_num
