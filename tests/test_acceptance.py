"""Acceptance suite: release criteria with their stated tolerances.

Each test prints one summary line (visible with ``pytest -s``) of the
form ``ACCEPTANCE <n> <name>: PASS/FAIL -- <detail> [<elapsed>]`` before
asserting, so a red criterion still reports its measured numbers.
"""

import time
from dataclasses import replace

import numpy as np

from msgate import (
    OracleSpec,
    SystemConfig,
    angular_to_hz,
    design_gate,
    hz_to_angular,
    run_oracle,
)
from msgate.chain import build_chain
from msgate.config import default_target_pair
from msgate.design import breakdown_curve, solve_balance
from msgate.errors import (
    exact_fidelity,
    parity_scan,
    reduced_density_matrix,
    spin_eigensystem,
)
from msgate.modes import build_coupling, radial_modes
from msgate.pulses import TruncGaussianPulse, make_pulse
from msgate.trajectory import TrajectoryEngine, engine_for, gate_integrals

TWO_PI = 2 * np.pi


def report(number, name, ok, detail, t0):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} -- {detail} [{elapsed:.1f} s]"
    print("\n" + line)
    return line


def crossing(x, y, level, i0, direction):
    """Linear interpolation of the first y-crossing of ``level`` from x[i0]."""
    i = i0
    while 0 <= i < y.size:
        if y[i] > level:
            j = i - direction
            frac = (level - y[j]) / (y[i] - y[j])
            return x[j] + frac * (x[i] - x[j])
        i += direction
    return x[i - direction]


def test_acceptance_1_mode_splitting(ref_config):
    t0 = time.time()
    chain = build_chain(ref_config)
    rb = radial_modes(chain, hz_to_angular(ref_config.radial_b_freq_hz))
    split_khz = angular_to_hz(rb.splitting()) / 1e3
    ok = abs(split_khz - 94.7) <= 0.02 * 94.7
    line = report(1, "mode splitting", ok, f"zigzag/tilt splitting {split_khz:.3f} kHz vs 94.7 +- 2%", t0)
    assert ok, line
    assert time.time() - t0 < 1.0, "runtime budget 1 s exceeded"


def test_acceptance_2_balance_point(ref_config):
    t0 = time.time()
    design = design_gate(ref_config)
    delta0_khz = angular_to_hz(design.delta0) / 1e3
    ok = abs(delta0_khz - 37.2) <= 1.0
    line = report(2, "balance point", ok, f"delta0 = {delta0_khz:.3f} kHz vs 37.2 +- 1 kHz", t0)
    assert ok, line
    assert time.time() - t0 < 5.0, "runtime budget 5 s exceeded"


def test_acceptance_3_robust_window(ref_config, ref_design):
    t0 = time.time()
    # frequency-error window at z = 25 us
    dw_grid = np.arange(-9.5e3, 9.5e3 + 1, 50.0)
    eps = breakdown_curve(ref_design, hz_to_angular(dw_grid), with_fidelity=False).eps_s
    i_min = int(np.argmin(eps))
    lo = crossing(dw_grid, eps, 1e-3, i_min, -1) / 1e3
    hi = crossing(dw_grid, eps, 1e-3, i_min, +1) / 1e3
    ok_dw = abs(lo - (-7.8)) <= 0.5 and abs(hi - 8.5) <= 0.5

    # width window at domega = 0, each width freshly designed
    z_grid = np.arange(9e-6, 48e-6, 0.25e-6)
    eps_z = np.empty(z_grid.size)
    for i, z in enumerate(z_grid):
        cfg = replace(ref_config, pulse=replace(ref_config.pulse, z_s=float(z)))
        eps_z[i] = design_gate(cfg).diagnostics["eps_s"]
    j_min = int(np.argmin(eps_z))
    z_lo = crossing(z_grid * 1e6, eps_z, 1e-3, j_min, -1)
    z_hi = crossing(z_grid * 1e6, eps_z, 1e-3, j_min, +1)
    ok_z = abs(z_lo - 13.0) <= 2.0 and abs(z_hi - 44.0) <= 2.0

    # the full contour honours its runtime budget
    from msgate.sweeps import contour

    t_contour = time.time()
    grid = contour(ref_config, z_steps=100, domega_steps=100)
    contour_elapsed = time.time() - t_contour
    ok_rt = contour_elapsed < 120.0 and len(grid.rows) == 100 * 100

    ok = ok_dw and ok_z and ok_rt
    line = report(
        3,
        "robust window",
        ok,
        f"eps_s<1e-3 for domega in [{lo:.2f}, {hi:.2f}] kHz (want [-7.8, 8.5] +- 0.5); "
        f"z in [{z_lo:.2f}, {z_hi:.2f}] us (want [13, 44] +- 2); "
        f"full 100x100 contour in {contour_elapsed:.1f} s",
        t0,
    )
    assert ok, line


def test_acceptance_4_pulse_shape_ordering(ref_config, ref_design):
    t0 = time.time()
    unbalanced = design_gate(ref_config, delta0_override=hz_to_angular(-40e3))
    square_cfg = replace(ref_config, pulse=replace(ref_config.pulse, type="square"))
    square = design_gate(square_cfg, delta0_override=hz_to_angular(-40e3))

    dw = np.concatenate([np.arange(-10e3, -1999.0, 500.0), np.arange(2000.0, 10001.0, 500.0)])
    grid = hz_to_angular(dw)
    eps_bal = breakdown_curve(ref_design, grid, with_fidelity=False).eps_s
    eps_unb = breakdown_curve(unbalanced, grid, with_fidelity=False).eps_s
    eps_sq = breakdown_curve(square, grid, with_fidelity=False).eps_s

    bad_bu = dw[~(eps_bal < eps_unb)] / 1e3
    bad_us = dw[~(eps_unb < eps_sq)] / 1e3
    ok = bad_bu.size == 0 and bad_us.size == 0
    line = report(
        4,
        "pulse-shape ordering",
        ok,
        f"balanced<unbalanced violated at {bad_bu.tolist()} kHz; "
        f"unbalanced<square violated at {bad_us.tolist()} kHz "
        f"({dw.size} grid points, |domega| in [2, 10] kHz)",
        t0,
    )
    assert ok, line


def test_acceptance_5_large_chain_robustness(ref_config):
    t0 = time.time()
    failures = []
    worst = (0.0, None)
    for n in range(2, 34):
        cfg = SystemConfig(
            n_ions=n,
            center_spacing_m=3.0e-6,
            radial_a_freq_hz=ref_config.radial_a_freq_hz,
            radial_b_freq_hz=ref_config.radial_b_freq_hz,
            target_pair=default_target_pair(n),
            pulse=ref_config.pulse,
        )
        design = design_gate(cfg)
        eps = breakdown_curve(design, hz_to_angular(np.array([-10e3, 10e3])), with_fidelity=False).eps_s
        if eps.max() > worst[0]:
            worst = (eps.max(), n)
        if eps.max() > 1e-2:
            failures.append((n, float(eps.max())))
    ok = not failures
    line = report(
        5,
        "large-chain robustness",
        ok,
        f"eps_s(+-10 kHz) <= 1e-2 for dx0 = 3 um: worst {worst[0]:.3e} at N={worst[1]}; "
        f"violations {[(n, f'{v:.2e}') for n, v in failures]}",
        t0,
    )
    assert ok, line
    assert time.time() - t0 < 600.0, "runtime budget 10 min exceeded"


def test_acceptance_6_oracle_equivalence(ref_config, ref_design):
    t0 = time.time()
    i0 = ref_design.coupling.flat_index("radial_b", 0)
    i1 = ref_design.coupling.flat_index("radial_b", 1)
    assert max(abs(ref_design.coupling.eta1[i0]), abs(ref_design.coupling.eta1[i1])) <= 0.1
    spec = OracleSpec(mode_indices=(i0, i1), n_max=15, n_steps=200_000)
    rep = run_oracle(ref_design.coupling, ref_design.pulse, ref_design.delta_c, spec)
    sign_fixed = np.all(np.sign(rep.phase_numeric) == np.sign(rep.phase_analytic)) and np.allclose(
        rep.phase_numeric, rep.phase_analytic, rtol=1e-6
    )
    leakage = rep.leakage.max()
    ok = rep.overlap >= 1 - 1e-6 and bool(sign_fixed) and leakage <= 1e-8
    # below 1e-30 the top-level population is rounding noise of the amplitudes
    leakage_note = "< 1e-30" if leakage < 1e-30 else f"{leakage:.1e}"
    line = report(
        6,
        "oracle equivalence",
        ok,
        f"overlap = {rep.overlap:.9f} (>= 1-1e-6); B sign/values match: {bool(sign_fixed)}; "
        f"leakage {leakage_note} (<= 1e-8)",
        t0,
    )
    assert ok, line
    assert time.time() - t0 < 60.0, "runtime budget 1 min exceeded"


def test_acceptance_7_error_sum_vs_infidelity(ref_config):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    chain = build_chain(ref_config)
    coupling = build_coupling(ref_config, chain)
    nu1 = coupling.freqs[coupling.flat_index("radial_b", 0)]
    checked = 0
    total = 0
    worst_ratio = 0.0
    for z_us in np.linspace(15, 45, 10):
        cfg = replace(ref_config, pulse=replace(ref_config.pulse, z_s=float(z_us) * 1e-6))
        pulse = make_pulse(cfg.pulse)
        root = solve_balance(coupling, pulse)
        for _ in range(100):
            total += 1
            delta_c = root + TWO_PI * rng.uniform(-2e3, 2e3)
            domega = TWO_PI * rng.uniform(-2e3, 2e3)
            calibrated = design_gate(cfg, delta0_override=delta_c - nu1).pulse
            alphas, phases = gate_integrals(calibrated, delta_c - coupling.freqs + domega)
            eig = spin_eigensystem(coupling)
            from msgate.errors import displacement_error, rotation_error

            _, eps_d = displacement_error(eig, alphas)
            theta = float(coupling.eta_products @ phases)
            eps_s = eps_d + rotation_error(theta)
            if eps_s > 1e-3:
                continue
            checked += 1
            gap = abs(eps_s - (1.0 - exact_fidelity(eig, alphas, phases)))
            bound = 0.2 * eps_s + 1e-9
            worst_ratio = max(worst_ratio, gap / bound)
    ok = worst_ratio <= 1.0 and checked >= 300 and total >= 1000
    line = report(
        7,
        "error-sum consistency",
        ok,
        f"{checked}/{total} samples with eps_s <= 1e-3; worst |eps_s-(1-F)| at "
        f"{worst_ratio:.3f} of the 0.2 eps_s + 1e-9 budget",
        t0,
    )
    assert ok, line


def test_acceptance_8_fourier_approximation():
    t0 = time.time()
    z = 25e-6
    pulse = TruncGaussianPulse(omega0=TWO_PI * 1e5, tau=200e-6, z=z)
    engine = TrajectoryEngine(pulse)
    deltas = np.linspace(-2.0, 2.0, 81) / z
    alphas, _ = engine.alpha_and_phase_many(deltas)
    approx = TWO_PI * pulse.omega0**2 * z**2 * np.exp(-((deltas * z) ** 2))
    rel = np.abs(np.abs(alphas) ** 2 - approx) / approx
    ok = rel.max() <= 0.10
    line = report(
        8,
        "Fourier-limit displacement",
        ok,
        f"max deviation {100 * rel.max():.2f}% over |delta| z <= 2 (budget 10%)",
        t0,
    )
    assert ok, line


def test_acceptance_9_property_suite(ref_config, ref_design):
    t0 = time.time()
    checks = {}
    rng = np.random.default_rng(99)
    pulse = ref_design.pulse
    engine = engine_for(pulse)

    # B odd in delta
    deltas = TWO_PI * rng.uniform(1e3, 150e3, 20)
    _, b_plus = engine.alpha_and_phase_many(deltas)
    _, b_minus = engine.alpha_and_phase_many(-deltas)
    checks["B odd"] = bool(np.allclose(b_minus, -b_plus, rtol=1e-9))

    # alpha linear / B quadratic in Omega0
    scale = 1.7
    a1, b1 = engine.alpha_and_phase_many(deltas[:5])
    a2, b2 = engine_for(pulse.with_omega0(scale * pulse.omega0)).alpha_and_phase_many(deltas[:5])
    checks["alpha~Omega0"] = bool(np.allclose(a2, scale * a1, rtol=1e-9))
    checks["B~Omega0^2"] = bool(np.allclose(b2, scale**2 * b1, rtol=1e-9))

    # even_flip leaves eps_d invariant and flips theta
    from msgate.errors import displacement_error

    alphas, phases = gate_integrals(pulse, ref_design.delta_c - ref_design.coupling.freqs + TWO_PI * 4e3)
    eig = spin_eigensystem(ref_design.coupling)
    eig_f = spin_eigensystem(ref_design.coupling.flipped())
    _, eps_d = displacement_error(eig, alphas)
    _, eps_d_f = displacement_error(eig_f, alphas)
    theta = float(ref_design.coupling.eta_products @ phases)
    theta_f = float(ref_design.coupling.flipped().eta_products @ phases)
    # the flip permutes the four branch eigenvalues, so the float sums may
    # differ by an ulp even though the multisets are identical
    checks["flip eps_d invariant"] = abs(eps_d_f - eps_d) <= 1e-12 * max(eps_d, 1e-30)
    checks["flip theta sign"] = abs(theta_f + theta) <= 1e-12 * abs(theta)

    # quadrature doubling stability
    probe = TWO_PI * np.linspace(-120e3, 120e3, 21)
    a512, b512 = engine.alpha_and_phase_many(probe, panels=512)
    a1024, b1024 = engine.alpha_and_phase_many(probe, panels=1024)
    checks["quadrature doubling"] = bool(
        np.abs(a512 - a1024).max() <= 1e-10 * np.abs(a1024).max()
        and np.abs(b512 - b1024).max() <= 1e-10 * np.abs(b1024).max()
    )

    # density matrix structure and the parity-based estimate
    rho_ok, parity_ok = True, True
    for dw_khz in (0.0, 5.0, 10.0, 15.0, 20.0):
        alphas, phases = gate_integrals(
            pulse, ref_design.delta_c - ref_design.coupling.freqs + TWO_PI * dw_khz * 1e3
        )
        rho = reduced_density_matrix(eig, alphas, phases)
        rho_ok &= bool(np.allclose(rho, rho.conj().T, atol=1e-10))
        rho_ok &= abs(np.trace(rho).real - 1.0) <= 1e-10
        rho_ok &= np.linalg.eigvalsh(rho).min() >= -1e-10
        curve = breakdown_curve(ref_design, [TWO_PI * dw_khz * 1e3])
        if curve.eps_s[0] <= 0.02:
            scan = parity_scan(rho, np.linspace(0, 2 * np.pi, 64, endpoint=False))
            estimate = scan.fidelity_estimate(rho)
            parity_ok &= abs(estimate - exact_fidelity(eig, alphas, phases)) <= 0.01
    checks["rho hermitian/psd/unit-trace"] = rho_ok
    checks["parity estimate within 0.01"] = parity_ok

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    line = report(
        9,
        "property suite",
        ok,
        f"{len(checks)} properties, failed: {failed if failed else 'none'}",
        t0,
    )
    assert ok, line
