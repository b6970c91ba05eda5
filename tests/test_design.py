import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgate import (
    BracketError,
    SensitivityEdgeError,
    design_gate,
    phase_and_derivative,
    sensitivity,
    solve_balance,
)
from msgate.chain import ConvergenceError, build_chain
from msgate.config import PulseSpec, SystemConfig, angular_to_hz, default_target_pair, hz_to_angular
from msgate.design import (
    SENS_HALF_RANGE_HZ,
    _bracket_margin,
    _eps_s_interpolant,
    _newton_root,
    _slope_and_curvature,
    _target_freqs,
    breakdown_curve,
)
from msgate.errors import displacement_error, exact_fidelity, rotation_error, spin_eigensystem
from msgate.modes import GateCoupling, build_coupling
from msgate.pulses import TruncGaussianPulse, make_pulse
from msgate.sweeps import DOMAIN_ERRORS, chain_grid, chain_study
from msgate.trajectory import ResonanceError, TrajectoryEngine, gate_integrals, gate_resolution

from conftest import three_ion_config

TWO_PI = 2 * np.pi


def test_midpoint_vs_solved_balance(ref_config, ref_design):
    # the midpoint heuristic lands within ~10 kHz of the true balance point
    coupling = ref_design.coupling
    nu0 = coupling.freqs[coupling.flat_index("radial_b", 0)]
    nu1 = coupling.freqs[coupling.flat_index("radial_b", 1)]
    guess = 0.5 * (nu0 + nu1)
    assert abs(guess - ref_design.delta_c) / TWO_PI == pytest.approx(10.2e3, abs=2e3)


def test_balance_point_reference_value(ref_design):
    # zig-zag/tilt balanced design of the reference chain: 37.2 +- 1 kHz
    assert angular_to_hz(ref_design.delta0) == pytest.approx(37.2e3, abs=1e3)


def test_balance_independent_of_trial_rabi_rate(ref_config):
    chain = build_chain(ref_config)
    coupling = build_coupling(ref_config, chain)
    roots = []
    for omega0_hz in (0.4e5, 3.0e5):
        pulse = make_pulse(ref_config.pulse).with_omega0(hz_to_angular(omega0_hz))
        roots.append(solve_balance(coupling, pulse))
    assert abs(roots[0] - roots[1]) <= hz_to_angular(1e-6)


def test_balance_root_strictly_between_modes(ref_design):
    coupling = ref_design.coupling
    nu0 = coupling.freqs[coupling.flat_index("radial_b", 0)]
    nu1 = coupling.freqs[coupling.flat_index("radial_b", 1)]
    assert nu0 < ref_design.delta_c < nu1


def test_two_ion_balance_exists():
    cfg = SystemConfig(
        n_ions=2,
        center_spacing_m=4.5e-6,
        radial_a_freq_hz=2.52e6,
        radial_b_freq_hz=2.19e6,
        pulse=PulseSpec(type="trunc_gaussian", tau_s=200e-6, z_s=25e-6),
    )
    chain = build_chain(cfg)
    coupling = build_coupling(cfg, chain)
    pulse = make_pulse(cfg.pulse)
    nu0 = coupling.freqs[coupling.flat_index("radial_b", 0)]
    nu1 = coupling.freqs[coupling.flat_index("radial_b", 1)]
    # dense scan of the derivative shows exactly one sign change inside
    scan = np.linspace(nu0 + TWO_PI * 15e3, nu1 - TWO_PI * 15e3, 41)
    signs = np.sign(phase_and_derivative(coupling, pulse, scan)[1])
    assert np.count_nonzero(np.diff(signs)) == 1
    root = solve_balance(coupling, pulse)
    assert nu0 < root < nu1


def test_same_sign_products_raise_bracket_error():
    coupling = GateCoupling(
        pair=(0, 1),
        freqs=TWO_PI * np.array([2.00e6, 2.08e6]),
        eta1=np.array([0.05, 0.04]),
        eta2=np.array([0.05, 0.04]),
        directions=("radial_b", "radial_b"),
        mode_indices=(0, 1),
    )
    pulse = TruncGaussianPulse(omega0=TWO_PI * 1e5, tau=200e-6, z=25e-6)
    with pytest.raises(BracketError) as err:
        solve_balance(coupling, pulse)
    # both endpoint derivative values are reported
    assert str(err.value).count("f(") == 2
    assert "between modes 0 and 1 of radial_b" in str(err.value)


def test_balance_evaluations_check_resonance_but_scan_does_not():
    # a radial-a mode 50 Hz above the first bracket end a = nu1 + 2/z
    pulse = TruncGaussianPulse(omega0=TWO_PI * 1e5, tau=200e-6, z=25e-6)
    nu = TWO_PI * np.array([2.00e6, 2.10e6])
    spectator = nu[0] + 2.0 / pulse.z + TWO_PI * 50.0
    coupling = GateCoupling(
        pair=(0, 1),
        freqs=np.array([spectator, *nu]),
        eta1=np.array([0.01, 0.05, 0.06]),
        eta2=np.array([0.01, 0.05, -0.06]),
        directions=("radial_a", "radial_b", "radial_b"),
        mode_indices=(0, 0, 1),
    )
    with pytest.raises(ResonanceError):
        solve_balance(coupling, pulse)
    theta, slope = phase_and_derivative(coupling, pulse, [spectator, spectator + 1.0])
    assert np.isfinite(theta).all() and np.isfinite(slope).all()


@pytest.mark.parametrize(
    "pulse_type, z_s",
    [("trunc_gaussian", 25e-6), ("spline_gaussian", 25e-6), ("square", 25e-6),
     ("trunc_gaussian", 5e-6 + 3 * 55e-6 / 99)],  # the last one scans for its bracket
)
def test_balance_solve_evaluates_each_detuning_once(ref_config, monkeypatch, pulse_type, z_s):
    import msgate.design

    cfg = replace(ref_config, pulse=replace(ref_config.pulse, type=pulse_type, z_s=z_s))
    coupling = build_coupling(cfg, build_chain(cfg))
    pulse = make_pulse(cfg.pulse)
    root = solve_balance(coupling, pulse)
    evaluated = []

    def counting(func):
        def counted(coupling, pulse, delta_cs, quad_rel):
            evaluated.extend(np.atleast_1d(delta_cs).tolist())
            return func(coupling, pulse, delta_cs, quad_rel)

        return counted

    for name in ("phase_and_derivative", "_slope_and_curvature"):
        monkeypatch.setattr(msgate.design, name, counting(getattr(msgate.design, name)))
    assert solve_balance(coupling, pulse) == root
    # the bracket ends (and the scan grid), then one call per Newton iterate
    assert len(evaluated) == len(set(evaluated)) >= 3


@pytest.mark.parametrize("pulse_type", ["trunc_gaussian", "spline_gaussian"])
def test_newton_from_either_bracket_end_reaches_the_same_root(ref_config, pulse_type):
    cfg = replace(ref_config, pulse=replace(ref_config.pulse, type=pulse_type))
    coupling = build_coupling(cfg, build_chain(cfg))
    pulse = make_pulse(cfg.pulse)
    nu1, nu2 = _target_freqs(coupling)
    margin = _bracket_margin(pulse, nu2 - nu1)
    a, b = nu1 + margin, nu2 - margin

    def derivatives(delta_c):
        return _slope_and_curvature(coupling, pulse, delta_c, cfg.tol.quad_rel)

    fa, fb = derivatives(a)[0], derivatives(b)[0]
    assert fa * fb < 0.0
    from_a, from_b = (_newton_root(derivatives, a, b, fa, fb, start) for start in (a, b))
    assert abs(from_a - from_b) <= hz_to_angular(1e-6)
    # the solve itself starts from the secant point and reaches the same root
    assert abs(solve_balance(coupling, pulse) - from_a) <= hz_to_angular(1e-6)


def test_newton_raises_when_no_step_gets_below_the_stop():
    # zero slope forces bisection; 100 halvings of a 2e30 rad/s bracket end
    # with steps far above 1e-6 Hz
    evaluations = []

    def flat(x):
        evaluations.append(x)
        return x - 1.0, 0.0

    with pytest.raises(ConvergenceError, match="after 100 evaluations"):
        _newton_root(flat, -1e30, 1e30, -1e30 - 1.0, 1e30 - 1.0, 0.0)
    assert len(evaluations) == 100


def test_balance_solve_makes_seven_kernel_calls(ref_config, monkeypatch):
    # the two bracket ends, the secant point and four Newton iterates; Brent,
    # stopping at 1 Hz, made 10
    coupling = build_coupling(ref_config, build_chain(ref_config))
    pulse = make_pulse(ref_config.pulse)
    kernel = TrajectoryEngine.alpha_and_phase_many
    calls = []

    def counted_kernel(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryEngine, "alpha_and_phase_many", counted_kernel)
    solve_balance(coupling, pulse)
    assert len(calls) == 7


@pytest.mark.parametrize("pulse_type", ["trunc_gaussian", "spline_gaussian", "square"])
def test_phase_and_derivative_point_matches_kernel_bitwise(ref_config, pulse_type):
    # a one-point call is the per-mode sum over gate_integrals at delta_c - nu_k,
    # bit for bit, so Brent sees the values it saw before the array interface
    chain = build_chain(ref_config)
    coupling = build_coupling(ref_config, chain)
    pulse = make_pulse(replace(ref_config.pulse, type=pulse_type))
    for delta_c in coupling.freqs[3] + TWO_PI * np.array([11.3e3, 37.4e3, 61.9e3]):
        theta, slope = phase_and_derivative(coupling, pulse, delta_c)
        _, phases, slopes = gate_integrals(pulse, delta_c - coupling.freqs, alpha=False, derivatives=1)
        assert theta.shape == slope.shape == (1,)
        assert theta[0] == float(coupling.eta_products @ phases)
        assert slope[0] == float(coupling.eta_products @ slopes)


def test_phase_and_derivative_array_matches_points(ref_design):
    coupling, pulse = ref_design.coupling, ref_design.pulse
    grid = ref_design.delta_c + TWO_PI * np.linspace(-20e3, 20e3, 9)
    theta, slope = phase_and_derivative(coupling, pulse, grid)
    points = [phase_and_derivative(coupling, pulse, d) for d in grid]
    np.testing.assert_allclose(theta, [t[0] for t, _ in points], rtol=1e-10)
    np.testing.assert_allclose(slope, [s[0] for _, s in points], rtol=0, atol=1e-10 * np.abs(slope).max())


def test_even_bracket_falls_back_to_scan(ref_config):
    # contour column z = 6.67 us: the initial ends hold the sign changes at
    # 34.7 and 71.9 kHz above nu1, so the bracket alone finds no root
    z = 5e-6 + 3 * 55e-6 / 99
    cfg = replace(ref_config, pulse=replace(ref_config.pulse, z_s=z))
    chain = build_chain(cfg)
    coupling = build_coupling(cfg, chain)
    pulse = make_pulse(cfg.pulse)
    nu1 = coupling.freqs[coupling.flat_index("radial_b", 0)]
    root = solve_balance(coupling, pulse)
    assert angular_to_hz(root - nu1) == pytest.approx(34.7e3, abs=0.1e3)
    assert abs(phase_and_derivative(coupling, pulse, root)[1][0]) <= 1e-9
    design = design_gate(cfg)
    assert design.delta_c == root
    assert abs(design.theta - np.pi / 2) <= 1e-12


@pytest.mark.parametrize(
    "n_ions, spacing_um, z_s",
    [(3, 4.5, 5e-6 + 3 * 55e-6 / 99), (15, 4.5, 25e-6), (5, 6.0, 25e-6)],
    ids=["contour z=6.67us", "4.5um N=15", "6um N=5"],
)
def test_scanned_roots_lie_in_the_margin_interval(n_ions, spacing_um, z_s):
    # the designs whose interval ends agree in sign: the scan finds a root
    # inside the one admissible interval [nu1 + margin, nu2 - margin]
    cfg = _chain_config(n_ions, spacing_um * 1e-6)
    cfg = replace(cfg, pulse=replace(cfg.pulse, z_s=z_s))
    coupling = build_coupling(cfg, build_chain(cfg))
    pulse = make_pulse(cfg.pulse)
    nu1, nu2 = _target_freqs(coupling)
    margin = _bracket_margin(pulse, nu2 - nu1)
    a, b = nu1 + margin, nu2 - margin
    fa, fb = (_slope_and_curvature(coupling, pulse, x, cfg.tol.quad_rel)[0] for x in (a, b))
    assert np.sign(fa) == np.sign(fb)
    root = solve_balance(coupling, pulse, quad_rel=cfg.tol.quad_rel)
    assert a < root < b
    assert design_gate(cfg).delta_c == root


def test_chain_without_a_root_in_the_margin_interval_raises():
    cfg = _chain_config(12, 4.5e-6)
    with pytest.raises(BracketError, match="does not change sign between modes 0 and 1 of radial_b"):
        design_gate(cfg)


def test_one_engine_per_design(ref_config):
    from msgate.trajectory import engine_for

    cfg = replace(ref_config, pulse=replace(ref_config.pulse, z_s=26.3e-6))
    before = engine_for.cache_info().misses
    design = design_gate(cfg)
    assert design.pulse.omega0 != make_pulse(cfg.pulse).omega0  # rescaled on the unit-rate engine
    assert engine_for.cache_info().misses == before + 1


def test_design_gate_contract(ref_design):
    assert abs(ref_design.theta - np.pi / 2) <= 1e-9
    assert ref_design.diagnostics["eps_r"] <= 1e-18
    assert ref_design.diagnostics["eps_s"] <= 1e-4
    assert abs(ref_design.diagnostics["dtheta_ddelta_c"]) <= 1e-9


def test_design_gate_deterministic(ref_config):
    d1 = design_gate(ref_config)
    d2 = design_gate(ref_config)
    assert d1.record_json() == d2.record_json()
    np.testing.assert_array_equal(d1.coupling.eta1, d2.coupling.eta1)


def test_even_chain_design_normalized():
    cfg = SystemConfig(
        n_ions=4,
        center_spacing_m=3.5e-6,
        radial_a_freq_hz=2.52e6,
        radial_b_freq_hz=2.19e6,
        pulse=PulseSpec(type="trunc_gaussian", tau_s=200e-6, z_s=25e-6),
    )
    design = design_gate(cfg)
    assert design.coupling.even_flip
    assert design.theta == pytest.approx(np.pi / 2, abs=1e-9)


def test_record_serializable(ref_design):
    record = json.loads(ref_design.record_json())
    assert record["theta"] == pytest.approx(np.pi / 2)
    assert record["target_modes"] == ["radial_b", 0, 1]
    assert record["even_flip"] is False
    assert record["delta0_hz"] == pytest.approx(37.36e3, abs=1e3)


def test_unbalanced_reference_design(ref_config):
    design = design_gate(ref_config, delta0_override=hz_to_angular(-40e3))
    assert angular_to_hz(design.delta0) == pytest.approx(-40e3, rel=1e-12)
    assert design.theta == pytest.approx(np.pi / 2, abs=1e-9)
    assert design.diagnostics["balanced"] is False


def test_breakdown_curve_zero_matches_design(ref_design):
    curve = breakdown_curve(ref_design, [0.0])
    assert curve.eps_d[0] == pytest.approx(ref_design.diagnostics["eps_d"], rel=1e-12)
    assert curve.eps_r[0] == pytest.approx(ref_design.diagnostics["eps_r"], abs=1e-18)
    assert curve.fidelity[0] == pytest.approx(ref_design.diagnostics["fidelity"], rel=1e-12)


def test_rotation_error_stationary_at_zero(ref_design):
    h = TWO_PI * 50.0
    plus, minus = breakdown_curve(ref_design, [h, -h], with_fidelity=False).eps_r
    assert abs(plus - minus) / (2 * h) <= 1e-8


def test_design_gate_resonance_guard(ref_config):
    # the design detuning parked right on the zig-zag mode
    with pytest.raises(ResonanceError):
        design_gate(ref_config, delta0_override=0.0)


def test_design_gate_one_kernel_call_after_calibration(ref_config, monkeypatch):
    # a fixed design makes one kernel call; a balanced one the solve's calls plus one
    import msgate.design

    kernel = TrajectoryEngine.alpha_and_phase_many
    solve = msgate.design.solve_balance
    calls, solve_calls = [], []

    def counted_kernel(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    def noted_solve(*args, **kwargs):
        before = len(calls)
        out = solve(*args, **kwargs)
        solve_calls.append(len(calls) - before)
        return out

    monkeypatch.setattr(TrajectoryEngine, "alpha_and_phase_many", counted_kernel)
    monkeypatch.setattr(msgate.design, "solve_balance", noted_solve)
    for cfg in (ref_config, replace(ref_config, pulse=replace(ref_config.pulse, type="spline_gaussian"))):
        calls.clear()
        design_gate(cfg, delta0_override=hz_to_angular(-40e3))
        assert len(calls) == 1
        calls.clear()
        solve_calls.clear()
        design_gate(cfg)
        assert len(solve_calls) == 1 and solve_calls[0] >= 3
        assert len(calls) == solve_calls[0] + 1


def test_quad_rel_reaches_every_entry_point(monkeypatch):
    # quad_rel of the config picks the panels of every kernel call a design
    # and its studies make; a 3.3 MHz radial-a trap puts the calls in a
    # bandwidth bucket where 1e-6 and 1e-12 need different panel counts
    from msgate.config import Tolerances
    from msgate.oracle import OracleSpec, run_oracle
    from msgate.sweeps import parity_study

    resolution = TrajectoryEngine.resolution
    calls = []

    def spy(self, deltas, shifts=None, quad_rel=None):
        out = resolution(self, deltas, shifts, quad_rel)
        calls.append((quad_rel, out[0]))
        return out

    monkeypatch.setattr(TrajectoryEngine, "resolution", spy)
    panels = {}
    for quad_rel in (1e-6, 1e-12):
        cfg = replace(three_ion_config(), radial_a_freq_hz=3.3e6, tol=Tolerances(quad_rel=quad_rel))
        design = design_gate(cfg)
        oracle_modes = (design.coupling.flat_index("radial_b", 0), design.coupling.flat_index("radial_a", 2))
        entry_points = {
            "design_gate": lambda: design_gate(cfg),
            "breakdown_curve": lambda: breakdown_curve(design, hz_to_angular(np.linspace(-5e3, 5e3, 11))),
            "parity_study": lambda: parity_study(cfg, phi_steps=8),
            "run_oracle": lambda: run_oracle(design.coupling, design.pulse, design.delta_c,
                                             OracleSpec(oracle_modes, n_max=15, n_steps=1000),
                                             quad_rel=design.quad_rel),
        }
        assert design.quad_rel == quad_rel
        assert design.diagnostics["quad_error"] <= quad_rel
        for name, run in entry_points.items():
            calls.clear()
            run()
            assert calls and {q for q, _ in calls} == {quad_rel}, name
            panels[name, quad_rel] = {p for _, p in calls}
        assert design.diagnostics["quad_panels"] in panels["design_gate", quad_rel]
    for name in entry_points:
        assert panels[name, 1e-6] != panels[name, 1e-12], (name, panels)


def _per_point_breakdown(design, domegas):
    """The per-grid-point error loop that breakdown_curve replaced, as the reference."""
    alphas, phases = gate_integrals(design.pulse, design.delta_c - design.coupling.freqs, shifts=domegas)
    eigsys = spin_eigensystem(design.coupling)
    products = design.coupling.eta_products
    eps_d, eps_r, fid = (np.empty(domegas.size) for _ in range(3))
    for i in range(domegas.size):
        _, eps_d[i] = displacement_error(eigsys, alphas[i])
        eps_r[i] = rotation_error(float(products @ phases[i]))
        fid[i] = exact_fidelity(eigsys, alphas[i], phases[i])
    return eps_d, eps_r, fid


@pytest.mark.parametrize("n_ions", [3, 12, 33])
def test_breakdown_curve_matches_per_point_loop(ref_config, ref_design, n_ions):
    if n_ions == 3:
        design = ref_design
    else:
        cfg = replace(
            ref_config,
            n_ions=n_ions,
            center_spacing_m=3e-6,
            axial_freq_hz=None,
            target_pair=default_target_pair(n_ions),
        )
        design = design_gate(cfg)
    grid = hz_to_angular(np.arange(-10e3, 10e3 + 50.0, 100.0))
    curve = breakdown_curve(design, grid)
    eps_d, eps_r, fid = _per_point_breakdown(design, grid)
    np.testing.assert_array_equal(curve.eps_d, eps_d)
    np.testing.assert_array_equal(curve.eps_r, eps_r)
    np.testing.assert_allclose(curve.fidelity, fid, rtol=0, atol=1e-15)


def test_balanced_beats_unbalanced(ref_config, ref_design):
    unbalanced = design_gate(ref_config, delta0_override=hz_to_angular(-40e3))
    grid = hz_to_angular(np.concatenate([np.arange(-10e3, -1999.0, 500.0), np.arange(2e3, 10001.0, 500.0)]))
    eps_bal = breakdown_curve(ref_design, grid, with_fidelity=False).eps_s
    eps_unb = breakdown_curve(unbalanced, grid, with_fidelity=False).eps_s
    assert np.all(eps_bal < eps_unb)


def test_breakdown_curve_flags(ref_design):
    curve = breakdown_curve(ref_design, hz_to_angular(np.array([0.0, -37.36317288091732e3])))
    assert not curve.flags[0]
    assert curve.flags[1]  # drive parked on the zig-zag mode
    assert np.isfinite(curve.eps_s).all()


def test_sensitivity_monotone_and_consistent(ref_design):
    smax = sensitivity(ref_design)
    at_zero = breakdown_curve(ref_design, [0.0], with_fidelity=False).eps_s[0]
    assert smax >= at_zero
    # sensitivity degrades as chains lengthen (splitting shrinks)
    values = []
    for n in (3, 5, 7):
        cfg = SystemConfig(
            n_ions=n,
            center_spacing_m=3.5e-6,
            radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6,
            pulse=PulseSpec(type="trunc_gaussian", tau_s=200e-6, z_s=25e-6),
        )
        values.append(sensitivity(design_gate(cfg)))
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("n_ions", [23, 33])
def test_sensitivity_matches_a_finely_refined_minimiser(n_ions):
    # the window maximum follows the minimiser to first order, because it
    # sits on the window's steep edge; compare against a minimiser refined
    # on ever finer grids down to 0.01 Hz
    cfg = three_ion_config()
    cfg = replace(cfg, n_ions=n_ions, center_spacing_m=3e-6, target_pair=default_target_pair(n_ions))
    design = design_gate(cfg)
    best = 0.0
    for step_hz, span in ((50.0, 120), (1.0, 60), (0.01, 60)):
        points = best + hz_to_angular(step_hz) * np.arange(-span, span + 1)
        best = points[np.argmin(breakdown_curve(design, points, with_fidelity=False).eps_s)]
    window = best + hz_to_angular(np.linspace(-SENS_HALF_RANGE_HZ, SENS_HALF_RANGE_HZ, 121))
    assert sensitivity(design) == pytest.approx(
        breakdown_curve(design, window, with_fidelity=False).eps_s.max(), rel=1e-5, abs=0
    )


def _chain_config(n_ions, spacing_m):
    cfg = three_ion_config()
    return replace(cfg, n_ions=n_ions, center_spacing_m=spacing_m, target_pair=default_target_pair(n_ions))


@pytest.mark.parametrize("edge", [False, True])
def test_sensitivity_makes_one_kernel_call(ref_design, edge, monkeypatch):
    # the reference design's minimum is inside the search grid; 4.5 um N = 16
    # has its argmin on the grid's +6 kHz edge, so the search is extended
    design = design_gate(_chain_config(16, 4.5e-6)) if edge else ref_design
    grid = hz_to_angular(np.linspace(-2 * SENS_HALF_RANGE_HZ, 2 * SENS_HALF_RANGE_HZ, 241))
    i_min = np.argmin(breakdown_curve(design, grid, with_fidelity=False).eps_s)
    assert i_min == grid.size - 1 if edge else 0 < i_min < grid.size - 1
    kernel = TrajectoryEngine.alpha_and_phase_many
    calls = []

    def counted_kernel(self, *args, **kwargs):
        calls.append(1)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(TrajectoryEngine, "alpha_and_phase_many", counted_kernel)
    sensitivity(design)
    assert len(calls) == 1


def test_sensitivity_interpolant_matches_the_kernel():
    # random chains and frequency errors across the interpolant's whole reach;
    # atol covers eps_s at the integrals' rounding floor, where the direct
    # kernel moves by 3e-8 relative (3.5e-21 absolute at eps_s = 3.7e-14)
    # between one shift and a batch of 40
    rng = np.random.default_rng(18)
    reach = 5.0 * hz_to_angular(SENS_HALF_RANGE_HZ)
    checked = 0
    for _ in range(12):
        cfg = _chain_config(int(rng.integers(2, 34)), rng.uniform(3e-6, 6e-6))
        cfg = replace(cfg, pulse=replace(cfg.pulse, z_s=rng.uniform(12e-6, 45e-6)))
        try:
            design = design_gate(cfg)
        except DOMAIN_ERRORS:
            continue
        shifts = rng.uniform(-reach, reach, 40)
        np.testing.assert_allclose(
            _eps_s_interpolant(design, reach)(shifts),
            breakdown_curve(design, shifts, with_fidelity=False).eps_s,
            rtol=1e-9,
            atol=1e-18,
        )
        checked += 1
    assert checked >= 6


def test_wide_curve_grids_are_one_series_transform(monkeypatch):
    # chain-study's 201-shift curve of its 33-ion, 3 um chain: one transform at
    # the 42 Chebyshev points of +-10 kHz, on the panels the 201-shift call gets
    design = design_gate(_chain_config(33, 3e-6))
    base = design.delta_c - design.coupling.freqs
    grid = hz_to_angular(chain_grid(10e3, 100.0)[0])
    assert gate_resolution(design.pulse, base, grid, design.quad_rel) == pytest.approx((512, 3.938935606748214e-13))
    transform = TrajectoryEngine._transform
    seen = []

    def recording(self, deltas, shifts, table, rows):
        seen.append((shifts.copy(), table[0].size))
        return transform(self, deltas, shifts, table, rows)

    monkeypatch.setattr(TrajectoryEngine, "_transform", recording)
    breakdown_curve(design, grid, with_fidelity=False)
    assert [(shifts.size, panels) for shifts, panels in seen] == [(42, 512)]
    # J <= m: the shifts themselves, m = 42 shifts included
    for n in (21, 42):
        seen.clear()
        shifts = hz_to_angular(np.linspace(-10e3, 10e3, n))
        breakdown_curve(design, shifts, with_fidelity=False)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], shifts)


@pytest.mark.parametrize("n_ions, spacing_m", [(4, 4.5e-6), (23, 3e-6)])
def test_sensitivity_matches_a_minimiser_refined_to_0_1_mhz(n_ions, spacing_m):
    # the minimiser refined with direct kernel calls down to 1e-4 Hz steps;
    # quad_rel = 1e-10 fixes it only to about 1 mHz, which the window
    # maximum follows to about 1e-6 relative
    design = design_gate(_chain_config(n_ions, spacing_m))
    best = 0.0
    for step_hz, span in ((50.0, 120), (1.0, 60), (0.01, 60), (1e-4, 60)):
        points = best + hz_to_angular(step_hz) * np.arange(-span, span + 1)
        best = points[np.argmin(breakdown_curve(design, points, with_fidelity=False).eps_s)]
    window = best + hz_to_angular(np.linspace(-SENS_HALF_RANGE_HZ, SENS_HALF_RANGE_HZ, 121))
    assert sensitivity(design) == pytest.approx(
        breakdown_curve(design, window, with_fidelity=False).eps_s.max(), rel=2e-6, abs=0
    )


def test_sensitivity_polishes_a_minimum_past_the_search_edge():
    # 4.5 um N = 16: the search grid's argmin is its +6 kHz edge, and the
    # minimum lies at +6.35 kHz, in the block the search adds on that side
    design = design_gate(_chain_config(16, 4.5e-6))
    grid = hz_to_angular(np.linspace(-2 * SENS_HALF_RANGE_HZ, 2 * SENS_HALF_RANGE_HZ, 241))
    assert np.argmin(breakdown_curve(design, grid, with_fidelity=False).eps_s) == grid.size - 1
    best = 0.0
    for step_hz, span in ((50.0, 240), (1.0, 60), (0.01, 60)):
        points = best + hz_to_angular(step_hz) * np.arange(-span, span + 1)
        best = points[np.argmin(breakdown_curve(design, points, with_fidelity=False).eps_s)]
    assert angular_to_hz(best) == pytest.approx(6.35e3, abs=50.0)
    window = best + hz_to_angular(np.linspace(-SENS_HALF_RANGE_HZ, SENS_HALF_RANGE_HZ, 121))
    assert sensitivity(design) == pytest.approx(
        breakdown_curve(design, window, with_fidelity=False).eps_s.max(), rel=1e-5, abs=0
    )


def test_minimum_past_the_extended_search_is_a_status_row():
    # 6 um N = 23: eps_s still falls at +12 kHz, the edge of the extended search
    with pytest.raises(SensitivityEdgeError, match=r"\+12 kHz edge"):
        sensitivity(design_gate(_chain_config(23, 6e-6)))
    summary, curves = chain_study(three_ion_config(), [6e-6], [23], domega_step_hz=2000.0)
    assert summary.rows[0][-1].startswith("SensitivityEdgeError: ")
    assert curves.rows == []


def test_odd_root_farther_from_second_mode_than_even():
    dist = {}
    for n in (4, 5):
        cfg = SystemConfig(
            n_ions=n,
            center_spacing_m=3.0e-6,
            radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6,
            pulse=PulseSpec(type="trunc_gaussian", tau_s=200e-6, z_s=25e-6),
        )
        design = design_gate(cfg)
        i1 = design.coupling.flat_index("radial_b", 1)
        dist[n] = design.coupling.freqs[i1] - design.delta_c
    assert dist[5] > dist[4]


def test_spline_design_close_to_gaussian(ref_config, ref_design):
    cfg = replace(ref_config, pulse=replace(ref_config.pulse, type="spline_gaussian"))
    design = design_gate(cfg)
    assert angular_to_hz(abs(design.delta_c - ref_design.delta_c)) < 100.0
    assert design.theta == pytest.approx(np.pi / 2, abs=1e-9)


def test_large_width_develops_sinc_lobes(ref_config):
    # near-square pulses recover an oscillatory infidelity with period 1/tau
    big_z = replace(ref_config, pulse=replace(ref_config.pulse, z_s=58e-6))
    design = design_gate(big_z)
    dw = np.arange(0.0, 10001.0, 250.0)
    eps = breakdown_curve(design, hz_to_angular(dw), with_fidelity=False).eps_s
    interior = (eps[1:-1] < eps[:-2]) & (eps[1:-1] < eps[2:])
    lobes = dw[1:-1][interior]
    assert lobes.size >= 2
    # lobe spacing tracks 1/tau = 5 kHz
    assert abs((lobes[1] - lobes[0]) - 5e3) <= 1e3


def test_balanced_rotation_error_is_quartic(ref_config, ref_design):
    # first-order insensitivity: eps_r ~ domega^4 at the balance point,
    # versus the generic quadratic growth of a fixed-detuning design
    unbalanced = design_gate(ref_config, delta0_override=hz_to_angular(-40e3))
    dw = np.array([500.0, 707.0, 1000.0, 1414.0, 2000.0])
    grid = hz_to_angular(dw)
    slope_bal = np.polyfit(
        np.log(dw), np.log(breakdown_curve(ref_design, grid, with_fidelity=False).eps_r), 1
    )[0]
    slope_unb = np.polyfit(
        np.log(dw), np.log(breakdown_curve(unbalanced, grid, with_fidelity=False).eps_r), 1
    )[0]
    assert slope_bal == pytest.approx(4.0, abs=0.3)
    assert slope_unb == pytest.approx(2.0, abs=0.3)


def test_splitting_predicts_sensitivity_across_spacings():
    # chains from different spacings but similar lowest-mode splitting
    # land in the same sensitivity band (within an order of magnitude)
    from msgate.config import default_target_pair

    def run(n, dx0_um):
        cfg = SystemConfig(
            n_ions=n,
            center_spacing_m=dx0_um * 1e-6,
            radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6,
            target_pair=default_target_pair(n),
            pulse=PulseSpec(type="trunc_gaussian", tau_s=200e-6, z_s=25e-6),
        )
        design = design_gate(cfg)
        i0 = design.coupling.flat_index("radial_b", 0)
        i1 = design.coupling.flat_index("radial_b", 1)
        dnu = design.coupling.freqs[i1] - design.coupling.freqs[i0]
        return dnu, sensitivity(design)

    dnu_a, smax_a = run(12, 3.5)  # even, 73 kHz splitting
    dnu_b, smax_b = run(4, 4.5)  # even, 72 kHz splitting
    assert abs(dnu_a - dnu_b) < 0.05 * dnu_a
    assert max(smax_a, smax_b) / min(smax_a, smax_b) < 10.0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n_ions=st.integers(2, 40),
    spacing_um=st.floats(2.0, 8.0),
    radial_b_hz=st.floats(1.9e6, 2.5e6),
    z_us=st.floats(5.0, 60.0),
    pulse_type=st.sampled_from(["square", "trunc_gaussian", "spline_gaussian"]),
)
def test_random_configs_calibrate_or_raise_a_domain_error(n_ions, spacing_um, radial_b_hz, z_us, pulse_type):
    try:
        cfg = SystemConfig(
            n_ions=n_ions,
            center_spacing_m=spacing_um * 1e-6,
            radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=radial_b_hz,
            target_pair=default_target_pair(n_ions),
            pulse=PulseSpec(type=pulse_type, tau_s=200e-6, z_s=z_us * 1e-6),
        )
        design = design_gate(cfg)
    except DOMAIN_ERRORS:
        return
    assert abs(design.theta - np.pi / 2) <= 1e-9
    assert np.isfinite(design.diagnostics["fidelity"])
    assert design.diagnostics["balanced"]
    h = TWO_PI * 100.0
    _, slopes = phase_and_derivative(design.coupling, design.pulse, design.delta_c + np.array([-h, h]))
    assert slopes[0] * slopes[1] < 0
