import numpy as np
import pytest

import msgate.oracle
from msgate import CutoffError, OracleSpec, run_oracle
from msgate.modes import GateCoupling
from msgate.oracle import _evolve, _spin_eigensystem, _spin_operators, run_oracle_to_tolerance
from msgate.pulses import SquarePulse, TruncGaussianPulse

TWO_PI = 2 * np.pi
THREE_MODE = dict(
    freqs=TWO_PI * np.array([2.03e6, 2.125e6, 2.19e6]),
    eta1=np.array([0.039, 0.066, 0.045]),
    eta2=np.array([0.039, -0.066, 0.045]),
)


def single_mode_coupling(eta1=0.08, eta2=0.06, freq_hz=2.03e6):
    return GateCoupling(
        pair=(0, 1),
        freqs=np.array([TWO_PI * freq_hz]),
        eta1=np.array([eta1]),
        eta2=np.array([eta2]),
        directions=("radial_b",),
        mode_indices=(0,),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        OracleSpec(mode_indices=())
    with pytest.raises(ValueError):
        OracleSpec(mode_indices=(0, 1, 2, 3))
    with pytest.raises(ValueError):
        OracleSpec(mode_indices=(0,), n_max=3)
    with pytest.raises(ValueError):
        OracleSpec(mode_indices=(0,), n_steps=10)
    with pytest.raises(ValueError):
        OracleSpec(mode_indices=(0, 1, 2), n_max=30)


def test_zero_drive_leaves_state_untouched():
    coupling = single_mode_coupling()
    pulse = TruncGaussianPulse(omega0=0.0, tau=200e-6, z=25e-6)
    spec = OracleSpec(mode_indices=(0,), n_max=6, n_steps=1000)
    report = run_oracle(coupling, pulse, TWO_PI * 2.08e6, spec)
    # the analytic state for a silent drive is the initial state itself
    assert report.overlap == pytest.approx(1.0, abs=1e-12)
    assert report.norm_drift == 0.0
    np.testing.assert_array_equal(report.leakage, 0.0)


def test_single_mode_matches_analytic_and_fixes_sign():
    coupling = single_mode_coupling()
    pulse = TruncGaussianPulse(omega0=TWO_PI * 60e3, tau=200e-6, z=25e-6)
    delta_c = coupling.freqs[0] + TWO_PI * 25e3  # drive above the mode
    spec = OracleSpec(mode_indices=(0,), n_max=12, n_steps=20_000)
    report = run_oracle(coupling, pulse, delta_c, spec)
    assert report.overlap >= 1 - 1e-8
    assert report.alpha_numeric[0] == pytest.approx(report.alpha_analytic[0], rel=1e-6, abs=1e-12)
    # a drive above the mode accumulates positive area; the numeric state
    # confirms both the magnitude and the sign of B
    assert report.phase_analytic[0] > 0
    assert report.phase_numeric[0] == pytest.approx(report.phase_analytic[0], rel=1e-6)
    below = run_oracle(coupling, pulse, coupling.freqs[0] - TWO_PI * 25e3, spec)
    assert below.phase_analytic[0] < 0
    assert below.phase_numeric[0] == pytest.approx(below.phase_analytic[0], rel=1e-6)


def test_two_mode_overlap():
    coupling = GateCoupling(
        pair=(0, 1),
        freqs=TWO_PI * np.array([2.03e6, 2.125e6]),
        eta1=np.array([0.039, 0.066]),
        eta2=np.array([0.039, -0.066]),
        directions=("radial_b", "radial_b"),
        mode_indices=(0, 1),
    )
    pulse = TruncGaussianPulse(omega0=TWO_PI * 240e3, tau=200e-6, z=25e-6)
    delta_c = TWO_PI * (2.03e6 + 37.36e3)
    spec = OracleSpec(mode_indices=(0, 1), n_max=10, n_steps=20_000)
    report = run_oracle(coupling, pulse, delta_c, spec)
    assert report.overlap >= 1 - 1e-7
    assert report.leakage.max() <= 1e-8
    np.testing.assert_allclose(report.phase_numeric, report.phase_analytic, rtol=1e-5)


def three_mode_coupling():
    return GateCoupling(pair=(0, 2), directions=("radial_b",) * 3, mode_indices=(0, 1, 2), **THREE_MODE)


def test_three_mode_overlap():
    coupling = three_mode_coupling()
    pulse = TruncGaussianPulse(omega0=TWO_PI * 240e3, tau=200e-6, z=25e-6)
    delta_c = TWO_PI * (2.03e6 + 37.36e3)
    spec = OracleSpec(mode_indices=(0, 1, 2), n_max=7, n_steps=5_000)
    report = run_oracle(coupling, pulse, delta_c, spec)
    assert report.overlap >= 1 - 1e-7
    assert report.leakage.max() <= 1e-8
    np.testing.assert_array_equal(np.sign(report.phase_numeric), np.sign(report.phase_analytic))
    np.testing.assert_allclose(report.phase_numeric, report.phase_analytic, rtol=1e-5)


def reference_final_state(spins, deltas, pulse, spec):
    """RK4 with one dense ladder contraction per mode in the product spin basis."""
    n_modes, n_max = deltas.size, spec.n_max
    lower = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)

    def rhs(psi, t):
        out = np.zeros_like(psi)
        for k in range(n_modes):
            ladder = np.exp(1j * deltas[k] * t) * lower + np.exp(-1j * deltas[k] * t) * lower.T
            moved = np.moveaxis(np.tensordot(ladder, psi, axes=(1, 1 + k)), 0, 1 + k)
            out += np.tensordot(spins[k], moved, axes=(1, 0))
        return 1j * pulse.amplitude(t) * out

    psi = np.zeros((4,) + (n_max,) * n_modes, dtype=complex)
    psi.flat[0] = 1.0
    h = pulse.tau / spec.n_steps
    for step in range(spec.n_steps):
        t = step * h
        k1 = rhs(psi, t)
        k2 = rhs(psi + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(psi + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(psi + h * k3, t + h)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def test_evolve_matches_per_mode_reference():
    # three modes with distinct couplings, so every spin branch and every
    # mode stride (outer, middle, last) of the flattened state is exercised
    spins = _spin_operators(np.array([0.039, 0.066, 0.05]), np.array([0.039, -0.066, 0.02]))
    deltas = TWO_PI * np.array([37.36e3, -57.6e3, -122.6e3])
    pulse = TruncGaussianPulse(omega0=TWO_PI * 240e3, tau=200e-6, z=25e-6)
    spec = OracleSpec(mode_indices=(0, 1, 2), n_max=5, n_steps=1_000)
    reference = reference_final_state(spins, deltas, pulse, spec)
    # same scheme, different rounding only
    np.testing.assert_allclose(_evolve(spins, deltas, pulse, spec), reference, rtol=0, atol=1e-12)


def test_evolve_matches_reference_at_benchmark_shape():
    # two modes at n_max 15, the shape of the benchmark's and the CLI's runs,
    # so one strided view serves both modes with their largest stride
    spins = _spin_operators(np.array([0.039, 0.066]), np.array([0.039, -0.066]))
    deltas = TWO_PI * np.array([37.36e3, -57.6e3])
    pulse = TruncGaussianPulse(omega0=TWO_PI * 240e3, tau=200e-6, z=25e-6)
    spec = OracleSpec(mode_indices=(0, 1), n_max=15, n_steps=1_000)
    reference = reference_final_state(spins, deltas, pulse, spec)
    np.testing.assert_allclose(_evolve(spins, deltas, pulse, spec), reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_silent_drive_returns_initial_state_bitwise(n_modes):
    spins = _spin_operators(THREE_MODE["eta1"][:n_modes], THREE_MODE["eta2"][:n_modes])
    deltas = TWO_PI * np.array([37.36e3, -57.6e3, -122.6e3])[:n_modes]
    pulse = TruncGaussianPulse(omega0=0.0, tau=200e-6, z=25e-6)
    spec = OracleSpec(mode_indices=tuple(range(n_modes)), n_max=5, n_steps=1_000)
    psi0 = np.zeros((4,) + (5,) * n_modes, dtype=complex)
    psi0.flat[0] = 1.0
    np.testing.assert_array_equal(_evolve(spins, deltas, pulse, spec), psi0)


def _relative_change(report, finer):
    return max(
        np.abs(x - y).max() / np.abs(x).max()
        for x, y in ((report.alpha_numeric, finer.alpha_numeric), (report.phase_numeric, finer.phase_numeric))
    )


@pytest.mark.parametrize("case", ["reference", "three-mode"])
def test_step_doubling_estimate_predicts_a_finer_run(case, ref_design):
    if case == "reference":
        coupling, pulse, delta_c = ref_design.coupling, ref_design.pulse, ref_design.delta_c
        modes = tuple(coupling.flat_index("radial_b", k) for k in (0, 1))
        n_max, cap = 6, 4_000
    else:
        coupling, pulse = three_mode_coupling(), TruncGaussianPulse(omega0=TWO_PI * 240e3, tau=200e-6, z=25e-6)
        delta_c, modes, n_max, cap = TWO_PI * (2.03e6 + 37.36e3), (0, 1, 2), 5, 2_000
    # a cap below the tolerance's step count stops the doubling with an estimate left
    report = run_oracle_to_tolerance(coupling, pulse, delta_c, OracleSpec(modes, n_max, cap))
    assert report.n_steps == cap and report.step_error > msgate.oracle.STEP_TOL
    finer = run_oracle(coupling, pulse, delta_c, OracleSpec(modes, n_max, 4 * cap))
    # Richardson's |X_n - X_n/2| / 15 is RK4's h^4 error of X_n, which the 4x
    # finer run removes but for 1/256: an asymptotic estimate, not a strict
    # bound (measured within 2.3% on both cases, from 2,000 to 16,000 steps)
    assert _relative_change(report, finer) == pytest.approx(report.step_error, rel=0.05)


def test_explicit_spec_integrates_once(monkeypatch):
    calls = []

    def counted(spins, deltas, pulse, spec):
        calls.append(spec.n_steps)
        return _evolve(spins, deltas, pulse, spec)

    monkeypatch.setattr(msgate.oracle, "_evolve", counted)
    coupling = single_mode_coupling()
    pulse = TruncGaussianPulse(omega0=TWO_PI * 30e3, tau=200e-6, z=25e-6)
    report = run_oracle(coupling, pulse, coupling.freqs[0] + TWO_PI * 30e3, OracleSpec((0,), 6, 1_500))
    assert calls == [1_500]
    assert report.n_steps == 1_500 and report.step_error is None
    assert not report.summary_lines()[0].startswith("steps")


def test_spin_eigensystem_rejects_non_commuting_operators():
    eye = np.eye(2)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    with pytest.raises(RuntimeError):
        _spin_eigensystem([np.kron(sigma_y, eye), np.kron(sigma_x, eye)])


def test_cutoff_error_on_resonant_drive():
    coupling = single_mode_coupling(eta1=0.1, eta2=0.1)
    pulse = SquarePulse(omega0=TWO_PI * 50e3, tau=200e-6)
    # half a loop at 2.5 kHz detuning: |alpha| ~ 2 Omega0/delta ~ 40
    delta_c = coupling.freqs[0] + TWO_PI * 2.5e3
    spec = OracleSpec(mode_indices=(0,), n_max=8, n_steps=2_000)
    with pytest.raises(CutoffError):
        run_oracle(coupling, pulse, delta_c, spec)


def test_report_lines():
    coupling = single_mode_coupling()
    pulse = TruncGaussianPulse(omega0=TWO_PI * 30e3, tau=200e-6, z=25e-6)
    spec = OracleSpec(mode_indices=(0,), n_max=8, n_steps=2_000)
    report = run_oracle(coupling, pulse, coupling.freqs[0] + TWO_PI * 30e3, spec)
    lines = report.summary_lines()
    assert any(line.startswith("overlap") for line in lines)
    assert any("mode 0" in line for line in lines)
