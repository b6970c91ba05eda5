import numpy as np
import pytest

from msgate import (
    displacement_error,
    exact_fidelity,
    parity_scan,
    reduced_density_matrix,
    rotation_error,
    spin_eigensystem,
)
from msgate.errors import TARGET_STATE, analysis_rotation
from msgate.modes import GateCoupling
from msgate.trajectory import gate_integrals

TWO_PI = 2 * np.pi


def make_coupling(eta1, eta2):
    n = len(eta1)
    return GateCoupling(
        pair=(0, 1),
        freqs=TWO_PI * np.linspace(2.0e6, 2.2e6, n),
        eta1=np.asarray(eta1, dtype=float),
        eta2=np.asarray(eta2, dtype=float),
        directions=tuple(["radial_b"] * n),
        mode_indices=tuple(range(n)),
    )


def make_trajectory(alphas, phases):
    """End-of-gate (alphas, phases) as the error functions take them."""
    return np.asarray(alphas, dtype=complex), np.asarray(phases, dtype=float)


def ideal_single_mode(eta=0.1):
    coupling = make_coupling([eta], [eta])
    b = (np.pi / 2) / eta**2
    return coupling, make_trajectory([0.0], [b])


def test_branch_eigenvalues():
    eig = spin_eigensystem(make_coupling([0.08], [0.05]))
    np.testing.assert_allclose(
        eig.eigenvalues[0], [0.065, 0.015, -0.015, -0.065], atol=1e-15
    )
    assert np.abs(eig.initial) ** 2 == pytest.approx([0.25] * 4)


def test_displacement_error_zero_alpha():
    coupling, traj = ideal_single_mode()
    per_mode, total = displacement_error(spin_eigensystem(coupling), traj[0])
    assert total == 0.0
    np.testing.assert_array_equal(per_mode, [0.0])


def test_displacement_error_small_alpha_limit():
    # eps_{d,k} -> eta^2 |alpha|^2 / 2 within 1% for eta |alpha| <= 0.05
    eta = 0.1
    coupling, _ = ideal_single_mode(eta)
    eig = spin_eigensystem(coupling)
    for mag in (0.01, 0.05):
        alpha = mag / eta
        _, eps = displacement_error(eig, make_trajectory([alpha], [0.0])[0])
        assert eps == pytest.approx(eta**2 * alpha**2 / 2, rel=0.01)


def test_displacement_error_flip_invariant():
    coupling = make_coupling([0.08, 0.05], [0.06, -0.04])
    traj = make_trajectory([0.3 + 0.2j, -0.1 + 0.4j], [40.0, -25.0])
    eig = spin_eigensystem(coupling)
    eig_flip = spin_eigensystem(coupling.flipped())
    _, eps = displacement_error(eig, traj[0])
    _, eps_flip = displacement_error(eig_flip, traj[0])
    # branch permutation: identical multiset, float sums may differ by an ulp
    assert eps_flip == pytest.approx(eps, rel=1e-12)


def test_rotation_error_values():
    assert rotation_error(np.pi / 2) == 0.0
    assert rotation_error(np.pi / 2 + 0.1) == pytest.approx(0.0025, rel=1e-12)
    assert rotation_error(np.pi / 2 - 0.1) == pytest.approx(0.0025, rel=1e-12)


def test_ideal_gate_fidelity_one():
    coupling, traj = ideal_single_mode()
    eig = spin_eigensystem(coupling)
    assert exact_fidelity(eig, *traj) == pytest.approx(1.0, abs=1e-12)


def test_identity_gate_fidelity_half():
    coupling, _ = ideal_single_mode()
    eig = spin_eigensystem(coupling)
    traj = make_trajectory([0.0], [0.0])
    assert exact_fidelity(eig, *traj) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_global_phase_invariance():
    coupling = make_coupling([0.07, 0.05], [0.07, -0.05])
    eig = spin_eigensystem(coupling)
    traj = make_trajectory([0.1 + 0.05j, 0.02j], [120.0, -80.0])
    f1 = exact_fidelity(eig, *traj)
    from dataclasses import replace

    shifted = replace(eig, initial=eig.initial * np.exp(0.71j))
    assert exact_fidelity(shifted, *traj) == pytest.approx(f1, rel=1e-12)


def test_density_matrix_ideal_gate():
    coupling, traj = ideal_single_mode()
    rho = reduced_density_matrix(spin_eigensystem(coupling), *traj)
    target = np.outer(TARGET_STATE, TARGET_STATE.conj())
    np.testing.assert_allclose(rho, target, atol=1e-10)


def test_density_matrix_properties_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        coupling = make_coupling(rng.uniform(-0.1, 0.1, 3), rng.uniform(-0.1, 0.1, 3))
        traj = make_trajectory(
            rng.normal(0, 2, 3) + 1j * rng.normal(0, 2, 3), rng.normal(0, 100, 3)
        )
        rho = reduced_density_matrix(spin_eigensystem(coupling), *traj)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_density_matrix_recovers_fidelity_when_closed():
    # with all trajectories closed, tracing out the motion loses nothing
    coupling = make_coupling([0.07, 0.04], [0.06, -0.05])
    eig = spin_eigensystem(coupling)
    traj = make_trajectory([0.0, 0.0], [150.0, -90.0])
    rho = reduced_density_matrix(eig, *traj)
    overlap = float(np.real(TARGET_STATE.conj() @ rho @ TARGET_STATE))
    assert overlap == pytest.approx(exact_fidelity(eig, *traj), abs=1e-10)


def test_density_matrix_fidelity_gap_is_second_order():
    # residual displacement makes <Phi|rho|Phi> exceed |<Phi|Psi>|^2 by O(eps_d^2)
    eta = 0.1
    coupling, _ = ideal_single_mode(eta)
    eig = spin_eigensystem(coupling)
    for mag in (0.01, 0.03):
        traj = make_trajectory([mag / eta], [(np.pi / 2) / eta**2])
        _, eps_d = displacement_error(eig, traj[0])
        rho = reduced_density_matrix(eig, *traj)
        overlap = float(np.real(TARGET_STATE.conj() @ rho @ TARGET_STATE))
        gap = overlap - exact_fidelity(eig, *traj)
        assert 0.0 <= gap <= 2.0 * eps_d**2 + 1e-14


def test_parity_ideal_gate():
    coupling, traj = ideal_single_mode()
    rho = reduced_density_matrix(spin_eigensystem(coupling), *traj)
    scan = parity_scan(rho, np.linspace(0, 2 * np.pi, 64, endpoint=False))
    assert scan.amplitude == pytest.approx(1.0, abs=1e-6)
    assert scan.fidelity_estimate(rho) == pytest.approx(1.0, abs=1e-6)
    assert not scan.degenerate


def test_parity_fully_mixed():
    scan = parity_scan(np.eye(4) / 4.0, np.linspace(0, 2 * np.pi, 32, endpoint=False))
    assert scan.amplitude == 0.0
    assert scan.degenerate


def test_parity_needs_enough_phases():
    with pytest.raises(ValueError):
        parity_scan(np.eye(4) / 4.0, np.linspace(0, 1, 4))


def test_analysis_rotation_is_unitary():
    for phi in (0.0, 0.4, 2.2):
        r = analysis_rotation(phi)
        np.testing.assert_allclose(r @ r.conj().T, np.eye(4), atol=1e-12)


def test_error_breakdown_consistency():
    coupling = make_coupling([0.06, 0.05], [0.055, -0.045])
    traj = make_trajectory([0.02 + 0.01j, -0.015j], [160.0, -110.0])
    eig = spin_eigensystem(coupling)
    _, eps_d = displacement_error(eig, traj[0])
    assert 0.0 <= exact_fidelity(eig, *traj) <= 1.0
    assert reduced_density_matrix(eig, *traj).shape == (4, 4)
    theta = float(coupling.eta_products @ traj[1])
    flipped = coupling.flipped()
    assert float(flipped.eta_products @ traj[1]) == pytest.approx(-theta, rel=1e-12)
    assert displacement_error(spin_eigensystem(flipped), traj[0])[1] == pytest.approx(eps_d, rel=1e-12)


def test_error_functions_broadcast_over_leading_axes():
    coupling = make_coupling([0.06, 0.05, 0.02], [0.055, -0.045, 0.01])
    eig = spin_eigensystem(coupling)
    rng = np.random.default_rng(7)
    alphas = rng.normal(size=(2, 5, 3)) * 0.05 + 1j * rng.normal(size=(2, 5, 3)) * 0.05
    phases = rng.normal(size=(2, 5, 3)) * 200.0
    per_mode, eps_d = displacement_error(eig, alphas)
    fid = exact_fidelity(eig, alphas, phases)
    thetas = phases @ coupling.eta_products
    eps_r = rotation_error(thetas)
    assert per_mode.shape == alphas.shape
    assert eps_d.shape == fid.shape == eps_r.shape == (2, 5)
    for i in range(2):
        for j in range(5):
            traj = make_trajectory(alphas[i, j], phases[i, j])
            one_mode, one_d = displacement_error(eig, traj[0])
            np.testing.assert_array_equal(per_mode[i, j], one_mode)
            assert eps_d[i, j] == one_d
            assert fid[i, j] == pytest.approx(exact_fidelity(eig, *traj), abs=1e-15)
            assert eps_r[i, j] == rotation_error(float(thetas[i, j]))
    assert isinstance(rotation_error(0.5), float)


def test_spectator_suppression_bound(ref_design):
    # far-detuned modes keep a displacement error at the truncation floor:
    # bounded by the infinite-window Fourier value plus the hard-edge leak
    alphas, _ = gate_integrals(ref_design.pulse, ref_design.delta_c - ref_design.coupling.freqs)
    per_mode, _ = displacement_error(spin_eigensystem(ref_design.coupling), alphas)
    pulse = ref_design.pulse
    z = pulse.z
    deltas = ref_design.delta_c - ref_design.coupling.freqs
    edge = pulse.amplitude(0.0)
    for k in range(ref_design.coupling.freqs.size):
        if abs(deltas[k]) * z < 4.0:
            continue
        eta_sq = max(ref_design.coupling.eta1[k] ** 2, ref_design.coupling.eta2[k] ** 2)
        fourier = 2 * np.pi * pulse.omega0**2 * z**2 * np.exp(-((deltas[k] * z) ** 2))
        floor = (2.0 * edge / deltas[k]) ** 2
        assert per_mode[k] <= eta_sq * (fourier + 4.0 * floor) / 2.0 + 1e-15
