import numpy as np
import pytest

from msgate import axial_freq_for_center_spacing, build_chain, equilibrium_positions
from msgate.config import COULOMB_COEFF, ION_MASS
from msgate.chain import _hessian, chain_for_axial_freq, center_spacing_dimensionless

from conftest import three_ion_config


def brute_force_minimum(n, rng):
    """Independent check: random restarts of plain gradient descent."""
    best = None
    for _ in range(3):
        u = np.sort(rng.uniform(-n**0.6, n**0.6, n))
        for _ in range(20000):
            diff = u[:, None] - u[None, :]
            np.fill_diagonal(diff, np.inf)
            grad = u - (np.sign(diff) / diff**2).sum(axis=1)
            u = u - 0.05 * grad
            u.sort()
        if best is None or np.abs(grad).max() < best[1]:
            best = (u, np.abs(grad).max())
    return best[0]


def test_two_ions_analytic():
    u = equilibrium_positions(2)
    expected = (1.0 / 4.0) ** (1.0 / 3.0)
    np.testing.assert_allclose(u, [-expected, expected], atol=1e-12)


def test_three_ions_analytic():
    u = equilibrium_positions(3)
    expected = (5.0 / 4.0) ** (1.0 / 3.0)
    np.testing.assert_allclose(u, [-expected, 0.0, expected], atol=1e-12)


def test_matches_gradient_descent_oracle():
    rng = np.random.default_rng(7)
    for n in (4, 6):
        u = equilibrium_positions(n)
        ref = brute_force_minimum(n, rng)
        np.testing.assert_allclose(u, ref, atol=2e-3)


def test_spacing_grows_from_center_outward():
    u = equilibrium_positions(33)
    gaps = np.diff(u)
    half = gaps[len(gaps) // 2 :]
    assert np.all(np.diff(half) > 0)
    # mirror side too
    assert np.all(np.diff(gaps[: len(gaps) // 2]) < 0)


def test_residual_zero_sum_and_mirror():
    for n in (2, 5, 12, 33, 64):
        u = equilibrium_positions(n)
        diff = u[:, None] - u[None, :]
        np.fill_diagonal(diff, np.inf)
        force = u - (np.sign(diff) / diff**2).sum(axis=1)
        assert np.abs(force).max() <= 1e-12
        assert abs(u.sum()) <= 1e-10
        np.testing.assert_allclose(u, -u[::-1], atol=1e-10)


def test_equilibrium_is_a_minimum():
    for n in (3, 8, 21):
        chain = chain_for_axial_freq(n, 2 * np.pi * 5e5)
        eigvals, _ = np.linalg.eigh(_hessian(chain.u))
        assert eigvals.min() >= 1.0 - 1e-9  # Hessian positive definite


def test_center_spacing_inverse_three_ions():
    omega = axial_freq_for_center_spacing(3, 4.5e-6)
    assert omega / (2 * np.pi) == pytest.approx(531.43e3, rel=1e-3)


def test_forward_inverse_consistency():
    for n in (2, 4, 7, 20):
        omega = axial_freq_for_center_spacing(n, 3.7e-6)
        chain = chain_for_axial_freq(n, omega)
        assert chain.center_spacing() == pytest.approx(3.7e-6, rel=1e-9)


def test_two_ion_inverse_recovers_length_scale():
    du = 2 * (1.0 / 4.0) ** (1.0 / 3.0)
    length = 3e-6
    omega = axial_freq_for_center_spacing(2, du * length)
    implied = (COULOMB_COEFF / (ION_MASS * omega**2)) ** (1 / 3)
    assert implied == pytest.approx(length, rel=1e-12)


def test_spacing_scaling_law():
    w1 = axial_freq_for_center_spacing(5, 3e-6)
    w2 = axial_freq_for_center_spacing(5, 6e-6)
    assert w1 / w2 == pytest.approx(2**1.5, rel=1e-12)


def test_build_chain_paths(ref_config):
    chain = build_chain(ref_config)
    assert chain.center_spacing() == pytest.approx(4.5e-6, rel=1e-9)
    cfg2 = three_ion_config()
    from dataclasses import replace

    direct = replace(cfg2, axial_freq_hz=5.0e5, center_spacing_m=None)
    chain2 = build_chain(direct)
    assert chain2.omega_z == pytest.approx(2 * np.pi * 5.0e5, rel=1e-12)
    assert chain2.positions.shape == (3,)


def test_center_pair_convention():
    assert chain_for_axial_freq(4, 2 * np.pi * 4e5).center_pair() == (1, 2)
    assert chain_for_axial_freq(5, 2 * np.pi * 4e5).center_pair() == (2, 3)
    # dimensionless separation shrinks with n
    assert center_spacing_dimensionless(10) < center_spacing_dimensionless(5)
