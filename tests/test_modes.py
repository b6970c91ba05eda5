import numpy as np
import pytest

from msgate import build_coupling, radial_modes
from msgate.chain import _hessian, build_chain, chain_for_axial_freq
from msgate.config import hz_to_angular
from msgate.modes import ZigZagInstabilityError, lamb_dicke_parameters

from conftest import three_ion_config

WZ = 2 * np.pi * 5e5


def axial_eigh(chain):
    """Eigenpairs (mu_k, modes) of the dimensionless axial mode matrix, the
    Newton Jacobian of the equilibrium solve; frequencies are WZ sqrt(mu_k)."""
    return np.linalg.eigh(_hessian(chain.u))


def test_axial_eigenvalues_two_ions():
    mu, _ = axial_eigh(chain_for_axial_freq(2, WZ))
    np.testing.assert_allclose(mu, [1.0, 3.0], rtol=1e-10)


def test_axial_eigenvalues_three_ions():
    mu, _ = axial_eigh(chain_for_axial_freq(3, WZ))
    np.testing.assert_allclose(mu, [1.0, 3.0, 29.0 / 5.0], rtol=1e-10)


def test_axial_com_is_uniform():
    for n in (2, 6, 13):
        _, modes = axial_eigh(chain_for_axial_freq(n, WZ))
        com = modes[:, 0] * np.sign(modes[0, 0])
        np.testing.assert_allclose(com, np.full(n, 1 / np.sqrt(n)), atol=1e-10)


def test_radial_two_ions_analytic():
    chain = chain_for_axial_freq(2, WZ)
    trap = hz_to_angular(2.19e6)
    modes = radial_modes(chain, trap)
    np.testing.assert_allclose(
        modes.freqs, [np.sqrt(trap**2 - WZ**2), trap], rtol=1e-10
    )


def test_three_ion_splitting_and_com(ref_config):
    chain = build_chain(ref_config)
    rb = radial_modes(chain, hz_to_angular(2.19e6))
    # zig-zag / tilt splitting of the reference chain: 94.7 kHz within 2%
    split = rb.splitting() / (2 * np.pi)
    assert split == pytest.approx(94.7e3, rel=0.02)
    # highest mode is the COM at exactly the trap frequency
    assert rb.freqs[-1] / (2 * np.pi) == pytest.approx(2.19e6, rel=1e-9)


def test_radial_axial_eigenvalue_identity():
    # mu_rad = (trap/wz)^2 - (mu_ax - 1)/2, as both matrices share eigenvectors
    chain = chain_for_axial_freq(7, WZ)
    trap = hz_to_angular(2.3e6)
    mu_ax, _ = axial_eigh(chain)
    mu_rad = (radial_modes(chain, trap).freqs / WZ) ** 2
    expected = (trap / WZ) ** 2 - (mu_ax - 1.0) / 2.0
    np.testing.assert_allclose(np.sort(mu_rad), np.sort(expected), rtol=1e-9)


def test_participation_orthonormal():
    # longer chains need a softer axial well to stay linear
    for n, axial_hz in ((3, 5e5), (9, 3e5), (24, 1.2e5)):
        chain = chain_for_axial_freq(n, hz_to_angular(axial_hz))
        b = radial_modes(chain, hz_to_angular(2.3e6)).participation
        np.testing.assert_allclose(b.T @ b, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(b @ b.T, np.eye(n), atol=1e-10)


def test_sign_convention_deterministic():
    chain = chain_for_axial_freq(5, WZ)
    m1 = radial_modes(chain, hz_to_angular(2.3e6))
    m2 = radial_modes(chain, hz_to_angular(2.3e6))
    np.testing.assert_array_equal(m1.participation, m2.participation)
    for k in range(5):
        col = m1.participation[:, k]
        lead = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
        assert lead > 0


def test_zigzag_instability_reported():
    # very stiff axial confinement buckles the chain
    chain = chain_for_axial_freq(5, hz_to_angular(1.5e6))
    with pytest.raises(ZigZagInstabilityError):
        radial_modes(chain, hz_to_angular(2.0e6))


def test_eta_scaling_with_frequency():
    chain = chain_for_axial_freq(2, WZ)
    cfg = three_ion_config()
    m1 = radial_modes(chain, hz_to_angular(2.0e6))
    m2 = radial_modes(chain, hz_to_angular(4.0e6))
    e1 = lamb_dicke_parameters(m1, cfg, 0)
    e2 = lamb_dicke_parameters(m2, cfg, 0)
    # same participation; eta scales as 1/sqrt(freq), compare COM modes
    ratio = abs(e1[-1] / e2[-1])
    assert ratio == pytest.approx(np.sqrt(m2.freqs[-1] / m1.freqs[-1]), rel=1e-9)


def test_coupling_signs_three_ion_outer_pair(ref_config):
    coupling = build_coupling(ref_config, build_chain(ref_config))
    assert coupling.freqs.size == 6
    # outer ions: zig-zag product positive, tilt product negative (both directions)
    for direction in ("radial_a", "radial_b"):
        p_zz = coupling.eta_products[coupling.flat_index(direction, 0)]
        p_tilt = coupling.eta_products[coupling.flat_index(direction, 1)]
        p_com = coupling.eta_products[coupling.flat_index(direction, 2)]
        assert p_zz > 0 and p_com > 0
        assert p_tilt < 0
    # COM mode couples both ions identically
    i_com = coupling.flat_index("radial_b", 2)
    assert coupling.eta1[i_com] == pytest.approx(coupling.eta2[i_com], rel=1e-12)


def test_even_flip_preserves_branch_multiset(ref_config):
    coupling = build_coupling(ref_config, build_chain(ref_config))
    flipped = coupling.flipped()
    assert flipped.even_flip != coupling.even_flip
    for k in range(coupling.freqs.size):
        orig = sorted(
            [abs(coupling.eta1[k] + coupling.eta2[k]) / 2, abs(coupling.eta1[k] - coupling.eta2[k]) / 2]
        )
        new = sorted(
            [abs(flipped.eta1[k] + flipped.eta2[k]) / 2, abs(flipped.eta1[k] - flipped.eta2[k]) / 2]
        )
        np.testing.assert_allclose(orig, new, atol=1e-15)


def test_lamb_dicke_warning():
    cfg = three_ion_config()
    from dataclasses import replace

    # a very light confinement pushes eta up; force it with a long wavelength factor
    loose = replace(cfg, wavevector_factor=12.0)
    with pytest.warns(UserWarning):
        build_coupling(loose, build_chain(loose))
