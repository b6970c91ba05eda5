import pytest

from msgate import PulseSpec, SystemConfig


def three_ion_config(pulse_type="trunc_gaussian", z_s=25e-6):
    """Reference three-ion chain: 4.5 um spacing, 2.52/2.19 MHz radial traps,
    gate on the outer ions."""
    return SystemConfig(
        n_ions=3,
        center_spacing_m=4.5e-6,
        radial_a_freq_hz=2.52e6,
        radial_b_freq_hz=2.19e6,
        target_pair=(0, 2),
        pulse=PulseSpec(type=pulse_type, tau_s=200e-6, z_s=z_s),
    )


@pytest.fixture(scope="session")
def ref_config():
    return three_ion_config()


@pytest.fixture(scope="session")
def ref_design(ref_config):
    from msgate import design_gate

    return design_gate(ref_config)
