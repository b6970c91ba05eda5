import json
import math
from pathlib import Path

import numpy as np
import pytest

from msgate import (
    ConfigError,
    PulseSpec,
    SystemConfig,
    angular_to_hz,
    hz_to_angular,
    load_config,
)
from msgate.chain import build_chain
from msgate.config import COULOMB_COEFF, HBAR, ION_MASS, Tolerances, config_from_dict, default_target_pair
from msgate.modes import build_coupling

from conftest import three_ion_config


def test_unit_conversion_values():
    assert hz_to_angular(1e6) == pytest.approx(2 * math.pi * 1e6, rel=1e-15)
    assert hz_to_angular(0.0) == 0.0
    assert angular_to_hz(2 * math.pi) == pytest.approx(1.0, rel=1e-15)


def test_unit_conversion_roundtrip_ulp():
    f = 2.19e6
    back = angular_to_hz(hz_to_angular(f))
    assert abs(back - f) <= 4 * np.spacing(f)


def test_constants_match_reference_values():
    # 171Yb+ mass and e^2/(4 pi eps0), 5 significant figures
    assert ION_MASS == pytest.approx(2.8385e-25, rel=1e-4)
    assert COULOMB_COEFF == pytest.approx(2.3071e-28, rel=1e-4)
    assert HBAR == pytest.approx(1.0546e-34, rel=1e-4)


def test_geometry_defaults_and_wavevector():
    cfg = three_ion_config()
    assert cfg.wavelength_m == 355e-9
    assert cfg.wavevector_factor == 2.0
    assert cfg.projection_angle_rad == pytest.approx(math.pi / 4)
    # the COM mode couples each of n ions with participation 1/sqrt(n)
    coupling = build_coupling(cfg, build_chain(cfg))
    com = coupling.flat_index("radial_b", cfg.n_ions - 1)
    k_proj = 2 * 2 * math.pi / 355e-9 * math.cos(math.pi / 4)
    extent = math.sqrt(HBAR / (2 * ION_MASS * coupling.freqs[com]))
    assert coupling.eta1[com] == pytest.approx(k_proj * extent / math.sqrt(cfg.n_ions), rel=1e-12)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"wavelength_m": 0.0}, "wavelength must be positive"),
        ({"wavelength_m": -355e-9}, "wavelength must be positive"),
        ({"projection_angle_rad": -1e-3}, r"projection_angle must lie in \[0, pi/2\]"),
        ({"projection_angle_rad": math.pi / 2 + 1e-3}, r"projection_angle must lie in \[0, pi/2\]"),
    ],
)
def test_geometry_is_range_checked(patch, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(dict(_BASE, **patch))
    # the angle's closed ends are accepted
    for angle in (0.0, math.pi / 2):
        assert config_from_dict(dict(_BASE, projection_angle_rad=angle)).projection_angle_rad == angle


def test_load_minimal_config(tmp_path):
    raw = {
        "n_ions": 3,
        "center_spacing_m": 4.5e-6,
        "radial_a_freq_hz": 2.52e6,
        "radial_b_freq_hz": 2.19e6,
        "target_pair": [0, 2],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.n_ions == 3
    assert cfg.center_spacing_m == 4.5e-6
    assert cfg.target_pair == (0, 2)
    # omitted geometry gets the defaults
    assert cfg.wavelength_m == 355e-9
    assert cfg.wavevector_factor == 2.0
    assert cfg.projection_angle_rad == pytest.approx(math.pi / 4)
    # implied axial frequency matches the inverse spacing problem
    assert cfg.implied_axial_freq_hz() == pytest.approx(531.43e3, rel=1e-3)


def test_single_ion_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(
            {"n_ions": 1, "radial_a_freq_hz": 2.5e6, "radial_b_freq_hz": 2.2e6,
             "axial_freq_hz": 5e5}
        )


def test_axial_spec_must_be_exclusive():
    base = {"n_ions": 2, "radial_a_freq_hz": 2.5e6, "radial_b_freq_hz": 2.2e6}
    with pytest.raises(ConfigError):
        config_from_dict(base)
    with pytest.raises(ConfigError):
        config_from_dict({**base, "axial_freq_hz": 5e5, "center_spacing_m": 4e-6})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict(
            {"n_ions": 2, "radial_a_freq_hz": 2.5e6, "radial_b_freq_hz": 2.2e6,
             "axial_freq_hz": 5e5, "axial_freq_khz": 500}
        )


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"axial_freq_khz": 500}, "axial_freq_khz"),
        ({"pulse": {"z_us": 40}}, "z_us"),
        ({"pulse": {"type": "square", "omega0": 1e5}}, "omega0"),
        ({"tol": {"root_hz": 1.0, "quad_abs": 1e-12}}, "quad_abs"),
    ],
)
def test_unknown_key_rejected_at_every_level(extra, key):
    raw = {"n_ions": 2, "radial_a_freq_hz": 2.5e6, "radial_b_freq_hz": 2.2e6, "axial_freq_hz": 5e5}
    with pytest.raises(ConfigError, match=key):
        config_from_dict(dict(raw, **extra))


def test_shipped_config_is_valid():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "three_ion.json")
    assert cfg.pulse.z_s == 25e-6


def test_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_stability_violation():
    # an 800 nm spacing on two ions implies an axial frequency above radial-b
    with pytest.raises(ConfigError):
        SystemConfig(
            n_ions=2,
            center_spacing_m=0.8e-6,
            radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6,
        )


def test_radial_ordering_enforced():
    with pytest.raises(ConfigError):
        SystemConfig(
            n_ions=2, axial_freq_hz=5e5, radial_a_freq_hz=2.0e6, radial_b_freq_hz=2.2e6
        )


def test_target_pair_validation():
    with pytest.raises(ConfigError):
        SystemConfig(
            n_ions=3, axial_freq_hz=5e5, radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6, target_pair=(1, 1),
        )
    with pytest.raises(ConfigError):
        SystemConfig(
            n_ions=3, axial_freq_hz=5e5, radial_a_freq_hz=2.52e6,
            radial_b_freq_hz=2.19e6, target_pair=(0, 3),
        )


def test_default_target_pair_centers():
    assert default_target_pair(2) == (0, 1)
    assert default_target_pair(4) == (1, 2)
    assert default_target_pair(3) == (0, 2)
    assert default_target_pair(5) == (1, 3)


def test_roundtrip_serialization(tmp_path):
    cfg = three_ion_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = load_config(path)
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


_GEOMETRIES = [{}, {"wavelength_m": 532e-9, "wavevector_factor": 1.5, "projection_angle_rad": 0.3}]
_WELLS = [{"axial_freq_hz": 4.2e5}, {"center_spacing_m": 5.5e-6}]


@pytest.mark.parametrize("geometry", _GEOMETRIES, ids=["default-geometry", "other-geometry"])
@pytest.mark.parametrize("well", _WELLS, ids=["axial", "spacing"])
def test_to_dict_is_the_loader_schema(geometry, well):
    cfg = SystemConfig(
        n_ions=4, radial_a_freq_hz=2.52e6, radial_b_freq_hz=2.19e6, target_pair=(0, 3),
        pulse=PulseSpec(type="spline_gaussian", tau_s=150e-6, z_s=30e-6, n_knots=9),
        tol=Tolerances(quad_rel=1e-9), **well, **geometry,
    )
    raw = cfg.to_dict()
    assert config_from_dict(raw) == cfg
    assert config_from_dict(json.loads(json.dumps(raw))) == cfg
    # every key written, at every level, is one the loader accepts on its own
    (absent,) = {"axial_freq_hz", "center_spacing_m"} - set(well)
    assert absent not in raw
    required = {key: raw[key] for key in ("n_ions", "radial_a_freq_hz", "radial_b_freq_hz", *well)}
    for key, value in raw.items():
        if isinstance(value, dict):
            for inner, inner_value in value.items():
                config_from_dict(dict(required, **{key: {inner: inner_value}}))
        else:
            config_from_dict(dict(required, **{key: value}))


def test_pulse_spec_validation():
    with pytest.raises(ConfigError):
        config_from_dict(
            {"n_ions": 2, "axial_freq_hz": 5e5, "radial_a_freq_hz": 2.52e6,
             "radial_b_freq_hz": 2.19e6, "pulse": {"type": "sawtooth"}}
        )
    with pytest.raises(ConfigError):
        config_from_dict(
            {"n_ions": 2, "axial_freq_hz": 5e5, "radial_a_freq_hz": 2.52e6,
             "radial_b_freq_hz": 2.19e6, "pulse": {"tau_s": -1.0}}
        )


_BASE = {"n_ions": 3, "radial_a_freq_hz": 2.52e6, "radial_b_freq_hz": 2.19e6, "center_spacing_m": 4.5e-6}


@pytest.mark.parametrize(
    "patch, key, shown",
    [
        ({"pulse": {"tau_s": "abc"}}, "pulse.tau_s", "'abc'"),
        ({"pulse": {"tau_s": float("nan")}}, "pulse.tau_s", "nan"),
        ({"pulse": {"omega0_hz": True}}, "pulse.omega0_hz", "True"),
        ({"pulse": {"z_s": float("inf")}}, "pulse.z_s", "inf"),
        ({"pulse": {"n_knots": 12.5}}, "pulse.n_knots", "12.5"),
        ({"pulse": {"type": 3}}, "pulse.type", "3"),
        ({"tol": {"quad_rel": "x"}}, "tol.quad_rel", "'x'"),
        ({"tol": {"quad_rel": float("nan")}}, "tol.quad_rel", "nan"),
        ({"tol": {"quad_rel": float("inf")}}, "tol.quad_rel", "inf"),
        ({"tol": {"quad_rel": 0.0}}, "quad_rel", "0.0"),
        ({"tol": {"quad_rel": 1.0}}, "quad_rel", "1.0"),
        ({"tol": {"quad_rel": -1e-10}}, "quad_rel", "-1e-10"),
        ({"tol": {"root_hz": False}}, "tol.root_hz", "False"),
        ({"n_ions": 3.7}, "n_ions", "3.7"),
        ({"n_ions": True}, "n_ions", "True"),
        ({"n_ions": "3"}, "n_ions", "'3'"),
        ({"radial_b_freq_hz": "2.19e6"}, "radial_b_freq_hz", "'2.19e6'"),
        ({"center_spacing_m": float("-inf")}, "center_spacing_m", "-inf"),
        ({"wavelength_m": None}, "wavelength_m", "None"),
        ({"projection_angle_rad": [0.7]}, "projection_angle_rad", r"\[0.7\]"),
        ({"target_pair": [0, 1.5]}, "target_pair", "1.5"),
        ({"target_pair": [True, 2]}, "target_pair", "True"),
        ({"pulse": {"omega0_hz": 0}}, "pulse.omega0_hz", "0.0"),
        ({"pulse": {"omega0_hz": -1e5}}, "pulse.omega0_hz", "-100000.0"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_config_values_are_type_checked(patch, key, shown):
    with pytest.raises(ConfigError, match=rf"{key}.*{shown}"):
        config_from_dict(dict(_BASE, **patch))


def test_integral_floats_are_accepted_as_integers():
    cfg = config_from_dict(dict(_BASE, n_ions=3.0, target_pair=[0.0, 2], pulse={"n_knots": 9.0}))
    assert cfg.n_ions == 3 and isinstance(cfg.n_ions, int)
    assert cfg.target_pair == (0, 2) and all(isinstance(i, int) for i in cfg.target_pair)
    assert cfg.pulse.n_knots == 9 and isinstance(cfg.pulse.n_knots, int)


def test_non_finite_json_numbers_rejected(tmp_path):
    # Python's json module reads NaN and Infinity; the config must not
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_BASE)[:-1] + f', "tol": {{"quad_rel": {literal}}}}}')
        with pytest.raises(ConfigError, match="tol.quad_rel"):
            load_config(path)

