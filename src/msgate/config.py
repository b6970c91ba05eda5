"""Physical constants, unit conventions, and the experiment configuration.

The config file's keys are the fields of ``SystemConfig`` (and, inside
``pulse`` and ``tol``, of ``PulseSpec`` and ``Tolerances``); ``to_dict``
writes that tree and ``config_from_dict`` reads it back.

Unit conventions used throughout the package:

* configuration files, CSV outputs and serialized records carry ordinary
  frequencies in Hz (and times in seconds unless a ``_us`` suffix says
  otherwise);
* everything internal to the dynamics (detunings, mode frequencies, Rabi
  rates) is an angular frequency in rad/s.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

TWO_PI = 2.0 * math.pi
QUAD_REL = 1e-10  # default relative accuracy of every quadrature kernel call

# SI values; the elementary charge is exact, the rest are CODATA.
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34  # J s
ATOMIC_MASS = 1.66053906660e-27  # kg
ION_MASS = 170.936 * ATOMIC_MASS  # kg, 171Yb+
COULOMB_COEFF = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * EPSILON_0)  # kg m^3 / s^2

PULSE_TYPES = ("square", "trunc_gaussian", "spline_gaussian")


class ConfigError(ValueError):
    """Raised when a configuration file fails schema or stability checks."""


def hz_to_angular(f):
    """Ordinary frequency in Hz -> angular frequency in rad/s."""
    return TWO_PI * f


def angular_to_hz(w):
    """Angular frequency in rad/s -> ordinary frequency in Hz."""
    return w / TWO_PI


@dataclass(frozen=True)
class PulseSpec:
    """Pulse parameters as they appear in the config file (times in s)."""

    type: str = "trunc_gaussian"
    tau_s: float = 200e-6
    z_s: float = 25e-6  # Gaussian width; ignored by the square pulse
    n_knots: int = 13  # spline_gaussian only

    def __post_init__(self):
        if self.type not in PULSE_TYPES:
            raise ConfigError(f"pulse type must be one of {PULSE_TYPES}, got {self.type!r}")
        if not self.tau_s > 0:
            raise ConfigError("tau_s must be positive")
        if self.type != "square" and not self.z_s > 0:
            raise ConfigError("z_s must be positive for Gaussian pulse shapes")
        if self.type == "spline_gaussian" and self.n_knots < 4:
            raise ConfigError("n_knots must be at least 4")


@dataclass(frozen=True)
class Tolerances:
    quad_rel: float = QUAD_REL  # relative accuracy that picks the quadrature panel count

    def __post_init__(self):
        if not 0.0 < self.quad_rel < 1.0:
            raise ConfigError(f"quad_rel must lie in (0, 1), got {self.quad_rel!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Validated description of one chain + laser + pulse arrangement.

    Its fields are the config file's keys. Exactly one of
    ``axial_freq_hz`` (centre-of-mass axial mode) and ``center_spacing_m``
    (equilibrium separation of the two designated centre ions) must be
    given. ``wavevector_factor`` is 2 for counter-propagating Raman beams:
    the effective wavevector magnitude is ``factor * 2 pi / wavelength_m``.
    ``projection_angle_rad`` is the angle between the effective k-vector
    and each radial principal axis (pi/4 couples both directions equally).
    Immutable, so it can be shared freely across concurrent sweep workers.
    """

    n_ions: int
    radial_a_freq_hz: float
    radial_b_freq_hz: float
    axial_freq_hz: float | None = None
    center_spacing_m: float | None = None
    wavelength_m: float = 355e-9
    wavevector_factor: float = 2.0
    projection_angle_rad: float = math.pi / 4.0
    target_pair: tuple[int, int] | None = None
    pulse: PulseSpec = field(default_factory=PulseSpec)
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.wavelength_m <= 0:
            raise ConfigError("wavelength must be positive")
        if not 0.0 <= self.projection_angle_rad <= math.pi / 2.0:
            raise ConfigError("projection_angle must lie in [0, pi/2]")
        if self.n_ions < 2:
            raise ConfigError("n_ions must be at least 2 (a gate needs a pair)")
        if (self.axial_freq_hz is None) == (self.center_spacing_m is None):
            raise ConfigError("exactly one of axial_freq_hz and center_spacing_m is required")
        if self.axial_freq_hz is not None and self.axial_freq_hz <= 0:
            raise ConfigError("axial_freq_hz must be positive")
        if self.center_spacing_m is not None and self.center_spacing_m <= 0:
            raise ConfigError("center_spacing_m must be positive")
        if self.radial_a_freq_hz <= self.radial_b_freq_hz:
            raise ConfigError("radial_a_freq_hz must exceed radial_b_freq_hz")
        if self.target_pair is None:
            object.__setattr__(self, "target_pair", default_target_pair(self.n_ions))
        i, j = self.target_pair
        if i == j or not (0 <= i < self.n_ions) or not (0 <= j < self.n_ions):
            raise ConfigError("target_pair indices must be distinct and in [0, n_ions)")
        if self.implied_axial_freq_hz() >= self.radial_b_freq_hz:
            raise ConfigError(
                "axial frequency must stay below the radial trap frequencies "
                f"(axial {self.implied_axial_freq_hz():.6g} Hz vs radial-b "
                f"{self.radial_b_freq_hz:.6g} Hz)"
            )

    def implied_axial_freq_hz(self) -> float:
        """Axial COM frequency in Hz, whichever way the axial well was specified."""
        if self.axial_freq_hz is not None:
            return self.axial_freq_hz
        from .chain import axial_freq_for_center_spacing

        return angular_to_hz(axial_freq_for_center_spacing(self.n_ions, self.center_spacing_m))

    def to_dict(self) -> dict:
        """The config file's key/value tree; the unused axial key is left out."""
        return {key: value for key, value in asdict(self).items() if value is not None}

    def config_hash(self) -> str:
        """Short stable hash identifying this configuration in CSV headers."""
        import hashlib

        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def default_target_pair(n_ions: int) -> tuple[int, int]:
    """The two ions immediately left and right of the chain centre.

    For even chains these are the two middle ions. For odd chains they
    are the two neighbours of the centre ion: the centre ion itself sits
    on a node of every mirror-antisymmetric mode, so pairing it with a
    neighbour gives a vanishing coupling product on the second-lowest
    radial mode and no balanced operating point exists between the
    lowest two modes.
    """
    if n_ions % 2 == 0:
        return (n_ions // 2 - 1, n_ions // 2)
    return ((n_ions - 1) // 2 - 1, (n_ions - 1) // 2 + 1)


def _reject_unknown(raw: dict, allowed, where: str = "") -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys{where}: {sorted(unknown)}")


def _typed(key: str, value, kind: type):
    """``value`` as a ``kind`` (str, int or float), or a ConfigError naming key and value.

    Numbers must be finite reals and not booleans; an int must be integral
    (3.0 is accepted as 3, 3.7 is not). Nothing is parsed from strings.
    """
    if kind is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{key} must be a string, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if kind is int:
        if value != int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _section(section, name: str, cls, legacy: frozenset):
    """The nested mapping ``section`` of the config file as a ``cls`` dataclass.

    Every key must name a field or be one of the ``legacy`` keys; each
    field value must have the type of that field's default (see ``_typed``),
    and absent fields keep their defaults. A legacy key's value must be a
    positive finite number; it is then dropped.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be a mapping")
    _reject_unknown(section, [*(f.name for f in fields(cls)), *legacy], f" in '{name}'")
    defaults = cls()
    values = {
        key: _typed(f"{name}.{key}", value, float if key in legacy else type(getattr(defaults, key)))
        for key, value in section.items()
    }
    for key in legacy & values.keys():
        value = values.pop(key)
        if not value > 0:
            raise ConfigError(f"{name}.{key} must be positive, got {value!r}")
    return cls(**values)


def _value(key: str, value):
    """The top-level config value under ``key``, typed by the schema's one rule."""
    if key == "pulse":
        # a trial peak Rabi rate: a design sets its own rate
        return _section(value, key, PulseSpec, legacy=frozenset({"omega0_hz"}))
    if key == "tol":
        # a balance-root tolerance: the solve stops at a 1e-6 Hz step
        return _section(value, key, Tolerances, legacy=frozenset({"root_hz"}))
    if key != "target_pair":
        return _typed(key, value, int if key == "n_ions" else float)
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError("target_pair must be a pair of ion indices")
    return tuple(_typed(key, index, int) for index in value)


def config_from_dict(raw: dict) -> SystemConfig:
    """Build a validated SystemConfig from a parsed key/value tree.

    The keys are SystemConfig's fields. ``n_ions`` is an integer,
    ``target_pair`` a pair of them, ``pulse`` and ``tol`` are mappings and
    every other value is a real number. Unknown keys and values of the
    wrong type (see ``_typed``) raise ConfigError at every level, naming
    the key; values are checked in field order. Two legacy keys are checked
    and dropped, ``pulse.omega0_hz`` and ``tol.root_hz``: configs written
    for earlier versions still carry them.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a key/value mapping")
    keys = [f.name for f in fields(SystemConfig)]
    _reject_unknown(raw, keys)
    for key in ("n_ions", "radial_a_freq_hz", "radial_b_freq_hz"):
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")
    return SystemConfig(**{key: _value(key, raw[key]) for key in keys if key in raw})


def load_config(path) -> SystemConfig:
    """Load and validate a JSON configuration file.

    Raises ConfigError on parse failures, schema violations and on
    configurations that would make the linear chain radially unstable.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    return config_from_dict(raw)
