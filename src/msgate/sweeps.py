"""Reproducible parameter sweeps behind the command-line studies.

Every sweep returns a SweepResult whose CSV carries a metadata header
(config hash, grid spec, package version) sufficient to regenerate it.
Grid cells are independent, so sweeps optionally fan out to a process
pool; each task carries the SystemConfig itself and results come back
in task order either way, making the output byte-identical for any
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import ConfigError, SystemConfig, angular_to_hz, default_target_pair, hz_to_angular
from .design import (
    SENS_HALF_RANGE_HZ,
    BracketError,
    GateDesign,
    breakdown_curve,
    design_gate,
    sensitivity,
)
from .errors import exact_fidelity, parity_scan, reduced_density_matrix, spin_eigensystem
from .modes import DegenerateModesError, ZigZagInstabilityError
from .trajectory import ResonanceError, gate_integrals

# failures that belong to the physics of a grid point; they become status rows
DOMAIN_ERRORS = (BracketError, ZigZagInstabilityError, DegenerateModesError, ResonanceError, ConfigError)


@dataclass(frozen=True)
class SweepResult:
    """Rows plus the provenance needed to regenerate them."""

    columns: tuple[str, ...]
    rows: list = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.12g}"
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    return str(cell)


def _base_metadata(config: SystemConfig, **extra) -> dict:
    meta = {"generator": f"msgate {__version__}", "config_hash": config.config_hash()}
    meta.update(extra)
    return meta


def _run_tasks(worker, tasks, workers: int):
    """Ordered map over tasks, optionally via a process pool."""
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


# --- detuning sweep (three pulse shapes compared on one chain) ----------

REFERENCE_PULSES = ("balanced_gaussian", "unbalanced_gaussian", "square")


def _reference_design(config: SystemConfig, name: str, unbalanced_delta0: float) -> GateDesign:
    if name == "balanced_gaussian":
        cfg = replace(config, pulse=replace(config.pulse, type="trunc_gaussian"))
        return design_gate(cfg)
    if name == "unbalanced_gaussian":
        cfg = replace(config, pulse=replace(config.pulse, type="trunc_gaussian"))
        return design_gate(cfg, delta0_override=unbalanced_delta0)
    if name == "square":
        cfg = replace(config, pulse=replace(config.pulse, type="square"))
        return design_gate(cfg, delta0_override=unbalanced_delta0)
    raise ValueError(f"unknown reference pulse {name!r}")


def sweep_detuning(
    config: SystemConfig,
    delta0_min_hz: float = -60e3,
    delta0_max_hz: float = 180e3,
    steps: int = 601,
    unbalanced_delta0_hz: float = -40e3,
) -> SweepResult:
    """Error metrics versus detuning above the lowest targeted mode.

    Each of the REFERENCE_PULSES keeps its nominal design (balanced solve
    for the Gaussian, a fixed reference detuning for the others); moving
    along the grid is equivalent to applying the symmetric frequency
    error domega = delta0 - delta0_nominal to that design.
    """
    delta0_grid = np.linspace(delta0_min_hz, delta0_max_hz, steps)
    rows = []
    for name in REFERENCE_PULSES:
        design = _reference_design(config, name, hz_to_angular(unbalanced_delta0_hz))
        nominal_hz = angular_to_hz(design.delta0)
        curve = breakdown_curve(design, hz_to_angular(delta0_grid - nominal_hz))
        for i, d0 in enumerate(delta0_grid):
            rows.append(
                [
                    name,
                    d0 / 1e3,
                    (d0 - nominal_hz) / 1e3,
                    curve.eps_d[i],
                    curve.eps_r[i],
                    curve.eps_s[i],
                    curve.fidelity[i],
                    curve.flags[i],
                ]
            )
    meta = _base_metadata(
        config,
        sweep="detuning",
        delta0_min_hz=delta0_min_hz,
        delta0_max_hz=delta0_max_hz,
        steps=steps,
        pulses=";".join(REFERENCE_PULSES),
        unbalanced_delta0_hz=unbalanced_delta0_hz,
    )
    return SweepResult(
        columns=("pulse", "delta0_khz", "domega_khz", "eps_d", "eps_r", "eps_s", "fidelity", "flag"),
        rows=rows,
        metadata=meta,
    )


# --- robustness contour over (z, domega) --------------------------------

def _contour_column(task):
    config, z, domega_grid_hz = task
    cfg = replace(config, pulse=replace(config.pulse, type="trunc_gaussian", z_s=z))
    rows = []
    try:
        design = design_gate(cfg)
    except DOMAIN_ERRORS as exc:
        for dw in domega_grid_hz:
            rows.append([z * 1e6, dw / 1e3, np.nan, np.nan, np.nan, np.nan, 1, np.nan, np.nan, type(exc).__name__])
        return rows
    curve = breakdown_curve(design, hz_to_angular(np.asarray(domega_grid_hz)))
    d0_khz = angular_to_hz(design.delta0) / 1e3
    om_khz = angular_to_hz(design.pulse.omega0) / 1e3
    for i, dw in enumerate(domega_grid_hz):
        rows.append(
            [
                z * 1e6,
                dw / 1e3,
                curve.eps_d[i],
                curve.eps_r[i],
                curve.eps_s[i],
                curve.fidelity[i],
                curve.flags[i],
                d0_khz,
                om_khz,
                "",
            ]
        )
    return rows


def contour(
    config: SystemConfig,
    z_min_s: float = 5e-6,
    z_max_s: float = 60e-6,
    z_steps: int = 100,
    domega_half_range_hz: float = 10e3,
    domega_steps: int = 100,
    workers: int = 1,
) -> SweepResult:
    """eps_s over the (Gaussian width, frequency error) plane.

    Every width column is freshly balanced and calibrated before the
    frequency-error scan, so the map shows the robustness attainable at
    that width rather than the miscalibration of a single design.
    """
    z_grid = np.linspace(z_min_s, z_max_s, z_steps)
    dw_grid = np.linspace(-domega_half_range_hz, domega_half_range_hz, domega_steps)
    tasks = [(config, float(z), dw_grid) for z in z_grid]
    rows = [row for column in _run_tasks(_contour_column, tasks, workers) for row in column]
    meta = _base_metadata(
        config,
        sweep="contour",
        z_min_s=z_min_s,
        z_max_s=z_max_s,
        z_steps=z_steps,
        domega_half_range_hz=domega_half_range_hz,
        domega_steps=domega_steps,
    )
    return SweepResult(
        columns=(
            "z_us",
            "domega_khz",
            "eps_d",
            "eps_r",
            "eps_s",
            "fidelity",
            "flag",
            "delta0_khz",
            "omega0_khz",
            "status",
        ),
        rows=rows,
        metadata=meta,
    )


# --- chain-length study --------------------------------------------------

def _chain_point(task):
    base, n, dx0, domega_grid_hz = task
    summary = {
        "n_ions": n,
        "dx0_um": dx0 * 1e6,
        "status": "",
    }
    curve_rows = []
    try:
        cfg = replace(
            base,
            n_ions=n,
            center_spacing_m=dx0,
            axial_freq_hz=None,
            target_pair=default_target_pair(n),
            pulse=replace(base.pulse, type="trunc_gaussian"),
        )
        design = design_gate(cfg)
        i0 = design.coupling.flat_index("radial_b", 0)
        i1 = design.coupling.flat_index("radial_b", 1)
        dnu10 = design.coupling.freqs[i1] - design.coupling.freqs[i0]
        curve = breakdown_curve(design, hz_to_angular(np.asarray(domega_grid_hz)), with_fidelity=False)
        eps_at = {}
        for target in (-10e3, 10e3):
            j = int(np.argmin(np.abs(np.asarray(domega_grid_hz) - target)))
            eps_at[target] = curve.eps_s[j]
        summary.update(
            delta_c_hz=angular_to_hz(design.delta_c),
            delta0_khz=angular_to_hz(design.delta0) / 1e3,
            omega0_khz=angular_to_hz(design.pulse.omega0) / 1e3,
            dnu10_khz=angular_to_hz(dnu10) / 1e3,
            eps_s_minus10k=eps_at[-10e3],
            eps_s_plus10k=eps_at[10e3],
            eps_s_max_3khz=sensitivity(design),
            even_flip=design.coupling.even_flip,
        )
        for i, dw in enumerate(domega_grid_hz):
            curve_rows.append(
                [n, dx0 * 1e6, dw / 1e3, curve.eps_d[i], curve.eps_r[i], curve.eps_s[i], curve.flags[i]]
            )
    except DOMAIN_ERRORS as exc:
        summary["status"] = f"{type(exc).__name__}: {exc}"
    return summary, curve_rows


SUMMARY_COLUMNS = (
    "n_ions",
    "dx0_um",
    "delta_c_hz",
    "delta0_khz",
    "omega0_khz",
    "dnu10_khz",
    "eps_s_minus10k",
    "eps_s_plus10k",
    "eps_s_max_3khz",
    "even_flip",
    "status",
)


def chain_study(
    config: SystemConfig,
    dx0_list_m,
    n_list,
    domega_half_range_hz: float = 10e3,
    domega_step_hz: float = 100.0,
    workers: int = 1,
) -> tuple[SweepResult, SweepResult]:
    """Designs and robustness curves across chain lengths and spacings.

    Returns (summary, curves). Designs that fail (no balance bracket,
    radial instability) are recorded in the summary status column and
    the study continues. ``eps_s_max_3khz`` is ``sensitivity`` over
    +-SENS_HALF_RANGE_HZ.
    """
    dw_grid = np.arange(-domega_half_range_hz, domega_half_range_hz + 0.5 * domega_step_hz, domega_step_hz)
    tasks = [(config, int(n), float(dx0), dw_grid) for dx0 in dx0_list_m for n in n_list]
    summary_rows = []
    curve_rows = []
    for summary, curves in _run_tasks(_chain_point, tasks, workers):
        summary_rows.append([summary.get(col, "") for col in SUMMARY_COLUMNS])
        curve_rows.extend(curves)
    meta = _base_metadata(
        config,
        sweep="chain-study",
        dx0_list_um=";".join(f"{d * 1e6:g}" for d in dx0_list_m),
        n_list=";".join(str(n) for n in n_list),
        domega_half_range_hz=domega_half_range_hz,
        domega_step_hz=domega_step_hz,
        sens_half_range_hz=SENS_HALF_RANGE_HZ,
    )
    summary = SweepResult(columns=SUMMARY_COLUMNS, rows=summary_rows, metadata=meta)
    curves = SweepResult(
        columns=("n_ions", "dx0_um", "domega_khz", "eps_d", "eps_r", "eps_s", "flag"),
        rows=curve_rows,
        metadata=dict(meta, table="curves"),
    )
    return summary, curves


# --- parity scan ----------------------------------------------------------

def parity_study(
    config: SystemConfig,
    phi_steps: int = 64,
    domega_hz: float = 0.0,
    delta0_override_hz: float | None = None,
) -> SweepResult:
    """Simulated parity oscillation of the designed gate.

    The metadata carries the fitted amplitude, the population-plus-parity
    fidelity estimate and the exact fidelity for comparison.
    """
    override = None if delta0_override_hz is None else hz_to_angular(delta0_override_hz)
    design = design_gate(config, delta0_override=override)
    deltas = design.delta_c - design.coupling.freqs + hz_to_angular(domega_hz)
    alphas, phases = gate_integrals(design.pulse, deltas, quad_rel=design.quad_rel)
    eigsys = spin_eigensystem(design.coupling)
    rho = reduced_density_matrix(eigsys, alphas, phases)
    phis = np.linspace(0.0, 2.0 * np.pi, phi_steps, endpoint=False)
    scan = parity_scan(rho, phis)
    meta = _base_metadata(
        config,
        sweep="parity",
        phi_steps=phi_steps,
        domega_hz=domega_hz,
        delta0_khz=angular_to_hz(design.delta0) / 1e3,
        amplitude=f"{scan.amplitude:.12g}",
        fidelity_estimate=f"{scan.fidelity_estimate(rho):.12g}",
        fidelity_exact=f"{exact_fidelity(eigsys, alphas, phases):.12g}",
        degenerate_fit=int(scan.degenerate),
    )
    rows = [[phi, parity] for phi, parity in zip(scan.phis, scan.parities)]
    return SweepResult(columns=("phi_rad", "parity"), rows=rows, metadata=meta)
