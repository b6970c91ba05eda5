"""Reproducible parameter sweeps behind the command-line studies.

Every sweep returns a SweepResult whose CSV carries a metadata header
(config hash, grid spec, package version) sufficient to regenerate it.

``sweep_detuning``, ``contour`` and ``chain_study`` share one grid path:
a design and a frequency-error grid in Hz become the curve's named cells
(``_curve_cells``), and named cells become rows under a study's column
tuple (``_table``). A cell holds one value per grid point or one value
for every row; a column with no cell gets the table's filler. A design
that fails with one of DOMAIN_ERRORS becomes a failure row whose status
reads ``Type: message`` (``_status``) in ``contour`` and ``chain_study``;
``sweep_detuning`` lets it abort the study. Grid cells are independent,
so those two sweeps optionally fan out to a process pool; each task
carries the SystemConfig itself and results come back in task order
either way, making the output byte-identical for any worker count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .config import ConfigError, SystemConfig, angular_to_hz, default_target_pair, hz_to_angular
from .design import (
    SENS_HALF_RANGE_HZ,
    BracketError,
    GateDesign,
    SensitivityEdgeError,
    breakdown_curve,
    design_gate,
    sensitivity,
)
from .errors import exact_fidelity, parity_scan, reduced_density_matrix, spin_eigensystem
from .modes import DegenerateModesError, ZigZagInstabilityError
from .trajectory import ResonanceError, gate_integrals

# failures that belong to the physics of a grid point; they become status rows
DOMAIN_ERRORS = (
    BracketError, SensitivityEdgeError, ZigZagInstabilityError, DegenerateModesError, ResonanceError,
    ConfigError,
)


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


# characters that make csv.QUOTE_MINIMAL quote a field
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.12g}"
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    text = str(cell)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _base_metadata(config: SystemConfig, **extra) -> dict:
    meta = {"generator": f"msgate {__version__}", "config_hash": config.config_hash()}
    meta.update(extra)
    return meta


def _run_tasks(worker, tasks, workers: int):
    """Ordered map over tasks, optionally via a pool of at most one process per task.

    The pool's modules (multiprocessing and what it pulls in) are imported
    only when a pool starts, so a one-worker run does not load them.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _table(columns, cells: dict, n: int, missing) -> list:
    """n rows under ``columns`` from named cells.

    A cell is an array with one value per row or one value for every row;
    a column with no cell holds ``missing``.
    """
    values = []
    for name in columns:
        cell = cells.get(name, missing)
        values.append(cell.tolist() if isinstance(cell, np.ndarray) else [cell] * n)
    return [list(row) for row in zip(*values)]


def _curve_cells(design: GateDesign, grid_hz, with_fidelity: bool = True) -> dict:
    """The named cells of ``design``'s error curve over frequency errors in Hz."""
    curve = breakdown_curve(design, hz_to_angular(grid_hz), with_fidelity=with_fidelity)
    return {
        "domega_khz": grid_hz / 1e3,
        "eps_d": curve.eps_d,
        "eps_r": curve.eps_r,
        "eps_s": curve.eps_s,
        "fidelity": curve.fidelity,
        "flag": curve.flags,
    }


def _status(exc: Exception) -> str:
    """The status cell of a design that failed with a domain error."""
    return f"{type(exc).__name__}: {exc}"


# --- detuning sweep (three pulse shapes compared on one chain) ----------

# name -> (pulse type, balanced); an unbalanced pulse keeps the fixed reference detuning
REFERENCE_PULSES = {
    "balanced_gaussian": ("trunc_gaussian", True),
    "unbalanced_gaussian": ("trunc_gaussian", False),
    "square": ("square", False),
}
DETUNING_COLUMNS = ("pulse", "delta0_khz", "domega_khz", "eps_d", "eps_r", "eps_s", "fidelity", "flag")


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
    error domega = delta0 - delta0_nominal to that design. A domain error
    aborts the sweep.
    """
    delta0_grid = np.linspace(delta0_min_hz, delta0_max_hz, steps)
    rows = []
    for name, (pulse_type, balanced) in REFERENCE_PULSES.items():
        cfg = replace(config, pulse=replace(config.pulse, type=pulse_type))
        design = design_gate(cfg, delta0_override=None if balanced else hz_to_angular(unbalanced_delta0_hz))
        cells = _curve_cells(design, delta0_grid - angular_to_hz(design.delta0))
        rows += _table(DETUNING_COLUMNS, dict(cells, pulse=name, delta0_khz=delta0_grid / 1e3), steps, "")
    meta = _base_metadata(
        config,
        sweep="detuning",
        delta0_min_hz=delta0_min_hz,
        delta0_max_hz=delta0_max_hz,
        steps=steps,
        pulses=";".join(REFERENCE_PULSES),
        unbalanced_delta0_hz=unbalanced_delta0_hz,
    )
    return SweepResult(columns=DETUNING_COLUMNS, rows=rows, metadata=meta)


# --- robustness contour over (z, domega) --------------------------------

CONTOUR_COLUMNS = (
    "z_us", "domega_khz", "eps_d", "eps_r", "eps_s", "fidelity", "flag", "delta0_khz", "omega0_khz", "status",
)


def _contour_column(task):
    config, z, domega_grid_hz = task
    cfg = replace(config, pulse=replace(config.pulse, type="trunc_gaussian", z_s=z))
    try:
        design = design_gate(cfg)
    except DOMAIN_ERRORS as exc:
        cells = {"domega_khz": domega_grid_hz / 1e3, "flag": 1, "status": _status(exc)}
    else:
        cells = dict(
            _curve_cells(design, domega_grid_hz),
            delta0_khz=angular_to_hz(design.delta0) / 1e3,
            omega0_khz=angular_to_hz(design.pulse.omega0) / 1e3,
            status="",
        )
    return _table(CONTOUR_COLUMNS, dict(cells, z_us=z * 1e6), len(domega_grid_hz), np.nan)


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
    that width rather than the miscalibration of a single design. A
    column whose design fails holds NaN values under its status.
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
    return SweepResult(columns=CONTOUR_COLUMNS, rows=rows, metadata=meta)


# --- chain-length study --------------------------------------------------

SUMMARY_COLUMNS = (
    "n_ions", "dx0_um", "delta_c_hz", "delta0_khz", "omega0_khz", "dnu10_khz",
    "eps_s_minus10k", "eps_s_plus10k", "eps_s_max_3khz", "even_flip", "status",
)
CURVE_COLUMNS = ("n_ions", "dx0_um", "domega_khz", "eps_d", "eps_r", "eps_s", "flag")


def chain_grid(domega_half_range_hz: float, domega_step_hz: float):
    """``chain_study``'s frequency-error grid in Hz and the indices of -10 and +10 kHz in it;
    ValueError for a step that is not positive or a grid without both points (to rounding)."""
    if not domega_step_hz > 0:
        raise ValueError(f"the frequency-error step must be positive, got {domega_step_hz!r} Hz")
    grid = np.arange(-domega_half_range_hz, domega_half_range_hz + 0.5 * domega_step_hz, domega_step_hz)
    edges = [np.flatnonzero(np.isclose(grid, target, rtol=1e-9, atol=0.0)) for target in (-10e3, 10e3)]
    if not all(hits.size for hits in edges):
        raise ValueError(f"the frequency-error grid (step {domega_step_hz:g} Hz) does not hold -10 and +10 kHz")
    return grid, tuple(int(hits[0]) for hits in edges)


def _chain_point(task):
    """(summary rows, curve rows) of one chain; a domain error leaves one status row."""
    base, n, dx0, domega_grid_hz, (minus10k, plus10k) = task
    lead = {"n_ions": n, "dx0_um": dx0 * 1e6}
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
        curve = _curve_cells(design, domega_grid_hz, with_fidelity=False)
        summary = dict(
            lead,
            delta_c_hz=angular_to_hz(design.delta_c),
            delta0_khz=angular_to_hz(design.delta0) / 1e3,
            omega0_khz=angular_to_hz(design.pulse.omega0) / 1e3,
            dnu10_khz=angular_to_hz(dnu10) / 1e3,
            eps_s_minus10k=curve["eps_s"][minus10k],
            eps_s_plus10k=curve["eps_s"][plus10k],
            eps_s_max_3khz=sensitivity(design),
            even_flip=design.coupling.even_flip,
        )
    except DOMAIN_ERRORS as exc:
        return _table(SUMMARY_COLUMNS, dict(lead, status=_status(exc)), 1, ""), []
    curve_rows = _table(CURVE_COLUMNS, dict(curve, **lead), len(domega_grid_hz), "")
    return _table(SUMMARY_COLUMNS, summary, 1, ""), curve_rows


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
    the study continues. ``eps_s_minus10k`` and ``eps_s_plus10k`` are the
    curve at -10 and +10 kHz, which the grid must hold (``chain_grid``).
    ``eps_s_max_3khz`` is ``sensitivity`` over +-SENS_HALF_RANGE_HZ.
    """
    dw_grid, edges = chain_grid(domega_half_range_hz, domega_step_hz)
    tasks = [(config, int(n), float(dx0), dw_grid, edges) for dx0 in dx0_list_m for n in n_list]
    summary_rows = []
    curve_rows = []
    for summary, curves in _run_tasks(_chain_point, tasks, workers):
        summary_rows += summary
        curve_rows += curves
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
    curves = SweepResult(columns=CURVE_COLUMNS, rows=curve_rows, metadata=dict(meta, table="curves"))
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
