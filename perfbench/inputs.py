"""Workload inputs, generated from the seed alone.

The same seed gives the same inputs. The program sees only what is written
here: config files, CLI arguments and the design list. The seed varies the
inputs without changing how much work a pass does, so run-to-run spread
measures the machine and the program, not the draw:

- contour, chain-study, oracle: the trial Rabi rate in the config (designs
  recalibrate it, so results agree to rounding), the oracle's frequency
  error, and the reduced contour grid of the worker-count check;
- design-batch: every design, drawn within fixed strata.
"""

from __future__ import annotations

import json
import os

import numpy as np

import reference

BASE_CONFIG = os.path.join("configs", "three_ion.json")
CHAIN_LENGTHS = (2, 12, 23, 33)  # both parities, up to and including 33
CHAIN_SPACING_UM = 3.0
ORACLE_STEPS = 5000  # acceptance spec: 200 000; the oracle's gates already hold here
PULSES = ("square", "trunc_gaussian", "spline_gaussian")
BATCH_REPEATS = 3  # designs per (pulse, balanced or fixed, chain length) stratum
# Balanced Gaussian designs whose (mode gap) x (width) falls in this band are
# redrawn: there the balance bracket holds an even number of sign changes and
# cannot be widened, so solve_balance raises BracketError for some draws only.
# The contour workload keeps that fault in view on fixed inputs.
FAULT_BAND = (3.4, 5.6)


def gate_pair(n: int) -> tuple[int, int]:
    """The ions flanking the chain centre: msgate's default target pair."""
    return (n // 2 - 1, n // 2) if n % 2 == 0 else ((n - 1) // 2 - 1, (n - 1) // 2 + 1)


def _base():
    with open(BASE_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def _with_trial_rate(cfg: dict, rng) -> dict:
    return dict(cfg, pulse=dict(cfg["pulse"], omega0_hz=float(rng.uniform(50e3, 200e3))))


def _write(path, cfg) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1)
    return path


def contour(rng, outdir: str) -> dict:
    """The CLI's default 100 x 100 contour of the reference three-ion config."""
    cfg = _with_trial_rate(_base(), rng)
    path = _write(os.path.join(outdir, "config.json"), cfg)
    z_min = float(rng.uniform(5.0, 35.0))
    reduced = ["--z-min-us", repr(z_min), "--z-max-us", repr(z_min + 20.0), "--z-steps", "6",
               "--domega-steps", "20"]
    return {"config": cfg, "config_path": path, "reduced": reduced}


def chain_study(rng, outdir: str) -> dict:
    cfg = _with_trial_rate(_base(), rng)
    path = _write(os.path.join(outdir, "config.json"), cfg)
    return {"config": cfg, "config_path": path, "lengths": list(CHAIN_LENGTHS)}


def oracle(rng, outdir: str) -> dict:
    cfg = _with_trial_rate(_base(), rng)
    path = _write(os.path.join(outdir, "config.json"), cfg)
    job = {"config": path, "modes": [0, 1], "n_max": 15, "n_steps": ORACLE_STEPS,
           "domega_hz": float(rng.uniform(-2e3, 2e3))}
    _write(os.path.join(outdir, "inputs.json"), job)
    return dict(job, config=cfg, config_path=path, inputs_path=os.path.join(outdir, "inputs.json"))


def _mode_gap(cfg: dict) -> float:
    nu = reference.coupling(cfg)["radial_b"]
    return nu[1] - nu[0]


def design_batch(rng, outdir: str) -> dict:
    """Stratified draws: every pulse, balanced and fixed, every N in 2..12."""
    base = _base()
    base.pop("center_spacing_m")
    designs = []
    for _ in range(BATCH_REPEATS):
        for pulse in PULSES:
            for balanced in (True, False):
                for n in range(2, 13):
                    cfg = dict(base, n_ions=n, center_spacing_m=float(rng.uniform(3e-6, 6e-6)),
                               target_pair=list(gate_pair(n)))
                    gap = _mode_gap(cfg)
                    while True:
                        z = float(rng.uniform(12e-6, 45e-6))
                        if not (balanced and pulse != "square"
                                and FAULT_BAND[0] <= gap * z <= FAULT_BAND[1]):
                            break
                    cfg["pulse"] = dict(base["pulse"], type=pulse, z_s=z,
                                        omega0_hz=float(rng.uniform(50e3, 200e3)))
                    delta0 = None if balanced else float(rng.uniform(-60e3, -20e3))
                    designs.append({"config": cfg, "delta0_hz": delta0})
    path = _write(os.path.join(outdir, "inputs.json"), {"designs": designs})
    return {"designs": designs, "inputs_path": path}


GENERATORS = {
    "contour": contour,
    "chain-study": chain_study,
    "design-batch": design_batch,
    "oracle": oracle,
}


def make(workload: str, seed: int, outdir: str) -> dict:
    return GENERATORS[workload](np.random.default_rng(seed), outdir)

