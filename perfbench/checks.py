"""Correctness checks of each workload's outputs.

Every check compares the program's output with the independent computations
in reference.py or with a property the method must have; none compares with
a stored copy of earlier output. Each ``check_*`` returns
``(attempted, failures, problems)``: operations attempted in one pass, the
exception type of each failed operation, and a list of problems found in
the outputs of the operations that did not fail.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference
from inputs import CHAIN_SPACING_UM, gate_pair

HALF_PI = math.pi / 2.0
THETA_REL_TOL = 1e-8  # |theta| = pi/2 recomputed independently
RATE_STEP = reference.TWO_PI * 100.0  # rad/s; d theta/d delta_c must change sign across +-this
FREQ_REL_TOL = 1e-9


def parse_csv(text: str):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _f(row, key) -> float:
    return float(row[key])


def _theta_problems(label, ref, pulse, omega0, delta_c, balanced) -> list[str]:
    """|theta| = pi/2 at delta_c; for balanced designs also the root checks."""
    nu = ref["radial_b"]
    if not balanced:
        theta, _ = reference.rotation_angle(ref, pulse, omega0, [delta_c])
    else:
        points = delta_c + np.array([-RATE_STEP, 0.0, RATE_STEP])
        theta, rate = reference.rotation_angle(ref, pulse, omega0, points)
        theta = theta[1:2]
    problems = []
    if abs(abs(theta[0]) / HALF_PI - 1.0) > THETA_REL_TOL:
        problems.append(f"{label}: |theta| = {abs(theta[0]):.12f}, not pi/2")
    if balanced:
        if not nu[0] < delta_c < nu[1]:
            problems.append(f"{label}: delta_c outside the target modes")
        if np.sign(rate[0]) == np.sign(rate[2]):
            problems.append(f"{label}: d theta/d delta_c keeps its sign across delta_c")
    return problems


def _crossing(x, y, level, i0, step):
    i = i0
    while 0 <= i < y.size:
        if y[i] > level:
            j = i - step
            return x[j] + (level - y[j]) / (y[i] - y[j]) * (x[i] - x[j])
        i += step
    return math.nan


def check_contour(text: str, inputs: dict):
    meta, rows = parse_csv(text)
    problems = []
    z_steps, dw_steps = int(meta["z_steps"]), int(meta["domega_steps"])
    if len(rows) != z_steps * dw_steps:
        return z_steps, [], [f"contour has {len(rows)} rows, expected {z_steps * dw_steps}"]
    cfg = inputs["config"]
    ref = reference.coupling(cfg)
    nu = ref["radial_b"]
    failures = []
    for c in range(z_steps):
        col = rows[c * dw_steps:(c + 1) * dw_steps]
        z_us = _f(col[0], "z_us")
        label = f"contour z={z_us:.4g} us"
        status = {row["status"] for row in col}
        if status != {""}:
            failures.extend(sorted(status))
            if len(status) != 1 or any(not math.isnan(_f(r, "eps_s")) for r in col):
                problems.append(f"{label}: failed column has values or mixed status")
            continue
        eps_s = np.array([_f(r, "eps_s") for r in col])
        fid = np.array([_f(r, "fidelity") for r in col])
        near = eps_s <= 1e-3
        if np.any(np.abs(eps_s - (1.0 - fid))[near] > 0.2 * eps_s[near] + 1e-9):
            problems.append(f"{label}: eps_s and 1 - F disagree")
        delta_c = nu[0] + reference.TWO_PI * 1e3 * _f(col[0], "delta0_khz")
        omega0 = reference.TWO_PI * 1e3 * _f(col[0], "omega0_khz")
        pulse = dict(cfg["pulse"], type="trunc_gaussian", z_s=z_us * 1e-6)
        problems += _theta_problems(label, ref, pulse, omega0, delta_c, balanced=True)
        if abs(z_us - 25.0) < 1e-6:
            dw = np.array([_f(r, "domega_khz") for r in col])
            i_min = int(np.argmin(eps_s))
            lo, hi = _crossing(dw, eps_s, 1e-3, i_min, -1), _crossing(dw, eps_s, 1e-3, i_min, 1)
            if not (abs(lo + 7.8) <= 0.5 and abs(hi - 8.5) <= 0.5):
                problems.append(f"{label}: robust window [{lo:.2f}, {hi:.2f}] kHz, "
                                "expected [-7.8, 8.5] +- 0.5")
    return z_steps, failures, problems


def check_chain_study(summary: str, curves: str, inputs: dict):
    _, rows = parse_csv(summary)
    _, curve_rows = parse_csv(curves)
    lengths = inputs["lengths"]
    if [int(r["n_ions"]) for r in rows] != lengths:
        return len(lengths), [], ["chain-study summary does not list the requested lengths"]
    problems, failures = [], []
    points = Counter(int(r["n_ions"]) for r in curve_rows)
    for row in rows:
        n = int(row["n_ions"])
        label = f"chain-study N={n}"
        if row["status"]:
            failures.append(row["status"].split(":")[0])
            continue
        cfg = dict(inputs["config"], n_ions=n, center_spacing_m=CHAIN_SPACING_UM * 1e-6,
                   target_pair=list(gate_pair(n)))
        ref = reference.coupling(cfg)
        nu = ref["radial_b"]
        delta_c = reference.TWO_PI * _f(row, "delta_c_hz")
        nu0 = delta_c - reference.TWO_PI * 1e3 * _f(row, "delta0_khz")
        dnu10 = reference.TWO_PI * 1e3 * _f(row, "dnu10_khz")
        if abs(nu0 / nu[0] - 1.0) > FREQ_REL_TOL or abs(dnu10 / (nu[1] - nu[0]) - 1.0) > FREQ_REL_TOL:
            problems.append(f"{label}: lowest mode or dnu10 differs from the reference modes")
        omega0 = reference.TWO_PI * 1e3 * _f(row, "omega0_khz")
        pulse = dict(cfg["pulse"], type="trunc_gaussian")
        problems += _theta_problems(label, ref, pulse, omega0, delta_c, balanced=True)
        if not _f(row, "eps_s_max_3khz") < 1e-2:
            problems.append(f"{label}: +-3 kHz sensitivity {row['eps_s_max_3khz']} not below 1e-2")
        if points[n] != 201:
            problems.append(f"{label}: {points[n]} curve points, expected 201")
    return len(lengths), failures, problems


def chain_spacing_problems(inputs: dict) -> list[str]:
    """Centre spacing and positions of msgate's chains against the reference solve."""
    from msgate.chain import build_chain
    from msgate.config import config_from_dict

    problems = []
    spacing = CHAIN_SPACING_UM * 1e-6
    for n in inputs["lengths"]:
        cfg = dict(inputs["config"], n_ions=n, center_spacing_m=spacing,
                   target_pair=list(gate_pair(n)))
        chain = build_chain(config_from_dict(cfg))
        x_ref = reference.length_scale(reference.axial_omega(cfg)) * reference.equilibrium(n)
        i, j = reference.center_pair(n)
        if abs(chain.center_spacing() / spacing - 1.0) > FREQ_REL_TOL \
                or abs((x_ref[j] - x_ref[i]) / spacing - 1.0) > FREQ_REL_TOL \
                or np.abs(chain.positions - x_ref).max() > FREQ_REL_TOL * spacing:
            problems.append(f"chain N={n}: centre spacing or positions differ from the reference")
    return problems


def check_design_batch(result: dict, inputs: dict):
    problems, failures = [], []
    for i, (spec, rec) in enumerate(zip(inputs["designs"], result["records"])):
        if "error" in rec:
            failures.append(rec["error"])
            continue
        cfg = spec["config"]
        label = f"design {i} ({cfg['pulse']['type']}, N={cfg['n_ions']})"
        ref = reference.coupling(cfg)
        balanced = spec["delta0_hz"] is None
        if not balanced:
            expected = ref["radial_b"][0] + reference.TWO_PI * spec["delta0_hz"]
            if abs(rec["delta_c"] / expected - 1.0) > FREQ_REL_TOL:
                problems.append(f"{label}: delta_c is not the requested fixed detuning")
        if abs(rec["theta"] - HALF_PI) > 1e-9:
            problems.append(f"{label}: reported theta {rec['theta']!r} is not +pi/2")
        problems += _theta_problems(label, ref, cfg["pulse"], rec["omega0"], rec["delta_c"],
                                    balanced)
    return len(inputs["designs"]), failures, problems


def check_oracle(result: dict, inputs: dict):
    if "error" in result:
        return 1, [result["error"]], []
    problems = []
    cfg = inputs["config"]
    ref = reference.coupling(cfg)
    problems += _theta_problems("oracle design", ref, cfg["pulse"], result["omega0"],
                                result["delta_c"], balanced=True)
    if not result["overlap"] >= 1.0 - 1e-6:
        problems.append(f"oracle: overlap {result['overlap']:.12f} below 1 - 1e-6")
    if not max(result["leakage"]) <= 1e-8:
        problems.append(f"oracle: leakage {max(result['leakage']):.3e} above 1e-8")
    b_num = np.array(result["phase_numeric"])
    b_an = np.array(result["phase_analytic"])
    if not (np.all(np.sign(b_num) == np.sign(b_an)) and np.allclose(b_num, b_an, rtol=1e-6)):
        problems.append("oracle: numeric and analytic B differ in sign or value")
    deltas = result["delta_c"] - ref["freqs"][result["modes"]] \
        + reference.TWO_PI * inputs["domega_hz"]
    a_ref, b_ref, _ = reference.alpha_and_phase(cfg["pulse"], result["omega0"], deltas)
    a_an = np.array([complex(*a) for a in result["alpha_analytic"]])
    a_num = np.array([complex(*a) for a in result["alpha_numeric"]])
    scale = result["omega0"] * cfg["pulse"]["tau_s"]
    if not np.allclose(b_an, b_ref, rtol=1e-8, atol=0.0):
        problems.append("oracle: analytic B differs from the reference quadrature")
    if np.abs(a_an - a_ref).max() > 1e-9 * scale or np.abs(a_num - a_ref).max() > 1e-6 * scale:
        problems.append("oracle: alpha differs from the reference quadrature")
    return 1, [], problems
