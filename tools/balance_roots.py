"""The balance roots of one msgate checkout, and the comparison of two.

    python3 tools/balance_roots.py SRC OUT.json
    python3 tools/balance_roots.py OLD.json NEW.json

The first form imports msgate from SRC (the directory holding msgate/) and
writes the balance root of 198 designs, all on configs/three_ion.json:
the 100 widths of the default ``contour``, the ``chain-study`` chains
N = 2..33 at 3, 4.5 and 6 um, and the balanced spline and square pulses.
Each record holds the root in Hz (or the exception type and message), the
kernel calls the solve made, the Newton step |theta'/theta''| at the root in
Hz, and whether theta' changes sign across root +-100 Hz. Every solve runs
at the pulse's unit peak Rabi rate, as ``design_gate`` does, so the roots
are the designs' roots. ``make_pulse(...).unit_rate`` is that pulse in
every checkout, including those whose ``make_pulse`` took its rate from
the config, and the tool uses only names that checkouts from before the
unit-rate design also have, so it runs on them too. The solve gets the
config's ``quad_rel`` by keyword and no root tolerance: checkouts whose
``solve_balance`` still took one default it to the shipped config's 1 Hz.

The second form prints, per group, the largest |root change|, the largest
Newton step and the kernel calls of each file. It lists every design that
raises in one file but not the other, or raises another type or message, and
every root across which theta' keeps its sign.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "three_ion.json"


def _designs(base, default_target_pair):
    """(group, label, config) of every design in the set."""
    for z in np.linspace(5e-6, 60e-6, 100):
        yield "contour", f"z={z * 1e6:.4f}us", replace(base, pulse=replace(base.pulse, z_s=float(z)))
    for dx0_um in (3.0, 4.5, 6.0):
        for n in range(2, 34):
            cfg = replace(base, n_ions=n, center_spacing_m=dx0_um * 1e-6, axial_freq_hz=None,
                          target_pair=default_target_pair(n))
            yield f"chain {dx0_um:g}um", f"N={n}", cfg
    for pulse_type in ("spline_gaussian", "square"):
        yield pulse_type, "three_ion", replace(base, pulse=replace(base.pulse, type=pulse_type))


def write_roots(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from msgate.chain import build_chain
    from msgate.config import default_target_pair, hz_to_angular, load_config
    from msgate.design import solve_balance
    from msgate.modes import build_coupling
    from msgate.pulses import make_pulse
    from msgate.trajectory import TrajectoryEngine, gate_integrals

    kernel = TrajectoryEngine.alpha_and_phase_many
    calls = [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return kernel(self, *args, **kwargs)

    records = []
    for group, label, cfg in _designs(load_config(CONFIG), default_target_pair):
        record = {"group": group, "label": label}
        try:
            coupling = build_coupling(cfg, build_chain(cfg))
            pulse = make_pulse(cfg.pulse).unit_rate
            calls[0] = 0
            TrajectoryEngine.alpha_and_phase_many = counted
            try:
                root = solve_balance(coupling, pulse, quad_rel=cfg.tol.quad_rel)
            finally:
                TrajectoryEngine.alpha_and_phase_many = kernel
        except Exception as exc:  # every failure is recorded by type
            records.append(dict(record, error=type(exc).__name__, message=str(exc)))
            continue
        record.update(root_hz=root / (2.0 * np.pi), kernel_calls=calls[0])
        deltas = root - coupling.freqs
        h = hz_to_angular(100.0)
        _, _, slopes, curvatures = gate_integrals(
            pulse, deltas, shifts=np.array([0.0, -h, h]), alpha=False, derivatives=2,
            quad_rel=cfg.tol.quad_rel,
        )
        slope, below, above = slopes @ coupling.eta_products
        curvature = curvatures[0] @ coupling.eta_products
        record["newton_step_hz"] = abs(slope / curvature) / (2.0 * np.pi)
        record["sign_change_100hz"] = bool(below * above < 0.0)
        records.append(record)
    Path(out).write_text(json.dumps({"src": str(src), "designs": records}, indent=1) + "\n")


def compare(old_path: str, new_path: str) -> None:
    old = json.loads(Path(old_path).read_text())["designs"]
    new = json.loads(Path(new_path).read_text())["designs"]
    if [(r["group"], r["label"]) for r in old] != [(r["group"], r["label"]) for r in new]:
        raise SystemExit("the two files hold different design sets")
    groups = dict.fromkeys(r["group"] for r in old)
    print(f"{'group':<16}{'max |d root| Hz':>17}{'max step Hz (old, new)':>28}"
          f"{'kernel calls (old, new)':>26}")
    for group in groups:
        pairs = [(a, b) for a, b in zip(old, new) if a["group"] == group]
        both = [(a, b) for a, b in pairs if "root_hz" in a and "root_hz" in b]
        shift = max((abs(b["root_hz"] - a["root_hz"]) for a, b in both), default=float("nan"))
        steps = [max((r["newton_step_hz"] for r in side if "root_hz" in r), default=float("nan"))
                 for side in zip(*pairs)]
        work = [sum(r.get("kernel_calls", 0) for r in side) for side in zip(*pairs)]
        print(f"{group:<16}{shift:>17.3g}{steps[0]:>14.3g}{steps[1]:>14.3g}{work[0]:>13d}{work[1]:>13d}")
    mismatched = [(a, b) for a, b in zip(old, new)
                  if (a.get("error"), a.get("message")) != (b.get("error"), b.get("message"))]
    for a, b in mismatched:
        print(f"error mismatch: {a['group']} {a['label']}: "
              f"{a.get('error', 'root')} {a.get('message', '')!r} -> {b.get('error', 'root')} {b.get('message', '')!r}")
    for name, side in (("old", old), ("new", new)):
        flat = [f"{r['group']} {r['label']}" for r in side
                if "root_hz" in r and not r["sign_change_100hz"]]
        print(f"{name}: theta' keeps its sign across root +-100 Hz at {flat or 'no design'}")
    errors = sum("error" in r for r in new)
    print(f"{errors} designs raise in both files" if not mismatched else f"{len(mismatched)} error mismatches")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if Path(argv[0]).is_dir():
        write_roots(*argv)
    else:
        compare(*argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
