"""Per-step cost and step convergence of the truncated-Fock oracle.

    python3 tools/oracle_steps.py SRC [SRC2]

SRC (and SRC2) is a checkout's source directory, the one holding msgate/.
Every measurement runs in a fresh interpreter that imports msgate from that
directory, on the reference design of configs/three_ion.json (radial-b
modes 0 and 1, n_max 15, zero frequency error).

- Per-step time: the best of REPEATS calls of ``msgate.oracle._evolve`` at
  STEPS steps, divided by STEPS, in ROUNDS fresh interpreters per tree. With
  two trees the rounds alternate between them, and which tree runs first
  alternates from round to round.
- Convergence table, one per tree: for each step count, the wall time of
  ``run_oracle``, 1 - overlap, and the largest absolute change of the
  numeric B and alpha from the run at half the steps. The last column is
  the step-doubling estimate of the relative error, the larger over alpha
  and B of max |X_n - X_n/2| / (15 max |X_n|).

Only names that older checkouts also have are used, so the tool compares
any two trees that have ``_evolve``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "three_ion.json"
MODES = (0, 1)
N_MAX = 15
STEPS = 20_000
REPEATS = 3
ROUNDS = 6
TABLE_STEPS = (2_500, 5_000, 10_000, 20_000, 40_000)


def _reference():
    from msgate.config import load_config
    from msgate.design import design_gate

    design = design_gate(load_config(CONFIG))
    flat = tuple(design.coupling.flat_index("radial_b", k) for k in MODES)
    return design, flat


def _time_steps() -> dict:
    import numpy as np

    from msgate.oracle import OracleSpec, _evolve, _spin_operators

    design, flat = _reference()
    idx = np.asarray(flat)
    spins = _spin_operators(design.coupling.eta1[idx], design.coupling.eta2[idx])
    deltas = design.delta_c - design.coupling.freqs[idx]
    spec = OracleSpec(flat, N_MAX, STEPS)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _evolve(spins, deltas, design.pulse, spec)
        best = min(best, time.perf_counter() - t0)
    return {"us_per_step": 1e6 * best / STEPS}


def _table() -> dict:
    import numpy as np

    from msgate.oracle import OracleSpec, run_oracle

    design, flat = _reference()
    rows, last = [], None
    for steps in TABLE_STEPS:
        t0 = time.perf_counter()
        rep = run_oracle(design.coupling, design.pulse, design.delta_c, OracleSpec(flat, N_MAX, steps))
        row = {"steps": steps, "s": time.perf_counter() - t0, "infidelity": 1.0 - rep.overlap}
        if last is not None:
            changes = [np.abs(new - old).max() for new, old in
                       ((rep.phase_numeric, last.phase_numeric), (rep.alpha_numeric, last.alpha_numeric))]
            scales = [np.abs(rep.phase_numeric).max(), np.abs(rep.alpha_numeric).max()]
            row.update(dB=changes[0], dalpha=changes[1],
                       estimate=max(c / (15.0 * s) for c, s in zip(changes, scales)))
        rows.append(row)
        last = rep
    return {"rows": rows}


def _child(src: str, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child", mode], check=True, text=True,
                         capture_output=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--child":
        print(json.dumps(_time_steps() if argv[2] == "steps" else _table()))
        return 0
    if not 2 <= len(argv) <= 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [str(Path(src).resolve()) for src in argv[1:]]
    times = {src: [] for src in trees}
    print(f"per-step time of _evolve: modes {MODES}, n_max {N_MAX}, {STEPS} steps, best of {REPEATS}")
    for r in range(ROUNDS):
        order = trees if r % 2 == 0 else trees[::-1]
        for src in order:
            us = _child(src, "steps")["us_per_step"]
            times[src].append(us)
            print(f"round {r + 1}  {src}  {us:.1f} us/step", flush=True)
    for label, src in zip("AB", trees):
        t = times[src]
        print(f"{label} {src}: median {statistics.median(t):.1f} us/step (range {min(t):.1f}-{max(t):.1f})")
    if len(trees) == 2:
        a, b = (times[src] for src in trees)
        lower = sum(y < x for x, y in zip(a, b))
        print(f"B / A = {statistics.median(b) / statistics.median(a):.3f}; B lower in {lower} of {ROUNDS} rounds")
    for label, src in zip("AB", trees):
        print(f"\n{label} convergence: steps | s | 1 - overlap | max |dB| | max |dalpha| | estimate")
        for row in _child(src, "table")["rows"]:
            cells = [f"{row['steps']:>6}", f"{row['s']:.2f}", f"{row['infidelity']:.1e}"]
            if "dB" in row:
                cells += [f"{row['dB']:.1e}", f"{row['dalpha']:.1e}", f"{row['estimate']:.1e}"]
            print(" | ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
