"""The quadrature panel counts of one msgate checkout, and the comparison of two.

    python3 tools/panel_counts.py SRC OUT.json
    python3 tools/panel_counts.py OLD.json NEW.json

The first form imports msgate from SRC (the directory holding msgate/),
wraps ``TrajectoryEngine.resolution`` and runs ``design_gate`` over two
design sets: the 198 designs of ``tools/balance_roots.py`` and the
``design-batch`` draws of benchmark seeds 1-10 (``perfbench/inputs.py``,
read only). Every resolution call is recorded under its key (pulse family,
tau, z, n_knots, quad_rel, bandwidth bucket) with the panel count it got;
a key that got two counts in one run is kept as a list. Designs that raise
are counted by exception type. The tool uses only names that checkouts
from before the a priori panel bound also have, so it runs on them too.

The second form lists every key whose panel count differs between the two
files, and every key found in only one of them, and exits 1 if there is
any such key.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 11)


def _key(pulse, bucket: int, quad_rel: float) -> str:
    return json.dumps([type(pulse).__name__, pulse.tau, getattr(pulse, "z", None),
                       getattr(pulse, "n_knots", None), quad_rel, bucket])


def _design_sets():
    """(config, delta0 override in rad/s or None) of every design in both sets."""
    sys.path.insert(0, str(ROOT / "tools"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from balance_roots import CONFIG, _designs
    from msgate.config import config_from_dict, default_target_pair, hz_to_angular, load_config

    for _, _, cfg in _designs(load_config(CONFIG), default_target_pair):
        yield cfg, None
    inputs.BASE_CONFIG = str(CONFIG)
    with tempfile.TemporaryDirectory() as outdir:
        for seed in SEEDS:
            for spec in inputs.make("design-batch", seed, outdir)["designs"]:
                delta0 = None if spec["delta0_hz"] is None else hz_to_angular(spec["delta0_hz"])
                yield config_from_dict(spec["config"]), delta0


def panel_counts(designs) -> dict:
    """{"counts": key -> panels (a list if one key got several), "calls": n,
    "errors": {type: n}} over ``design_gate`` of each (config, delta0)."""
    from msgate.design import design_gate
    from msgate.trajectory import TrajectoryEngine, _bucket

    resolution = TrajectoryEngine.resolution
    seen: dict[str, set] = {}
    calls = [0]

    def recorded(self, deltas, shifts=None, *args, **kwargs):
        panels, estimate = resolution(self, deltas, shifts, *args, **kwargs)
        quad_rel = args[0] if args else kwargs.get("quad_rel", resolution.__defaults__[-1])
        deltas = np.asarray(deltas, dtype=float).ravel()
        shifts = None if shifts is None else np.asarray(shifts, dtype=float).ravel()
        key = _key(self.pulse, _bucket(deltas, shifts, self.pulse.tau), quad_rel)
        seen.setdefault(key, set()).add(panels)
        calls[0] += 1
        return panels, estimate

    errors: Counter = Counter()
    TrajectoryEngine.resolution = recorded
    try:
        for cfg, delta0 in designs:
            try:
                design_gate(cfg, delta0_override=delta0)
            except Exception as exc:  # every failure is counted by type
                errors[type(exc).__name__] += 1
    finally:
        TrajectoryEngine.resolution = resolution
    counts = {k: min(v) if len(v) == 1 else sorted(v) for k, v in sorted(seen.items())}
    return {"counts": counts, "calls": calls[0], "errors": dict(sorted(errors.items()))}


def write_counts(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    record = panel_counts(_design_sets())
    Path(out).write_text(json.dumps(dict(record, src=str(src)), indent=1) + "\n")
    print(f"{record['calls']} resolution calls, {len(record['counts'])} keys, errors {record['errors']}")


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    print(f"resolution calls: {old['calls']} -> {new['calls']}; errors {old['errors']} -> {new['errors']}")
    changed = 0
    for key in sorted(old["counts"].keys() | new["counts"].keys()):
        a, b = old["counts"].get(key, "absent"), new["counts"].get(key, "absent")
        if a != b:
            changed += 1
            print(f"changed: {key}: {a} -> {b}")
    print(f"{changed} of {len(old['counts'] | new['counts'])} keys changed")
    return 1 if changed else 0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if Path(argv[0]).is_dir():
        write_counts(*argv)
        return 0
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
