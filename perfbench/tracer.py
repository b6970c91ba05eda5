"""Spans around calls into msgate's layers, recorded from outside the program.

``Tracer.install`` replaces public functions in the namespaces where they
are looked up at call time (``msgate.design.phase_and_derivative``,
``msgate.modes.jacobi_eigh``, ...) with wrappers that record one span per
call: name, start, end, parent span and a work count (detunings, grid
points, steps, evaluations, tasks or bytes, depending on the layer). Spans
stay in memory and are written as JSONL when the pass ends.

``layer_metrics`` turns one pass's spans into the per-layer metrics. Every
``*_s`` metric is a self time: a span's duration minus the time its child
spans cover, so the self times of all spans add up to the traced time.

Only the process that installed the wrappers is traced; spans from pool
workers are not collected, which is why ``contour`` is traced on one worker.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _counted(func, counter):
    def wrapped(*args, **kwargs):
        counter[0] += 1
        return func(*args, **kwargs)

    return wrapped


# (span name, [(module, attribute), ...], work count taken from (args, kwargs, result))
# A function imported by name into several modules is wrapped in each of
# them with the same wrapper, so every call is recorded exactly once.
TARGETS = [
    ("trajectory.kernel", [("msgate.trajectory", "TrajectoryEngine.alpha_and_phase_many")],
     lambda a, k, r: r[1].size),
    ("trajectory.dtheta", [("msgate.design", "phase_and_derivative")], None),
    ("design.balance", [("msgate.design", "solve_balance")], None),
    ("design.calibrate", [("msgate.design", "calibrate_omega0")], None),
    ("design.design", [("msgate.design", "design_gate"), ("msgate.sweeps", "design_gate"),
                       ("msgate.cli", "design_gate")], None),
    ("design.curve", [("msgate.design", "breakdown_curve"), ("msgate.sweeps", "breakdown_curve")],
     lambda a, k, r: r.domegas.size),
    ("design.sensitivity", [("msgate.design", "sensitivity"), ("msgate.sweeps", "sensitivity")],
     None),
    ("errors", [("msgate.design", name) for name in (
        "error_breakdown", "displacement_error", "rotation_error", "exact_fidelity",
        "spin_eigensystem")]
     + [("msgate.sweeps", name) for name in (
         "exact_fidelity", "spin_eigensystem", "reduced_density_matrix", "parity_scan")], None),
    ("chain", [("msgate.design", "build_chain"), ("msgate.chain", "build_chain"),
               ("msgate.chain", "axial_freq_for_center_spacing")], None),
    ("modes", [("msgate.design", "build_coupling")], None),
    ("modes.eigh", [("msgate.modes", "jacobi_eigh")], None),
    ("sweeps.driver", [("msgate.sweeps", "contour"), ("msgate.sweeps", "chain_study"),
                       ("msgate.cli", "contour"), ("msgate.cli", "chain_study")], None),
    ("sweeps.pool", [("msgate.sweeps", "_run_tasks")], lambda a, k, r: len(a[1])),
    ("sweeps.csv", [("msgate.sweeps", "SweepResult.to_csv")], lambda a, k, r: len(r.encode())),
    ("oracle", [("msgate.oracle", "run_oracle")], lambda a, k, r: a[3].n_steps),
]

# root finders: the work count is the number of function evaluations
EVAL_TARGETS = [
    ("numerics.brent", [("msgate.design", "brent")]),
    ("numerics.golden", [("msgate.design", "golden_section_min")]),
]


class Tracer:
    """Records spans (name, start, end, parent, work count, error) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _span(self, name, func, work=None, evals=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0, ""]
            stack.append(len(spans))
            spans.append(record)
            counter = [0]
            if evals:
                args = (_counted(args[0], counter),) + args[1:]
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = counter[0] if evals else (work(args, kwargs, result) if work else 0)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists in the imported program."""
        plans = [(name, places, work, False) for name, places, work in TARGETS]
        plans += [(name, places, None, True) for name, places in EVAL_TARGETS]
        # import every module first: one imported later would pick up an
        # already wrapped function by name and get wrapped twice
        for _, places, _, _ in plans:
            for module_name, _ in places:
                importlib.import_module(module_name)
        for name, places, work, evals in plans:
            wrappers = {}
            for module_name, path in places:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._span(name, original, work, evals)
                setattr(owner, attr, wrappers[id(original)])

    def write(self, path, extra: dict) -> None:
        """Spans as JSONL, one object per line, then one line of extra counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, work, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "n": work, "error": error}) + "\n")
            fh.write(json.dumps({"counters": extra}) + "\n")


def read_spans(path):
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "counters" in row:
                counters = row["counters"]
            else:
                spans.append(row)
    return spans, counters


def _has_ancestor(spans, span, name) -> bool:
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans, counters) -> dict:
    """Per-layer counts and self times (s) of one traced pass."""
    self_time = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_time[s["parent"]] -= s["end"] - s["start"]
    calls = defaultdict(int)
    work = defaultdict(int)
    secs = defaultdict(float)
    failed = defaultdict(int)
    for s, own in zip(spans, self_time):
        calls[s["name"]] += 1
        work[s["name"]] += s["n"]
        secs[s["name"]] += own
        failed[s["name"]] += bool(s["error"])
    sens_points = sum(s["n"] for s in spans
                      if s["name"] == "design.curve" and _has_ancestor(spans, s, "design.sensitivity"))
    sens_kernel = sum(1 for s in spans
                      if s["name"] == "trajectory.kernel"
                      and _has_ancestor(spans, s, "design.sensitivity"))
    hits, misses = counters["engine_hits"], counters["engine_misses"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "trajectory.kernel_calls": calls["trajectory.kernel"],
        "trajectory.kernel_detunings": work["trajectory.kernel"],
        "trajectory.kernel_s": secs["trajectory.kernel"],
        "trajectory.kernel_us_per_detuning": 1e6 * ratio(secs["trajectory.kernel"],
                                                         work["trajectory.kernel"]),
        "trajectory.engines_built": misses,
        "trajectory.engine_hit_ratio": ratio(hits, hits + misses),
        "trajectory.dtheta_calls": calls["trajectory.dtheta"],
        "trajectory.dtheta_s": secs["trajectory.dtheta"],
        "design.balance_calls": calls["design.balance"],
        "design.balance_s": secs["design.balance"],
        "design.balance_failed": failed["design.balance"],
        "numerics.brent_calls": calls["numerics.brent"],
        "numerics.brent_evals": work["numerics.brent"],
        "design.calibrate_calls": calls["design.calibrate"],
        "design.calibrate_s": secs["design.calibrate"],
        "design.calls": calls["design.design"],
        "design.s": secs["design.design"],
        "design.curve_calls": calls["design.curve"],
        "design.curve_points": work["design.curve"],
        "design.curve_s": secs["design.curve"],
        "design.curve_us_per_point": 1e6 * ratio(secs["design.curve"], work["design.curve"]),
        "errors.calls": calls["errors"],
        "errors.s": secs["errors"],
        "design.sensitivity_calls": calls["design.sensitivity"],
        "design.sensitivity_s": secs["design.sensitivity"],
        "numerics.golden_evals": work["numerics.golden"],
        "design.sensitivity_points_per_kernel_call": ratio(sens_points, sens_kernel),
        "chain.calls": calls["chain"],
        "chain.s": secs["chain"],
        "modes.calls": calls["modes"],
        "modes.s": secs["modes"],
        "modes.eigh_calls": calls["modes.eigh"],
        "modes.eigh_s": secs["modes.eigh"],
        "sweeps.tasks": work["sweeps.pool"],
        "sweeps.s": secs["sweeps.driver"] + secs["sweeps.pool"],
        "sweeps.csv_s": secs["sweeps.csv"],
        "sweeps.csv_bytes": work["sweeps.csv"],
        "oracle.steps": work["oracle"],
        "oracle.s": secs["oracle"],
        "oracle.us_per_step": 1e6 * ratio(secs["oracle"], work["oracle"]),
    }
