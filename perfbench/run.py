"""msgate benchmark: one workload, end-to-end timings or a traced per-layer run.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/msgate`` and
``configs/three_ion.json``); it writes only under ``perfbench/out``. Each
pass of the workload runs in a fresh interpreter (child.py), so a pass pays
what a CLI user pays. Passes repeat until ``--seconds`` have gone by; every
pass attempts the same operations. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md for the metrics and what each should move.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread per process, so 2 pool workers use 2 cores; set
# before numpy is imported here and inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import layer_metrics, read_spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = os.path.abspath("src")
OUT = os.path.join(HERE, "out")
WORKERS = {"contour": 2, "chain-study": 1, "design-batch": 1, "oracle": 1}
SETUP_SAMPLES = 3  # before the passes; one more follows each pass
TIME_LIMIT = 170.0  # s; every child is killed past this point of the run


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: a child crashed or ran out of time."""


def run_child(args, started: float) -> dict:
    """Run child.py in a fresh interpreter; wall, CPU (with pool workers) and peak RSS."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, *args], env=env, stdout=sys.stderr)
    killer = threading.Timer(max(1.0, TIME_LIMIT - (t0 - started)), proc.kill)
    killer.start()
    try:
        # wait4 reports the child's own usage plus that of the pool workers it reaped
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {args[:1]} exited with {proc.returncode}")
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def child_args(workload: str, inp: dict, prefix: str, workers: int, traced: bool, extra=()):
    flag = "1" if traced else "0"
    if workload == "contour":
        return ["cli", prefix, flag, "contour", "--config", inp["config_path"],
                "--workers", str(workers), "--out", prefix + ".csv", *extra]
    if workload == "chain-study":
        return ["cli", prefix, flag, "chain-study", "--config", inp["config_path"],
                "--n", ",".join(str(n) for n in inp["lengths"]),
                "--dx0-um", repr(inputs.CHAIN_SPACING_UM), "--workers", str(workers),
                "--out", prefix + ".csv", "--curves-out", prefix + ".curves.csv"]
    mode = "batch" if workload == "design-batch" else "oracle"
    return [mode, prefix, flag, inp["inputs_path"]]


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def outputs_of(workload: str, prefix: str) -> str:
    if workload == "contour":
        return _read(prefix + ".csv")
    if workload == "chain-study":
        return _read(prefix + ".csv") + _read(prefix + ".curves.csv")
    return _read(prefix + ".json")


def run_pass(workload, inp, prefix, workers, traced, started) -> dict:
    record = run_child(child_args(workload, inp, prefix, workers, traced), started)
    record["outputs"] = outputs_of(workload, prefix)
    if traced:
        record["layers"] = layer_metrics(*read_spans(prefix + ".jsonl"))
    else:
        with open(prefix + ".lat", "rb") as fh:
            record["latencies"] = array.array("d", fh.read()).tolist()
        if not record["latencies"]:
            raise BenchmarkError("no design_gate latency was recorded in this pass")
    return record


def check_outputs(workload: str, inp: dict, prefix: str, started: float):
    """Check one pass's outputs; returns (attempted, failure types, problems)."""
    if workload == "contour":
        attempted, failures, problems = checks.check_contour(_read(prefix + ".csv"), inp)
        # sweeps.py promises identical CSV bytes for any worker count
        texts = []
        for workers in (1, 2):
            tag = f"{prefix}-reduced-w{workers}"
            run_child(child_args(workload, inp, tag, workers, False, inp["reduced"]), started)
            texts.append(_read(tag + ".csv"))
        if texts[0] != texts[1]:
            problems.append("contour CSV differs between 1 and 2 workers on the reduced grid")
        return attempted, failures, problems
    if workload == "chain-study":
        sys.path.insert(0, SRC)
        found = checks.check_chain_study(_read(prefix + ".csv"), _read(prefix + ".curves.csv"), inp)
        return found[0], found[1], found[2] + checks.chain_spacing_problems(inp)
    result = json.loads(_read(prefix + ".json"))
    if workload == "design-batch":
        return checks.check_design_batch(result, inp)
    return checks.check_oracle(result, inp)


def median(values) -> float:
    return float(np.median(values))


def machine_info() -> dict:
    commit = "unknown"
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit}


def measure(workload, inp, outdir, seconds, traced, started):
    """Run rounds until ``seconds`` have gone by; returns (passes, metrics).

    An untraced round is one pass plus one set-up sample. A traced round is
    an untraced pass, an untraced pass on 1 worker (when the workload runs
    more) and a traced pass on 1 worker.
    """
    workers = WORKERS[workload]
    setup_cfg = inp.get("config_path", inputs.BASE_CONFIG)
    setup = []
    if not traced:
        run_child(["setup", setup_cfg], started)  # compiles bytecode once, untimed
        setup = [run_child(["setup", setup_cfg], started)["wall"] for _ in range(SETUP_SAMPLES)]
    passes, rounds = [], []
    t0 = time.perf_counter()
    round_time = 0.0
    # start a round only if it should end within ``seconds``
    while not rounds or time.perf_counter() - t0 + round_time < seconds:
        round_start = time.perf_counter()
        prefix = os.path.join(outdir, f"pass{len(rounds)}")
        done = {"untraced": run_pass(workload, inp, prefix, workers, False, started)}
        if not traced:
            # the set-up samples taken between passes spread over the run
            setup.append(run_child(["setup", setup_cfg], started)["wall"])
            done["single"] = done["untraced"]
        else:
            done["single"] = (run_pass(workload, inp, prefix + "-w1", 1, False, started)
                              if workers > 1 else done["untraced"])
            done["traced"] = run_pass(workload, inp, prefix + "-traced", 1, True, started)
        passes.extend({id(p): p for p in done.values()}.values())
        rounds.append(done)
        round_time = time.perf_counter() - round_start

    def wall(kind):
        return median([r[kind]["wall"] for r in rounds])

    if traced:
        metrics = {key: median([r["traced"]["layers"][key] for r in rounds])
                   for key in rounds[0]["traced"]["layers"]}
        metrics["sweeps.pool_speedup"] = wall("single") / wall("untraced") if workers > 1 else 0.0
        metrics["trace.overhead_s"] = wall("traced") - wall("single")
        return passes, metrics
    latencies = 1e3 * np.array([x for p in passes for x in p["latencies"]])
    return passes, {
        "setup_s": median(setup),
        "wall_s": wall("untraced"),
        "cpu_s": median([p["cpu"] for p in passes]),
        "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        "design_p50_ms": float(np.percentile(latencies, 50)),
        "design_p90_ms": float(np.percentile(latencies, 90)),
        "designs_timed": int(latencies.size),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    for needed in (os.path.join(SRC, "msgate", "__init__.py"), inputs.BASE_CONFIG, "BENCHMARK.json"):
        if not os.path.exists(needed):
            print(f"error: {needed} not found; run from the root of an msgate checkout",
                  file=sys.stderr)
            return 2

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    inp = inputs.make(args.workload, args.seed, outdir)
    try:
        passes, metrics = measure(args.workload, inp, outdir, args.seconds, bool(args.trace),
                                  started)
        attempted, failures, problems = check_outputs(
            args.workload, inp, os.path.join(outdir, "pass0"), started)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if any(p["outputs"] != passes[0]["outputs"] for p in passes):
        problems.append("passes over the same inputs produced different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    info = dict(machine_info(), workload=args.workload, seed=args.seed, trace=args.trace,
                passes=len(passes), pass_walls=[round(p["wall"], 4) for p in passes],
                **{k: metrics[k] for k in ("design_p50_ms", "design_p90_ms", "designs_timed")
                   if k in metrics},
                failures=dict(Counter(failures)), problems=len(problems))
    result = {
        "correct": not problems,
        "attempted": attempted * len(passes),
        "failed": len(failures) * len(passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
