"""One pass of a benchmark workload, run by run.py in a fresh interpreter.

    child.py setup <config.json>
    child.py cli    <out prefix> <trace 0|1> <msgate CLI arguments...>
    child.py batch  <out prefix> <trace 0|1> <inputs.json>
    child.py oracle <out prefix> <trace 0|1> <inputs.json>

``setup`` imports msgate and loads a config, nothing else. The other modes
run one pass and write their outputs next to ``<out prefix>``:

- untraced, ``<prefix>.lat`` holds the latency of every successful
  ``design_gate`` call as native doubles. The timer is installed where
  ``design_gate`` is looked up and is inherited by forked pool workers,
  which append to the same file;
- traced, ``<prefix>.jsonl`` holds the spans (see tracer.py);
- ``batch`` and ``oracle`` write their results to ``<prefix>.json``; the
  CLI modes write CSV through the CLI's own ``--out``.
"""

import json
import os
import struct
import sys
import time


def install_latency_probe(path):
    import msgate.cli
    import msgate.design
    import msgate.sweeps

    # open for the life of the pass; O_APPEND keeps the workers' records whole
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
    original = msgate.design.design_gate

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        os.write(fd, struct.pack("d", time.perf_counter() - start))
        return result

    for module in (msgate.design, msgate.sweeps, msgate.cli):
        module.design_gate = timed


def run_batch(inputs):
    import msgate.design
    from msgate.config import config_from_dict, hz_to_angular

    records = []
    for spec in inputs["designs"]:
        cfg = config_from_dict(spec["config"])
        override = None if spec["delta0_hz"] is None else hz_to_angular(spec["delta0_hz"])
        try:
            design = msgate.design.design_gate(cfg, delta0_override=override)
        except Exception as exc:  # counted by type; the batch goes on
            records.append({"error": type(exc).__name__, "message": str(exc)})
            continue
        records.append({
            "delta_c": design.delta_c,
            "omega0": design.pulse.omega0,
            "theta": design.theta,
        })
    return {"records": records}


def run_oracle(inputs):
    import msgate.design
    import msgate.oracle
    from msgate.config import hz_to_angular, load_config

    design = msgate.design.design_gate(load_config(inputs["config"]))
    flat = tuple(design.coupling.flat_index("radial_b", k) for k in inputs["modes"])
    spec = msgate.oracle.OracleSpec(flat, inputs["n_max"], inputs["n_steps"])
    out = {"delta_c": design.delta_c, "omega0": design.pulse.omega0, "modes": list(flat)}
    try:
        rep = msgate.oracle.run_oracle(
            design.coupling, design.pulse, design.delta_c, spec, hz_to_angular(inputs["domega_hz"])
        )
    except Exception as exc:  # counted by type
        out["error"] = type(exc).__name__
        out["message"] = str(exc)
        return out
    out.update(
        overlap=rep.overlap,
        norm_drift=rep.norm_drift,
        leakage=rep.leakage.tolist(),
        alpha_analytic=[[a.real, a.imag] for a in rep.alpha_analytic],
        alpha_numeric=[[a.real, a.imag] for a in rep.alpha_numeric],
        phase_analytic=rep.phase_analytic.tolist(),
        phase_numeric=rep.phase_numeric.tolist(),
    )
    return out


def main(argv):
    mode = argv[1]
    if mode == "setup":
        import msgate

        msgate.load_config(argv[2])
        return 0
    prefix, traced, rest = argv[2], argv[3] == "1", argv[4:]
    import msgate.trajectory

    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        before = msgate.trajectory.engine_for.cache_info()
    else:
        install_latency_probe(prefix + ".lat")
    code = 0
    if mode == "cli":
        import msgate.cli

        code = msgate.cli.main(rest)
    else:
        with open(rest[0], encoding="utf-8") as fh:
            inputs = json.load(fh)
        result = run_batch(inputs) if mode == "batch" else run_oracle(inputs)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    if traced:
        after = msgate.trajectory.engine_for.cache_info()
        tracer.write(prefix + ".jsonl", {"engine_hits": after.hits - before.hits,
                                         "engine_misses": after.misses - before.misses})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
