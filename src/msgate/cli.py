"""Command-line driver for gate design and the numerical studies.

Subcommands: design, sweep-detuning, contour, chain-study, parity,
oracle. All take --config pointing at a JSON system description and write
to --out (default stdout). contour and chain-study also accept --workers
to spread their grid over a process pool. Domain failures (no balance
bracket, unstable or degenerate modes, a drive on resonance, too small a
Fock cutoff) print ``error: ...`` and exit with status 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, angular_to_hz, hz_to_angular, load_config
from .design import design_gate
from .oracle import CutoffError, OracleSpec, run_oracle
from .sweeps import DOMAIN_ERRORS, chain_study, contour, parity_study, sweep_detuning


def _add_common(parser, workers: bool = False):
    parser.add_argument("--config", required=True, help="path to the JSON system config")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if workers:
        parser.add_argument("--workers", type=int, default=1, help="parallel grid workers")


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _int_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part and not part.startswith("-"):
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msgate",
        description="frequency-robust Molmer-Sorensen gate designer and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve the balance point and calibrate the Rabi rate")
    _add_common(p)
    p.add_argument("--pulse", choices=("square", "trunc_gaussian", "spline_gaussian"), default=None)
    p.add_argument(
        "--delta0-khz",
        type=float,
        default=None,
        help="skip the balance solve; fix the detuning this far above the lowest targeted mode",
    )

    p = sub.add_parser("sweep-detuning", help="error metrics vs detuning for three pulse shapes")
    _add_common(p)
    p.add_argument("--min-khz", type=float, default=-60.0)
    p.add_argument("--max-khz", type=float, default=180.0)
    p.add_argument("--steps", type=int, default=601)
    p.add_argument("--unbalanced-delta0-khz", type=float, default=-40.0)

    p = sub.add_parser("contour", help="eps_s over the (Gaussian width, frequency error) plane")
    _add_common(p, workers=True)
    p.add_argument("--z-min-us", type=float, default=5.0)
    p.add_argument("--z-max-us", type=float, default=60.0)
    p.add_argument("--z-steps", type=int, default=100)
    p.add_argument("--domega-khz", type=float, default=10.0, help="half range of the error axis")
    p.add_argument("--domega-steps", type=int, default=100)

    p = sub.add_parser("chain-study", help="designs and robustness across chain lengths")
    _add_common(p, workers=True)
    p.add_argument("--n", default="2-33", help="chain lengths, e.g. 2-33 or 2,3,5")
    p.add_argument("--dx0-um", default="3.0", help="comma list of centre spacings in um")
    p.add_argument("--domega-khz", type=float, default=10.0)
    p.add_argument("--domega-step-hz", type=float, default=100.0)
    p.add_argument("--curves-out", default=None, help="also write the per-N error curves here")

    p = sub.add_parser("parity", help="simulated parity scan of the designed gate")
    _add_common(p)
    p.add_argument("--phi-steps", type=int, default=64)
    p.add_argument("--domega-khz", type=float, default=0.0)
    p.add_argument("--delta0-khz", type=float, default=None)

    p = sub.add_parser("oracle", help="integrate the truncated-Fock model and compare")
    _add_common(p)
    p.add_argument("--modes", default="0,1", help="radial-b mode indices to keep (at most 3)")
    p.add_argument("--nmax", type=int, default=15)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--domega-khz", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "design":
            cfg = config
            if args.pulse is not None:
                cfg = replace(config, pulse=replace(config.pulse, type=args.pulse))
            override = None if args.delta0_khz is None else hz_to_angular(args.delta0_khz * 1e3)
            design = design_gate(cfg, delta0_override=override)
            _emit(design.record_json() + "\n", args.out)
        elif args.command == "sweep-detuning":
            result = sweep_detuning(
                config,
                delta0_min_hz=args.min_khz * 1e3,
                delta0_max_hz=args.max_khz * 1e3,
                steps=args.steps,
                unbalanced_delta0_hz=args.unbalanced_delta0_khz * 1e3,
            )
            _emit(result.to_csv(), args.out)
        elif args.command == "contour":
            result = contour(
                config,
                z_min_s=args.z_min_us * 1e-6,
                z_max_s=args.z_max_us * 1e-6,
                z_steps=args.z_steps,
                domega_half_range_hz=args.domega_khz * 1e3,
                domega_steps=args.domega_steps,
                workers=args.workers,
            )
            _emit(result.to_csv(), args.out)
        elif args.command == "chain-study":
            summary, curves = chain_study(
                config,
                dx0_list_m=[float(x) * 1e-6 for x in args.dx0_um.split(",")],
                n_list=_int_list(args.n),
                domega_half_range_hz=args.domega_khz * 1e3,
                domega_step_hz=args.domega_step_hz,
                workers=args.workers,
            )
            _emit(summary.to_csv(), args.out)
            if args.curves_out:
                curves.write_csv(args.curves_out)
        elif args.command == "parity":
            result = parity_study(
                config,
                phi_steps=args.phi_steps,
                domega_hz=args.domega_khz * 1e3,
                delta0_override_hz=(
                    None if args.delta0_khz is None else args.delta0_khz * 1e3
                ),
            )
            _emit(result.to_csv(), args.out)
        elif args.command == "oracle":
            design = design_gate(config)
            flat = [
                design.coupling.flat_index("radial_b", k) for k in _int_list(args.modes)
            ]
            spec = OracleSpec(mode_indices=tuple(flat), n_max=args.nmax, n_steps=args.steps)
            report = run_oracle(
                design.coupling,
                design.pulse,
                design.delta_c,
                spec,
                domega=hz_to_angular(args.domega_khz * 1e3),
            )
            lines = [
                f"design delta0 = {angular_to_hz(design.delta0) / 1e3:.6g} kHz",
                *report.summary_lines(),
            ]
            _emit("\n".join(lines) + "\n", args.out)
    except DOMAIN_ERRORS + (CutoffError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
