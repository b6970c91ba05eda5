"""Command-line driver for gate design and the numerical studies.

Subcommands: design, sweep-detuning, contour, chain-study, parity,
oracle. All take --config pointing at a JSON system description and write
to --out (default stdout). contour and chain-study also accept --workers
to spread their grid over a process pool. Domain failures (no balance
bracket, unstable or degenerate modes, a drive on resonance, too small a
Fock cutoff) print ``error: ...`` and exit with status 1. Malformed
arguments (a grid size below 1, a chain-study grid without -10 and +10 kHz),
an unreadable config and an oracle scope the chain or the integrator cannot
take exit with status 2 before any design work.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, angular_to_hz, hz_to_angular, load_config
from .design import design_gate
from .oracle import CutoffError, OracleSpec, run_oracle, run_oracle_to_tolerance
from .sweeps import DOMAIN_ERRORS, chain_grid, chain_study, contour, parity_study, sweep_detuning


def _add_common(parser, workers: bool = False):
    parser.add_argument("--config", required=True, help="path to the JSON system config")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if workers:
        parser.add_argument("--workers", type=_int_at_least(1), default=1, help="parallel grid workers")


def _emit(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _int_list(text: str) -> list[int]:
    """argparse type: comma list of integers and inclusive ranges, e.g. ``2-5,8``."""
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part and not part.startswith("-"):
                lo, hi = part.split("-")
                span = range(int(lo), int(hi) + 1)
            else:
                span = [int(part)]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not an integer or a range like 2-33") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty range {part!r}")
        out.extend(span)
    return out


def _int_at_least(lowest: int):
    """argparse type: an integer of at least ``lowest``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


def _mode_list(text: str) -> tuple[int, ...]:
    """argparse type: distinct non-negative mode indices."""
    modes = _int_list(text)
    if min(modes) < 0 or len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(f"mode indices must be distinct and non-negative, got {text!r}")
    return tuple(modes)


def _float_list(text: str) -> list[float]:
    """argparse type: comma list of numbers."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}") from None


def _oracle_spec(args, config) -> OracleSpec:
    """The oracle's scope in radial-b mode indices, checked before any design work."""
    missing = [k for k in args.modes if k >= config.n_ions]
    if missing:
        raise ValueError(f"no radial-b mode {missing} in a {config.n_ions}-ion chain")
    steps = OracleSpec.n_steps if args.steps is None else args.steps
    return OracleSpec(mode_indices=args.modes, n_max=args.nmax, n_steps=steps)


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
    p.add_argument("--steps", type=_int_at_least(1), default=601)
    p.add_argument("--unbalanced-delta0-khz", type=float, default=-40.0)

    p = sub.add_parser("contour", help="eps_s over the (Gaussian width, frequency error) plane")
    _add_common(p, workers=True)
    p.add_argument("--z-min-us", type=float, default=5.0)
    p.add_argument("--z-max-us", type=float, default=60.0)
    p.add_argument("--z-steps", type=_int_at_least(1), default=100)
    p.add_argument("--domega-khz", type=float, default=10.0, help="half range of the error axis")
    p.add_argument("--domega-steps", type=_int_at_least(1), default=100)

    p = sub.add_parser("chain-study", help="designs and robustness across chain lengths")
    _add_common(p, workers=True)
    p.add_argument("--n", type=_int_list, default="2-33", help="chain lengths, e.g. 2-33 or 2,3,5")
    p.add_argument(
        "--dx0-um", type=_float_list, default="3.0", help="comma list of centre spacings in um"
    )
    p.add_argument("--domega-khz", type=float, default=10.0)
    p.add_argument("--domega-step-hz", type=float, default=100.0)
    p.add_argument("--curves-out", default=None, help="also write the per-N error curves here")

    p = sub.add_parser("parity", help="simulated parity scan of the designed gate")
    _add_common(p)
    p.add_argument("--phi-steps", type=_int_at_least(8), default=64)
    p.add_argument("--domega-khz", type=float, default=0.0)
    p.add_argument("--delta0-khz", type=float, default=None)

    p = sub.add_parser("oracle", help="integrate the truncated-Fock model and compare")
    _add_common(p)
    p.add_argument(
        "--modes", type=_mode_list, default="0,1", help="radial-b mode indices to keep (at most 3)"
    )
    p.add_argument("--nmax", type=int, default=15)
    p.add_argument(
        "--steps",
        type=int,
        default=None,
        help="fixed RK4 step count (default: doubled from 1,000 up to 200,000 until the "
        "step-doubling estimate of alpha and B is at most 1e-10)",
    )
    p.add_argument("--domega-khz", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except (ConfigError, OSError) as exc:
        return _fail(exc, 2)
    try:
        if args.command == "oracle":
            spec = _oracle_spec(args, config)
        elif args.command == "chain-study":
            chain_grid(args.domega_khz * 1e3, args.domega_step_hz)
    except ValueError as exc:
        return _fail(exc, 2)

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
                dx0_list_m=[x * 1e-6 for x in args.dx0_um],
                n_list=args.n,
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
            flat = tuple(design.coupling.flat_index("radial_b", k) for k in spec.mode_indices)
            run = run_oracle if args.steps is not None else run_oracle_to_tolerance
            report = run(
                design.coupling,
                design.pulse,
                design.delta_c,
                replace(spec, mode_indices=flat),
                domega=hz_to_angular(args.domega_khz * 1e3),
                quad_rel=design.quad_rel,
            )
            lines = [
                f"design delta0 = {angular_to_hz(design.delta0) / 1e3:.6g} kHz",
                *report.summary_lines(),
            ]
            _emit("\n".join(lines) + "\n", args.out)
    except DOMAIN_ERRORS + (CutoffError,) as exc:
        return _fail(exc, 1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
