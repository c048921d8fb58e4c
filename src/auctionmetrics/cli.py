"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 estimator failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import fp_estimator, harness, io
from .auction_sim import (
    make_fp_partial_oracle,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
)
from .dist_core import kolmogorov, levy, wasserstein1  # noqa: F401 (metric kinds)
from .errors import EstimationError, ValidationError, check_grid_size


# each estimate command's registry kinds; estimate-fp's --mode picks "fp-<mode>"
_ESTIMATE_COMMANDS = {
    "estimate-fp": (("fp-effective", "fp-full"), "first-price bid-CDF estimation"),
    "estimate-fp-partial": (("fp-partial",), "reserve-probe first-price estimation"),
    "estimate-values": (("fp-value",), "value-CDF estimation from fp samples"),
    "estimate-sp": (("sp",), "second-price fixed-point pipeline"),
    "estimate-sp-partial": (("sp-partial",), "reserve-probe second-price estimation"),
}


def _estimator_keys(kinds):
    """The argument keys of the kinds' registry entries, each once, in order."""
    entries = [harness.ESTIMATORS[kind] for kind in kinds]
    return list(dict.fromkeys(key for e in entries for key in e.required + e.optional))


def _add_estimate_parser(p, kinds):
    """The flags of an estimate command: its input, one number flag per
    argument key of its kinds and ``--out``."""
    if harness.ESTIMATORS[kinds[0]].observes in (io.FORMAT_FP, io.FORMAT_SP):
        p.add_argument("--samples", required=True)
        p.add_argument("--k", type=int, required=True)
    else:
        p.add_argument("--model", required=True)
        p.add_argument("--seed", type=int, default=0)
    if len(kinds) > 1:
        modes = [kind.removeprefix("fp-") for kind in kinds]
        p.add_argument("--mode", choices=modes, default=modes[0])
    required = harness.ESTIMATORS[kinds[0]].required if len(kinds) == 1 else ()
    for key in _estimator_keys(kinds):
        p.add_argument("--" + key, required=key in required, type=float)
    p.add_argument("--out", required=True)


@functools.cache
def build_parser():
    """The CLI's parser, built once per process: every call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="auctionmetrics",
        description="Auction simulation and nonparametric bid/value estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw observation logs from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--format", required=True, choices=[io.FORMAT_FP, io.FORMAT_SP])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate-fp-density", help="forward-difference density")
    p.add_argument("--cdf", required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", required=True)

    for command, (kinds, text) in _ESTIMATE_COMMANDS.items():
        _add_estimate_parser(sub.add_parser(command, help=text), kinds)

    p = sub.add_parser("sweep", help="convergence sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lower-bound", help="hard-instance experiment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--out")

    p = sub.add_parser("metric", help="distance between two stored CDFs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--kind", required=True, choices=harness.METRICS)
    return parser


def _cmd_simulate(args):
    model = io.io_read_model(args.model)
    if args.format == io.FORMAT_FP:
        samples = simulate_fp(model, args.n, args.seed)
    else:
        samples = simulate_sp(model, args.n, args.seed)
    io.io_write_samples(args.out, samples)


def _cmd_estimate_fp_density(args):
    if args.grid < 1:
        raise ValidationError(f"--grid must be at least 1, not {args.grid}")
    check_grid_size(f"--grid {args.grid}", args.grid, 1.0)
    if not 0.0 <= args.p <= 1.0 - args.h:
        raise ValidationError(f"need 0 <= p <= 1 - h for the grid [p, 1 - h], "
                              f"not p = {args.p}, h = {args.h}")
    cdfs = io.io_read_cdfs(args.cdf)
    grid = np.linspace(args.p, 1.0 - args.h, args.grid)
    xs = [io.fmt_float(v) for v in grid]
    out = []
    for F in cdfs:
        density = fp_estimator.estimate_density(F, args.h, grid)
        out.append({"x": xs, "density": [io.fmt_float(v) for v in density]})
    Path(args.out).write_text(json.dumps({"version": 1, "densities": out}, indent=2))


def _cmd_estimate(args):
    """Run the registry entry of the command on files, with every estimator flag given."""
    kinds = _ESTIMATE_COMMANDS[args.command][0]
    kind = "fp-" + args.mode if len(kinds) > 1 else kinds[0]
    given = {key: getattr(args, key) for key in _estimator_keys(kinds)
             if getattr(args, key) is not None}
    entry = harness.check_estimator_args(kind, given)
    if entry.observes in (io.FORMAT_FP, io.FORMAT_SP):
        observation = io.io_read_samples(args.samples, entry.observes, args.k)
    else:
        make = make_fp_partial_oracle if entry.observes == harness.PROBE_FP \
            else make_sp_partial_oracle
        observation = make(io.io_read_model(args.model))
    cdfs, diagnostics = entry.run(observation, given, getattr(args, "seed", 0))
    io.io_write_cdfs(args.out, cdfs, diagnostics)


def _cmd_sweep(args):
    raw = json.loads(io.read_text(args.config))
    report = harness.run_convergence(harness.ExperimentConfig.from_dict(raw))
    Path(args.out).write_text(json.dumps(io._jsonable(report.to_dict()), indent=2))


def _cmd_lower_bound(args):
    result = harness.run_lower_bound_experiment(
        args.k, args.eps, args.lam, args.n, args.trials,
    )
    text = json.dumps(io._jsonable(result), indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)


def _cmd_metric(args):
    a = io.io_read_cdfs(args.a)
    b = io.io_read_cdfs(args.b)
    if len(a) != len(b):
        raise ValidationError("CDF bundles have different lengths")
    # each kind is a distance of this module, looked up by name when called
    distance = globals()[args.kind]
    for i, (fa, fb) in enumerate(zip(a, b), start=1):
        print(f"{i},{io.fmt_float(distance(fa, fb))}")


_COMMANDS = {
    "simulate": _cmd_simulate,
    **dict.fromkeys(_ESTIMATE_COMMANDS, _cmd_estimate),
    "estimate-fp-density": _cmd_estimate_fp_density,
    "sweep": _cmd_sweep,
    "lower-bound": _cmd_lower_bound,
    "metric": _cmd_metric,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(json.dumps(io._jsonable(exc.diagnostics)), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
