"""Command-line front end: closed-form reports, grid checks, experiments.

Four subcommands, all deterministic under a fixed seed:

* ``sdof M1 M2 N NE`` - exact sum SDoF, case label, and converse bounds.
* ``grid-verify MAX`` - cross-check the closed form against the bound
  minimum and the plan arithmetic over every canonical configuration up
  to ``MAX`` antennas; emits a CSV and a one-line summary.
* ``simulate --config FILE`` - Monte-Carlo power sweep from a JSON
  experiment config; emits a rate-curve CSV and a JSON summary.
* ``binning`` - equivocation trend table for the coset-binning codec.

Exit codes: 0 success/consistent, 1 invalid input (a usage error
included), 2 verification failure.
"""

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

import numpy as np

from . import binning, matlin, precoders, rates, regions
from .model import AntennaConfig, InvalidConfig, canonical, validate

GRID_CSV_HEADER = ["m1", "m2", "n", "ne", "case", "ds_num", "ds_den",
                   "bound1", "bound2", "bound3", "plan_ok"]
SIM_CSV_HEADER = ["p", "rate_rx", "leak_max", "secrecy"]
BINNING_CSV_HEADER = ["n", "seed", "equivocation", "normalized"]

# Upper limits for a simulate config and for binning, so that an
# oversized value is a one-line input error instead of an out-of-memory
# traceback.
MAX_ANTENNAS = 32
MAX_TRIALS = 100_000
MAX_POWERS = 32  # p_grid points; the engine's working set grows with them
MAX_SEEDS = 1000  # binning --num-seeds


class UsageError(Exception):
    """Malformed command line: unknown command, missing or bad argument."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` instead of printing usage and exiting 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _fmt_frac(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fail(msg, code):
    print(msg, file=sys.stderr)
    return code


def _is_number(v):
    """True for a finite int or float; bools are not numbers here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass
class ExperimentConfig:
    """Schema of the ``simulate`` JSON config file (unknown keys rejected).

    Every value is checked on construction; bad values raise
    ``ValueError``.
    """

    m1: int
    m2: int
    n: int
    ne: int
    eve_counts: list
    alpha: float
    p_grid: list
    trials: int
    seed: int
    output_path: str = "experiment"

    def __post_init__(self):
        def check(ok, name, want):
            if not ok:
                raise ValueError(
                    f"{name} must be {want}, got {getattr(self, name)!r}")

        for name in ("m1", "m2", "n", "ne", "trials", "seed"):
            check(type(getattr(self, name)) is int, name, "an integer")
        for name in ("m1", "m2", "n", "ne"):
            check(getattr(self, name) <= MAX_ANTENNAS, name,
                  f"at most {MAX_ANTENNAS}")
        validate(self.antenna_config())
        check(1 <= self.trials <= MAX_TRIALS, "trials",
              f"in [1, {MAX_TRIALS}]")
        check(self.seed >= 0, "seed", "nonnegative")
        check(_is_number(self.alpha) and 0 < self.alpha < 1,
              "alpha", "a number in (0, 1)")
        check(isinstance(self.eve_counts, list) and all(
            type(c) is int and 0 <= c <= self.ne for c in self.eve_counts),
            "eve_counts", f"a list of integers in [0, {self.ne}]")
        check(isinstance(self.p_grid, list) and len(self.p_grid) <= MAX_POWERS
              and all(map(_is_number, self.p_grid)), "p_grid",
              f"a list of at most {MAX_POWERS} numbers")
        rates._check_grid(self.p_grid)
        check(isinstance(self.output_path, str) and "\0" not in self.output_path,
              "output_path", "a string without NUL characters")

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    def antenna_config(self):
        return AntennaConfig(self.m1, self.m2, self.n, self.ne)


def cmd_sdof(args):
    try:
        cfg = AntennaConfig(args.m1, args.m2, args.n, args.ne)
        status = validate(cfg)
    except InvalidConfig as exc:
        return _fail(f"invalid config: {exc}", 1)
    if status == "degenerate":
        print("D_s = 0 (degenerate: N_E >= M)")
        return 0
    cfg = canonical(cfg)
    ds = regions.sum_sdof(cfg)
    case = regions.classify_case(cfg)
    b1, b2, b3 = regions.upper_bound_terms(cfg)
    print(f"D_s = {_fmt_frac(ds)}, case {case.value}, "
          f"bounds ({_fmt_frac(b1)}, {_fmt_frac(b2)}, {_fmt_frac(b3)})")
    return 0


def iter_canonical_configs(max_antennas):
    """All canonical non-degenerate configs with antenna counts <= max."""
    for m1 in range(1, max_antennas + 1):
        for m2 in range(1, m1 + 1):
            for n in range(1, max_antennas + 1):
                for ne in range(m1 + m2):
                    yield AntennaConfig(m1, m2, n, ne)


def grid_rows(max_antennas):
    """CSV rows plus violation messages for the verification grid."""
    rows = []
    violations = []
    for cfg in iter_canonical_configs(max_antennas):
        ds = regions.sum_sdof(cfg)
        case = regions.classify_case(cfg)
        bounds = regions.upper_bound_terms(cfg)
        plan_ok = regions.verify_plan_arithmetic(
            cfg, regions.jamming_plan(cfg))
        key = (cfg.m1, cfg.m2, cfg.n, cfg.ne)
        if ds != min(bounds):
            violations.append(f"{key}: D_s {_fmt_frac(ds)} != min bound "
                              f"{_fmt_frac(min(bounds))}")
        if not plan_ok:
            violations.append(f"{key}: plan arithmetic failed")
        rows.append([cfg.m1, cfg.m2, cfg.n, cfg.ne, case.value,
                     ds.numerator, ds.denominator,
                     _fmt_frac(bounds[0]), _fmt_frac(bounds[1]),
                     _fmt_frac(bounds[2]), plan_ok])
    return rows, violations


def cmd_grid_verify(args):
    if args.max_antennas < 0 or args.max_antennas > 10:
        return _fail("max antennas must be in [0, 10]", 1)
    rows, violations = grid_rows(args.max_antennas)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GRID_CSV_HEADER)
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(buf.getvalue())
        summary_stream = sys.stdout
    else:
        sys.stdout.write(buf.getvalue())
        summary_stream = sys.stderr
    if violations:
        for v in violations:
            print(v, file=summary_stream)
        print(f"{len(violations)} violations in {len(rows)} configs",
              file=summary_stream)
        return 2
    print(f"all {len(rows)} configs consistent", file=summary_stream)
    return 0


def cmd_simulate(args):
    try:
        with open(args.config) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            data.update({k: v for k in ("seed", "trials", "alpha")
                         if (v := getattr(args, k)) is not None})
        exp = ExperimentConfig.from_dict(data)
    except (ValueError, RecursionError) as exc:
        return _fail(f"bad config: {exc}", 1)
    stem = args.out if args.out else exp.output_path
    jamming = not args.no_jamming
    cfg = exp.antenna_config()
    if jamming and validate(cfg) == "degenerate":
        return _fail(f"invalid experiment: {cfg}: secure DoF is zero", 1)

    try:
        # Overflow raises here instead of warning, so that extreme powers
        # end as the one-line error below.
        with np.errstate(over="raise", invalid="raise"):
            result = rates.sweep(cfg, exp.alpha, exp.p_grid, exp.trials,
                                 exp.seed, eve_counts=exp.eve_counts,
                                 jamming=jamming)
    except (rates.GeometryNotVerified, precoders.PlanMismatch,
            precoders.AlignmentInfeasible, matlin.RaggedRank) as exc:
        return _fail(f"geometry verification failed: {exc}", 2)
    except (FloatingPointError, matlin.NotPositiveDefinite) as exc:
        return _fail(f"bad config: numerical failure in the rate algebra "
                     f"({exc}); p_grid too large", 1)

    ds = regions.sum_sdof(cfg)
    summary = {
        "slope": result.curve.slope,
        "ds_theory": float(ds),
        "abs_error": abs(result.curve.slope - float(ds)),
        "leakage_delta": result.leakage_delta,
    }
    with open(f"{stem}.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SIM_CSV_HEADER)
        for pt in result.points:
            writer.writerow([repr(pt.p), repr(pt.rate_rx),
                             repr(pt.leak_max), repr(pt.secrecy)])
    with open(f"{stem}.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"slope {result.curve.slope:.4f} vs theory {_fmt_frac(ds)} "
          f"(leakage delta {result.leakage_delta:.4f} bits); wrote {stem}.csv, {stem}.json")
    return 0


def cmd_binning(args):
    if not 0 <= args.num_seeds <= MAX_SEEDS:
        return _fail(f"binning failed: num-seeds must be in [0, {MAX_SEEDS}]", 1)
    try:
        n_list = [int(v) for v in args.n_list.split(",") if v]
        if not n_list:
            raise ValueError("--n-list names no block length")
        seeds = [args.seed + k for k in range(args.num_seeds)]
        table = binning.equivocation_table(n_list, args.delta, args.rate_total,
                                           args.rate_secret, seeds)
    except ValueError as exc:  # binning.CodeTooLarge included
        return _fail(f"binning failed: {exc}", 1)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BINNING_CSV_HEADER)
    for n, rows, mean in table:
        for s, h, norm in rows:
            writer.writerow([n, s, repr(h), "" if norm is None else repr(norm)])
        if mean is not None:
            writer.writerow([n, "mean", repr(mean[0]), repr(mean[1])])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(buf.getvalue())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


@functools.cache
def build_parser():
    """The argparse tree, built once per process and reused by every
    :func:`main` call (parsing leaves no state on it)."""
    parser = _Parser(
        prog="sdoflab",
        description="Secure-degrees-of-freedom laboratory for the jammed "
                    "two-transmitter MIMO multiple-access channel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sdof", help="closed-form sum SDoF for one config")
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)
    p.add_argument("n", type=int)
    p.add_argument("ne", type=int)
    p.set_defaults(func=cmd_sdof)

    p = sub.add_parser("grid-verify",
                       help="cross-check theory and plans over a config grid")
    p.add_argument("max_antennas", type=int)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_grid_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo secrecy-rate sweep")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--trials", type=int, help="override config trials")
    p.add_argument("--alpha", type=float, help="override jamming fraction")
    p.add_argument("--out", help="output stem (default: config output_path)")
    p.add_argument("--no-jamming", action="store_true",
                   help="negative control: disable cooperative jamming")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("binning", help="coset-binning equivocation trend")
    p.add_argument("--n-list", default="4,8,12",
                   help="comma-separated block lengths")
    p.add_argument("--delta", type=float, default=0.5,
                   help="eavesdropper erasure probability")
    p.add_argument("--rate-total", type=float, default=0.75)
    p.add_argument("--rate-secret", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0, help="first code seed")
    p.add_argument("--num-seeds", type=int, default=10,
                   help="number of code seeds")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_binning)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _fail(f"usage error: {exc}", 1)
    try:
        return args.func(args)
    except OSError as exc:  # unreadable input or unwritable output
        return _fail(f"file error: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
