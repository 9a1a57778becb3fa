"""The benchmark's workloads: the CLI commands of one pass, and the checks on their outputs.

A workload is a list of `Command`s run back to back through
``sdoflab.cli.main`` (closed loop, one caller).  Every input is generated
from the workload seed, which becomes the ``seed`` of each simulate config
and the first code seed of each binning command.  Commands read and write
files relative to the current directory, which the runner sets to a
scratch directory inside the checkout.

Each command's `check` returns the problems found in its outputs (none
means the output is correct) and any result-quality numbers read from them.
"""

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

# The six configs of the acceptance suite with their closed-form sum SDoF.
ACCEPTANCE_CONFIGS = [
    ((2, 2, 4, 1), Fraction(3)),
    ((2, 2, 3, 1), Fraction(5, 2)),
    ((3, 3, 2, 1), Fraction(2)),
    ((3, 1, 2, 3), Fraction(1)),
    ((3, 1, 2, 2), Fraction(3, 2)),
    ((3, 2, 2, 1), Fraction(2)),
]
SWEEP_GRID = [10.0 ** k for k in range(3, 10)]
GRID_GRID = [1e3, 1e5, 1e7, 1e9]
SLOPE_TOL = 0.1            # acceptance criterion 4
LEAKAGE_DELTA_MAX = 0.5    # acceptance criterion 5, jamming on
CONTROL_FLOOR_FRAC = 0.8   # acceptance criterion 5, no-jamming floor
BINNING_MIN_N12 = 0.8      # acceptance criterion 6


@dataclass
class Command:
    label: str
    argv: list
    outputs: list                      # files the command writes, in digest order
    check: object = None               # (outputs dict, stdout) -> (problems, quality)
    jammed_trials: int = 0
    control_trials: int = 0
    codes: int = 0                     # binning codes built and evaluated


@dataclass
class Workload:
    name: str
    commands: list
    files: dict                        # input files to write before the first pass
    warmup: list                       # argv of the warm-up command


def _parse_json(data):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(data, parse_constant=reject)


def _nonfinite_json(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite_json(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite_json(v) for v in value)
    return False


def _csv_rows(data):
    return list(csv.reader(io.StringIO(data.decode())))


def _nonfinite_csv(rows):
    for row in rows[1:]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return True
    return False


def check_finite(outputs):
    """Problems with the files a command wrote: missing, unparsable, non-finite."""
    problems = []
    for name, data in outputs.items():
        if data is None:
            problems.append(f"{name} missing")
        elif name.endswith(".json"):
            try:
                if _nonfinite_json(_parse_json(data)):
                    problems.append(f"{name} has a non-finite number")
            except ValueError as exc:
                problems.append(f"{name} is not valid JSON: {exc}")
        elif name.endswith(".csv"):
            rows = _csv_rows(data)
            if len(rows) < 2:
                problems.append(f"{name} has no data rows")
            elif _nonfinite_csv(rows):
                problems.append(f"{name} has a non-finite number")
    return problems


def _simulate(label, stem, config_name, jamming, check, trials):
    argv = ["simulate", "--config", config_name, "--out", stem]
    if not jamming:
        argv.append("--no-jamming")
    return Command(label=label, argv=argv,
                   outputs=[f"{stem}.csv", f"{stem}.json"], check=check,
                   jammed_trials=trials if jamming else 0,
                   control_trials=0 if jamming else trials)


def _config(cfg, p_grid, trials, seed):
    m1, m2, n, ne = cfg
    return json.dumps({"m1": m1, "m2": m2, "n": n, "ne": ne,
                       "eve_counts": [ne], "alpha": 0.5, "p_grid": p_grid,
                       "trials": trials, "seed": seed}, sort_keys=True)


def _jammed_check(stem, ds):
    def check(outputs, stdout):
        summary = _parse_json(outputs[f"{stem}.json"])
        quality = {"slope_abs_err": abs(summary["slope"] - float(ds)),
                   "leakage_delta": summary["leakage_delta"]}
        problems = []
        if summary["ds_theory"] != float(ds):
            problems.append(f"ds_theory {summary['ds_theory']} != {ds}")
        if quality["slope_abs_err"] > SLOPE_TOL:
            problems.append(f"slope {summary['slope']} not within "
                            f"{SLOPE_TOL} of {ds}")
        if quality["leakage_delta"] > LEAKAGE_DELTA_MAX:
            problems.append(f"leakage delta {summary['leakage_delta']} "
                            f"> {LEAKAGE_DELTA_MAX}")
        return problems, quality
    return check


def _control_check(stem, ne, p_grid):
    floor = CONTROL_FLOOR_FRAC * ne * math.log2(p_grid[-1] / p_grid[0])

    def check(outputs, stdout):
        delta = _parse_json(outputs[f"{stem}.json"])["leakage_delta"]
        if delta < floor:
            return [f"no-jamming leakage growth {delta} below floor {floor}"], {}
        return [], {}
    return check


def sim_sweep(seed, tiny=False):
    """Acceptance configs, 100 trials on the 7-point grid, each with its no-jamming control."""
    configs = ACCEPTANCE_CONFIGS[:2] if tiny else ACCEPTANCE_CONFIGS
    trials = 20 if tiny else 100
    files, commands = {}, []
    for i, (cfg, ds) in enumerate(configs):
        name = f"sweep{i}.cfg.json"
        files[name] = _config(cfg, SWEEP_GRID, trials, seed)
        stem = f"sweep{i}"
        commands.append(_simulate(f"{cfg} jam", stem, name, True,
                                  _jammed_check(stem, ds), trials))
        ctl = f"sweep{i}-ctl"
        commands.append(_simulate(f"{cfg} ctl", ctl, name, False,
                                  _control_check(ctl, cfg[3], SWEEP_GRID),
                                  trials))
    warmup = ["simulate", "--config", "sweep0.cfg.json", "--trials", "2",
              "--out", "warmup"]
    return Workload("sim-sweep", commands, files, warmup)


def _grid_verify_check(outputs, stdout):
    rows = _csv_rows(outputs["grid.csv"])
    expected = f"all {len(rows) - 1} configs consistent"
    if not re.search(rf"^{expected}$", stdout, re.MULTILINE):
        return [f"grid-verify did not print '{expected}'"], {}
    return [], {}


def sim_grid(seed, canonical_configs, tiny=False):
    """Every canonical non-degenerate config up to 6 antennas, 2 trials each, then grid-verify 10."""
    files, commands = {}, []
    for i, cfg in enumerate(canonical_configs):
        name = f"grid{i}.cfg.json"
        files[name] = _config(cfg, GRID_GRID, 2, seed)
        commands.append(_simulate(f"{cfg}", f"grid{i}", name, True, None, 2))
    max_antennas = "3" if tiny else "10"
    commands.append(Command(label=f"grid-verify {max_antennas}",
                            argv=["grid-verify", max_antennas, "--out", "grid.csv"],
                            outputs=["grid.csv"], check=_grid_verify_check))
    warmup = ["simulate", "--config", "grid0.cfg.json", "--out", "warmup"]
    return Workload("sim-grid", commands, files, warmup)


def _equivocation_check(outs, n):
    """Mean normalized equivocation at block length ``n`` over the CSVs ``outs``.

    Runs after the last of the seed commands, so every CSV is in place.
    """
    def check(outputs, stdout):
        values = []
        for out in outs:
            with open(out, "rb") as fh:
                rows = _csv_rows(fh.read())
            values += [float(r[3]) for r in rows[1:]
                       if r[0] == str(n) and r[1] != "mean"]
        mean = sum(values) / len(values) if values else None
        if mean is None or mean < BINNING_MIN_N12:
            return [f"mean normalized equivocation at n={n} is {mean}, "
                    f"need >= {BINNING_MIN_N12}"], {}
        return [], {}
    return check


def binning_trend(seed, tiny=False):
    """binning --n-list 4,8,12 --delta 0.5 for 10 code seeds, at two rate pairs.

    Each code seed is its own command.  A command of about 0.05-0.4 s fits
    between the machine's contention spells, so its best latency over the
    run is steady; one 2-second command over all seeds was not.
    """
    n_list = [4, 12] if tiny else [4, 8, 12]
    num_seeds = 2 if tiny else 10
    commands = []
    for rate_total, rate_secret in ((1.0, 0.5), (0.75, 0.25)):
        outs = [f"binning-{rate_total}-{rate_secret}-{k}.csv"
                for k in range(num_seeds)]
        for k, out in enumerate(outs):
            argv = ["binning", "--n-list", ",".join(map(str, n_list)),
                    "--delta", "0.5", "--rate-total", repr(rate_total),
                    "--rate-secret", repr(rate_secret),
                    "--seed", str(seed + k), "--num-seeds", "1", "--out", out]
            last_secret_check = (rate_total, rate_secret) == (1.0, 0.5) \
                and k == num_seeds - 1
            commands.append(Command(
                label=f"binning {rate_total} {rate_secret} seed+{k}",
                argv=argv, outputs=[out], codes=len(n_list),
                check=(_equivocation_check(outs, n_list[-1])
                       if last_secret_check else None)))
    warmup = ["binning", "--n-list", "4,8", "--seed", str(seed),
              "--num-seeds", "1", "--out", "warmup.csv"]
    return Workload("binning-trend", commands, {}, warmup)


NAMES = ("sim-sweep", "sim-grid", "binning-trend")


def build(name, seed, cli, tiny=False):
    """The named workload for ``seed``; ``cli`` is the imported ``sdoflab.cli``."""
    if name == "sim-sweep":
        return sim_sweep(seed, tiny)
    if name == "sim-grid":
        limit = 2 if tiny else 6
        configs = [(c.m1, c.m2, c.n, c.ne)
                   for c in cli.iter_canonical_configs(limit)]
        return sim_grid(seed, configs, tiny)
    if name == "binning-trend":
        return binning_trend(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
