"""Compare the output files of two revisions, file by file.

Each side is a git revision, exported with ``git archive`` into a fresh
scratch directory by `export`, which ``tools/bench_pairs.py`` uses too.
On each export one child process runs these commands through
``sdoflab.cli.main``, each with its stdout kept in ``<name>.out``:

* ``grid-verify 8`` and ``grid-verify 10`` (the CSV, and the summary
  line in the ``.out`` file);
* ``binning`` with its default arguments, at ``--rate-total 1.0
  --rate-secret 0.5``, at ``--n-list 4,8,12,16`` (the block-length
  budget), at ``--n-list 16 --rate-total 1.0 --rate-secret 0.5`` (square
  16 x 16 generators, some redrawn) and at the zero-rate code
  ``--rate-total 0 --rate-secret 0``;
* ``simulate`` jammed and ``--no-jamming`` on ten configs: the six
  acceptance configs plus (4,4,6,7), (5,4,3,6), (7,3,8,9) and (4,3,2,4),
  each with 20 trials, seed 7, ``eve_counts`` 0..ne, alpha 0.5 and the
  powers 1e3, 1e4, ..., 1e9;
* the two-trial set, which mirrors the benchmark's ``sim-grid``:
  ``simulate`` jammed on all 200 canonical configs up to 4 antennas,
  each with 2 trials, seed 42, ``eve_counts [ne]``, alpha 0.5 and the
  powers 1e3, 1e5, 1e7, 1e9.

Before a side runs, every output path of these commands holds a stale
file: a line of text padded with NUL bytes to ``STALE_BYTES``, longer
than any output.  A command that writes over an old file without
cutting it to length leaves part of the stale file behind, and that file
differs.

For every file it prints ``identical``, or the largest relative
difference between the numbers of the two sides (or that the text
around the numbers differs).  For each ``simulate`` summary it also
prints both sides' slope and ``leakage_delta``.  The files of the
two-trial set share one line instead: how many are identical, and the
largest relative difference among them.  It exits with status 0
when every file is identical and 1 when any file differs or is missing
on the change side.  Run from the root of a checkout::

    python3 tools/compare_outputs.py --parent HEAD~1 --change HEAD
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIM_CONFIGS = [(2, 2, 4, 1), (2, 2, 3, 1), (3, 3, 2, 1), (3, 1, 2, 3),
               (3, 1, 2, 2), (3, 2, 2, 1), (4, 4, 6, 7), (5, 4, 3, 6),
               (7, 3, 8, 9), (4, 3, 2, 4)]
SIM_SETTINGS = {"alpha": 0.5, "p_grid": [10.0 ** k for k in range(3, 10)],
                "trials": 20, "seed": 7}
TWO_TRIAL = "two-trial-"  # name prefix of the two-trial set's files
TWO_TRIAL_MAX_ANTENNAS = 4
TWO_TRIAL_SETTINGS = {"alpha": 0.5, "p_grid": [1e3, 1e5, 1e7, 1e9],
                      "trials": 2, "seed": 42}

# An output path's content before a side runs: this line, padded with NUL
# bytes (a sparse tail) to STALE_BYTES; grid-10.csv, the largest output,
# is 219 KB.
STALE = b"stale output\n"
STALE_BYTES = 1 << 20

# Runs in the export: argv[1] is a JSON list of [name, cli argv] pairs.
CHILD = """\
import contextlib, io, json, sys
from sdoflab import cli
for name, argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    with open(name + ".out", "w") as fh:
        fh.write(f"exit {code}\\n{out.getvalue()}")
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def export(side, scratch, name):
    """Export revision ``side`` under ``scratch``; returns the tree."""
    tree = Path(scratch) / name
    tree.mkdir()
    archive = subprocess.run(["git", "archive", side], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def two_trial_configs():
    """The canonical configs up to ``TWO_TRIAL_MAX_ANTENNAS``, in the
    order of ``sdoflab.cli.iter_canonical_configs``."""
    top = range(1, TWO_TRIAL_MAX_ANTENNAS + 1)
    return [(m1, m2, n, ne) for m1 in top for m2 in range(1, m1 + 1)
            for n in top for ne in range(m1 + m2)]


def commands():
    """The simulate configs to write, and the ``[name, argv]`` commands."""
    configs, cmds = {}, [
        ["grid-8", ["grid-verify", "8", "--out", "grid-8.csv"]],
        ["grid-10", ["grid-verify", "10", "--out", "grid-10.csv"]],
        ["binning", ["binning", "--out", "binning.csv"]],
        ["binning-rate-1-0.5", ["binning", "--rate-total", "1.0",
                                "--rate-secret", "0.5",
                                "--out", "binning-rate-1-0.5.csv"]],
        ["binning-n16", ["binning", "--n-list", "4,8,12,16",
                         "--out", "binning-n16.csv"]],
        ["binning-n16-rate-1-0.5", ["binning", "--n-list", "16",
                                    "--rate-total", "1.0", "--rate-secret",
                                    "0.5", "--out",
                                    "binning-n16-rate-1-0.5.csv"]],
        ["binning-rate-0", ["binning", "--rate-total", "0", "--rate-secret",
                            "0", "--out", "binning-rate-0.csv"]]]
    for cfg in SIM_CONFIGS:
        tag = "-".join(map(str, cfg))
        configs[f"cfg-{tag}.json"] = dict(
            zip(("m1", "m2", "n", "ne"), cfg),
            eve_counts=list(range(cfg[3] + 1)), **SIM_SETTINGS)
        for stem, flags in ((f"sim-{tag}-jam", []),
                            (f"sim-{tag}-ctl", ["--no-jamming"])):
            cmds.append([stem, ["simulate", "--config", f"cfg-{tag}.json",
                                "--out", stem, *flags]])
    for cfg in two_trial_configs():
        stem = TWO_TRIAL + "-".join(map(str, cfg))
        configs[f"cfg-{stem}.json"] = dict(
            zip(("m1", "m2", "n", "ne"), cfg), eve_counts=[cfg[3]],
            **TWO_TRIAL_SETTINGS)
        cmds.append([stem, ["simulate", "--config", f"cfg-{stem}.json",
                            "--out", stem]])
    return configs, cmds


def output_paths(cmds):
    """The files that the ``[name, cli argv]`` commands ``cmds`` write."""
    paths = []
    for _, argv in cmds:
        out = argv[argv.index("--out") + 1]
        paths += [f"{out}.csv", f"{out}.json"] if argv[0] == "simulate" \
            else [out]
    return paths


def run(tree, out):
    """Run every command on the export ``tree``, writing into ``out``
    over stale files."""
    out.mkdir()
    configs, cmds = commands()
    for name, cfg in configs.items():
        (out / name).write_text(json.dumps(cfg))
    for path in output_paths(cmds):
        with open(out / path, "wb") as fh:
            fh.write(STALE)
            fh.truncate(STALE_BYTES)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(cmds)],
                   cwd=out, env=env, check=True)


def relative(x, y):
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def difference(a, b):
    """The largest relative difference between the numbers of the texts
    ``a`` and ``b``, or None when the text around the numbers differs."""
    if a == b:
        return 0.0
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return max(relative(float(x), float(y))
               for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))


def compare(a, b):
    """``identical``, or how the texts ``a`` and ``b`` differ."""
    if a == b:
        return "identical"
    worst = difference(a, b)
    if worst is None:
        return "differs outside its numbers"
    return f"largest relative difference {worst:.3g}"


def summary(pairs):
    """One line for the ``(parent, change)`` texts of the two-trial set."""
    worst = [difference(a, b) for a, b in pairs]
    line = (f"{TWO_TRIAL}*: {sum(a == b for a, b in pairs)} of {len(pairs)} "
            f"files identical, largest relative difference "
            f"{max([w for w in worst if w is not None], default=0.0):.3g}")
    if None in worst:
        line += f", {worst.count(None)} differ outside their numbers"
    return line


def slopes(a, b):
    """Both sides' slope and ``leakage_delta`` from the summaries ``a``
    and ``b``, or nothing when a side is not a summary (a stale file)."""
    try:
        sides = [json.loads(text) for text in (a, b)]
    except ValueError:
        return ""
    return "".join(f"; {key} {sides[0][key]:.4f} -> {sides[1][key]:.4f}"
                   for key in ("slope", "leakage_delta"))


def report(parent, change):
    """One line per output file of the ``parent`` run, one for the
    two-trial set, and whether every file is identical."""
    lines, same, two_trial = [], True, []
    for path in sorted(parent.iterdir()):
        if path.name.startswith("cfg-"):
            continue
        other = change / path.name
        if not other.exists():
            lines.append(f"{path.name}: missing on the change side")
            same = False
            continue
        a, b = path.read_text(), other.read_text()
        same = same and a == b
        if path.name.startswith(TWO_TRIAL):
            two_trial.append((a, b))
            continue
        verdict = compare(a, b)
        line = f"{path.name}: {verdict}"
        if path.name.startswith("sim-") and path.suffix == ".json":
            line += slopes(a, b)
        lines.append(line)
    if two_trial:
        lines.append(summary(two_trial))
    return lines, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        outs = {}
        for side in ("parent", "change"):
            tree = export(getattr(args, side), scratch, side)
            outs[side] = Path(scratch) / f"{side}-out"
            run(tree, outs[side])
        print(f"parent {args.parent}, change {args.change}")
        lines, same = report(outs["parent"], outs["change"])
        for line in lines:
            print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
