"""Compare the output files of two revisions, file by file.

Each side is a git revision, exported with ``git archive`` into a fresh
scratch directory, as ``tools/bench_pairs.py`` does.  On each export one
child process runs these commands through ``sdoflab.cli.main``, each
with its stdout kept in ``<name>.out``:

* ``grid-verify 8`` and ``grid-verify 10`` (the CSV, and the summary
  line in the ``.out`` file);
* ``binning`` with its default arguments, at ``--rate-total 1.0
  --rate-secret 0.5``, at ``--n-list 4,8,12,16`` (the block-length
  budget) and at the zero-rate code ``--rate-total 0 --rate-secret 0``;
* ``simulate`` jammed and ``--no-jamming`` on ten configs: the six
  acceptance configs plus (4,4,6,7), (5,4,3,6), (7,3,8,9) and (4,3,2,4),
  each with 20 trials, seed 7, ``eve_counts`` 0..ne, alpha 0.5 and the
  powers 1e3, 1e4, ..., 1e9.

For every file it prints ``identical``, or the largest relative
difference between the numbers of the two sides (or that the text
around the numbers differs).  For each ``simulate`` summary it also
prints both sides' slope and ``leakage_delta``.  It exits with status 0
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
    return configs, cmds


def run(tree, out):
    """Run every command on the export ``tree``, writing into ``out``."""
    out.mkdir()
    configs, cmds = commands()
    for name, cfg in configs.items():
        (out / name).write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(cmds)],
                   cwd=out, env=env, check=True)


def relative(x, y):
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(a, b):
    """``identical``, or how the texts ``a`` and ``b`` differ."""
    if a == b:
        return "identical"
    if NUMBER.split(a) != NUMBER.split(b):
        return "differs outside its numbers"
    worst = max(relative(float(x), float(y))
                for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))
    return f"largest relative difference {worst:.3g}"


def report(parent, change):
    """One line per output file of the ``parent`` run, and whether every
    file is identical."""
    lines, same = [], True
    for path in sorted(parent.iterdir()):
        if path.name.startswith("cfg-"):
            continue
        other = change / path.name
        if not other.exists():
            lines.append(f"{path.name}: missing on the change side")
            same = False
            continue
        a, b = path.read_text(), other.read_text()
        verdict = compare(a, b)
        same = same and verdict == "identical"
        line = f"{path.name}: {verdict}"
        if path.name.startswith("sim-") and path.suffix == ".json":
            sides = [json.loads(text) for text in (a, b)]
            line += "".join(f"; {key} {sides[0][key]:.4f} -> "
                            f"{sides[1][key]:.4f}"
                            for key in ("slope", "leakage_delta"))
        lines.append(line)
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
