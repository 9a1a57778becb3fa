"""Paired benchmark runs of a parent and a change tree, written as BENCH_<n>.json.

Each side is a git revision, exported with ``git archive`` into a fresh
scratch directory.  For every pair and every workload of BENCHMARK.json
the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the benchmark's ``run_seconds``, on both trees back to back, the
parent first in odd pairs and the change first in even pairs, and keeps
each run's end-to-end metrics, output check and output digests.  It
then writes, per workload and metric, each side's median, the parent's
quartile spread, and how many pairs the change won; and per workload,
under ``outputs``, how many pairs wrote the same outputs and how many
runs of each side passed the output check.
Run from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --out BENCH_9.json --confirm-seed 7 \\
        --claim "sim-sweep wall_s falls by at least 1.8x"

With ``--confirm-seed`` one workload's pairs run once more at a second
seed, kept under ``confirm``: the workload named by
``--confirm-workload``, by default the first of BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = ("cmd_p50_s", "peak_rss_mb", "setup_s", "wall_s")  # lower is better


def export(side, scratch, name):
    """Export revision ``side`` under ``scratch``; returns (tree, revision)."""
    tree = Path(scratch) / name
    tree.mkdir()
    archive = subprocess.run(["git", "archive", side], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    src_tree = subprocess.run(["git", "rev-parse", f"{side}:src"], check=True,
                              capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", side], check=True,
                            capture_output=True, text=True).stdout.strip()
    return tree, {"commit": commit, "src_tree": src_tree}


def run_once(tree, workload, seed):
    """One untraced benchmark run; returns its summary and full results."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads(
        (tree / ".perfbench-results" / f"{workload}-seed{seed}-trace0.json")
        .read_text())
    summary = {name: results["end_to_end"][name] for name in METRICS}
    summary.update(correct=line["correct"],
                   fail_frac=results["extra"]["fail_frac"],
                   pass_sha256=results["pass_sha256"])
    return summary, results


def medians(pairs):
    """Per-metric medians, the parent's quartile spread and pairs won."""
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        out[name] = {
            "change": statistics.median(change),
            "pairs": len(pairs),
            "pairs_change_better": sum(c < p for p, c in zip(parent, change)),
            "parent": statistics.median(parent),
            "parent_iqr": q3 - q1,
            "parent_over_change": (statistics.median(parent)
                                   / statistics.median(change)),
        }
    out["wall_s_ratio_median"] = statistics.median(
        p["wall_s_ratio"] for p in pairs)
    return out


def outputs(pairs):
    """How many pairs wrote the same outputs on both sides, and how many
    runs of each side passed the benchmark's output check."""
    return {
        "pairs": len(pairs),
        "same_outputs": sum(p["same_outputs"] for p in pairs),
        "check_passed": {side: sum(p[side]["correct"] for p in pairs)
                         for side in ("parent", "change")},
    }


def report(seed, summary):
    """One stderr line per workload of ``outputs`` summaries."""
    for workload, s in summary.items():
        print(f"seed {seed} {workload}: same outputs {s['same_outputs']}/"
              f"{s['pairs']} pairs; check passed parent "
              f"{s['check_passed']['parent']}/{s['pairs']}, change "
              f"{s['check_passed']['change']}/{s['pairs']}", file=sys.stderr)


def run_pairs(trees, workloads, count, seed):
    """``count`` alternating pairs per workload; returns (pairs, environment)."""
    pairs, environment = {}, None
    for workload in workloads:
        pairs[workload] = []
        for k in range(1, count + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            pair = {"first": order[0], "pair": k}
            digests = {}
            for side in order:
                pair[side], results = run_once(trees[side], workload, seed)
                digests[side] = results["output_sha256"]
                environment = environment or results["environment"]
            pair["same_outputs"] = digests["parent"] == digests["change"]
            pair["wall_s_ratio"] = (pair["parent"]["wall_s"]
                                    / pair["change"]["wall_s"])
            pairs[workload].append(pair)
            print(f"seed {seed} {workload} pair {k}: parent "
                  f"{pair['parent']['wall_s']:.4f} s, change "
                  f"{pair['change']['wall_s']:.4f} s, same outputs "
                  f"{pair['same_outputs']}", file=sys.stderr, flush=True)
    return pairs, environment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", required=True, help="git revision")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--confirm-seed", type=int,
                        help="run one workload's pairs again at this seed, "
                             "one not used while writing the change")
    parser.add_argument("--confirm-workload", choices=WORKLOADS,
                        default=WORKLOADS[0],
                        help="the workload --confirm-seed reruns "
                             "(default: %(default)s)")
    parser.add_argument("--claim", default="")
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: the parent's quartile "
                     "spread needs two runs")

    with tempfile.TemporaryDirectory() as scratch:
        parent_tree, parent_rev = export(args.parent, scratch, "parent")
        change_tree, change_rev = export(args.change, scratch, "change")
        trees = {"parent": parent_tree, "change": change_tree}
        pairs, environment = run_pairs(trees, WORKLOADS, args.pairs, args.seed)
        if args.confirm_seed is not None:
            confirm, _ = run_pairs(trees, [args.confirm_workload],
                                   args.pairs, args.confirm_seed)

    bench = {
        "change": change_rev,
        "claim": args.claim,
        "environment": environment,
        "medians": {w: medians(p) for w, p in pairs.items()},
        "method": (f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {SECONDS:g} --trace 0, run from an export "
                   f"of each tree; per pair and workload the parent and the "
                   f"change ran back to back, parent first in odd pairs and "
                   f"change first in even pairs"),
        "notes": args.note,
        "outputs": {w: outputs(p) for w, p in pairs.items()},
        "pairs": pairs,
        "parent": parent_rev,
    }
    if args.confirm_seed is not None:
        bench["confirm"] = {
            "seed": args.confirm_seed,
            "medians": {w: medians(p) for w, p in confirm.items()},
            "outputs": {w: outputs(p) for w, p in confirm.items()},
            "pairs": confirm,
        }
    Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True)
                              + "\n")
    report(args.seed, bench["outputs"])
    if args.confirm_seed is not None:
        report(args.confirm_seed, bench["confirm"]["outputs"])


if __name__ == "__main__":
    main()
