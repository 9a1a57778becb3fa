"""sdoflab benchmark: run one workload of CLI commands, check the outputs, print metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 40 --trace 0

The workloads (see ``workloads.py`` and ``README.md``) run in this process
through ``sdoflab.cli.main``, imported from ``src/`` of the checkout.  A run
repeats passes over the workload's command list until ``--seconds`` is
used up (at least two passes), checks every output and that every pass
wrote the same bytes, and prints a short summary followed by one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones from ``spans.py`` plus the tracing overhead.
The full results (environment, every metric, output digests, problems)
go to ``.perfbench-results/`` in the checkout.
"""

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".perfbench-results"
SETUP_RUNS = 5
TAIL_MIN_COMMANDS = 100   # a tail percentile needs at least this many commands
MAX_PROBLEMS_REPORTED = 20

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name, unit, better.  Each "<module>.<function>.<stat>" reads the traced
# totals of that function, divided by the number of traced passes.
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.nonzero_exit", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("regions.jamming_plan.calls", "count", "lower"),
    ("regions.jamming_plan.s", "s", "lower"),
    ("regions.sum_sdof.calls", "count", "lower"),
    ("regions.sum_sdof.s", "s", "lower"),
    ("regions.upper_bound_terms.calls", "count", "lower"),
    ("regions.upper_bound_terms.s", "s", "lower"),
    ("regions.verify_plan_arithmetic.calls", "count", "lower"),
    ("regions.verify_plan_arithmetic.s", "s", "lower"),
    ("regions.self_s", "s", "lower"),
    ("model.sample_channels.calls", "count", "lower"),
    ("model.sample_channels.s", "s", "lower"),
    ("model.sample_channels.per_trial", "calls/trial", "lower"),
    ("model.sample_eves.calls", "count", "lower"),
    ("model.sample_eves.s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("precoders.build_precoder_set.calls", "count", "lower"),
    ("precoders.build_precoder_set.s", "s", "lower"),
    ("precoders.build_precoder_set.per_trial", "calls/trial", "lower"),
    ("precoders.build_jamming.s", "s", "lower"),
    ("precoders.build_zero_forcing.s", "s", "lower"),
    ("precoders.build_legit.s", "s", "lower"),
    ("precoders.verify_geometry.s", "s", "lower"),
    ("precoders.verify_geometry.failed", "count", "lower"),
    ("precoders.extend_channel.calls", "count", "lower"),
    ("precoders.self_s", "s", "lower"),
    ("rates.receiver_rate.calls", "count", "lower"),
    ("rates.receiver_rate.s", "s", "lower"),
    ("rates.eavesdropper_leakage.calls", "count", "lower"),
    ("rates.eavesdropper_leakage.s", "s", "lower"),
    ("rates.sweep.s", "s", "lower"),
    ("rates.leakage_saturation.s", "s", "lower"),
    ("rates.self_s", "s", "lower"),
    ("matlin.logdet_hpd.calls", "count", "lower"),
    ("matlin.logdet_hpd.s", "s", "lower"),
    ("matlin.orthonormal_basis.s", "s", "lower"),
    ("matlin.intersect.s", "s", "lower"),
    ("matlin.nullspace.s", "s", "lower"),
    ("matlin.complement.s", "s", "lower"),
    ("matlin.as_matrix.calls", "count", "lower"),
    ("matlin.self_s", "s", "lower"),
    ("binning.build_code.s", "s", "lower"),
    ("binning.equivocation_exact.calls", "count", "lower"),
    ("binning.equivocation_exact.s", "s", "lower"),
    ("binning.equivocation_exact.word_patterns_per_s", "1/s", "higher"),
    ("binning.self_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]

# The child of a set-up measurement: import the CLI and run one command.
SETUP_CHILD = "import sys\nfrom sdoflab import cli\nsys.exit(cli.main(sys.argv[1:]))\n"


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- environment

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def _blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return None
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    thread_env = {k: os.environ.get(k) for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": thread_env,
        "seed": seed,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- running

def run_command(cli, argv):
    """Run one CLI command in-process; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed command, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, commands):
    start = time.perf_counter()
    results = [run_command(cli, cmd.argv) for cmd in commands]
    return time.perf_counter() - start, results


def _read(name):
    try:
        with open(name, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def evaluate(cmd, result):
    """Problems, quality numbers and output digest of one command's run."""
    _, code, out, err = result
    if code != 0:
        return [f"exit {code}: {err.strip()[-300:]}"], {}, None
    outputs = {name: _read(name) for name in cmd.outputs}
    problems = workloads.check_finite(outputs)
    quality = {}
    if not problems and cmd.check is not None:
        try:
            problems, quality = cmd.check(outputs, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output check could not read the outputs: {exc!r}"]
    digest = hashlib.sha256(out.encode())
    for name in cmd.outputs:
        digest.update(outputs[name] or b"")
    return problems, quality, digest.hexdigest()


def measure_setup(workload):
    """Wall time of a fresh process that imports the CLI and runs the warm-up command.

    Returns ``(seconds, problem)``; ``problem`` is None when the process exits 0.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *workload.warmup],
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, (f"set-up process exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    return seconds, None


def best_latencies(passes):
    """Each command's lowest latency over ``passes``.

    Other tenants of a shared machine slow a command by up to about 2x for
    seconds at a time; the lowest of several samples, taken seconds apart,
    estimates the command's cost without that contention.
    """
    return [min(samples) for samples in zip(*(p["latencies"] for p in passes))]


def tail_latency(latencies):
    """Latency at the highest percentile that leaves at least ten samples above it."""
    n = len(latencies)
    if n < TAIL_MIN_COMMANDS:
        return None
    k = n - 11
    return {"value": sorted(latencies)[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n}


def layer_metrics(tracer, cli_modules, traced, untraced, per_pass):
    """Per-layer values from the tracer totals, per traced pass."""
    n = len(traced)
    stats = tracer.stats
    empty = spans.Stat()
    values, absent = {}, []
    for name, _, _ in PER_LAYER:
        parts = name.split(".")
        if name == "trace_overhead_frac":
            values[name] = (sum(best_latencies(traced))
                            / sum(best_latencies(untraced)) - 1.0)
            continue
        if name == "trace.unattributed_s":
            values[name] = (sum(p["wall"] for p in traced)
                            - tracer.total_self_s()) / n
            continue
        if parts[1] == "self_s":
            values[name] = tracer.module_self_s(parts[0]) / n
            continue
        module, func, what = parts
        if not hasattr(cli_modules.get(module), func):
            absent.append(f"{module}.{func}")
        st = stats.get(f"{module}.{func}", empty)
        if what == "calls":
            values[name] = st.calls / n
        elif what == "s":
            values[name] = st.total_s / n
        elif what in ("failed", "nonzero_exit"):
            values[name] = (st.flagged + st.raised) / n
        elif what == "per_trial":
            trials = (per_pass["jammed_trials"] if module == "precoders"
                      else per_pass["jammed_trials"] + per_pass["control_trials"])
            values[name] = st.calls / n / trials if trials else 0.0
        elif what == "word_patterns_per_s":
            values[name] = st.work / st.total_s if st.total_s else 0.0
        else:
            raise ValueError(f"unknown per-layer statistic in {name}")
    return values, sorted(set(absent))


def function_table(tracer, n):
    return {key: {"calls": st.calls / n, "s": st.total_s / n,
                  "self_s": st.self_s / n, "raised": st.raised / n,
                  "flagged": st.flagged / n}
            for key, st in sorted(tracer.stats.items())}


def execute(workload, cli, seconds, trace):
    """Warm up, then run passes until ``seconds`` is used; returns the run record.

    Untraced runs also time one set-up process before each pass (and more
    after the last, up to ``SETUP_RUNS``), so that set-up samples are spread
    over the run like the passes are.
    """
    setup_times, problems = [], []

    def setup():
        took, problem = measure_setup(workload)
        setup_times.append(took)
        if problem:
            problems.append(problem)

    warm = run_command(cli, workload.warmup)
    if warm[1] != 0:
        problems.append(f"warm-up exit {warm[1]}: {warm[3].strip()[-300:]}")

    tracer = spans.Tracer() if trace else None
    passes, digests = [], None
    attempted = failed = 0
    quality = {}
    start = time.perf_counter()
    while True:
        if not trace:
            setup()
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            wall, results = run_pass(cli, workload.commands)
        finally:
            if traced:
                tracer.uninstall()
        pass_digests = {}
        for cmd, result in zip(workload.commands, results):
            cmd_problems, cmd_quality, digest = evaluate(cmd, result)
            if digests is not None and digest != digests.get(cmd.label):
                cmd_problems.append("output bytes differ from the first pass")
            pass_digests[cmd.label] = digest
            for key, value in cmd_quality.items():
                quality[key] = max(quality.get(key, value), value)
            attempted += 1
            if cmd_problems:
                failed += 1
                problems.extend(f"pass {len(passes)} {cmd.label}: {p}"
                                for p in cmd_problems)
        if digests is None:
            digests = pass_digests
        passes.append({"wall": wall, "traced": traced,
                       "latencies": [r[0] for r in results]})
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + max(p["wall"] for p in passes[-2:]) > seconds:
            break
    while not trace and len(setup_times) < SETUP_RUNS:
        setup()
    return {"setup_times": setup_times, "passes": passes, "digests": digests,
            "attempted": attempted, "failed": failed, "problems": problems,
            "quality": quality, "tracer": tracer}


def summarize(workload, run, cli_modules):
    untraced = [p for p in run["passes"] if not p["traced"]]
    traced = [p for p in run["passes"] if p["traced"]]
    per_pass = {
        "commands": len(workload.commands),
        "jammed_trials": sum(c.jammed_trials for c in workload.commands),
        "control_trials": sum(c.control_trials for c in workload.commands),
        "codes": sum(c.codes for c in workload.commands),
    }
    best = best_latencies(untraced)
    wall = sum(best)
    tail = tail_latency(best)
    trials = per_pass["jammed_trials"] + per_pass["control_trials"]
    extra = {
        "cmd_tail_s": tail,
        "pass_wall_median_s": statistics.median(p["wall"] for p in untraced),
        "cmd_p50_all_passes_s": statistics.median(
            lat for p in untraced for lat in p["latencies"]),
        "trials_per_s": trials / wall if trials else None,
        "codes_per_s": per_pass["codes"] / wall if per_pass["codes"] else None,
        "fail_frac": run["failed"] / run["attempted"],
        "slope_abs_err_max": run["quality"].get("slope_abs_err"),
        "leakage_delta_max": run["quality"].get("leakage_delta"),
    }
    end_to_end = {
        "wall_s": wall,
        "cmd_p50_s": statistics.median(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if run["setup_times"]:
        end_to_end["setup_s"] = statistics.median(run["setup_times"])
    layers, absent, functions = None, [], None
    if traced:
        tracer = run["tracer"]
        layers, absent = layer_metrics(tracer, cli_modules, traced, untraced,
                                       per_pass)
        functions = function_table(tracer, len(traced))
    return per_pass, end_to_end, extra, layers, absent, functions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test only)")
    args = parser.parse_args(argv)

    if not (SRC / "sdoflab" / "cli.py").is_file():
        return _fail(f"no sdoflab sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import sdoflab.cli as cli
    modules = {name: sys.modules[f"sdoflab.{name}"] for name in spans.MODULES
               if f"sdoflab.{name}" in sys.modules}

    workload = workloads.build(args.workload, args.seed, cli, args.tiny)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        for name, text in workload.files.items():
            Path(name).write_text(text)
        run = execute(workload, cli, args.seconds, args.trace)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    per_pass, end_to_end, extra, layers, absent, functions = summarize(
        workload, run, modules)
    correct = run["failed"] == 0 and not run["problems"]
    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "correct": correct,
        "attempted": run["attempted"], "failed": run["failed"],
        "environment": environment(args.seed), "per_pass": per_pass,
        "end_to_end": end_to_end, "extra": extra, "per_layer": layers,
        "absent_functions": absent, "functions": functions,
        "setup_times_s": run["setup_times"],
        "passes": [{"wall_s": p["wall"], "traced": p["traced"],
                    "latencies_s": p["latencies"]} for p in run["passes"]],
        "problems": run["problems"][:MAX_PROBLEMS_REPORTED],
        "output_sha256": run["digests"],
        "pass_sha256": hashlib.sha256(
            json.dumps(run["digests"], sort_keys=True).encode()).hexdigest(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    report_path = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}{'-tiny' if args.tiny else ''}.json")
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run['passes'])} passes, {run['attempted']} commands, "
          f"{run['failed']} failed; outputs {report['pass_sha256'][:16]}")
    for problem in run["problems"][:MAX_PROBLEMS_REPORTED]:
        print(f"  problem: {problem}")
    print(f"  extra: {json.dumps(extra, sort_keys=True)}")
    if absent:
        print(f"  absent functions: {', '.join(absent)}")
    print(f"  full results: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
