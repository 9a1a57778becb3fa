import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdoflab import binning, cli, precoders, rates, regions
from sdoflab.model import AntennaConfig

SMALL_EXPERIMENT = {
    "m1": 2, "m2": 2, "n": 4, "ne": 1,
    "eve_counts": [1],
    "alpha": 0.5,
    "p_grid": [1e3, 1e4, 1e5, 1e6, 1e7],
    "trials": 3,
    "seed": 11,
}


def write_config(path, **overrides):
    data = dict(SMALL_EXPERIMENT)
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestSdofCommand:
    def test_regular_config(self, capsys):
        assert cli.main(["sdof", "2", "2", "4", "1"]) == 0
        out = capsys.readouterr().out
        assert "D_s = 3" in out and "C1_MleN" in out
        assert "bounds (4, 3, 7/2)" in out

    def test_half_integer_value(self, capsys):
        assert cli.main(["sdof", "2", "2", "3", "1"]) == 0
        assert "D_s = 5/2" in capsys.readouterr().out

    def test_degenerate(self, capsys):
        assert cli.main(["sdof", "2", "2", "3", "4"]) == 0
        assert "degenerate" in capsys.readouterr().out

    def test_invalid_config_exits_nonzero(self, capsys):
        assert cli.main(["sdof", "0", "2", "3", "1"]) == 1
        assert capsys.readouterr().err != ""


class TestGridVerify:
    def test_header_and_row_count(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli.main(["grid-verify", "2", "--out", str(out)]) == 0
        assert "consistent" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m1", "m2", "n", "ne", "case", "ds_num", "ds_den",
                           "bound1", "bound2", "bound3", "plan_ok"]
        # counting oracle: canonical non-degenerate configs up to 2 antennas
        expected = sum(1 for m1 in (1, 2) for m2 in range(1, m1 + 1)
                       for n in (1, 2) for ne in range(m1 + m2))
        assert len(rows) - 1 == expected

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert cli.main(["grid-verify", "0", "--out", str(out)]) == 0
        assert out.read_text().strip().count("\n") == 0

    def test_stdout_mode(self, capsys):
        assert cli.main(["grid-verify", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("m1,m2,n,ne,case,")


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        stem = tmp_path / "run"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(stem)]) == 0
        with open(f"{stem}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "rate_rx", "leak_max", "secrecy"]
        assert len(rows) - 1 == len(SMALL_EXPERIMENT["p_grid"])
        summary = json.loads(Path(f"{stem}.json").read_text())
        assert set(summary) == {"slope", "ds_theory", "abs_error",
                                "leakage_delta"}
        assert summary["ds_theory"] == 3.0
        assert abs(summary["slope"] - 3.0) < 0.5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert Path(f"{a}.csv").read_bytes() == Path(f"{b}.csv").read_bytes()
        assert Path(f"{a}.json").read_bytes() == Path(f"{b}.json").read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", typo_field=1)
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.main(["simulate", "--config", "/nonexistent.json"]) == 1

    def test_no_jamming_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        stem = tmp_path / "nj"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(stem),
                         "--no-jamming"]) == 0
        summary = json.loads(Path(f"{stem}.json").read_text())
        # full-DoF leakage: the delta covers the whole grid span
        assert summary["leakage_delta"] > 5.0

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(cfg), "--out", str(a)])
        cli.main(["simulate", "--config", str(cfg), "--out", str(b),
                  "--seed", "12"])
        assert Path(f"{a}.csv").read_text() != Path(f"{b}.csv").read_text()


BAD_INPUTS = [
    pytest.param({"trials": 0}, [], id="trials=0"),
    pytest.param({"trials": -1}, [], id="trials=-1"),
    pytest.param({"trials": 2.5}, [], id="trials=2.5"),
    pytest.param({"trials": True}, [], id="trials=true"),
    pytest.param({"seed": "x"}, [], id="seed=x"),
    pytest.param({"seed": -1}, [], id="seed=-1"),
    pytest.param({"eve_counts": "1"}, [], id="eve_counts=str"),
    pytest.param({"eve_counts": [5]}, [], id="eve_counts=[5]"),
    pytest.param({"p_grid": 5}, [], id="p_grid=5"),
    pytest.param({"p_grid": [1e3, "a", 1e5, 1e7]}, [], id="p_grid-str-entry"),
    pytest.param({"alpha": 1.5}, [], id="alpha=1.5"),
    pytest.param({}, ["--trials", "0"], id="--trials=0"),
    pytest.param({}, ["--trials", "-1"], id="--trials=-1"),
    pytest.param({"m1": 1000000}, [], id="m1=1e6"),
    pytest.param({"ne": cli.MAX_ANTENNAS + 1}, [], id="ne-over-limit"),
    pytest.param({"trials": cli.MAX_TRIALS + 1}, [], id="trials-over-limit"),
    pytest.param({}, ["--trials", str(cli.MAX_TRIALS + 1)],
                 id="--trials-over-limit"),
    pytest.param({"output_path": "a\u0000b"}, [], id="output_path-nul"),
    # unknown keys: eavesdropper channels are CN(0, 1), with no moment knobs
    pytest.param({"eve_var": 1e300, "p_grid": [1e3, 1e5, 1e7, 1e9]}, [],
                 id="eve_var=1e300"),
    pytest.param({"eve_mean": 1e300}, [], id="eve_mean=1e300"),
    pytest.param({"eve_mean": 1e10, "n": 3}, [], id="eve_mean=1e10"),
    pytest.param({"p_grid": [1e3, 1e100, 1e200, 1.7e308]}, [],
                 id="p_grid-overflow"),
    pytest.param({"p_grid": [1e3 * 2.0 ** k
                             for k in range(cli.MAX_POWERS + 1)]}, [],
                 id="p_grid-over-limit"),
]


class TestSimulateBadInput:
    @pytest.mark.parametrize("overrides,extra", BAD_INPUTS)
    def test_rejected_with_one_line(self, tmp_path, capsys, overrides, extra):
        cfg = write_config(tmp_path / "exp.json", **overrides)
        stem = tmp_path / "bad"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(stem)]
                        + extra) == 1
        err = capsys.readouterr().err
        assert err.strip() and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "bad.csv").exists()
        assert not (tmp_path / "bad.json").exists()

    def test_override_validated_not_file_value(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", trials=0)
        stem = tmp_path / "ok"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(stem),
                         "--trials", "2"]) == 0

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_deeply_nested_config(self, tmp_path, capsys):
        # deep enough that json.load runs out of recursion depth
        cfg = tmp_path / "exp.json"
        cfg.write_text("[" * 200_000 + "]" * 200_000)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad config: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "bad.csv").exists()
        assert not (tmp_path / "bad.json").exists()

    def test_failed_geometry_names_the_check(self, tmp_path, capsys,
                                             monkeypatch):
        # Every zero-forcing residual exceeds a zero tolerance.
        monkeypatch.setattr(precoders, "ZF_TOL", 0.0)
        cfg = write_config(tmp_path / "exp.json")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "geo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("geometry verification failed: zf_residual ")
        assert err.endswith(" exceeds tolerance 0\n") and err.count("\n") == 1
        assert not (tmp_path / "geo.csv").exists()


MISSING_KEY = object()  # fuzz marker: leave the key out of the config

# one bad value of each kind for any config key
BAD_SCALARS = ["x", None, True, [], {}, math.nan, math.inf, -math.inf,
               -1, -0.5, 0, 10**6, 1e300, 2**64, MISSING_KEY]
BAD_LISTS = [[math.nan], [1, math.inf], [-1], [10**6], [1e308] * 4,
             ["1"], [[1]], [True]]


# a small, valid value for every ``simulate`` config key
VALID_VALUES = {
    "m1": st.integers(1, 3), "m2": st.integers(1, 3),
    "n": st.integers(1, 3), "ne": st.integers(0, 3),
    "eve_counts": st.lists(st.integers(0, 3), max_size=2),
    "alpha": st.floats(0.05, 0.95),
    "p_grid": st.builds(
        lambda p0, decades, k: [p0 * 10.0 ** (decades * i / (k - 1))
                                for i in range(k)],
        st.floats(1e-2, 1e3), st.integers(4, 8), st.integers(4, 6)),
    "trials": st.integers(1, 2), "seed": st.integers(0, 2**32),
    "output_path": st.text(max_size=8),  # unused: --out is always given
}

# bad command-line values: unparsable, non-finite, negative, huge (an int
# past float range half the time, or past int()'s 4300-digit limit)
BAD_ARGS = st.sampled_from(["x", "", "nan", "inf", "-inf", "-1", "0", "2.5",
                            "1e300", str(2**64), "9" * 5000]) \
    | st.integers(10**308, 10**500).map(str)


def fuzzed_args(valid):
    """``--name=value`` options, one per strategy in ``valid`` (``None``
    leaves the option out), with up to two drawn from :data:`BAD_ARGS`."""
    @st.composite
    def args(draw):
        values = {name: draw(value) for name, value in valid.items()}
        for name in draw(st.sets(st.sampled_from(sorted(valid)), max_size=2)):
            values[name] = draw(BAD_ARGS)
        return [f"--{name}={value}" for name, value in sorted(values.items())
                if value is not None]
    return args()


# no override, or a small, valid one
VALID_OVERRIDES = {name: st.none() | VALID_VALUES[name]
                   for name in ("seed", "trials", "alpha")}


@st.composite
def fuzzed_configs(draw):
    data = {k: draw(v) for k, v in VALID_VALUES.items()}
    bad_keys = draw(st.sets(st.sampled_from(sorted(VALID_VALUES)), max_size=2))
    for key in bad_keys:
        data[key] = draw(st.sampled_from(BAD_SCALARS + BAD_LISTS))
    if draw(st.booleans()) and draw(st.booleans()):
        data["unknown_key"] = 1
    return {k: v for k, v in data.items() if v is not MISSING_KEY}


def assert_finite_outputs(stem):
    with open(f"{stem}.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and all(math.isfinite(float(x)) for r in rows for x in r)
    summary = json.loads(Path(f"{stem}.json").read_text())
    assert all(math.isfinite(v) for v in summary.values())


@settings(max_examples=60, deadline=None)
@given(data=fuzzed_configs(), overrides=fuzzed_args(VALID_OVERRIDES),
       no_jamming=st.booleans())
def test_simulate_fuzzed_config(data, overrides, no_jamming):
    """Any config and overrides give exit 0 with finite outputs or exit 1
    with one line."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.json"
        cfg.write_text(json.dumps(data))
        stem = Path(tmp) / "run"
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", str(cfg),
                             "--out", str(stem)]
                            + overrides + ["--no-jamming"] * no_jamming)
        err = stderr.getvalue()
        assert code in (0, 1), err
        if code:
            assert err.strip() and err.count("\n") == 1, err
            assert not Path(f"{stem}.csv").exists()
        else:
            assert err == ""
            assert_finite_outputs(stem)


# small, valid values for every ``binning`` option but --out
VALID_BINNING_ARGS = {
    "n-list": st.lists(st.integers(1, 8), min_size=1, max_size=2).map(
        lambda ns: ",".join(map(str, ns))),
    "delta": st.floats(0, 1),
    "rate-total": st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    "rate-secret": st.sampled_from([0.0, 0.25, 0.5]),
    "seed": st.integers(0, 2**32),
    "num-seeds": st.integers(0, 2),
}


@settings(max_examples=60, deadline=None)
@given(args=fuzzed_args(VALID_BINNING_ARGS))
def test_binning_fuzzed_args(args):
    """Any options give exit 0 with a finite CSV or exit 1 with one line."""
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bins.csv"
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["binning", "--out", str(out)] + args)
        err = stderr.getvalue()
        assert code in (0, 1), err
        if code:
            assert err.strip() and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert not out.exists()
        else:
            assert err == ""
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(math.isfinite(float(x)) for r in rows for x in r[2:]
                       if x)


class TestSimulateDegenerate:
    DEGENERATE = {"m1": 2, "m2": 2, "n": 3, "ne": 4, "eve_counts": [4]}

    def test_jammed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **self.DEGENERATE)
        stem = tmp_path / "deg"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(stem)]) == 1
        assert "secure DoF is zero" in capsys.readouterr().err
        assert not (tmp_path / "deg.csv").exists()

    def test_control_runs(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", **self.DEGENERATE)
        stem = tmp_path / "deg"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(stem),
                         "--no-jamming"]) == 0
        with open(f"{stem}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(float(r[1]) > 0.0 and float(r[2]) > 0.0 for r in rows)
        summary = json.loads(Path(f"{stem}.json").read_text())
        assert summary["ds_theory"] == 0.0
        exp = SMALL_EXPERIMENT
        assert summary["leakage_delta"] == rates.sweep(
            AntennaConfig(2, 2, 3, 4), exp["alpha"], exp["p_grid"],
            exp["trials"], exp["seed"], eve_counts=[4],
            jamming=False).leakage_delta


def test_simulate_builds_each_jammed_trial_once(tmp_path, monkeypatch):
    # The engine builds stacks of trials: count the trials in them.
    sizes, seeds = [], []
    build = rates.build_precoder_set

    def counting(plan, h1, h2, rngs):
        sizes.append(len(h1))
        # A trial's precoder stream is known by its generator's state.
        seeds.extend(tuple(rng.bit_generator.state["state"].values())
                     for rng in rngs)
        return build(plan, h1, h2, rngs)

    monkeypatch.setattr(rates, "build_precoder_set", counting)
    # Shrink the budget to blocks of 8 trials, so that 10 trials take two.
    block = 8
    exp = SMALL_EXPERIMENT
    antennas = AntennaConfig(exp["m1"], exp["m2"], exp["n"], exp["ne"])
    per_trial = rates._trial_bytes(antennas, regions.jamming_plan(antennas),
                                   exp["eve_counts"], len(exp["p_grid"]))
    monkeypatch.setattr(rates, "BLOCK_BYTES", block * per_trial)
    cfg = write_config(tmp_path / "exp.json", trials=block + 2)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
    assert sum(sizes) == block + 2 and len(sizes) == 2
    assert len(set(seeds)) == len(seeds) == sum(sizes)


class TestBinningCommand:
    def test_csv_schema_and_trend(self, tmp_path):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4,8", "--num-seeds", "60",
                         "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "seed", "equivocation", "normalized"]
        means = {r[0]: float(r[3]) for r in rows[1:] if r[1] == "mean"}
        assert means["8"] >= means["4"] - 0.05

    def test_full_erasure_normalized_one(self, tmp_path):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4", "--delta", "1.0",
                         "--num-seeds", "2", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert all(float(r[3]) == 1.0 for r in rows[1:])

    def test_no_erasure_normalized_zero(self, tmp_path):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4", "--delta", "0.0",
                         "--num-seeds", "2", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_budget_exceeded(self, tmp_path, capsys):
        # n = 16 is the one budget, binning.MAX_BLOCK_BITS; 17 exceeds it
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "16", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 10 + 1
        assert cli.main(["binning", "--n-list", "17"]) == 1
        assert capsys.readouterr().err == \
            "binning failed: block length 17 exceeds budget 16\n"

    @pytest.mark.parametrize("extra", [
        ["--rate-total", "inf"],
        ["--rate-secret", "inf"],
        ["--num-seeds", str(cli.MAX_SEEDS + 1)],
        ["--n-list", "-4"],
        ["--rate-total", "-1", "--rate-secret=-2"],
        ["--n-list", "0"],
        ["--n-list", "12,0"],
        ["--n-list", "12,17", "--rate-total", "1.0", "--rate-secret", "1.0"],
        ["--n-list", ","],
        ["--n-list", "9" * 400],
    ], ids=["rate-total=inf", "rate-secret=inf", "num-seeds-over-limit",
            "n-list=-4", "negative-rates", "n-list=0", "n-list=12,0",
            "n-list=12,17-over-budget", "n-list=,", "n-list=400-digits"])
    def test_bad_input_one_line(self, tmp_path, capsys, extra):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4", "--out", str(out)]
                        + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("binning failed") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--n-list", "12,0"],
        ["--n-list", "12,17", "--rate-total", "1.0", "--rate-secret", "1.0"],
    ])
    def test_bad_late_block_length_enumerates_nothing(self, monkeypatch,
                                                      capsys, extra):
        calls = []
        monkeypatch.setattr(binning, "equivocation_exact",
                            lambda code, ch: calls.append(code.n) or 0.0)
        assert cli.main(["binning"] + extra) == 1
        assert "binning failed" in capsys.readouterr().err
        assert calls == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["binning", "--n-list", "4,8", "--num-seeds", "2",
                  "--out", str(a)])
        cli.main(["binning", "--n-list", "4,8", "--num-seeds", "2",
                  "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["binning", "--rate-secret", "-inf"],
        ["simulate"],
        ["sdof", "1", "2"],
        ["sdof", "1", "2", "3", "x"],
        ["bogus"],
        [],
        ["grid-verify", "x"],
        ["grid-verify", "2", "--unknown"],
    ], ids=lambda argv: "_".join(argv) or "no-command")
    def test_exit_1_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [["--help"], ["sdof", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
