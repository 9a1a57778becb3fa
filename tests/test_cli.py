import csv
import json
from pathlib import Path

import pytest

from sdoflab import cli, rates
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

    def test_optional_eve_moment_keys(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", eve_mean=0.5, eve_var=2.0)
        stem = tmp_path / "mom"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(stem)]) == 0

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
    pytest.param({"eve_var": 1e300, "p_grid": [1e3, 1e5, 1e7, 1e9]}, [],
                 id="eve_var=1e300"),
    pytest.param({"eve_mean": 1e300}, [], id="eve_mean=1e300"),
    # numerically singular eavesdropper covariance under the extension
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
        assert summary["leakage_delta"] == rates.leakage_saturation(
            AntennaConfig(2, 2, 3, 4), exp["alpha"], exp["p_grid"][0],
            exp["p_grid"][-1], exp["trials"], exp["seed"], eve_counts=[4],
            jamming=False)


def test_simulate_builds_each_jammed_trial_once(tmp_path, monkeypatch):
    calls = []
    build = rates.build_precoder_set

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(rates, "build_precoder_set", counting)
    cfg = write_config(tmp_path / "exp.json")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == SMALL_EXPERIMENT["trials"]


class TestBinningCommand:
    def test_csv_schema_and_trend(self, tmp_path):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4,8", "--num-seeds", "3",
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

    def test_budget_exceeded(self, capsys):
        # n = 16 builds (block budget) but exceeds the enumeration budget
        assert cli.main(["binning", "--n-list", "16"]) == 1
        assert "binning failed" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--rate-total", "inf"],
        ["--rate-secret", "inf"],
        ["--num-seeds", str(cli.MAX_SEEDS + 1)],
    ], ids=["rate-total=inf", "rate-secret=inf", "num-seeds-over-limit"])
    def test_bad_input_one_line(self, tmp_path, capsys, extra):
        out = tmp_path / "bins.csv"
        assert cli.main(["binning", "--n-list", "4", "--out", str(out)]
                        + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("binning failed") and err.count("\n") == 1, err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["binning", "--n-list", "4,8", "--num-seeds", "2",
                  "--out", str(a)])
        cli.main(["binning", "--n-list", "4,8", "--num-seeds", "2",
                  "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
