import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from sdoflab import cli
from sdoflab.cli import iter_canonical_configs

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs():
    return load_tool("bench_pairs")


@pytest.fixture
def compare_outputs():
    return load_tool("compare_outputs")


@pytest.mark.parametrize("pairs", ["0", "1", "-3"])
def test_bench_pairs_rejects_fewer_than_two_pairs(bench_pairs, monkeypatch,
                                                   capsys, pairs):
    def no_export(*args):
        raise AssertionError("exported a tree before checking --pairs")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD",
                          "--out", "unused.json", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_bench_pairs_exports_with_compare_outputs(bench_pairs):
    # one git-archive export serves both tools
    assert bench_pairs.export.__module__ == "compare_outputs"


@pytest.mark.parametrize("argv,message", [
    (["--parent", "HEAD"], "the following arguments are required: --change"),
    (["--change", "HEAD"], "the following arguments are required: --parent"),
    (["--parent", "HEAD", "--change"], "--change: expected one argument"),
])
def test_compare_outputs_needs_both_revisions(compare_outputs, monkeypatch,
                                              capsys, argv, message):
    def no_export(*args):
        raise AssertionError("exported a tree before checking arguments")

    monkeypatch.setattr(compare_outputs, "export", no_export)
    with pytest.raises(SystemExit) as exit_info:
        compare_outputs.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_compare_outputs_reports_relative_difference(compare_outputs):
    compare = compare_outputs.compare
    assert compare("p,rate\n1e3,2.5\n", "p,rate\n1e3,2.5\n") == "identical"
    assert compare("1000.0,2.5,-4\n", "1000.0,2.0,-4\n") == \
        "largest relative difference 0.2"
    assert compare("a 1\n", "b 1\n") == "differs outside its numbers"
    assert compare("1,2\n", "1,2,3\n") == "differs outside its numbers"


def test_compare_outputs_runs_the_documented_commands(compare_outputs):
    configs, commands = compare_outputs.commands()
    names = [name for name, _ in commands]
    assert names[:7] == ["grid-8", "grid-10", "binning", "binning-rate-1-0.5",
                         "binning-n16", "binning-n16-rate-1-0.5",
                         "binning-rate-0"]
    assert len(configs) == 10 + 200 and len(names) == 7 + 2 * 10 + 200
    binning_runs = dict(commands[2:7])
    assert binning_runs["binning-rate-1-0.5"][1:5] == \
        ["--rate-total", "1.0", "--rate-secret", "0.5"]
    assert binning_runs["binning-n16"][1:3] == ["--n-list", "4,8,12,16"]
    assert binning_runs["binning-n16-rate-1-0.5"][1:7] == \
        ["--n-list", "16", "--rate-total", "1.0", "--rate-secret", "0.5"]
    assert binning_runs["binning-rate-0"][1:5] == \
        ["--rate-total", "0", "--rate-secret", "0"]
    cfg = configs["cfg-7-3-8-9.json"]
    assert cfg["eve_counts"] == list(range(10))
    assert (cfg["trials"], cfg["seed"], cfg["alpha"]) == (20, 7, 0.5)
    assert cfg["p_grid"] == [10.0 ** k for k in range(3, 10)]
    # the two-trial set: jammed, as the benchmark's sim-grid runs it
    two_trial = commands[27:]
    assert [name for name, _ in two_trial] == \
        [f"two-trial-{m1}-{m2}-{n}-{ne}"
         for m1, m2, n, ne in compare_outputs.two_trial_configs()]
    assert two_trial[0][1] == ["simulate", "--config",
                               "cfg-two-trial-1-1-1-0.json",
                               "--out", "two-trial-1-1-1-0"]
    assert all("--no-jamming" not in argv for _, argv in two_trial)
    cfg = configs["cfg-two-trial-4-4-4-7.json"]
    assert cfg["eve_counts"] == [7]
    assert (cfg["trials"], cfg["seed"], cfg["alpha"]) == (2, 42, 0.5)
    assert cfg["p_grid"] == [1e3, 1e5, 1e7, 1e9]


def test_compare_outputs_names_every_output(compare_outputs):
    configs, commands = compare_outputs.commands()
    paths = compare_outputs.output_paths(commands)
    assert paths[:7] == ["grid-8.csv", "grid-10.csv", "binning.csv",
                         "binning-rate-1-0.5.csv", "binning-n16.csv",
                         "binning-n16-rate-1-0.5.csv", "binning-rate-0.csv"]
    assert paths[7:9] == ["sim-2-2-4-1-jam.csv", "sim-2-2-4-1-jam.json"]
    assert len(paths) == len(set(paths)) == 7 + 2 * 2 * 10 + 2 * 200


def test_compare_outputs_runs_over_stale_outputs(compare_outputs,
                                                 monkeypatch, tmp_path):
    # every output path holds a stale file, longer than any output, when
    # the commands start
    seen = {}

    def child(argv, cwd, env, check):
        for path in cwd.iterdir():
            with open(path, "rb") as fh:
                seen[path.name] = (fh.read(len(compare_outputs.STALE)),
                                   path.stat().st_size)

    monkeypatch.setattr(compare_outputs.subprocess, "run", child)
    compare_outputs.run(tmp_path / "tree", tmp_path / "out")
    configs, commands = compare_outputs.commands()
    stale = {name: seen.pop(name)
             for name in compare_outputs.output_paths(commands)}
    assert sorted(seen) == sorted(configs)
    assert set(stale.values()) == \
        {(compare_outputs.STALE, compare_outputs.STALE_BYTES)}
    largest = tmp_path / "grid-10.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["grid-verify", "10", "--out", str(largest)]) == 0
    assert largest.stat().st_size < compare_outputs.STALE_BYTES


def test_compare_outputs_two_trial_set_is_the_canonical_grid(
        compare_outputs):
    assert compare_outputs.two_trial_configs() == \
        [(c.m1, c.m2, c.n, c.ne) for c in iter_canonical_configs(4)]


@pytest.mark.parametrize("change_files,status,verdicts", [
    ({"a.csv": "p,rate\n1e3,2.5\n", "a.out": "exit 0\n"}, 0,
     ["a.csv: identical", "a.out: identical"]),
    ({"a.csv": "p,rate\n1e3,2.0\n", "a.out": "exit 0\n"}, 1,
     ["a.csv: largest relative difference 0.2", "a.out: identical"]),
    ({"a.csv": "p,rate\n1e3,2.5\n"}, 1,
     ["a.csv: identical", "a.out: missing on the change side"]),
], ids=["identical", "differs", "missing"])
def test_compare_outputs_exit_status(compare_outputs, monkeypatch, capsys,
                                     tmp_path, change_files, status,
                                     verdicts):
    trees = {"parent": {"a.csv": "p,rate\n1e3,2.5\n", "a.out": "exit 0\n",
                        "cfg-1-1-1-0.json": "{}"},
             "change": change_files}

    def write_tree(tree, out):
        out.mkdir()
        for name, text in trees[tree].items():
            (out / name).write_text(text)

    monkeypatch.setattr(compare_outputs, "export",
                        lambda side, scratch, name: name)
    monkeypatch.setattr(compare_outputs, "run", write_tree)
    assert compare_outputs.main(["--parent", "HEAD~1",
                                 "--change", "HEAD"]) == status
    assert capsys.readouterr().out.splitlines() == \
        ["parent HEAD~1, change HEAD", *verdicts]


def test_compare_outputs_reports_a_stale_summary(compare_outputs,
                                                 tmp_path):
    # a summary with a stale tail is a difference, not a crash
    summary = '{"leakage_delta": 0.25, "slope": 2.5}\n'
    for side, tail in (("parent", ""), ("change", "stale output\n")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "sim-1-jam.json").write_text(summary + tail)
    lines, same = compare_outputs.report(tmp_path / "parent",
                                         tmp_path / "change")
    assert lines == ["sim-1-jam.json: differs outside its numbers"]
    assert same is False
    assert compare_outputs.slopes(summary, summary) == \
        "; slope 2.5000 -> 2.5000; leakage_delta 0.2500 -> 0.2500"


@pytest.mark.parametrize("change_texts,summary,same", [
    (["1,2.5\n", "1,4\n", "a 1\n"],
     "3 of 3 files identical, largest relative difference 0", True),
    (["1,2.0\n", "1,8\n", "a 1\n"],
     "1 of 3 files identical, largest relative difference 0.5", False),
    (["1,2.5\n", "1,4\n", "b 1\n"],
     "2 of 3 files identical, largest relative difference 0, "
     "1 differ outside their numbers", False),
], ids=["identical", "differs", "text"])
def test_compare_outputs_summarizes_the_two_trial_set(
        compare_outputs, tmp_path, change_texts, summary, same):
    # one line for the whole set, after the other files' lines
    parent_texts = ["1,2.5\n", "1,4\n", "a 1\n"]
    for side, texts in (("parent", parent_texts), ("change", change_texts)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "a.csv").write_text("p\n1e3\n")
        for k, text in enumerate(texts):
            (tmp_path / side / f"two-trial-{k}.csv").write_text(text)
    lines, verdict = compare_outputs.report(tmp_path / "parent",
                                            tmp_path / "change")
    assert lines == ["a.csv: identical", f"two-trial-*: {summary}"]
    assert verdict is same
