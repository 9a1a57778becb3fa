import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
