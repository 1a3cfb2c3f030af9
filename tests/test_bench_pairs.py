import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}


def _run(pair, side, wall_s=None, error=None):
    run = {"workload": "w", "seed": 1, "pair": pair, "side": side}
    if error is not None:
        return {**run, "error": error}
    return {**run, "metrics": {"wall_s": wall_s, "peak_rss_mb": 100.0},
            "attempted": 4, "failed": 0}


def test_summarize_counts_a_failed_run():
    runs = [
        _run(0, "parent", 2.0), _run(0, "change", 1.0),
        _run(1, "change", error={"exit_code": 1, "stderr": "boom"}), _run(1, "parent", 3.0),
        _run(2, "parent", 4.0), _run(2, "change", 5.0),
    ]
    entry = bench_pairs.summarize(runs, BETTER)["w"]["1"]
    assert entry["failed_runs"] == {"parent": 0, "change": 1}
    # pair 1 has no change run, so the wins compare pairs 0 and 2
    assert entry["change_better"] == {"wall_s": "1/2", "peak_rss_mb": "0/2"}
    assert entry["parent"]["wall_s"]["median"] == 3.0
    assert entry["change"]["wall_s"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}


def test_summarize_one_side_all_failed():
    runs = [_run(0, "parent", 2.0), _run(0, "change", error={"timeout_s": 600, "stderr": ""})]
    entry = bench_pairs.summarize(runs, BETTER)["w"]["1"]
    assert entry["failed_runs"] == {"parent": 0, "change": 1}
    assert entry["parent"]["wall_s"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert entry["change"]["wall_s"] is None
    assert entry["change_better"]["wall_s"] == "0/0"


@pytest.mark.parametrize(
    "body, timeout, want",
    [
        ("import sys; sys.stderr.write('boom'); sys.exit(3)", 60,
         {"exit_code": 3, "stderr": "boom"}),
        ("import sys, time; sys.stderr.write('slow'); sys.stderr.flush(); time.sleep(30)", 1,
         {"timeout_s": 1, "stderr": "slow"}),
    ],
    ids=["exit-code", "timeout"],
)
def test_bench_reports_a_failed_run(tmp_path, monkeypatch, body, timeout, want):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(body + "\n")
    monkeypatch.setattr(bench_pairs, "TIMEOUT", timeout)
    result, error = bench_pairs.bench(str(tmp_path), "w", 1, 1.0)
    assert result is None
    assert error == want
