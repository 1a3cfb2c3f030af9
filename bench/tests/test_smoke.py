"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

# The same code paths as wl.SIZES at sizes a smoke test can afford.
TINY = {
    "sk-small": {"mixture": wl.SK, "n": 10, "replicas": 64, "L": 1},
    "sk-large": {"mixture": wl.SK, "n": 60, "replicas": 8, "L": 1},
    "mixed-tensor": {"mixture": wl.MIXED, "n": 8, "replicas": 2, "L": 1},
    "oracle": {
        "mixture": wl.MIXED, "n": 6, "s_list": [0.5], "batch_size": 20,
        "samples": 20, "sweeps": 30, "burn_in": 10,
    },
}

OUTPUT_DEFECT = (
    "`w2` decodes a CSV batch with the `n` of its config echo, which is the "
    "default 10, not the tensor file's n, when `exact`/`glauber` load --tensor-file "
    "without `n`"
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "SIZES", TINY)


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout's (ignored) output directory."""
    path = os.path.join(bench.OUT, "smoke-" + request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(tiny, capfd, trace, kind):
    assert bench.main(["--seconds", "1", "--trace", str(trace)]) == 0
    out = capfd.readouterr().out
    spec = _spec()
    results = json.loads(out.splitlines()[-1])
    assert list(results) == list(TINY)
    assert {w["name"] for w in spec["workloads"]} <= set(results)
    for name, res in results.items():
        assert res["attempted"] >= 1
        assert res["correct"] and res["failed"] == 0, name
        assert list(res["metrics"]) == [m["name"] for m in spec[kind]]
        for m in spec[kind]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    for m in spec[kind]:
        line = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
        assert len(re.findall(line, out, re.M)) == len(results), m["name"]
    if trace == 0:
        for name, unit in bench.REPORT_UNITS.items():
            assert re.search(rf"^\s+{name}\s+\S+\s+{re.escape(unit)}$", out, re.M)


def test_single_workload_result_line(tiny, capfd):
    assert bench.main(["--workload", "sk-small", "--seed", "2", "--seconds", "1",
                       "--trace", "0"]) == 0
    res = json.loads(capfd.readouterr().out.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_sk_large_checked_against_enumeration(tiny):
    run = bench.measure("sk-large", TINY["sk-large"], 1, 1, trace=False)
    assert run.w2 is not None
    assert run.failed == 0


def test_oracle_checks_pass(workdir):
    run = bench.Run("oracle", TINY["oracle"], 1, workdir)
    run.repeat(traced=False, timeout=120)
    assert run.attempted > 1 and run.failed == 0


@pytest.mark.xfail(strict=True, reason=OUTPUT_DEFECT)
def test_oracle_checks_pass_without_n(workdir):
    run = bench.Run("oracle", TINY["oracle"], 1, workdir)
    for kind in ("exact", "glauber"):
        path = os.path.join(workdir, kind + ".json")
        with open(path) as f:
            cfg = json.load(f)
        del cfg["n"]
        with open(path, "w") as f:
            json.dump(cfg, f)
    run.repeat(traced=False, timeout=120)
    assert run.attempted > 1 and run.failed == 0


def test_corrupted_result_raises_fail_frac(workdir):
    run = bench.Run("sk-small", TINY["sk-small"], 1, workdir)
    run.repeat(traced=False, timeout=120)
    assert bench.end_to_end(run)[1]["fail_frac"] == 0
    path = os.path.join(workdir, "sample.csv")
    with open(path) as f:
        lines = f.read().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",zz"
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    run.check(run.repeats[-1][1])
    assert bench.end_to_end(run)[1]["fail_frac"] > 0


def test_fails_without_program_sources(workdir):
    shutil.copytree(BENCH, os.path.join(workdir, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", "sk-small",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True, timeout=600)
    assert proc.returncode != 0
    assert proc.stdout == ""
