"""Alternating parent/change pairs of the benchmark, written to BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_13.json --seed 1 --seed 2

runs every workload that BENCHMARK.json declares (`--workload W`, repeated,
runs only those).  The change side is HEAD.  Each side is exported from git
(`git archive`) into its own temporary directory, so both sides run their
committed files from a clean tree with a fresh `.bench_out/`.  For every
workload and seed, each of PAIRS pairs runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once on each side, T being `run_seconds` from BENCHMARK.json; which side goes
first alternates from pair to pair.  The JSON file records each side's sha
and the harness's environment (numpy, BLAS and its thread count, nproc, the
line count of src/), every run's end-to-end metrics and check counts, and per
workload, seed and side the median and quartiles of each end-to-end metric,
with the number of pairs in which the change was better.  A run that exits
non-zero or times out is recorded with its exit code or timeout and the tail
of its stderr, counted per side in the summary, and left out of the
quartiles and of the pairs compared; the comparison goes on.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# what the harness reports about the machine and the tree, from its env.json
ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "src_lines")
# pairs per workload and seed: the fewest that can show a gain on nine of ten
PAIRS = 10
# seconds before one `bench/run.py` run counts as failed
TIMEOUT = 600


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """Write the tree of `rev` into `dest`; return the full sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def bench(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict]:
    """One `bench/run.py` run in `tree`: (its result line, its env.json), or
    (None, {"exit_code" or "timeout_s": ..., "stderr": its tail}) if it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired as e:
        err = e.stderr or ""  # bytes, whatever `text` says
        err = err.decode(errors="replace") if isinstance(err, bytes) else err
        return None, {"timeout_s": TIMEOUT, "stderr": err[-2000:]}
    if proc.returncode != 0:
        return None, {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    with open(os.path.join(tree, ".bench_out", workload, "env.json")) as f:
        env = json.load(f)
    with open(os.path.join(tree, ".bench_out", workload, "result.json")) as f:
        result = json.load(f)
    return result, env


def quartiles(values: list[float]) -> dict | None:
    """q1, median and q3 (inclusive method); one value is all three, none is None."""
    if len(values) < 2:
        return dict.fromkeys(("q1", "median", "q3"), values[0]) if values else None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """workload -> seed -> {side: {metric: quartiles}, "change_better": {metric: "k/n"},
    "failed_runs": {side: count}}.  Failed runs (with an "error") count only in
    "failed_runs"; "change_better" compares the pairs in which both sides ran."""
    out: dict = {}
    for run in runs:
        out.setdefault(run["workload"], {}).setdefault(str(run["seed"]), []).append(run)
    for workload, seeds in out.items():
        for seed, rs in seeds.items():
            by = {(r["pair"], r["side"]): r["metrics"] for r in rs if "error" not in r}
            pairs = sorted({i for i, _ in by if all((i, side) in by for side in SIDES)})
            entry = {side: {m: quartiles([v[m] for (_, s), v in by.items() if s == side])
                            for m in better}
                     for side in SIDES}
            entry["failed_runs"] = {side: sum("error" in r for r in rs if r["side"] == side)
                                    for side in SIDES}
            wins = {}
            for m, direction in better.items():
                sign = 1.0 if direction == "lower" else -1.0
                k = sum(sign * (by[i, "parent"][m] - by[i, "change"][m]) > 0 for i in pairs)
                wins[m] = f"{k}/{len(pairs)}"
            entry["change_better"] = wins
            seeds[seed] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent side")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default: all in BENCHMARK.json")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    revs = (args.parent, "HEAD")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        shas = {side: export(rev, trees[side]) for side, rev in zip(SIDES, revs)}
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        runs, envs = [], {}
        for workload in args.workload or [w["name"] for w in spec["workloads"]]:
            for seed in args.seed:
                for pair in range(PAIRS):
                    for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                        result, env = bench(trees[side], workload, seed, seconds)
                        run = {"workload": workload, "seed": seed, "pair": pair, "side": side}
                        if result is None:
                            runs.append({**run, "error": env})
                            print(f"{workload} seed {seed} pair {pair} {side}: FAILED "
                                  + json.dumps({k: v for k, v in env.items() if k != "stderr"}),
                                  flush=True)
                            continue
                        envs.setdefault(side, {k: env.get(k) for k in ENV_KEYS})
                        metrics = {m: v["value"] for m, v in result["metrics"].items()}
                        runs.append({**run, "metrics": metrics,
                                     "attempted": result["attempted"],
                                     "failed": result["failed"]})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              + " ".join(f"{m}={v:.4g}" for m, v in metrics.items())
                              + f" failed={result['failed']}", flush=True)

    report = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "sides": {side: {"rev": rev, "sha": shas[side], **envs.get(side, {})}
                  for side, rev in zip(SIDES, revs)},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
