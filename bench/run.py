"""glasslocal benchmark: end-to-end and per-layer metrics on four workloads.

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced

Each run writes its workload's inputs from --seed into .bench_out/<workload>/,
then repeats the workload in fresh processes (bench/child.py) until --seconds
have passed, at least twice untraced, or at least one untraced and one traced
repeat with --trace 1.  Every repeat's outputs are checked; each failed check
is a failed operation.  The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  See
bench/README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread in this process and in every process it starts (they
# inherit the environment).  On a shared 2-core machine two BLAS threads
# wait on each other whenever another tenant takes one core, and the
# sampler workloads' repeat times spread two to three times wider.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: A run starts no repeat it expects to end after RUN_CAP_S, and kills any
#: process still running at KILL_S, inside the 180 s a run may take.
RUN_CAP_S = 140
KILL_S = 165

# printed beside the end-to-end metrics; not every workload has them
REPORT_UNITS = {"replica_steps_per_s": "1/s", "w2_excess": "W2", "fail_frac": "fraction"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


class Run:
    """Repeats of one workload at one seed, with every check's outcome."""

    def __init__(self, name: str, size: dict, seed: int, workdir: str):
        self.name, self.size, self.seed, self.workdir = name, size, seed, workdir
        self.invocations, self.outputs = wl.prepare(name, size, seed, workdir)
        self.repeats: list[tuple[bool, dict]] = []  # (traced, child stats)
        self.outcomes: list[bool] = []
        self.reference: list[str | None] | None = None  # first repeat's output digests
        self.samples = None  # decoded samples of the first repeat
        self.w2: tuple[float, float] | None = None  # W2(alg, exact), W2(exact', exact)
        self.bytes_written: list[int] = []

    def repeat(self, traced: bool, timeout: float) -> None:
        for out in self.outputs:
            for path in (out, out + ".config.json"):
                if os.path.exists(os.path.join(self.workdir, path)):
                    os.remove(os.path.join(self.workdir, path))
        spec_path = os.path.join(self.workdir, "child-spec.json")
        stats_path = os.path.join(self.workdir, "child-stats.json")
        if os.path.exists(stats_path):
            os.remove(stats_path)
        with open(spec_path, "w") as f:
            json.dump({"src": SRC, "workdir": self.workdir, "trace": traced,
                       "invocations": self.invocations, "stats": stats_path}, f)
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                           stdout=sys.stderr, timeout=timeout, check=False)
            with open(stats_path) as f:
                stats = json.load(f)
        except (subprocess.TimeoutExpired, OSError, ValueError) as e:
            print(f"bench: {self.name} repeat failed: {e}", file=sys.stderr)
            self.outcomes.append(False)
            return
        self.repeats.append((traced, stats))
        self.check(stats)

    def check(self, stats: dict) -> None:
        """Record the outcome of every check on the current result files."""
        self.outcomes += [code == 0 for code in stats["codes"]]
        self.outcomes.append(stats["setup_s"] is not None)
        outcomes, samples = wl.check_outputs(self.name, self.size, self.workdir)
        self.outcomes += outcomes
        paths = [os.path.join(self.workdir, out) for out in self.outputs]
        digests = [_file_digest(p) for p in paths]
        if self.reference is None:
            self.reference, self.samples = digests, samples
        else:  # the CLI promises byte-identical results for a fixed input
            self.outcomes += [d == r for d, r in zip(digests, self.reference)]
        self.bytes_written.append(sum(
            os.path.getsize(p) for out in paths for p in (out, out + ".config.json")
            if os.path.exists(p)))

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return self.outcomes.count(False)


def measure(name: str, size: dict, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(name, size, seed, os.path.join(OUT, name))
    modes = [False, True] if trace else [False]
    min_rounds = 1 if trace else 2
    start = time.perf_counter()

    def time_left():
        return max(1.0, KILL_S - (time.perf_counter() - start))

    # Warm the file cache for the interpreter's imports, so that the first
    # repeat's set-up is not the only one that reads from disk.
    warm = f"import sys; sys.path.insert(0, {SRC!r}); import glasslocal.cli"
    try:
        subprocess.run([sys.executable, "-c", warm], stdout=sys.stderr, timeout=time_left(),
                       check=False)
    except subprocess.TimeoutExpired:
        pass  # the repeats below fail and are counted
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            run.repeat(traced, timeout=time_left())
        rounds += 1
        elapsed = time.perf_counter() - t0
        per_round = elapsed / rounds
        if elapsed + per_round > RUN_CAP_S:
            break
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
    samples = run.samples
    if name == "sk-large":
        # sk-small's invocation, after and outside the timed repeats, so that
        # a gated sampler workload is checked against exact enumeration
        side = Run("sk-small", wl.SIZES["sk-small"], seed, os.path.join(run.workdir, "sk-small"))
        side.repeat(False, timeout=time_left())
        run.outcomes += side.outcomes
        samples = side.samples
    if name in ("sk-small", "sk-large") and samples is not None and len(samples):
        w2_alg, w2_base = wl.w2_reference(wl.SIZES["sk-small"], seed, samples)
        run.w2 = (w2_alg, w2_base)
        # acceptance criterion 05 bound
        run.outcomes.append(w2_alg <= 2.0 * w2_base + 0.05)
    return run


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics for the JSON line, further metrics for the report)."""
    plain = [s for traced, s in run.repeats if not traced and s["setup_s"] is not None]
    metrics = {
        "setup_s": _median([s["setup_s"] for s in plain]),
        "wall_s": _median([s["wall_s"] for s in plain]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }
    report = {}
    if wl.is_sampler(run.name):
        steps = run.size["replicas"] * (run.size["L"] + 1)
        report["replica_steps_per_s"] = _median(
            [steps / s["sampler_s"] for s in plain if s["sampler_s"] > 0])
    if run.w2 is not None:
        report["w2_excess"] = run.w2[0] - run.w2[1]
    report["fail_frac"] = run.failed / max(run.attempted, 1)
    return metrics, report


def per_layer(run: Run) -> tuple[dict, dict]:
    """(per-layer metrics, per-span table of median calls/total/self)."""
    n, mixture = run.size["n"], run.size["mixture"]
    tb = wl.tensor_bytes(mixture, n)
    grad_bytes = sum(p * b for p, b in tb.items())
    ham_bytes = sum(tb.values())
    traced = [s for t, s in run.repeats if t]
    plain_wall = [s["wall_s"] for t, s in run.repeats if not t]
    per_repeat, names = [], set()
    for s in traced:
        tr = s["trace"]
        names |= set(tr["spans"])

        def span(name, tr=tr):
            return tr["spans"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        steps = len(tr["step_ms"])
        grad, ham = span("disorder.grad"), span("disorder.hamiltonian")
        table, glauber = span("disorder.hamiltonian_table"), span("baselines.glauber_run")
        kernel_bytes = grad["calls"] * grad_bytes + ham["calls"] * ham_bytes
        kernel_s = grad["total_s"] + ham["total_s"]
        trials = span("tap.ftap_value")["calls"] - span("tap.ngd_run")["calls"]
        updates = glauber["calls"] * run.size.get("sweeps", 0) * n
        per_repeat.append({
            "disorder.grad.calls_per_step": grad["calls"] / steps if steps else 0.0,
            "disorder.hamiltonian.calls_per_step": ham["calls"] / steps if steps else 0.0,
            "disorder.grad.ms_per_call": 1e3 * grad["total_s"] / grad["calls"] if grad["calls"] else 0.0,
            "disorder.hamiltonian.ms_per_call": 1e3 * ham["total_s"] / ham["calls"] if ham["calls"] else 0.0,
            "disorder.gb_per_step": kernel_bytes / steps / 1e9 if steps else 0.0,
            "disorder.gbps": kernel_bytes / kernel_s / 1e9 if kernel_s else 0.0,
            "disorder.hamiltonian_table.rows_per_s":
                table["calls"] * 2**n / table["total_s"] if table["total_s"] else 0.0,
            "disorder.read_tensors.s": span("disorder.read_tensors")["total_s"],
            "amp.amp_run.self_s": span("amp.amp_run")["self_s"],
            "amp.clamp_count": tr["clamp_count"],
            "tap.ngd_run.self_s": span("tap.ngd_run")["self_s"],
            "tap.ftap_value.self_ms": 1e3 * span("tap.ftap_value")["self_s"],
            "tap.ftap_grad.self_ms": 1e3 * span("tap.ftap_grad")["self_s"],
            "tap.ngd_halvings": tr["ngd_halvings"],
            "tap.trial_accept_ratio": (trials - tr["ngd_halvings"]) / trials if trials else 0.0,
            "localization.sample.self_s": span("localization.sample")["self_s"],
            "localization.step_ms.count": steps,
            "state_evolution.q_schedule.s": span("state_evolution.q_schedule")["total_s"],
            "baselines.exact_gibbs.s": span("baselines.exact_gibbs")["total_s"],
            "baselines.exact_sample.s": span("baselines.exact_sample")["total_s"],
            "baselines.empirical_w2.s": span("baselines.empirical_w2")["total_s"],
            "baselines.glauber_run.updates_per_s":
                updates / glauber["total_s"] if glauber["total_s"] else 0.0,
            "experiments.chaos_experiment.self_s": span("experiments.chaos_experiment")["self_s"],
            "cli.self_s": span("cli")["self_s"],
            "trace.unattributed_s": s["wall_s"] - tr["attributed_s"],
        })
    metrics = {k: _median([r[k] for r in per_repeat]) for k in per_repeat[0]}
    steps = [ms for s in traced for ms in s["trace"]["step_ms"]]
    p50, p90 = np.percentile(steps, [50, 90]) if steps else (0.0, 0.0)
    metrics["localization.step_ms.p50"] = float(p50)
    metrics["localization.step_ms.p90"] = float(p90)
    metrics["cli.bytes_written"] = _median(run.bytes_written)
    base = _median(plain_wall)
    metrics["trace.overhead_frac"] = (_median([s["wall_s"] for s in traced]) - base) / base
    table = {}
    for name in sorted(names):
        rows = [s["trace"]["spans"].get(name, {}) for s in traced]
        table[name] = {k: _median([r.get(k, 0) for r in rows]) for k in ("calls", "total_s", "self_s")}
        table[name]["parents"] = next(r["parents"] for r in rows if r)
    return metrics, table


def environment(name: str, size: dict) -> dict:
    """Software and machine facts recorded beside each workload's results."""

    def git_sha():
        try:
            top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = top.stdout.split()
        same = top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT)
        return lines[1] if same else None

    def blas_threads():
        try:
            with open("/proc/self/maps") as f:
                libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln}
        except OSError:
            return None
        for lib in sorted(libs):
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return fn()
        return None

    def llc_bytes():
        base = "/sys/devices/system/cpu/cpu0/cache"
        best = None
        for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
            try:
                with open(os.path.join(base, idx, "size")) as f:
                    text = f.read().strip()
            except OSError:
                continue
            mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            value = int(text.rstrip("KM")) * mult
            best = value if best is None else max(best, value)
        return best

    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname)) as f:
                    src_lines += sum(1 for _ in f)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    largest = max(wl.tensor_bytes(size["mixture"], size["n"]).values())
    llc = llc_bytes()
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "workload": name,
        "largest_tensor_bytes": largest,
        "last_level_cache_bytes": llc,
        "note": (
            "disorder.gbps and disorder.gb_per_step are computed from tensor bytes times "
            "passes, not measured traffic; "
            + ("the largest tensor fits in the last-level cache, so they are a cache-level "
               "rate, not a DRAM bandwidth"
               if llc and largest < llc else
               "compare the largest tensor with the last-level cache before reading them "
               "as DRAM bandwidth")
        ),
    }


def _print_metrics(metrics: dict, units: dict) -> None:
    for key, value in metrics.items():
        print(f"  {key:40s} {value:>16.6g} {units[key]}")


def bench_one(name: str, size: dict, seed: int, seconds: float, trace: bool) -> dict:
    run = measure(name, size, seed, seconds, trace)
    for traced in ([False, True] if trace else [False]):
        if not any(t == traced and s["setup_s"] is not None for t, s in run.repeats):
            raise RuntimeError(f"{name}: no {'traced' if traced else 'untraced'} repeat completed")
    env = environment(name, size)
    plain = sum(1 for t, _ in run.repeats if not t)
    print(f"{name}: seed {seed}, {plain} untraced and {len(run.repeats) - plain} traced "
          f"repeats, {run.failed} of {run.attempted} checks failed")
    e2e, report = end_to_end(run)
    walls = [s["wall_s"] for t, s in run.repeats if not t]
    print("  wall_s per untraced repeat: " + " ".join(f"{w:.3f}" for w in walls))
    units = metric_units("end_to_end")
    _print_metrics(e2e, units)
    _print_metrics(report, REPORT_UNITS)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed}
    if trace:
        units = metric_units("per_layer")
        measured, table = per_layer(run)
        layers = {k: measured[k] for k in units}
        print("  per layer (traced repeats, medians):")
        _print_metrics(layers, units)
        wall = _median([s["wall_s"] for t, s in run.repeats if t])
        print(f"  spans: {'name':34s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
        for span_name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"         {span_name:34s} {row['calls']:10.0f} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f} {100 * row['self_s'] / wall:6.2f}")
        unattributed = layers["trace.unattributed_s"]
        print(f"         {'(unattributed)':34s} {'':10s} {'':10s} {unattributed:10.4f} "
              f"{100 * unattributed / wall:6.2f}")
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        with open(os.path.join(run.workdir, "trace.json"), "w") as f:
            json.dump({"spans": table, "metrics": layers}, f, indent=2)
    else:
        result["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in units.items()}
    with open(os.path.join(run.workdir, "env.json"), "w") as f:
        json.dump(env, f, indent=2)
    with open(os.path.join(run.workdir, "result.json"), "w") as f:
        json.dump({"workload": name, "seed": seed, "report": report, **result}, f, indent=2)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.SIZES])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "glasslocal", "cli.py")):
        print(f"bench: no glasslocal sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = list(wl.SIZES) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, wl.SIZES[name], args.seed,
                                      args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
