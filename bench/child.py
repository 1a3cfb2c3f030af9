"""One repeat of a workload: a fresh interpreter runs its CLI invocations.

Usage: python3 child.py SPEC.json

SPEC names the source tree, the working directory, the `glasslocal` argument
lists to run there through `glasslocal.cli.main`, whether to trace, and the
file to write the measurements to.  Timing starts at the first statement
below, so import time is part of set-up.

With tracing on, public functions are wrapped under the names each calling
module imports them by (so `glasslocal.tap.grad` is the gradient as `tap`
calls it).  Each call records a span (name, parent span, start, end); spans
stay in memory and are summarised when the repeat ends.  With tracing off
only two markers remain: the first sampler step or enumeration (end of
set-up) and the time spent inside `sample`.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# (calling module, imported name, span name).  Only public functions; a name
# a later version no longer imports is reported and skipped.
TRACED = [
    ("glasslocal.cli", "read_tensors", "disorder.read_tensors"),
    ("glasslocal.cli", "q_schedule", "state_evolution.q_schedule"),
    ("glasslocal.cli", "sample", "localization.sample"),
    ("glasslocal.cli", "chaos_experiment", "experiments.chaos_experiment"),
    ("glasslocal.cli", "exact_gibbs", "baselines.exact_gibbs"),
    ("glasslocal.cli", "exact_sample", "baselines.exact_sample"),
    ("glasslocal.cli", "glauber_run", "baselines.glauber_run"),
    ("glasslocal.cli", "empirical_w2", "baselines.empirical_w2"),
    ("glasslocal.experiments", "gen_random", "disorder.gen_random"),
    ("glasslocal.experiments", "interpolate", "disorder.interpolate"),
    ("glasslocal.experiments", "exact_gibbs", "baselines.exact_gibbs"),
    ("glasslocal.experiments", "exact_sample", "baselines.exact_sample"),
    ("glasslocal.experiments", "empirical_w2", "baselines.empirical_w2"),
    ("glasslocal.experiments", "overlap_moment", "baselines.overlap_moment"),
    ("glasslocal.baselines", "hamiltonian_table", "disorder.hamiltonian_table"),
    ("glasslocal.baselines", "hamiltonian", "disorder.hamiltonian"),
    ("glasslocal.disorder", "hamiltonian", "disorder.hamiltonian"),
    ("glasslocal.localization", "amp_run", "amp.amp_run"),
    ("glasslocal.localization", "ngd_run", "tap.ngd_run"),
    ("glasslocal.localization", "ftap_grad", "tap.ftap_grad"),
    ("glasslocal.amp", "grad", "disorder.grad"),
    ("glasslocal.tap", "grad", "disorder.grad"),
    ("glasslocal.tap", "hamiltonian", "disorder.hamiltonian"),
    ("glasslocal.tap", "ftap_value", "tap.ftap_value"),
    ("glasslocal.tap", "ftap_grad", "tap.ftap_grad"),
]

# Calls that end set-up: the first sampler step, or the first enumeration
# (every oracle repeat starts with `chaos`).
SETUP_ENDS = [
    ("glasslocal.cli", "sample"),
    ("glasslocal.experiments", "exact_gibbs"),
]


class Tracer:
    """In-memory spans: [name, parent index or -1, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def summary(self):
        """Per span name: calls, total and self seconds, and parent names."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            pname = self.spans[parent][0] if parent >= 0 else "-"
            row["parents"][pname] = row["parents"].get(pname, 0) + 1
        return out

    def step_ms(self):
        """Sampler step durations: from each estimator start (amp_run under
        sample) to the next, the last one ending with its sample call."""
        steps, starts = [], {}
        for name, parent, start, end in self.spans:
            if name == "amp.amp_run" and parent >= 0 and self.spans[parent][0] == "localization.sample":
                starts.setdefault(parent, []).append(start)
        for parent, st in starts.items():
            bounds = st + [self.spans[parent][3]]
            steps += [1e3 * (b - a) for a, b in zip(bounds[:-1], bounds[1:])]
        return steps


class _Counter(logging.Handler):
    def __init__(self, needle):
        super().__init__(logging.DEBUG)
        self.needle, self.count = needle, 0

    def emit(self, record):
        if self.needle in str(record.msg):
            self.count += 1


def _patch(module, attr, make):
    mod = importlib.import_module(module)
    fn = getattr(mod, attr, None)
    if fn is None:
        print(f"bench: {module}.{attr} not found; not measured", file=sys.stderr)
        return
    setattr(mod, attr, make(fn))


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    os.chdir(spec["workdir"])
    tracer = Tracer() if spec["trace"] else None

    t_import = time.perf_counter()
    cli = importlib.import_module("glasslocal.cli")
    if tracer:
        tracer.spans.append(["import", -1, t_import, time.perf_counter()])
        for module, attr, name in TRACED:
            _patch(module, attr, functools.partial(tracer.wrap, name))
        amp_log, tap_log = _Counter("clamped"), _Counter("halved eta")
        logging.getLogger("glasslocal.amp").addHandler(amp_log)
        logging.getLogger("glasslocal.tap").addHandler(tap_log)
        logging.getLogger("glasslocal.tap").setLevel(logging.DEBUG)

    marks = {"setup_end": None, "sampler_s": 0.0}

    def mark(fn, sampler):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t = time.perf_counter()
            if marks["setup_end"] is None:
                marks["setup_end"] = t
            try:
                return fn(*args, **kwargs)
            finally:
                if sampler:
                    marks["sampler_s"] += time.perf_counter() - t

        return marked

    for module, attr in SETUP_ENDS:
        _patch(module, attr, functools.partial(mark, sampler=attr == "sample"))

    run = tracer.wrap("cli", cli.main) if tracer else cli.main
    codes, seconds = [], []
    for argv in spec["invocations"]:
        t = time.perf_counter()
        try:
            codes.append(run(argv))
        except Exception:
            traceback.print_exc()
            codes.append(-1)
        seconds.append(time.perf_counter() - t)
    t_end = time.perf_counter()

    stats = {
        "codes": codes,
        "invocation_s": seconds,
        "setup_s": None if marks["setup_end"] is None else marks["setup_end"] - T0,
        "wall_s": t_end - T0,
        "sampler_s": marks["sampler_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        summary = tracer.summary()
        stats["trace"] = {
            "spans": summary,
            "span_count": len(tracer.spans),
            "attributed_s": sum(row["self_s"] for row in summary.values()),
            "step_ms": tracer.step_ms(),
            "clamp_count": amp_log.count,
            "ngd_halvings": tap_log.count,
        }
    with open(spec["stats"], "w") as f:
        json.dump(stats, f)


if __name__ == "__main__":
    main()
