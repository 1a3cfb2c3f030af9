"""Byte comparison of CLI output files: a revision against the working tree.

    python3 tools/cli_outputs.py --parent HEAD [--change REV]

The parent revision is exported from git (`git archive`) into a temporary
directory.  The change side is the working tree, uncommitted edits included,
or, with `--change`, that revision exported in the same way.  In a fresh
output directory per side, with OPENBLAS_NUM_THREADS=1,
every entry of INVOCATIONS runs as

    glasslocal KIND ARGS... --out LABEL.out

from that side's `src/`.  The list is the one acceptance criterion 13 runs,
plus these on the {2: .5, 3: .7, 4: .2} mixture and on pure degrees:
`thresholds` on the mixture and on p = 50; `se` on the mixture above its
beta1, so the beta1 warning shows in the log; `glauber` on the mixture and
on the odd degree p = 3; so that the exact oracles see mixed and odd
degrees, `exact` and `chaos` on the mixture at n = 12 (the oracle
benchmark's shape) and `exact` on p = 3 at n = 7; and `stability` on the
mixture, whose runs share one q schedule.  One more runs `amp` with
`amp.planted=false` on an SK instance planted through `gen`, and `tap-n600`
runs `tap` with its default spectrum on SK at n = 600.  Two drive AMP's z
past |z| = 40: `amp-t60` runs `amp` at t = 60, and `sample-T40` runs
`sample` to T = 40 (L = 800).  Every file the runs
leave is compared: results, `<out>.config.json` echoes, and LABEL.log,
which holds each run's exit code and stderr.  Each is reported as
identical or moved, with the first line that differs.  The exit status is
0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, SIDES, export  # tools/ is the script's directory

# (label, argv without --out); w2 reads the batch `exact` writes, so it runs after it
INVOCATIONS = [
    ("gen-disorder", ["gen-disorder", "--n", "4", "--seed", "3"]),
    ("thresholds", ["thresholds", "--mixture", '{"2": 0.5}']),
    ("thresholds-mixed", ["thresholds", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}']),
    ("thresholds-p50", ["thresholds", "--mixture", '{"50": 1.0}']),
    ("se", ["se", "--beta", "0.4", "--set", "se.t_max=0.5", "--set", "se.t_step=0.25"]),
    ("se-mixed", ["se", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}', "--beta", "0.9"]),
    ("amp", ["amp", "--n", "100", "--beta", "0.4", "--seed", "1", "--set", "amp.k=3"]),
    ("amp-t60", ["amp", "--n", "100", "--beta", "0.4", "--seed", "1", "--set", "amp.k=3",
                 "--set", "amp.t=60"]),
    ("amp-gen-planted", [
        "amp", "--n", "60", "--beta", "0.4", "--seed", "1", "--set", "amp.k=3",
        "--set", "amp.planted=false", "--set", 'gen.mode="planted"', "--set", "gen.planted_beta=0.4",
    ]),
    ("tap", ["tap", "--n", "40", "--beta", "0.3", "--seed", "2", "--set", "tap.k_amp=5"]),
    ("tap-n600", ["tap", "--n", "600", "--seed", "1", "--set", "tap.k_amp=3"]),
    ("sample", [
        "sample", "--n", "8", "--beta", "0.25", "--seed", "11",
        "--set", "sampler.L=4", "--set", "sampler.delta=0.25",
        "--set", "sampler.k_amp=5", "--set", "sampler.k_ngd=8",
        "--set", "sampler.replicas=3",
    ]),
    ("sample-T40", [
        "sample", "--n", "10", "--beta", "0.25", "--seed", "3",
        "--set", "sampler.L=800", "--set", "sampler.replicas=4",
    ]),
    ("exact", ["exact", "--n", "6", "--beta", "0.2", "--seed", "4", "--set", "exact.m_samples=20"]),
    ("exact-mixed", [
        "exact", "--n", "12", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}', "--beta", "0.25",
        "--seed", "1", "--set", "exact.m_samples=80",
    ]),
    ("exact-odd", [
        "exact", "--n", "7", "--mixture", '{"3": 1.0}', "--beta", "1.0", "--seed", "2",
        "--set", "exact.m_samples=40",
    ]),
    ("glauber", [
        "glauber", "--n", "5", "--beta", "0.2", "--seed", "5",
        "--set", "glauber.sweeps=20", "--set", "glauber.burn_in=5",
    ]),
    ("glauber-mixed", [
        "glauber", "--n", "12", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}',
        "--beta", "0.25", "--seed", "1", "--set", "glauber.sweeps=100",
        "--set", "glauber.burn_in=20", "--set", "glauber.thin=1",
    ]),
    ("glauber-odd", [
        "glauber", "--n", "7", "--mixture", '{"3": 1.0}', "--beta", "0.4", "--seed", "2",
        "--set", "glauber.sweeps=200", "--set", "glauber.burn_in=0",
    ]),
    ("w2", ["w2", "--set", 'w2.batch_a="exact.out"', "--set", 'w2.batch_b="exact.out"']),
    ("chaos", [
        "chaos", "--n", "6", "--beta", "0.5", "--seed", "0",
        "--set", "chaos.s_list=[0.0,0.5]", "--set", "chaos.n_seeds=2",
        "--set", "chaos.batch_size=20",
    ]),
    ("chaos-mixed", [
        "chaos", "--n", "12", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}', "--beta", "0.25",
        "--seed", "1", "--set", "chaos.s_list=[0.5]", "--set", "chaos.n_seeds=1",
        "--set", "chaos.batch_size=200",
    ]),
    ("stability", [
        "stability", "--n", "6", "--beta", "0.2", "--seed", "0",
        "--set", "stability.s_list=[0.0,0.5]", "--set", "stability.n_seeds=1",
        "--set", "stability.replicas=2", "--set", "sampler.L=3",
        "--set", "sampler.delta=0.25", "--set", "sampler.k_amp=3",
        "--set", "sampler.k_ngd=5",
    ]),
    ("stability-mixed", [
        "stability", "--n", "6", "--mixture", '{"2": 0.5, "3": 0.7, "4": 0.2}', "--beta", "0.2",
        "--seed", "0", "--set", "stability.s_list=[0.0,0.5]", "--set", "stability.n_seeds=1",
        "--set", "stability.replicas=2", "--set", "sampler.L=3",
    ]),
]
# runs the CLI's entry point, as the `glasslocal` script does
MAIN = "import sys; from glasslocal.cli import main; sys.exit(main(sys.argv[1:]))"


def run_all(tree: str, outdir: str, invocations=INVOCATIONS) -> None:
    """Run each invocation with `tree`'s src/ inside `outdir`, writing
    LABEL.out (and what the run writes beside it) and LABEL.log."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), OPENBLAS_NUM_THREADS="1")
    for label, argv in invocations:
        proc = subprocess.run([sys.executable, "-c", MAIN, *argv, "--out", f"{label}.out"],
                              cwd=outdir, env=env, capture_output=True, text=True)
        with open(os.path.join(outdir, f"{label}.log"), "w") as f:
            f.write(f"exit {proc.returncode}\n" + proc.stderr.replace(tree, "<tree>"))


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _show(line: bytes | None) -> str:
    if line is None:
        return "<end of file>"
    text = line.decode(errors="replace").strip()
    return repr(text if len(text) <= 120 else text[:117] + "...")


def compare(parent_dir: str, change_dir: str) -> list[tuple[str, str]]:
    """(file name, verdict) for each file in either directory, by name: "identical",
    "only in parent", "only in change", or "moved at line k: parent ... | change ..."."""
    out = []
    for name in sorted(set(os.listdir(parent_dir)) | set(os.listdir(change_dir))):
        paths = [os.path.join(d, name) for d in (parent_dir, change_dir)]
        present = [side for side, p in zip(SIDES, paths) if os.path.exists(p)]
        if len(present) == 1:
            out.append((name, f"only in {present[0]}"))
            continue
        old, new = (_read(p) for p in paths)
        if old == new:
            out.append((name, "identical"))
            continue
        lines = itertools.zip_longest(old.split(b"\n"), new.split(b"\n"))
        k, (a, b) = next((k, ab) for k, ab in enumerate(lines, 1) if ab[0] != ab[1])
        out.append((name, f"moved at line {k}: parent {_show(a)} | change {_show(b)}"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent side")
    parser.add_argument("--change", help="git rev of the change side (default: the working tree)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="cli_outputs_") as tmp:
        outs = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            outs[side] = os.path.join(tmp, side + "-out")
            os.makedirs(outs[side])
            if rev is None:
                tree = ROOT
                print(f"{side}: the working tree", flush=True)
            else:
                tree = os.path.join(tmp, side)
                print(f"{side}: {rev} = {export(rev, tree)}", flush=True)
            run_all(tree, outs[side])
        verdicts = compare(outs["parent"], outs["change"])
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    same = sum(v == "identical" for _, v in verdicts)
    print(f"{same} of {len(verdicts)} files identical")
    return 0 if same == len(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
