"""Workload definitions: input writers, CLI invocations and output checks.

Inputs are made by the benchmark from the workload seed with its own
generator and written in the program's documented tensor file format, so the
program under test receives only files.  The sk-small correctness reference
(exact enumeration, exact sampling, W2 by assignment) is likewise computed
here, independently of the program.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np
from scipy.optimize import linear_sum_assignment

SK = {"2": 0.5}
MIXED = {"2": 0.5, "3": 0.7, "4": 0.2}
BETA = 0.25
DELTA = 0.05

# Sizes per workload.
SIZES = {
    "sk-small": {"mixture": SK, "n": 10, "replicas": 512, "L": 10},
    "sk-large": {"mixture": SK, "n": 1000, "replicas": 64, "L": 4},
    "mixed-tensor": {"mixture": MIXED, "n": 40, "replicas": 8, "L": 2},
    "oracle": {
        "mixture": MIXED, "n": 12, "s_list": [0.5], "batch_size": 200,
        "samples": 80, "sweeps": 100, "burn_in": 20,
    },
}

#: Largest difference allowed between the CLI's `w2` and the benchmark's own
#: W2 of the same two batches (both are written with 17 significant digits).
W2_TOL = 1e-9

_MAGIC = b"GLTN1"


def is_sampler(name: str) -> bool:
    return name != "oracle"


def degrees(mixture: dict) -> list[int]:
    return sorted(int(p) for p, c in mixture.items() if c > 0)


def tensor_bytes(mixture: dict, n: int) -> dict[int, int]:
    """Bytes of each degree's dense float64 tensor."""
    return {p: 8 * n**p for p in degrees(mixture)}


def gen_tensors(mixture: dict, n: int, seed: int) -> dict[int, np.ndarray]:
    """i.i.d. N(0,1) tensors drawn from the workload seed."""
    gen = np.random.default_rng([seed, n])
    return {p: gen.standard_normal(n**p).reshape((n,) * p) for p in degrees(mixture)}


def write_tensor_file(path: str, mixture: dict, tensors: dict, n: int, seed: int) -> None:
    """Write the GLTN1 format that `glasslocal.disorder.read_tensors` reads:
    magic | u32 n | u32 P | f64 c_p^2, p=2..P | u64 seed | u8 kind | bodies."""
    P = max(degrees(mixture))
    csq = {int(p): float(c) for p, c in mixture.items()}
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", n, P))
        for p in range(2, P + 1):
            f.write(struct.pack("<d", csq.get(p, 0.0)))
        f.write(struct.pack("<QB", seed, 0))
        for p in sorted(tensors):
            f.write(np.ascontiguousarray(tensors[p], dtype="<f8").tobytes())


def _write_config(workdir: str, name: str, cfg: dict) -> list[str]:
    with open(os.path.join(workdir, name + ".json"), "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
    return [cfg["kind"], "--config", name + ".json"]


def prepare(name: str, size: dict, seed: int, workdir: str) -> tuple[list[list[str]], list[str]]:
    """Write a workload's inputs into `workdir`.

    Returns the CLI argument lists to run there, in order, and the result
    files they write (relative to `workdir`).
    """
    os.makedirs(workdir, exist_ok=True)
    n, mixture = size["n"], size["mixture"]
    tensors = gen_tensors(mixture, n, seed)
    write_tensor_file(os.path.join(workdir, "tensor.gltn"), mixture, tensors, n, seed)
    if is_sampler(name):
        cfg = {
            "kind": "sample", "tensor_file": "tensor.gltn", "beta": BETA, "seed": seed,
            "out": "sample.csv",
            "sampler": {"replicas": size["replicas"], "L": size["L"], "delta": DELTA},
        }
        return [_write_config(workdir, "sample", cfg)], ["sample.csv"]
    chaos = {
        "kind": "chaos", "mixture": mixture, "n": n, "beta": BETA, "seed": seed,
        "out": "chaos.csv",
        "chaos": {"s_list": size["s_list"], "n_seeds": 1, "batch_size": size["batch_size"]},
    }
    # `n` repeats the tensor file's size: `exact` and `glauber` echo the
    # config's `n` (default 10) into `<out>.config.json` whatever the tensor
    # file holds, and `w2` decodes the batches with that echoed `n`.
    exact = {
        "kind": "exact", "tensor_file": "tensor.gltn", "n": n, "beta": BETA, "seed": seed,
        "out": "exact.csv", "exact": {"m_samples": size["samples"]},
    }
    glauber = {
        "kind": "glauber", "tensor_file": "tensor.gltn", "n": n, "beta": BETA, "seed": seed,
        "out": "glauber.csv",
        "glauber": {"sweeps": size["sweeps"], "burn_in": size["burn_in"], "thin": 1},
    }
    w2 = {
        "kind": "w2", "out": "w2.csv",
        "w2": {"batch_a": "glauber.csv", "batch_b": "exact.csv"},
    }
    invocations = [_write_config(workdir, k, c) for k, c in
                   (("chaos", chaos), ("exact", exact), ("glauber", glauber), ("w2", w2))]
    return invocations, ["chaos.csv", "exact.csv", "glauber.csv", "w2.csv"]


# --- output checks: each returns a list of pass/fail outcomes ----------------


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def decode_spins(h: str, n: int) -> np.ndarray | None:
    """The n +-1 spins a `x_bits_hex` field encodes, or None if malformed."""
    try:
        raw = bytes.fromhex(h)
    except ValueError:
        return None
    if len(raw) != (n + 7) // 8:
        return None
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[n:].any():
        return None
    return 2.0 * bits[:n] - 1.0


def _finite(s: str) -> float | None:
    try:
        v = float(s)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _spin_rows(header: list[str], rows: list[list[str]], n: int,
               expected: int) -> tuple[list[bool], np.ndarray]:
    """Row-count check plus one decode check per row; returns the spins."""
    col = header.index("x_bits_hex")
    spins = [decode_spins(r[col], n) if len(r) == len(header) else None for r in rows]
    good = np.array([s for s in spins if s is not None]).reshape(-1, n)
    return [len(rows) == expected] + [s is not None for s in spins], good


def check_outputs(name: str, size: dict, workdir: str) -> tuple[list[bool], np.ndarray | None]:
    """Check a workload's result files; a missing or unreadable file fails.

    Returns the outcomes and, for sampler workloads, the decoded samples.
    """
    try:
        if is_sampler(name):
            return _check_sample(size, workdir)
        return _check_oracle(size, workdir), None
    except (OSError, ValueError, IndexError):
        return [False], None


def _check_sample(size: dict, workdir: str) -> tuple[list[bool], np.ndarray]:
    header, rows = _read_csv(os.path.join(workdir, "sample.csv"))
    outcomes, spins = _spin_rows(header, rows, size["n"], size["replicas"])
    col = header.index("final_q")
    for r in rows:
        q = _finite(r[col]) if len(r) == len(header) else None
        outcomes.append(q is not None and 0.0 <= q <= 1.0)
    return outcomes, spins


def _check_oracle(size: dict, workdir: str) -> list[bool]:
    n = size["n"]
    header, rows = _read_csv(os.path.join(workdir, "chaos.csv"))
    outcomes = [len(rows) == len(size["s_list"])]
    om, w2c = header.index("overlap_moment"), header.index("w2")
    for r in rows:
        o, w = _finite(r[om]), _finite(r[w2c])
        outcomes.append(o is not None and 0.0 <= o <= 1.0)
        outcomes.append(w is not None and 0.0 <= w <= 2.0)
    batches = []
    for name, expected in (("exact", size["samples"]), ("glauber", size["sweeps"] - size["burn_in"])):
        checks, spins = _spin_rows(*_read_csv(os.path.join(workdir, name + ".csv")), n, expected)
        outcomes += checks
        batches.append(spins)
    _, rows = _read_csv(os.path.join(workdir, "w2.csv"))
    w = _finite(rows[0][0]) if len(rows) == 1 else None
    outcomes.append(w is not None and 0.0 <= w <= 2.0)
    # the CLI's W2 against the benchmark's own, on the n-spin batches
    exact, glauber = batches
    same = w is not None and len(exact) == len(glauber) > 0
    outcomes.append(same and abs(w - _w2(glauber, exact)) <= W2_TOL)
    return outcomes


# --- W2 references -----------------------------------------------------------


def _w2(a: np.ndarray, b: np.ndarray) -> float:
    n = a.shape[1]
    cost = (2.0 * n - 2.0 * (a @ b.T)) / n
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(max(cost[rows, cols].mean(), 0.0)))


def w2_reference(size: dict, seed: int, alg: np.ndarray) -> tuple[float, float]:
    """W2(alg, exact) and W2(exact', exact) for the SK instance of `seed`.

    The two exact batches, each as large as `alg`, are drawn from the full
    enumeration of mu(x) ~ exp(beta c_2 n^{-1/2} <G, x x^T>).
    """
    n = size["n"]
    (G,) = gen_tensors(size["mixture"], n, seed).values()
    c2 = math.sqrt(size["mixture"]["2"])
    states = np.arange(2**n)[:, None] >> np.arange(n) & 1
    X = 2.0 * states - 1.0
    logits = BETA * c2 / math.sqrt(n) * np.einsum("ai,ij,aj->a", X, G, X)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    gen = np.random.default_rng([seed, n, 2])
    ex1 = X[gen.choice(2**n, size=len(alg), p=w)]
    ex2 = X[gen.choice(2**n, size=len(alg), p=w)]
    return _w2(alg, ex1), _w2(ex2, ex1)
