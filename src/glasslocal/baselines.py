"""Exact small-n oracles, a Glauber-dynamics baseline, and empirical
optimal-transport metrics.

Everything here is oracle-grade: correctness over speed, capped at
dimensions where full enumeration (2^n states) stays under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .disorder import (
    DisorderTensors,
    _decode_spins,
    _flip_field,
    _logsumexp,
    all_spins,
    hamiltonian_table,
)

__all__ = [
    "ExactGibbs",
    "SampleBatch",
    "exact_gibbs",
    "exact_sample",
    "exact_mean_batch",
    "glauber_run",
    "empirical_w2",
    "overlap_moment",
    "write_batch_bits",
    "read_batch_bits",
]

#: `empirical_w2` takes at most this many samples per batch; the batch
#: readers check it before they decode.
W2_BATCH_CAP = 2000


@dataclass
class ExactGibbs:
    """Exact tilted Gibbs table for one (G, beta, y): log-weights over all
    2^n states (in `all_spins` order), log-partition, mean and covariance."""

    n: int
    log_weights: np.ndarray  # normalized: logsumexp == 0
    log_z: float
    mean: np.ndarray
    cov: np.ndarray


@dataclass
class SampleBatch:
    """M spin vectors; entries are +-1 floats."""

    spins: np.ndarray

    def __post_init__(self):
        s = self.spins = np.asarray(self.spins, dtype=float)
        if s.ndim != 2 or s.shape[1] < 1 or not np.all(np.abs(s) == 1.0):
            raise ValueError("a batch is a 2-D array of +-1 spins with n >= 1 columns")

    def __len__(self) -> int:
        return self.spins.shape[0]


def exact_gibbs(g: DisorderTensors, beta: float, y: np.ndarray | None = None) -> ExactGibbs:
    """Enumerate mu(x) ~ exp(beta H(x) + <y, x>) exactly (n <= cap); no y is y = 0."""
    n = g.n
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("tilt y must be finite componentwise")
    X = all_spins(n)
    logits = beta * hamiltonian_table(g) + X @ y
    log_z = _logsumexp(logits)
    logw = logits - log_z
    w = np.exp(logw)
    mean = w @ X
    cov = (X * w[:, None]).T @ X - np.outer(mean, mean)
    return ExactGibbs(n=n, log_weights=logw, log_z=log_z, mean=mean, cov=cov)


def exact_mean_batch(g: DisorderTensors, beta: float, Y: np.ndarray) -> np.ndarray:
    """Exact tilted means m(G, y) for a batch of tilts Y (rows)."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if not np.all(np.isfinite(Y)):
        raise ValueError("tilts Y must be finite")
    X = all_spins(g.n)
    logits = beta * hamiltonian_table(g)[None, :] + Y @ X.T
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w @ X


def exact_sample(dist: ExactGibbs, M: int, seed: int) -> SampleBatch:
    """M i.i.d. draws by inverse CDF over the exact table."""
    cdf = np.cumsum(np.exp(dist.log_weights))
    cdf[-1] = 1.0
    u = rng.stream(seed, "exact-sample").uniform(size=M)
    idx = np.searchsorted(cdf, u, side="right")
    return SampleBatch(spins=_decode_spins(idx, dist.n))


def glauber_run(
    g: DisorderTensors,
    beta: float,
    x0: np.ndarray,
    sweeps: int,
    seed: int,
    burn_in: int = 0,
    thin: int = 1,
) -> SampleBatch:
    """Single-site heat-bath chain, one sweep = n random-site updates.

    The conditional is exact: P(x_i = +1 | rest) = 1/(1 + exp(-beta Delta))
    with Delta = H(x^{i->+}) - H(x^{i->-}) = 2 d_i, d = phi @ F the flip
    field of `disorder._flip_field`, built once at x0.  Every mixture takes
    the same update: a flip of x_j negates the monomials phi[R_j], so
    d -= 2 phi[R_j] @ F[R_j] and phi[R_j] = -phi[R_j], with F[R_j] gathered
    once per site; no Hamiltonian is evaluated after the start.  States are
    recorded after `burn_in` sweeps, every `thin` sweeps, so `burn_in` must
    be below `sweeps` and `thin` at least 1.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = g.n
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        raise ValueError("x0 must be a +-1 vector of length n")
    if burn_in >= sweeps:
        raise ValueError(f"burn_in = {burn_in} must be below sweeps = {sweeps}")
    if thin < 1:
        raise ValueError(f"thin = {thin} must be >= 1")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    gen = rng.stream(seed, "glauber")
    phi, d, F, rows = _flip_field(g, x)
    # 2 F[R_j] for each site j, gathered in one pass
    flips = np.split(2.0 * F[np.concatenate(rows)], np.cumsum([len(r) for r in rows[:-1]]))
    out = []
    for sweep in range(sweeps):
        sites = gen.integers(0, n, size=n).tolist()
        us = gen.uniform(size=n).tolist()
        for i, u in zip(sites, us):
            try:
                p_up = 1.0 / (1.0 + math.exp(-2.0 * beta * d[i]))
            except OverflowError:  # -beta Delta past about 709: p_up underflows to 0
                p_up = 0.0
            new = 1.0 if u < p_up else -1.0
            if new != x[i]:
                r = rows[i]
                sub = phi[r]
                d -= np.dot(sub, flips[i])
                phi[r] = -sub
                x[i] = new
        if sweep >= burn_in and (sweep - burn_in) % thin == 0:
            out.append(x.copy())
    return SampleBatch(spins=np.array(out))


def _check_pair(a: SampleBatch, b: SampleBatch) -> None:
    if len(a) == 0 or len(b) == 0:
        raise ValueError("batches must be nonempty")
    if a.spins.shape[1] != b.spins.shape[1]:
        raise ValueError(
            f"batches must have equal dimension: n = {a.spins.shape[1]} and {b.spins.shape[1]}"
        )


def empirical_w2(a: SampleBatch, b: SampleBatch) -> float:
    """Normalized empirical 2-Wasserstein distance between equal-size batches.

    Exact for empirical measures: optimal assignment under the cost
    ||x - y||^2 / n, returning the square root of the mean matched cost.
    For +-1 spins ||x - y||^2 is 4 times the Hamming distance, so the
    assignment runs on the integer Hamming matrix and W2 comes from its
    integer total: tied optimal assignments give the same float.
    """
    if len(a) != len(b):
        raise ValueError("batches must have equal size")
    _check_pair(a, b)
    N, n = a.spins.shape
    _check_batch_size(N)
    D = (n - a.spins @ b.spins.T) / 2  # Hamming distances, exact in float64
    total = int(D[np.arange(N), _assign(D)].sum())
    return math.sqrt(4 * total / (n * N))


def _assign(D: np.ndarray) -> np.ndarray:
    """Column assigned to each row by a minimum-cost perfect matching of the
    square cost matrix D, whose entries are integers (held exactly in float64).

    Crouse's shortest augmenting path (IEEE TAES 2016), the method behind
    scipy's `linear_sum_assignment`.  The row minima start as duals, and rows
    are matched greedily to free columns of zero reduced cost.  Each free row
    then runs one Dijkstra search over reduced costs, one vector operation
    over the columns per step, preferring a free column among tied minima;
    the duals are updated and the path is augmented.  Integer costs make
    every comparison exact, so no tolerance is needed.
    """
    N = D.shape[0]
    u = D.min(axis=1)
    v = np.zeros(N)
    col4row = np.full(N, -1)
    row4col = np.full(N, -1)
    for i in range(N):
        zeros = np.flatnonzero((D[i] == u[i]) & (row4col < 0))
        if zeros.size:
            col4row[i], row4col[zeros[0]] = zeros[0], i
    path = np.empty(N, dtype=np.intp)  # predecessor row of each reached column
    for cur in np.flatnonzero(col4row < 0):
        dist = np.full(N, np.inf)  # shortest reduced path cost to each column
        # added to 2 * dist, an integer, so the argmin takes the lowest dist,
        # then a free column; a scanned column is out of the search
        busy = (row4col >= 0).astype(float)
        scanned = []
        i, low = cur, 0.0
        for _ in range(N):  # a free column is reached within N scans
            # reduced costs are >= 0, so no scanned column (dist <= low) moves
            r = D[i] - v + (low - u[i])
            better = r < dist
            dist[better] = r[better]
            path[better] = i
            j = int(np.argmin(2.0 * dist + busy))
            low = dist[j]
            scanned.append(j)
            if row4col[j] < 0:
                break
            busy[j] = np.inf
            i = row4col[j]
        else:
            raise RuntimeError("assignment search reached no free column")
        sc = np.array(scanned)
        delta = low - dist[sc]
        v[sc] -= delta
        u[row4col[sc[:-1]]] += delta[:-1]
        u[cur] += low
        for _ in scanned:  # augment back from the free sink j to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
        else:
            raise RuntimeError("augmenting path does not return to its row")
    return col4row


def overlap_moment(a: SampleBatch, b: SampleBatch) -> float:
    """Mean of squared normalized overlaps over all cross pairs."""
    _check_pair(a, b)
    n = a.spins.shape[1]
    return float((((a.spins @ b.spins.T) / n) ** 2).mean())


# --- batch serialization: u32 n header, then per sample ceil(n/8) bytes of
# packed sign bits (bit 1 = +1, most significant bit first per byte) --------


def _pack_spins(spins: np.ndarray) -> np.ndarray:
    """Rows of +-1 spins -> rows of ceil(n/8) bytes; the padding bits are 0."""
    return np.packbits(((np.asarray(spins) + 1) / 2).astype(np.uint8), axis=-1)


def _check_batch_size(N: int) -> None:
    if N > W2_BATCH_CAP:
        raise ValueError(f"batch size {N} exceeds the cap {W2_BATCH_CAP}")


def _unpack_spins(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows of ceil(n/8) bytes -> (rows, n) +-1 spins.  A set padding bit
    means the row was written for a larger n, so it is an error.  A file
    batch is read to be compared by `empirical_w2`, so more rows than
    W2_BATCH_CAP are rejected before the (rows, n) decode."""
    _check_batch_size(len(rows))
    bits = np.unpackbits(rows, axis=1)
    if bits[:, n:].any():
        raise ValueError(f"a row sets a padding bit past n = {n}: it was written for a larger n")
    return 2.0 * bits[:, :n].astype(float) - 1.0


def write_batch_bits(path, batch: SampleBatch) -> None:
    n = batch.spins.shape[1]
    with open(path, "wb") as f:
        f.write(int(n).to_bytes(4, "little"))
        f.write(_pack_spins(batch.spins).tobytes())


def read_batch_bits(path) -> SampleBatch:
    """Read a batch file: a complete header, n >= 1, and one or more whole rows."""
    with open(path, "rb") as f:
        head = f.read(4)
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    n = int.from_bytes(head, "little") if len(head) == 4 else 0
    if n < 1:
        raise ValueError("batch file header truncated or n = 0; it needs a u32 n >= 1")
    row_bytes = (n + 7) // 8
    if raw.size == 0 or raw.size % row_bytes:
        raise ValueError(f"corrupt batch file: {raw.size} bytes are not whole rows of {row_bytes}")
    return SampleBatch(spins=_unpack_spins(raw.reshape(-1, row_bytes), n))
