"""Gaussian disorder tensors and the Hamiltonian they define.

A disorder instance is one dense, raw (unsymmetrized) i.i.d. N(0,1) tensor
per active degree p.  The gradient sums the p derivative slots of the raw
contraction, which equals p times the symmetrized contraction without ever
materializing a symmetrized copy.  One kernel gives both, on rows, in two
contiguous BLAS passes per tensor: `X @ T.reshape(n, -1)` contracts slot 0,
and a per-row chain over its (rows, n^(p-1)) result gives the value and slots
1..p-1; `X @ T.reshape(-1, n).T` contracts slot p-1, and its chain gives slot
0.  The value alone takes the first pass only.  Rows go through in blocks
(`BLOCK_ENTRIES`).  All entries come from Philox streams keyed by (seed, p),
so a planted instance shares its noise part bit-for-bit with the random
instance of the same seed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import rng
from .mixture import MixtureSpec

__all__ = [
    "DisorderTensors",
    "GibbsQuery",
    "gen_random",
    "gen_planted",
    "interpolate",
    "hamiltonian",
    "grad",
    "hessian",
    "partition_rescaled",
    "all_spins",
    "write_tensors",
    "read_tensors",
]

#: Reject instances with more than this many tensor entries in total.
ENTRY_BUDGET = 200_000_000

#: Dense Hessians are only assembled up to this dimension.
HESSIAN_CAP = 512

#: Exact enumeration (2^n states) is capped here.
ENUMERATION_CAP = 20

#: Rows are contracted in blocks, one pass over each tensor per block.  A
#: block's (rows, n^(p-1)) intermediate holds at most this many entries
#: (256 KB), or a quarter of the tensor's entries (n/4 rows) if that is more.
BLOCK_ENTRIES = 1 << 15

_MAGIC = b"GLTN1"


@dataclass
class DisorderTensors:
    """One Hamiltonian instance: a rank-p tensor for each active degree.

    Immutable by convention: every evaluation routine is read-only.
    """

    n: int
    spec: MixtureSpec
    tensors: dict[int, np.ndarray]
    seed: int
    kind: str = "random"  # random | planted | interpolated
    meta: dict = field(default_factory=dict)

    def active_degrees(self) -> list[int]:
        return sorted(self.tensors)


@dataclass
class GibbsQuery:
    """Parameters of one tilted measure: inverse temperature and tilt field.

    `t` is optional metadata recording the localization time the tilt came
    from; it does not enter the measure.
    """

    beta: float
    y: np.ndarray
    t: float | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if not np.all(np.isfinite(self.y)):
            raise ValueError("tilt y must be finite componentwise")


def _active(spec: MixtureSpec) -> list[int]:
    return [p for p, csq in spec.coeffs if csq > 0]


def _check_budget(spec: MixtureSpec, n: int, budget: int):
    if spec.scalar_only:
        raise ValueError(
            f"mixture degree {spec.degree} exceeds the dense-tensor cap; "
            "scalar-only mixtures cannot generate tensors"
        )
    total = sum(n**p for p in _active(spec))
    if total > budget:
        raise ValueError(f"tensor budget exceeded: {total} entries > {budget}")


def gen_random(spec: MixtureSpec, n: int, seed: int, budget: int = ENTRY_BUDGET) -> DisorderTensors:
    """Fresh i.i.d. N(0,1) tensors from the (seed, p)-keyed streams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_budget(spec, n, budget)
    tensors = {}
    for p in _active(spec):
        g = rng.stream(seed, "disorder", p)
        tensors[p] = g.standard_normal(n**p).reshape((n,) * p)
    return DisorderTensors(n=n, spec=spec, tensors=tensors, seed=seed, kind="random")


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x^(x)k, flattened; the empty product [1.0] for k = 0."""
    out = np.ones(1)
    for _ in range(k):
        out = np.multiply.outer(out, x).ravel()
    return out


def gen_planted(
    spec: MixtureSpec,
    n: int,
    beta: float,
    x: np.ndarray,
    seed: int,
    budget: int = ENTRY_BUDGET,
) -> DisorderTensors:
    """Rank-one-spiked tensors: G^(p) = beta c_p n^{-(p-1)/2} x^{(x)p} + W^(p).

    W^(p) is bitwise the random instance of the same seed, so beta = 0
    reduces exactly to `gen_random`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        raise ValueError("planted x must be a +-1 vector of length n")
    g = gen_random(spec, n, seed, budget)
    for p in g.active_degrees():
        scale = beta * g.spec.c(p) / n ** ((p - 1) / 2)
        if scale != 0.0:
            g.tensors[p] = g.tensors[p] + scale * _power(x, p).reshape((n,) * p)
    g.kind = "planted"
    g.meta = {"x": x.copy(), "beta": float(beta)}
    return g


def interpolate(g0: DisorderTensors, g1: DisorderTensors, s: float) -> DisorderTensors:
    """Correlated perturbation G_s = sqrt(1-s^2) G_0 + s G_1, s in [0, 1].

    The endpoints return exact copies so that coupled experiments see
    bit-identical inputs at s = 0 and s = 1.
    """
    if g0.spec != g1.spec or g0.n != g1.n:
        raise ValueError("interpolation endpoints must share (spec, n)")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    if s == 0.0:
        tensors = {p: t.copy() for p, t in g0.tensors.items()}
    elif s == 1.0:
        tensors = {p: t.copy() for p, t in g1.tensors.items()}
    else:
        c0 = math.sqrt(1.0 - s * s)
        tensors = {p: c0 * g0.tensors[p] + s * g1.tensors[p] for p in g0.tensors}
    return DisorderTensors(
        n=g0.n,
        spec=g0.spec,
        tensors=tensors,
        seed=g0.seed,
        kind="interpolated",
        meta={"s": float(s), "parent_seeds": (g0.seed, g1.seed)},
    )


def _rows(x, n: int):
    """Rows (M, n) of an array of n-vectors (..., n), and its leading shape.

    The only place a vector becomes a one-row batch: kernels compute on rows
    and reshape their result with the leading shape once, on the way out.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"dimension mismatch: expected vectors of length {n}")
    return x.reshape(-1, n), x.shape[:-1]


def _contract_last(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Contract the last slot of each row S[a], a flattened n^k tensor, with X[a]."""
    R, n = X.shape
    return (S.reshape(R, -1, n) @ X[:, :, None]).reshape(R, -1)


def _degree(T: np.ndarray, X: np.ndarray, want_grad: bool):
    """<T, x^(x)p> per row and, if `want_grad`, the sum of its p slot derivatives."""
    R, n = X.shape
    A = X @ T.reshape(n, -1)  # leading pass: slots 1..p-1 are left
    G = np.zeros_like(X) if want_grad else None
    for k in range(T.ndim - 1, 0, -1):  # A holds slots 1..k
        if want_grad:
            S = A
            for _ in range(k - 1):  # contract the first slot
                S = (X[:, None, :] @ S.reshape(R, n, -1)).reshape(R, -1)
            G += S  # derivative in slot k
        A = _contract_last(A, X)
    if want_grad:
        B = X @ T.reshape(-1, n).T  # trailing pass: slots 0..p-2 are left
        for _ in range(T.ndim - 2):
            B = _contract_last(B, X)
        G += B  # derivative in slot 0
    return A[:, 0], G


def _kernel(g: DisorderTensors, X: np.ndarray, want_grad: bool):
    """H on rows X (M, n) and, if `want_grad`, grad H (M, n), else None.
    Blocks and contractions run in a fixed order, so results are reproducible
    bit-for-bit, and the value does not depend on `want_grad`."""
    if not np.all(np.isfinite(X)):
        raise ValueError("x must be finite")
    M, n = X.shape
    val = np.zeros(M)
    gr = np.zeros((M, n)) if want_grad else None
    for p, T in g.tensors.items():
        scale = g.spec.c(p) / n ** ((p - 1) / 2)
        rows = max(1, BLOCK_ENTRIES // n ** (p - 1), n // 4)
        for lo in range(0, M, rows):
            v, d = _degree(T, X[lo : lo + rows], want_grad)
            val[lo : lo + rows] += scale * v
            if want_grad:
                gr[lo : lo + rows] += scale * d
    return val, gr


def hamiltonian(g: DisorderTensors, x: np.ndarray):
    """H(x) = sum_p c_p n^{-(p-1)/2} <G^(p), x^(x)p>, one pass per tensor.
    A vector (n,) gives a scalar and a batch (M, n) gives (M,)."""
    X, lead = _rows(x, g.n)
    return _kernel(g, X, False)[0].reshape(lead)[()]


def grad(g: DisorderTensors, m: np.ndarray):
    """Exact gradient of the Hamiltonian, the sum over derivative slots: two
    passes per tensor."""
    X, lead = _rows(m, g.n)
    return _kernel(g, X, True)[1].reshape(lead + (g.n,))


def hessian(g: DisorderTensors, m: np.ndarray, cap: int = HESSIAN_CAP) -> np.ndarray:
    """Exact Hessian of the Hamiltonian, symmetric by construction.

    For each slot pair s1 < s2, the other p-2 slots of the raw tensor are
    contracted with m by reshape and matmul (the slots before s1, between
    s1 and s2, and after s2, one group each), leaving an (n, n) block B over
    (i_s1, i_s2); the pair adds B + B^T.
    """
    if g.n > cap:
        raise ValueError(f"Hessian cap exceeded: n={g.n} > {cap}")
    mv = np.asarray(m, dtype=float)
    if mv.shape != (g.n,):
        raise ValueError("hessian takes a single vector")
    out = np.zeros((g.n, g.n))
    for p, T in g.tensors.items():
        scale = g.spec.c(p) / g.n ** ((p - 1) / 2)
        for s1 in range(p):
            for s2 in range(s1 + 1, p):
                lead, mid, tail = (_power(mv, k) for k in (s1, s2 - s1 - 1, p - 1 - s2))
                B = (lead @ T.reshape(lead.size, -1)).reshape(-1, tail.size) @ tail
                block = mid @ B.reshape(g.n, mid.size, g.n)
                out += scale * (block + block.T)
    return out


def all_spins(n: int) -> np.ndarray:
    """All 2^n spin configurations; row b has x_i = 2*bit_i(b) - 1."""
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: n={n} > {ENUMERATION_CAP}")
    b = np.arange(2**n, dtype=np.uint32)
    bits = (b[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    return 2.0 * bits.astype(float) - 1.0


def hamiltonian_table(g: DisorderTensors) -> np.ndarray:
    """H(x) over every configuration, in `all_spins` order."""
    return hamiltonian(g, all_spins(g.n))


def partition_rescaled(g: DisorderTensors, beta: float, cap: int = ENUMERATION_CAP) -> float:
    """Z_xi(G) = 2^{-n} sum_x exp(beta H(x) - n beta^2 xi(1) / 2).

    Exact sum over all 2^n configurations (log-sum-exp stabilized); its
    disorder expectation is exactly 1 for every beta.
    """
    if g.n > cap:
        raise ValueError(f"enumeration cap exceeded: n={g.n} > {cap}")
    H = hamiltonian_table(g)
    shift = g.n * math.log(2.0) + 0.5 * g.n * beta * beta * g.spec.xi(1.0)
    return float(np.exp(logsumexp(beta * H) - shift))


# --- tensor file format -----------------------------------------------------
#
# header: magic "GLTN1" | u32 n | u32 P | f64 c_p^2 for p = 2..P | u64 seed |
#         u8 kind (0 random, 1 planted, 2 interpolated, 3 other)
# body:   for each p = 2..P with c_p^2 > 0, the n^p entries as little-endian
#         f64 in row-major order.

_KIND_TAGS = {"random": 0, "planted": 1, "interpolated": 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


def write_tensors(path, g: DisorderTensors) -> None:
    spec = g.spec
    P = spec.degree
    csq = {p: c for p, c in spec.coeffs}
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", g.n, P))
        for p in range(2, P + 1):
            f.write(struct.pack("<d", csq.get(p, 0.0)))
        f.write(struct.pack("<QB", g.seed, _KIND_TAGS.get(g.kind, 3)))
        for p in range(2, P + 1):
            if csq.get(p, 0.0) > 0:
                f.write(np.ascontiguousarray(g.tensors[p], dtype="<f8").tobytes())


def read_tensors(path) -> DisorderTensors:
    """Read a tensor file.  The header, the entry budget and the exact file
    length are checked before any tensor body is read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(5)
        if magic != _MAGIC:
            raise ValueError(f"not a tensor file (bad magic {magic!r})")
        head = f.read(8)
        n, P = struct.unpack("<II", head) if len(head) == 8 else (0, 0)
        header_len = 5 + 8 + 8 * max(P - 1, 0) + 9
        if size < header_len:
            raise ValueError(f"tensor file header truncated: {size} of {header_len} bytes")
        if n < 1:
            raise ValueError("tensor file header has n = 0; n must be >= 1")
        csq = {}
        for p in range(2, P + 1):
            (c,) = struct.unpack("<d", f.read(8))
            if c != 0.0:
                csq[p] = c
        seed, tag = struct.unpack("<QB", f.read(9))
        spec = MixtureSpec(tuple(sorted(csq.items())))
        _check_budget(spec, n, ENTRY_BUDGET)
        expected = header_len + 8 * sum(n**p for p in csq)
        if size != expected:
            problem = "body truncated" if size < expected else "has trailing bytes"
            raise ValueError(f"tensor file {problem}: {size} bytes, expected {expected}")
        tensors = {}
        for p in sorted(csq):
            count = n**p
            buf = np.frombuffer(f.read(count * 8), dtype="<f8", count=count)
            tensors[p] = buf.astype(float).reshape((n,) * p)
    return DisorderTensors(
        n=n, spec=spec, tensors=tensors, seed=seed, kind=_TAG_KINDS.get(tag, "other")
    )
