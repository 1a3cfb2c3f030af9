"""Gaussian disorder tensors and the Hamiltonian they define.

A disorder instance is one dense, raw (unsymmetrized) i.i.d. N(0,1) tensor
per active degree p.  Evaluation runs on a private cache built from them on
the first kernel call: per degree, S_p = (1/(p-1)!) sum over the p! slot
permutations of T, so that contracting any p-1 slots of S_p with x gives
the gradient of <T, x^(x)p> and one more dot with x gives p times its
value.  One kernel gives both, on rows, in one contiguous BLAS pass per
tensor, `X @ S.reshape(n, -1)`, and a per-row chain over its (rows,
n^(p-1)) result; the cache doubles the tensor memory while an instance is
evaluated.  Rows go through in blocks (`BLOCK_ENTRIES`).  All entries come
from Philox streams keyed by (seed, p), so a planted instance shares its
noise part bit-for-bit with the random instance of the same seed.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

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
    # {p: S_p}, filled by `_symmetric` on the first kernel call
    _sym: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _check_budget(spec: MixtureSpec, n: int, budget: int):
    if spec.scalar_only:
        raise ValueError(
            f"mixture degree {spec.degree} exceeds the dense-tensor cap; "
            "scalar-only mixtures cannot generate tensors"
        )
    total = sum(n**p for p, _ in spec.coeffs)
    if total > budget:
        raise ValueError(f"tensor budget exceeded: {total} entries > {budget}")


def gen_random(spec: MixtureSpec, n: int, seed: int, budget: int = ENTRY_BUDGET) -> DisorderTensors:
    """Fresh i.i.d. N(0,1) tensors from the (seed, p)-keyed streams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_budget(spec, n, budget)
    tensors = {}
    for p, _ in spec.coeffs:
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


def _symmetrize(T: np.ndarray) -> np.ndarray:
    """S = (1/(p-1)!) sum_perm T.transpose(perm), summed in place in
    `itertools.permutations` order; for p = 2 it is exactly T + T^T."""
    S = T.copy()
    for perm in itertools.islice(itertools.permutations(range(T.ndim)), 1, None):
        S += T.transpose(perm)
    if T.ndim > 2:
        S /= math.factorial(T.ndim - 1)
    return S


def _symmetric(g: DisorderTensors) -> dict[int, np.ndarray]:
    """The instance's cache {p: S_p}, built on first use."""
    if not g._sym:
        g._sym.update({p: _symmetrize(T) for p, T in g.tensors.items()})
    return g._sym


def _contract_last(S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Contract the last slot of each row S[a], a flattened n^k tensor, with X[a]."""
    R, n = X.shape
    return (S.reshape(R, -1, n) @ X[:, :, None]).reshape(R, -1)


def _block_rows(n: int, p: int) -> int:
    """Rows per block for degree p (see `BLOCK_ENTRIES`)."""
    return max(1, BLOCK_ENTRIES // n ** (p - 1), n // 4)


def _kernel_work(g: DisorderTensors, M: int):
    """Work arrays for `_kernel` on M rows: the value (M,), the gradient
    (M, n) and one flat scratch that holds any degree's largest block
    intermediate (rows, n^(p-1))."""
    n = g.n
    size = max(min(M, _block_rows(n, p)) * n ** (p - 1) for p in g.tensors)
    return np.empty(M), np.empty((M, n)), np.empty(size)


def _degree(S: np.ndarray, X: np.ndarray, scratch: np.ndarray | None):
    """<T, x^(x)p> per row and its gradient, from the symmetrized S = S_p.
    The first intermediate (rows, n^(p-1)) goes to the front of `scratch`,
    or to a fresh array if it is None."""
    R, n = X.shape
    A = None if scratch is None else scratch[: R * (S.size // n)].reshape(R, -1)
    A = np.matmul(X, S.reshape(n, -1), out=A)  # the one pass: slots 1..p-1 are left
    for _ in range(S.ndim - 2):
        A = _contract_last(A, X)
    return _contract_last(A, X)[:, 0] / S.ndim, A  # A is the gradient


def _kernel(g: DisorderTensors, X: np.ndarray, work=None):
    """H (M,) and grad H (M, n) on rows X (M, n), one pass per tensor.

    `work`, from `_kernel_work(g, M)`, receives both results, which are its
    first two arrays, and the block intermediates, so a caller that passes
    one workspace to every call allocates nothing of size n^(p-1) per call.
    Without it every array is fresh.  Blocks and contractions run in a fixed
    order, so results are reproducible bit-for-bit and do not depend on
    `work`.  Unchecked: the public entries check their input."""
    M, n = X.shape
    val, gr, scratch = (np.empty(M), np.empty((M, n)), None) if work is None else work
    val.fill(0.0)
    gr.fill(0.0)
    for p, S in _symmetric(g).items():
        scale = g.spec.c(p) / n ** ((p - 1) / 2)
        rows = _block_rows(n, p)
        for lo in range(0, M, rows):
            v, d = _degree(S, X[lo : lo + rows], scratch)
            v *= scale
            val[lo : lo + rows] += v
            d *= scale
            gr[lo : lo + rows] += d
    return val, gr


def hamiltonian(g: DisorderTensors, x: np.ndarray):
    """H(x) = sum_p c_p n^{-(p-1)/2} <G^(p), x^(x)p>, one pass per tensor.
    A vector (n,) gives a scalar and a batch (M, n) gives (M,)."""
    X, lead = _rows(x, g.n)
    if not np.all(np.isfinite(X)):
        raise ValueError("x must be finite")
    return _kernel(g, X)[0].reshape(lead)[()]


def grad(g: DisorderTensors, m: np.ndarray):
    """Exact gradient of the Hamiltonian, the same one pass per tensor."""
    X, lead = _rows(m, g.n)
    if not np.all(np.isfinite(X)):
        raise ValueError("x must be finite")
    return _kernel(g, X)[1].reshape(lead + (g.n,))


def hessian(g: DisorderTensors, m: np.ndarray, cap: int = HESSIAN_CAP) -> np.ndarray:
    """Exact Hessian of the Hamiltonian: per degree, (p-1) scale S_p with its
    first p-2 slots contracted with m, one reshape and matmul.  S_p is
    symmetric up to rounding, so the sum is symmetrized once at the end."""
    if g.n > cap:
        raise ValueError(f"Hessian cap exceeded: n={g.n} > {cap}")
    mv = np.asarray(m, dtype=float)
    if mv.shape != (g.n,):
        raise ValueError("hessian takes a single vector")
    n = g.n
    out = np.zeros((n, n))
    for p, S in _symmetric(g).items():
        scale = g.spec.c(p) / n ** ((p - 1) / 2)
        out += (p - 1) * scale * (_power(mv, p - 2) @ S.reshape(-1, n * n)).reshape(n, n)
    return 0.5 * (out + out.T)


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
    return float(np.exp(_logsumexp(beta * H) - shift))


def _logsumexp(a: np.ndarray) -> float:
    """log sum_i exp(a_i) over a finite array, as scipy computes it: the
    maxima are taken out of the sum, log(k) + log1p(rest / k) + max."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    is_top = a == top
    k = float(np.count_nonzero(is_top))
    e = np.exp(a - top)
    e[is_top] = 0.0
    return float(np.log1p(e.sum() / k) + np.log(k) + top)


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
        for p in csq:
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
        csq = tuple((p, *struct.unpack("<d", f.read(8))) for p in range(2, P + 1))
        seed, tag = struct.unpack("<QB", f.read(9))
        spec = MixtureSpec(csq)  # drops the zero terms the format writes
        _check_budget(spec, n, ENTRY_BUDGET)
        expected = header_len + 8 * sum(n**p for p, _ in spec.coeffs)
        if size != expected:
            problem = "body truncated" if size < expected else "has trailing bytes"
            raise ValueError(f"tensor file {problem}: {size} bytes, expected {expected}")
        tensors = {p: np.fromfile(f, "<f8", n**p).reshape((n,) * p) for p, _ in spec.coeffs}
    return DisorderTensors(
        n=n, spec=spec, tensors=tensors, seed=seed, kind=_TAG_KINDS.get(tag, "other")
    )
