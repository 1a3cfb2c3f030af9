"""Gaussian disorder tensors and the Hamiltonian they define.

A disorder instance is one dense, raw (unsymmetrized) i.i.d. N(0,1) tensor
per active degree p.  Evaluation runs on a private cache built from them on
the first kernel call: per degree, the packed coefficients C_p of the
gradient, one row per sorted (p-1)-multiset gamma of indices, C(n+p-2, p-1)
rows of n, so that grad <T, x^(x)p> = phi_{p-1}(x) @ C_p, where
phi_{p-1}(x) = (x^gamma) are the degree-(p-1) monomials, and one more dot
with x gives p times the value.  The monomials are built one level at a
time from index arrays in the same cache, and the Hessian reads C_p through
their Jacobian.  One kernel gives value and gradient on rows, in one GEMM
per degree.  C_p has about n^p/(p-1)! entries, so for p >= 3 the cache is
smaller than the tensor it is built from; C_2 = T + T^T.  Rows go through in
blocks (`BLOCK_ENTRIES`).  The exact oracles' table of H over the whole
cube is the one evaluation that does not use the cache: it is a
Walsh-Hadamard transform of the raw tensors (`hamiltonian_table`).  All
entries come from Philox streams keyed by (seed, p), so a planted instance
shares its noise part bit-for-bit with the random instance of the same
seed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .mixture import MixtureSpec

__all__ = [
    "DisorderTensors",
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

#: Exact enumeration (2^n states) is capped here.
ENUMERATION_CAP = 20

#: Rows are contracted in blocks, one GEMM per degree per block.  A block's
#: top monomial level (K, rows) holds at most this many entries (256 KB), or
#: a quarter of C_P's (n/4 rows) if that is more; the row count is rounded
#: down to a power of two.  Building C_p takes T in slabs of this size.
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
    # (monomial levels, {p: C_p}), filled by `_packed` on the first kernel call
    _cache: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _check_budget(spec: MixtureSpec, n: int):
    if spec.scalar_only:
        raise ValueError(
            f"mixture degree {spec.degree} exceeds the dense-tensor cap; "
            "scalar-only mixtures cannot generate tensors"
        )
    total = sum(n**p for p, _ in spec.coeffs)
    if total > ENTRY_BUDGET:
        raise ValueError(f"tensor budget exceeded: {total} entries > {ENTRY_BUDGET}")


def gen_random(spec: MixtureSpec, n: int, seed: int) -> DisorderTensors:
    """Fresh i.i.d. N(0,1) tensors from the (seed, p)-keyed streams."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_budget(spec, n)
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
) -> DisorderTensors:
    """Rank-one-spiked tensors: G^(p) = beta c_p n^{-(p-1)/2} x^{(x)p} + W^(p).

    W^(p) is bitwise the random instance of the same seed, so beta = 0
    reduces exactly to `gen_random`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
        raise ValueError("planted x must be a +-1 vector of length n")
    if not math.isfinite(beta):
        raise ValueError(f"planted beta = {beta} must be finite")
    g = gen_random(spec, n, seed)
    for p in sorted(g.tensors):
        scale = beta * g.spec.c(p) / n ** ((p - 1) / 2)
        if scale != 0.0:
            g.tensors[p] = g.tensors[p] + scale * _power(x, p).reshape((n,) * p)
    g.kind = "planted"
    g.meta = {"x": x.copy()}
    return g


def interpolate(g0: DisorderTensors, g1: DisorderTensors, s: float) -> DisorderTensors:
    """Correlated perturbation G_s = sqrt(1-s^2) G_0 + s G_1, s in [0, 1].

    At s = 0 and s = 1 the weights are exactly (1.0, 0.0) and (0.0, 1.0),
    and 1.0 a + 0.0 b = a for finite entries, so the endpoints are fresh
    arrays equal to G_0 and G_1 (bit for bit, but for the sign of a zero):
    coupled experiments see the same inputs there.
    """
    if g0.spec != g1.spec or g0.n != g1.n:
        raise ValueError("interpolation endpoints must share (spec, n)")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    c0 = math.sqrt(1.0 - s * s)
    tensors = {p: c0 * g0.tensors[p] + s * g1.tensors[p] for p in g0.tensors}
    return DisorderTensors(
        n=g0.n,
        spec=g0.spec,
        tensors=tensors,
        seed=g0.seed,
        kind="interpolated",
    )


def _rows(x, n: int, name: str):
    """Rows (M, n) of an array of finite n-vectors (..., n) called `name`,
    and its leading shape.

    The only place a vector becomes a one-row batch: kernels compute on rows
    and reshape their result with the leading shape once, on the way out.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise ValueError(f"dimension mismatch: expected vectors of length {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x.reshape(-1, n), x.shape[:-1]


def _level(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(prev, last) of monomial level k >= 2: phi_k = phi_{k-1}[prev] * x[last].

    Level k holds x^gamma for the sorted k-multisets gamma in colex order, so
    those with largest index j are the level-(k-1) monomials with largest
    index <= j, a prefix of C(j+k-1, k-1) of them, times x_j."""
    counts = [math.comb(j + k - 1, k - 1) for j in range(n)]
    return np.concatenate([np.arange(c) for c in counts]), np.repeat(np.arange(n), counts)


def _pack(T: np.ndarray) -> np.ndarray:
    """C_p (K, n), K = C(n+p-2, p-1), with grad <T, x^(x)p> = phi_{p-1}(x) @ C_p.

    Row gamma, a sorted (p-1)-multiset in colex order, holds beta_i c_beta
    in column i, where beta = gamma + e_i and c_beta sums T over the orbit
    of beta.  Equivalently, with V_i = sum over slots s of T with slot s
    fixed at i, C_p[gamma, i] sums V_i over the distinct arrangements of
    gamma; for p = 2 each gamma has one, and C_2 = T + T^T bit for bit.
    Built a few i at a time, so no n^p array is made besides T."""
    p, n = T.ndim, len(T)
    # each (p-1)-index in row-major order, sorted, and the colex rank of that
    # multiset a_1 <= ... <= a_k, sum_t C(a_t + t - 1, t)
    a = np.sort(np.indices((n,) * (p - 1)).reshape(p - 1, -1), axis=0)
    rank = sum(np.array([math.comb(v + t, t + 1) for v in range(n)])[a[t]] for t in range(p - 1))
    order = np.argsort(rank, kind="stable")
    starts = np.searchsorted(rank[order], np.arange(math.comb(n + p - 2, p - 1)))
    C = np.empty((len(starts), n))
    rows = max(1, BLOCK_ENTRIES // n ** (p - 1))
    for lo in range(0, n, rows):
        i = slice(lo, lo + rows)
        V = T[i].copy()
        for s in range(1, p):
            V += np.moveaxis(T[(slice(None),) * s + (i,)], s, 0)
        C[:, i] = np.add.reduceat(V.reshape(len(V), -1)[:, order], starts, axis=1).T
    return C


def _packed(g: DisorderTensors) -> tuple[list, dict[int, np.ndarray]]:
    """The instance's cache, built on first use: the `_level` arrays of
    levels 2..P-1 and {p: C_p} in increasing p."""
    if g._cache is None:
        levels = [_level(g.n, k) for k in range(2, max(g.tensors))]
        g._cache = levels, {p: _pack(g.tensors[p]) for p in sorted(g.tensors)}
    return g._cache


def _block_rows(g: DisorderTensors) -> int:
    """Rows per block, from the top degree's monomial count (see `BLOCK_ENTRIES`)."""
    _, packed = _packed(g)
    rows = max(1, BLOCK_ENTRIES // len(packed[max(packed)]), g.n // 4)
    return 1 << (rows.bit_length() - 1)


def _kernel_work(g: DisorderTensors, M: int):
    """Work arrays for `_kernel` on M rows: the value (M,), the gradient
    (M, n) and a block's degree-p gradient term (rows, n)."""
    return np.empty(M), np.empty((M, g.n)), np.empty((min(M, _block_rows(g)), g.n))


def _kernel(g: DisorderTensors, X: np.ndarray, work=None):
    """H (M,) and grad H (M, n) on rows X (M, n), one GEMM per degree.

    Per block of rows and per degree p, in increasing p, the monomials
    phi_{p-1} are built from the level below, one monomial per row of a
    (K, rows) array, and A = phi_{p-1}^T @ C_p is the gradient of
    <T, x^(x)p>; x.A / p is its value.  For p = 2, phi_1^T = X and
    C_2 = G + G^T, so that degree is `X @ (G + G^T)`.

    `work`, from `_kernel_work(g, M)`, receives both results, which are its
    first two arrays, and each block's A, so a caller that passes one
    workspace to every call allocates only the monomial levels, and for a
    quadratic mixture nothing of size n.  Blocks hold a power-of-two count
    of rows and run in a fixed order, so a row's bits depend only on the
    rows of its block, not on `work`.  Unchecked: the public entries check
    their input."""
    M, n = X.shape
    levels, packed = _packed(g)
    val, gr, scratch = _kernel_work(g, M) if work is None else work
    val.fill(0.0)
    gr.fill(0.0)
    rows = _block_rows(g)
    for lo in range(0, M, rows):
        Xb = X[lo : lo + rows]
        A = scratch[: len(Xb)]
        phi, k = Xb.T, 1
        for p, C in packed.items():
            for prev, last in levels[k - 1 : p - 2]:
                phi, k = phi.take(prev, 0) * Xb.T.take(last, 0), k + 1
            np.matmul(phi.T, C, out=A)
            v = np.matmul(A[:, None, :], Xb[:, :, None])[:, 0, 0] / p
            scale = g.spec.c(p) / n ** ((p - 1) / 2)
            v *= scale
            val[lo : lo + rows] += v
            A *= scale
            gr[lo : lo + rows] += A
    return val, gr


def _flip_field(g: DisorderTensors, x: np.ndarray):
    """Glauber's flip field at a +-1 state x: (phi, d, F, rows).

    phi (K,) stacks the monomials phi_{p-1}(x) of every degree, in `_packed`
    order, and F (K, n) the matching rows F_p[gamma, i] = s_p C_p[gamma, i]
    / (gamma_i + 1) where the multiplicity gamma_i is even and 0 where it is
    odd, s_p = c_p n^{-(p-1)/2}.  On the cube x_k^2 = 1, so d = phi @ F is
    (H(x^{i->+1}) - H(x^{i->-1})) / 2, and d_i does not depend on x_i.
    rows[j] are the rows where gamma_j is odd: the monomials a flip of x_j
    negates.  For p = 2, F_2 is s_2 C_2 with its diagonal zeroed and
    rows[j] = [j].  Each row's multiset gamma comes from the `_level`
    arrays, one level at a time, as its k = p-1 sorted indices, so only the
    k entries of a row where gamma_i > 0 are rescaled.  Unchecked:
    `glauber_run` checks x."""
    n = g.n
    levels, packed = _packed(g)
    K = sum(len(C) for C in packed.values())
    phi, F = np.empty(K), np.empty((K, n))
    gamma, mono, k, lo = np.arange(n)[:, None], x, 1, 0
    sites, odd_rows = [], []
    for p, C in packed.items():
        for prev, last in levels[k - 1 : p - 2]:
            gamma, mono, k = np.hstack([gamma[prev], last[:, None]]), mono[prev] * x[last], k + 1
        phi[lo : lo + len(C)] = mono
        r = np.arange(lo, lo + len(C))[:, None].repeat(k, 1)
        np.multiply(g.spec.c(p) / n ** ((p - 1) / 2), C, out=F[lo : lo + len(C)])
        mult = (gamma[:, :, None] == gamma[:, None, :]).sum(2)  # gamma_i at each slot i
        odd = mult % 2 == 1
        F[r, gamma] = np.where(odd, 0.0, F[r, gamma] / (mult + 1))
        odd[:, 1:] &= gamma[:, 1:] != gamma[:, :-1]  # one entry per (row, site)
        sites.append(gamma[odd])
        odd_rows.append(r[odd])
        lo += len(C)
    site, row = np.concatenate(sites), np.concatenate(odd_rows)
    order = np.argsort(site, kind="stable")
    rows = np.split(row[order], np.searchsorted(site[order], np.arange(1, n)))
    return phi, phi @ F, F, rows


def hamiltonian(g: DisorderTensors, x: np.ndarray):
    """H(x) = sum_p c_p n^{-(p-1)/2} <G^(p), x^(x)p>, one GEMM per degree.
    A vector (n,) gives a scalar and a batch (M, n) gives (M,)."""
    X, lead = _rows(x, g.n, "x")
    return _kernel(g, X)[0].reshape(lead)[()]


def grad(g: DisorderTensors, m: np.ndarray):
    """Exact gradient of the Hamiltonian, the same one GEMM per degree."""
    X, lead = _rows(m, g.n, "x")
    return _kernel(g, X)[1].reshape(lead + (g.n,))


def hessian(g: DisorderTensors, m: np.ndarray) -> np.ndarray:
    """Exact Hessian of the Hamiltonian: per degree, scale J_k^T C_p, where
    J_k (K, n) is the Jacobian at m of the level-k monomials, k = p-1.  In
    colex order the level-k rows with largest index j form one segment, the
    first C(j+k-1, k-1) level-(k-1) monomials phi_{k-1} times m_j (see
    `_level`), so with Z = C_p and Z_j its segment j,
    J_k^T Z = J_{k-1}^T (sum_j m_j Z_j) + sum_j e_j (phi_{k-1}[:len(Z_j)] @ Z_j),
    where the first sum adds each Z_j into the head of level k-1.  That runs
    down to J_1 = I, one pass over contiguous segments per level: K n flops,
    and no array larger than the level below C_p is made.  The sum over
    degrees is symmetrized once at the end."""
    mv = np.asarray(m, dtype=float)
    if mv.shape != (g.n,):
        raise ValueError("hessian takes a single vector")
    n = g.n
    levels, packed = _packed(g)
    phi = [np.ones(1), mv]
    for prev, last in levels:
        phi.append(phi[-1][prev] * mv[last])
    out = np.zeros((n, n))
    for p, C in packed.items():
        H, Z = np.zeros((n, n)), C
        for k in range(p - 1, 1, -1):
            below, lo = np.zeros((math.comb(n + k - 2, k - 1), n)), 0
            for j in range(n):
                rows = Z[lo : lo + math.comb(j + k - 1, k - 1)]
                H[j] += phi[k - 1][: len(rows)] @ rows
                below[: len(rows)] += mv[j] * rows
                lo += len(rows)
            Z = below
        out += g.spec.c(p) / n ** ((p - 1) / 2) * (H + Z)
    return 0.5 * (out + out.T)


def _check_enumeration(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: n={n} > {ENUMERATION_CAP}")


def _decode_spins(b: np.ndarray, n: int) -> np.ndarray:
    """Rows of `all_spins(n)` at configuration indices b, decoded from the bits."""
    bits = (np.asarray(b, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    return 2.0 * bits.astype(float) - 1.0


def all_spins(n: int) -> np.ndarray:
    """All 2^n spin configurations; row b has x_i = 2*bit_i(b) - 1."""
    _check_enumeration(n)
    return _decode_spins(np.arange(2**n, dtype=np.uint32), n)


def hamiltonian_table(g: DisorderTensors) -> np.ndarray:
    """H(x) over every configuration, in `all_spins` order, by a fast
    Walsh-Hadamard transform of the raw tensors; the kernel is not called.

    On the cube x_i^2 = 1, so the entry T[i_1..i_p] multiplies x^S, S the
    set of indices of odd multiplicity: the XOR of the one-hot bits 1 << i_t.
    One bincount per slab T[i] of the leading index adds s_p T into these
    2^n bins, s_p = c_p n^{-(p-1)/2}, which gives H's coefficient a_S of
    each x^S with O(2^n + n^{p-1}) extra memory.  Row b of `all_spins` has
    x_i = -1 where bit i of b is clear, so H(b) = sum_S a_S prod_{i in S}
    (2 bit_i(b) - 1); one butterfly pass per bit, (u, v) -> (u - v, u + v),
    sums that for every b.  Agrees with `hamiltonian(g, all_spins(n))` to
    rounding, as the sums run in another order.  The whole cube goes to this
    table and every given batch of rows to the kernel, the reference."""
    n = g.n
    _check_enumeration(n)
    bits = np.left_shift(1, np.arange(n, dtype=np.intp))
    table = np.zeros(2**n)
    for p, T in sorted(g.tensors.items()):
        rest = np.zeros(1, dtype=np.intp)  # the odd set of each T[i] entry, row-major
        for _ in range(p - 1):
            rest = (rest[:, None] ^ bits).ravel()
        coef = np.zeros(2**n)
        for i in range(n):
            coef += np.bincount(rest ^ bits[i], weights=T[i].ravel(), minlength=2**n)
        table += g.spec.c(p) / n ** ((p - 1) / 2) * coef
    for k in range(n):
        t = table.reshape(-1, 2, 1 << k)
        u, v = t[:, 0], t[:, 1]
        d = u - v
        v += u
        u[...] = d
    return table


def partition_rescaled(g: DisorderTensors, beta: float) -> float:
    """Z_xi(G) = 2^{-n} sum_x exp(beta H(x) - n beta^2 xi(1) / 2).

    Exact sum over all 2^n configurations (log-sum-exp stabilized); its
    disorder expectation is exactly 1 for every beta.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
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
    length are checked before any tensor body is read; a non-finite entry
    is rejected, naming its degree."""
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
        _check_budget(spec, n)
        expected = header_len + 8 * sum(n**p for p, _ in spec.coeffs)
        if size != expected:
            problem = "body truncated" if size < expected else "has trailing bytes"
            raise ValueError(f"tensor file {problem}: {size} bytes, expected {expected}")
        tensors = {p: np.fromfile(f, "<f8", n**p).reshape((n,) * p) for p, _ in spec.coeffs}
    for p, T in tensors.items():
        if not np.isfinite(T).all():
            raise ValueError(f"tensor file body has a non-finite entry in degree p = {p}")
    return DisorderTensors(
        n=n, spec=spec, tensors=tensors, seed=seed, kind=_TAG_KINDS.get(tag, "other")
    )
