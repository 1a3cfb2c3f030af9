"""Brute-force grid oracles for the temperature thresholds.

Independent of the library: its own Gauss-Hermite rule (121 nodes), its own
inverse-psi bisection, dense grids well beyond the library's solver grids.
Takes several minutes.
"""

import numpy as np

Z, W = np.polynomial.hermite_e.hermegauss(121)
W = W / W.sum()


def psi_vec(g):
    g = np.asarray(g, float)
    return np.tanh(g[..., None] + np.sqrt(g)[..., None] * Z) @ W


def psi_prime_vec(g):
    g = np.asarray(g, float)
    t = np.tanh(g[..., None] + np.sqrt(g)[..., None] * Z)
    return ((1 - t**2) * (1 + 2 * t - 3 * t**2)) @ W


def phi_vec(q):
    q = np.asarray(q, float)
    lo, hi = np.zeros_like(q), np.ones_like(q)
    for _ in range(40):
        bad = psi_vec(hi) < q
        if not bad.any():
            break
        hi[bad] *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        below = psi_vec(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return (lo + hi) / 2


def h(m):
    a, b = (1 + m) / 2, (1 - m) / 2
    out = np.where(a > 0, a * np.log(np.where(a > 0, a, 1.0)), 0.0)
    out += np.where(b > 0, b * np.log(np.where(b > 0, b, 1.0)), 0.0)
    return -out


def beta1_grid(xi2):
    """min over a dense q-grid of sqrt(phi'(q) / xi''(q)), phi by bisection."""
    qs = np.linspace(1e-7, 1 - 1e-7, 1_000_000)
    chunks = np.array_split(qs, 50)  # bounds the (points, nodes) arrays to ~40 MB
    phip = np.concatenate([1.0 / psi_prime_vec(phi_vec(c)) for c in chunks])
    vals = np.sqrt(phip / xi2(qs))
    i = int(np.argmin(vals))
    return vals[i], qs[i]


def beta2_dense(xi, noise_floor=1e-12):
    qg = np.linspace(1e-9, 1 - 1e-12, 2_000_000)
    hq = h(qg)
    lo, hi = 0.0, 4.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if np.max(mid * mid * xi(qg) + hq - np.log(2)) < noise_floor:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def dyn_h(lam):
    lam = np.asarray(lam, float)
    a = np.tanh(lam[..., None] * (Z + lam[..., None])) ** 2 @ W
    b = np.tanh(lam[..., None] * (Z - lam[..., None])) ** 2 @ W
    return 0.5 * (a + b)


def beta_dyn_brute(p, bmax, nq=100_000, db=1e-3):
    q = np.linspace(1e-4, 1.0, nq)
    sx = np.sqrt(p * q ** (p - 1))
    for b in np.arange(db, bmax, db):
        if (q - dyn_h(b * sx)).min() <= 0:
            return b
    return None


def main():
    v, q = beta1_grid(lambda t: 6 * t)  # xi = t^3
    print(f"beta1(pure p=3)  = {v:.7f}  (argmin q = {q:.4f})")
    v, q = beta1_grid(lambda t: 1 + 4.2 * t + 2.4 * t * t)  # xi = .5t^2 + .7t^3 + .2t^4
    print(f"beta1(mixed)     = {v:.7f}  (argmin q = {q:.4f})")
    print(f"beta2(pure p=4)  = {beta2_dense(lambda t: t**4):.7f}")
    print(f"beta2(quadratic) = {beta2_dense(lambda t: t * t / 2):.7f}")
    print(f"beta_dyn(p=3)    = {beta_dyn_brute(3, 2.0):.4f}")
    for p in (50, 100, 200):
        bd = beta_dyn_brute(p, 1.0, nq=30_000)
        print(f"beta_dyn(p={p:<3d}) = {bd:.4f}  ratio = {bd / np.sqrt(2 * np.log(p) / p):.4f}")


if __name__ == "__main__":
    main()
