"""Mixture polynomial xi(t) = sum_p c_p^2 t^p, the Onsager terms built from
it, and the binary entropy h.

The mixture is stored through the squared coefficients c_p^2 (the canonical
parameterization: it avoids any sign ambiguity, and c_p is recovered by a
square root only where a tensor has to be scaled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MixtureSpec", "ons", "ons_prime", "onsager", "binary_entropy"]

#: Largest degree for which dense tensors are supported.
TENSOR_DEGREE_CAP = 4

#: Highest derivative order of xi that `MixtureSpec.xi` evaluates.
_MAX_ORDER = 4


@dataclass(frozen=True)
class MixtureSpec:
    """The mixture polynomial via its ordered (p, c_p^2) coefficients.

    `coeffs` must have strictly increasing p >= 2 and finite, nonnegative
    c_p^2 with at least one positive entry; zero terms are then dropped.
    Degrees beyond `TENSOR_DEGREE_CAP` are allowed for scalar-only work and
    flagged through `scalar_only`.
    """

    coeffs: tuple[tuple[int, float], ...]
    scalar_only: bool = field(init=False)

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("mixture needs at least one coefficient")
        prev = 1
        total = 0.0
        for p, csq in self.coeffs:
            if p != int(p) or p < 2:
                raise ValueError(f"degree p={p} must be an integer >= 2")
            if p <= prev:
                raise ValueError("degrees must be strictly increasing")
            if not (math.isfinite(csq) and csq >= 0):
                raise ValueError(f"c_{p}^2 = {csq} must be finite and nonnegative")
            prev = p
            total += csq
        if total <= 0:
            raise ValueError("at least one c_p^2 must be positive")
        # a zero term is dropped once checked: a spec equals its tensor
        # file's read-back, which cannot tell a zero term from an absent one
        object.__setattr__(
            self, "coeffs", tuple((int(p), float(c)) for p, c in self.coeffs if c > 0)
        )
        object.__setattr__(self, "scalar_only", self.degree > TENSOR_DEGREE_CAP)

    @property
    def degree(self) -> int:
        """Maximum degree P."""
        return self.coeffs[-1][0]

    @classmethod
    def sk(cls) -> "MixtureSpec":
        """The quadratic model xi(t) = t^2/2."""
        return cls(((2, 0.5),))

    @classmethod
    def pure(cls, p: int, c_sq: float = 1.0) -> "MixtureSpec":
        """Single-degree model xi(t) = c^2 t^p."""
        return cls(((p, c_sq),))

    @classmethod
    def from_dict(cls, d: dict) -> "MixtureSpec":
        """Parse the JSON form {"2": 0.5, "3": 1.0} mapping p -> c_p^2."""
        items = sorted((int(p), float(c)) for p, c in d.items())
        return cls(tuple(items))

    def to_dict(self) -> dict:
        return {str(p): c for p, c in self.coeffs}

    def c(self, p: int) -> float:
        """Tensor scaling coefficient c_p = sqrt(c_p^2)."""
        for pp, csq in self.coeffs:
            if pp == p:
                return math.sqrt(csq)
        return 0.0

    def xi(self, t, order: int = 0):
        """d^order xi / dt^order at t, exactly from the coefficients.

        Supports order <= 4 (falling-factorial coefficients); t must lie in
        [-1, 1].  Accepts scalars or arrays.
        """
        if order < 0 or order > _MAX_ORDER:
            raise ValueError(f"unsupported derivative order {order} (max {_MAX_ORDER})")
        t_arr = np.asarray(t, dtype=float)
        if np.any(np.abs(t_arr) > 1.0 + 1e-15):
            raise ValueError("xi is only evaluated on [-1, 1]")
        out = np.zeros_like(t_arr)
        for p, csq in self.coeffs:
            if p < order:
                continue
            fall = math.perm(p, order)  # p! / (p-order)!
            out = out + csq * fall * t_arr ** (p - order)
        return out[()]

    def xi_hat(self, ell: int) -> float:
        """sum_p c_p^2 p^ell."""
        if ell < 0 or ell > 8:
            raise ValueError("ell must lie in [0, 8]")
        return float(sum(csq * p**ell for p, csq in self.coeffs))


def ons(spec: MixtureSpec, beta: float, q):
    """Per-site Onsager term (beta^2/2)(xi(1) - xi(q) - (1-q) xi'(q))."""
    q = np.asarray(q, dtype=float)
    return (0.5 * beta * beta * (spec.xi(1.0) - spec.xi(q) - (1.0 - q) * spec.xi(q, order=1)))[()]


def onsager(spec: MixtureSpec, beta: float, q):
    """b(q) = beta^2 (1 - q) xi''(q) for q in [0, 1]: AMP's memory coefficient,
    and -2 ons'(q), the curvature the TAP functional's Onsager term adds."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0) & (q <= 1)):
        raise ValueError("q must lie in [0, 1]")
    return (beta * beta * (1.0 - q) * spec.xi(q, order=2))[()]


def ons_prime(spec: MixtureSpec, beta: float, q):
    """d ons / dq = -b(q) / 2 (matches finite differences)."""
    return -0.5 * onsager(spec, beta, q)


def _entropy_terms(m: np.ndarray, work=None) -> np.ndarray:
    """-(a log a + b log b) per entry, a = (1+m)/2, b = (1-m)/2, 0 log 0 = 0.

    `work`, three float arrays shaped like m (allocated when not given),
    receives the result in its first and uses the other two as scratch.
    Unchecked: the public entries check |m| <= 1."""
    out, a, log_a = (np.empty_like(m) for _ in range(3)) if work is None else work
    out.fill(0.0)
    for side in (np.add, np.subtract):
        np.divide(side(1.0, m, out=a), 2.0, out=a)
        log_a.fill(0.0)
        np.log(a, out=log_a, where=a > 0)
        out += np.multiply(a, log_a, out=log_a)
    return np.negative(out, out=out)


def binary_entropy(m):
    """h(m) = -((1+m)/2)log((1+m)/2) - ((1-m)/2)log((1-m)/2) on [-1, 1].

    The boundary convention h(+-1) = 0 is exact (0 log 0 = 0).  Accepts
    scalars or arrays.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.abs(m) <= 1.0):
        raise ValueError("binary entropy requires |m| <= 1")
    return _entropy_terms(m)[()]
