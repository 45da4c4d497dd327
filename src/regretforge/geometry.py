"""Norm utilities, the p-norm grid, and convex-domain machinery.

The grid discretizes p in [1, 2] so that a small family of p-norms covers
every p-norm up to a factor e on the dual side. Domains expose exact
Euclidean projection, distance, and a distance subgradient; only shapes
with closed-form projections are supported (whole space, ball, box)
because the constrained reduction needs exact values every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionMismatch, as_vector, norm


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; q = inf when p = 1."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def p_norm(x, p: float) -> float:
    """(sum |x_i|^p)^(1/p); max |x_i| for p = inf."""
    x = np.asarray(x, dtype=np.float64)
    if math.isinf(p):
        return float(np.max(np.abs(x))) if x.size else 0.0
    if p == 2.0:
        return norm(x)
    if p == 1.0:
        return float(np.sum(np.abs(x)))
    if p < 1.0:
        raise ValueError("p must be >= 1")
    a = np.abs(x)
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    # factor out the max to avoid overflow/underflow in the powers
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


@dataclass(frozen=True)
class NormSpec:
    """A p-norm with its dual exponent and strong-convexity modulus p - 1."""

    p: float
    q: float
    lam: float

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"p must lie in [1, 2], got {self.p}")
        inv_q = 0.0 if math.isinf(self.q) else 1.0 / self.q
        if abs(1.0 / self.p + inv_q - 1.0) > 1e-12:
            raise ValueError(f"p={self.p} and q={self.q} are not dual")
        if abs(self.lam - (self.p - 1.0)) > 1e-12:
            raise ValueError("lam must equal p - 1")

    @classmethod
    def from_p(cls, p: float) -> "NormSpec":
        return cls(p=p, q=dual_exponent(p), lam=p - 1.0)

    def primal(self, x) -> float:
        return p_norm(x, self.p)

    def dual(self, x) -> float:
        return p_norm(x, self.q)


@lru_cache(maxsize=None)
def pnorm_grid(d: int) -> tuple:
    """Dual-exponent grid q_0 = 2, 1/q_i = 1/q_{i-1} - 1/log(d), i <= floor(log(d)/2).

    Natural log throughout (the covering factor e depends on it). Requires
    d >= 3 so that log d > 1 and the recurrence decreases 1/q.
    """
    if d < 3:
        raise ValueError("pnorm_grid needs d >= 3")
    log_d = math.log(d)
    specs = []
    inv_q = 0.5
    for i in range(math.floor(log_d / 2.0) + 1):
        if i > 0:
            inv_q -= 1.0 / log_d
        q = math.inf if inv_q <= 0.0 else 1.0 / inv_q
        p = 1.0 if math.isinf(q) else q / (q - 1.0)
        specs.append(NormSpec(p=p, q=q, lam=p - 1.0))
    return tuple(specs)


def grid_cover(d: int, x, p: float) -> int:
    """Index of the grid norm covering the user's p: largest i with q_i <= q.

    The returned spec satisfies ||x||_{p_i} <= ||x||_p and
    ||x||_{q_i} <= e * ||x||_q for every x.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must lie in [1, 2]")
    as_vector(x, d, "x")
    q = dual_exponent(p)
    grid = pnorm_grid(d)
    best = 0
    for i, spec in enumerate(grid):
        if spec.q <= q + 1e-12:
            best = i
    return best


class ConvexDomain:
    """Convex set with exact projection, distance, and distance subgradient."""

    bounded = False

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return norm(x - self.project(x))

    def distance_subgradient(self, x) -> np.ndarray:
        """Unit outward normal (x - proj)/||x - proj|| outside, zero inside.

        Zero is always a valid subgradient on the domain itself, and picking
        it keeps the constrained reduction's surrogate gradients smallest.
        """
        x = np.asarray(x, dtype=np.float64)
        gap = x - self.project(x)
        n = norm(gap)
        if n == 0.0:
            return np.zeros_like(x)
        return gap / n

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.distance(x) <= tol

    @property
    def diameter(self) -> float:
        raise NotImplementedError


class WholeSpace(ConvexDomain):
    """The entire space: projection is the identity, distance is zero."""

    bounded = False

    def project(self, x):
        return np.asarray(x, dtype=np.float64).copy()

    def distance(self, x):
        return 0.0

    def distance_subgradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    @property
    def diameter(self):
        return math.inf


class Ball(ConvexDomain):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    bounded = True

    def __init__(self, center, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = as_vector(center, name="center")
        self.radius = float(radius)

    def project(self, x):
        x = np.asarray(x, dtype=np.float64)
        gap = x - self.center
        n = norm(gap)
        if n <= self.radius:
            return x.copy()
        return self.center + gap * (self.radius / n)

    def distance(self, x):
        x = np.asarray(x, dtype=np.float64)
        return max(0.0, norm(x - self.center) - self.radius)

    @property
    def diameter(self):
        return 2.0 * self.radius


class Box(ConvexDomain):
    """Axis-aligned box {x : lo <= x <= hi} (coordinatewise)."""

    bounded = True

    def __init__(self, lo, hi):
        self.lo = as_vector(lo, name="lo")
        self.hi = as_vector(hi, self.lo.shape[0], "hi")
        if np.any(self.hi < self.lo):
            raise ValueError("box needs lo <= hi coordinatewise")

    def project(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.lo.shape:
            raise DimensionMismatch(f"x has shape {x.shape}, box is {self.lo.shape}")
        return np.clip(x, self.lo, self.hi)

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

