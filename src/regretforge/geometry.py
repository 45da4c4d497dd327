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

from .core import DimensionMismatch, as_vector, norm, row_norm


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; q = inf when p = 1."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


#: raise only the nonzero columns while at most this share is nonzero: NumPy's SIMD power
#: is slow on zero lanes. A (3, 1024) power took 13-16 µs dense, 40-60 µs with 1% nonzero
#: columns, 8-14 µs compacted; break-even 40-60% (2-CPU AVX-512 host, NumPy 2.4.6).
COMPACT_SHARE = 0.5


def row_powers(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``r ** e[:, None]`` for r >= 0 of shape (d,) or (len(e), d), bitwise; see COMPACT_SHARE."""
    nz = (r if r.ndim == 1 else r.any(axis=0)).nonzero()[0]
    if nz.size > COMPACT_SHARE * r.shape[-1]:
        return r ** e[:, None]
    out = np.zeros((e.size, r.shape[-1]))
    out[:, nz] = r[..., nz] ** e[:, None]
    return out


#: rows of an (n, d) input that p_norm raises at once. At n = 256, d = 1024, 10 nonzeros a row
#: and three exponents a row took 3.4-3.7 µs in blocks of 32, about 23 µs as a call of its own;
#: blocks of 64 and 128 took 5.7 and 8.8 µs, their zero-filled temporaries page-faulting
#: (2-CPU host, NumPy 2.4.6).
NORM_ROWS = 32


def p_norm(x, p):
    """(sum |x_i|^p)^(1/p); max |x_i| for p = inf.

    A 1-D array ``p`` gives one norm per exponent, each bitwise ``p_norm(x, p_i)``. An (n, d)
    ``x`` gives the norms of its rows, (n,) or (n, len(p)), each bitwise the row's own call;
    a 3-D or higher ``x`` raises ValueError. A row is divided by its max |x_i|, which keeps
    the powers in range (p = inf: max * S**0), and only its nonzero entries are raised while
    at most COMPACT_SHARE of a block's entries are nonzero; each row is summed at full
    length, zeros included, so its pairwise sum keeps its bits.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2:
        raise ValueError(f"p_norm takes a vector or (n, d) rows, got shape {x.shape}")
    ps = np.asarray(p, dtype=np.float64).reshape(-1)
    exps = ps.tolist()
    if min(exps) < 1.0:
        raise ValueError("p must be >= 1")
    cols = _row_norms(np.ascontiguousarray(np.atleast_2d(x)), exps)
    if x.ndim < 2:  # one row: its norms, or its norm as a float
        return np.array([c[0] for c in cols]) if np.ndim(p) else cols[0][0]
    return np.array(cols).T.copy() if np.ndim(p) else np.array(cols[0])


def _row_norms(X: np.ndarray, exps: list) -> list:
    """The norms of the rows of a C-contiguous (n, d) X: a list of n floats per exponent."""
    n, d = X.shape
    cols = {}  # the exponents with closed forms, then the raised ones
    if 2.0 in exps:
        cols[2.0] = row_norm(X).tolist()
    if 1.0 in exps:
        cols[1.0] = np.abs(X).sum(axis=1).tolist()
    raised = [e for e in exps if e not in cols]
    ms, sums = [], [[] for _ in raised]  # each row's max |x_i|, each exponent's row sums
    R = np.zeros(min(n, NORM_ROWS) * d if raised else 0)  # a sparse block's powers, zero elsewhere
    for s in range(0, n if raised and d else 0, NORM_ROWS):
        a = np.abs(X[s:s + NORM_ROWS])
        m = a.max(axis=1)
        ms += m.tolist()
        if 0.0 in ms[s:]:
            m[m == 0.0] = 1.0  # a zero row raises 0 / 1: its sums and norms are 0
        nz = np.flatnonzero(a != 0.0)
        if nz.size > COMPACT_SHARE * a.size:
            r = a / m[:, None]
            t = [(r ** x).sum(axis=1) for x in raised]
        else:
            r, rows, t = a.take(nz) / m[nz // d], R[:a.size].reshape(a.shape), []
            for x in raised:
                R[nz] = r ** x
                t.append(rows.sum(axis=1))
            R[nz] = 0.0
        for col, row in zip(sums, t):
            col += row.tolist()
    for x, col in zip(raised, sums):  # p = inf: m * S**0
        cols[x] = [m_i * t ** (1.0 / x) for m_i, t in zip(ms, col)] if d else [0.0] * n
    return [cols[x] for x in exps]


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


class ConvexDomain:
    """Convex set with exact projection, distance, and distance subgradient.

    A domain defines project(); one with a cheaper closed form overrides
    subgradient_and_distance(), which distance() and distance_subgradient() read.
    """

    bounded = False

    def project(self, x) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x) -> float:
        return self.subgradient_and_distance(x)[1]

    def distance_subgradient(self, x) -> np.ndarray:
        """Unit outward normal (x - proj)/||x - proj|| outside, zero inside.

        Zero is always a valid subgradient on the domain itself, and picking
        it keeps the constrained reduction's surrogate gradients smallest.
        """
        return self.subgradient_and_distance(x)[0]

    def subgradient_and_distance(self, x) -> tuple:
        """(distance_subgradient(x), distance(x)) from one projection.

        An override keeps the contract that tilde_hint relies on: distance 0 comes with the
        zero subgradient, +0.0 in every entry, as here and in Ball.
        """
        x = np.asarray(x, dtype=np.float64)
        gap = x - self.project(x)
        n = norm(gap)
        return (gap / n if n else np.zeros_like(x)), n

    @property
    def diameter(self) -> float:
        raise NotImplementedError


class WholeSpace(ConvexDomain):
    """The entire space: projection is the identity, distance is zero."""

    def project(self, x):
        return np.asarray(x, dtype=np.float64).copy()


class Ball(ConvexDomain):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    bounded = True

    def __init__(self, center, radius: float):
        if not 0.0 < radius < math.inf:  # NaN too: it would make every projection NaN
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        self.center = as_vector(center, name="center")
        self.radius = float(radius)

    def project(self, x):
        x = np.asarray(x, dtype=np.float64)
        gap = x - self.center
        n = norm(gap)
        if n <= self.radius:
            return x.copy()
        return self.center + gap * (self.radius / n)

    def subgradient_and_distance(self, x):  # one gap from the centre serves both
        x = np.asarray(x, dtype=np.float64)
        gap = x - self.center
        n = norm(gap)
        if n <= self.radius:
            return np.zeros(x.shape), 0.0
        out = x - (self.center + gap * (self.radius / n))  # x minus project(x)
        m = norm(out)
        return (out / m if m else np.zeros_like(x)), max(0.0, n - self.radius)

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
        return x.clip(self.lo, self.hi)  # bitwise np.clip; it runs NumPy's Python _methods._clip

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

