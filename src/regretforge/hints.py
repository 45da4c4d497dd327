"""Hint sources: stateful producers of the per-round hint vector.

Data-driven sources emit the zero vector on round 1 (nothing seen yet).
Every source keeps its emissions inside the unit ball; the descent source
projects, the others cannot exceed it when fed unit-bounded gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GRAD_TOL, as_vector, check_unit_norm, norm


class HintSource:
    """next_hint() -> vector before the round; feed(g) after it.

    feed() validates g (shape and finite entries) here, once, and hands the
    array to the trusted _feed(), which subclasses implement. The stream
    driver, core.drive, checks the whole stream before round 0 and calls
    _feed() directly, so it would never reach an override of feed(): a
    subclass that defines feed() without _feed() is a TypeError.
    """

    kind = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "feed" in vars(cls) and "_feed" not in vars(cls):
            raise TypeError(
                f"{cls.__name__} overrides feed(), which the stream drivers "
                "bypass; override _feed(g), which takes a validated gradient"
            )

    def __init__(self, dim: int, batch=None):
        self.dim = dim
        self.batch = batch

    def next_hint(self) -> np.ndarray:
        raise NotImplementedError

    def feed(self, g) -> None:
        self._feed(as_vector(g, self.dim, "gradient", self.batch))

    def _feed(self, g: np.ndarray) -> None:
        """Take one round's gradient, already validated by the caller."""


class ZeroHint(HintSource):
    kind = "zero"

    def next_hint(self):
        return np.zeros(self.dim)


class LastGradient(HintSource):
    """Emits the previous round's gradient verbatim."""

    kind = "last_gradient"

    def __init__(self, dim):
        super().__init__(dim)
        self._prev = np.zeros(dim)

    def next_hint(self):
        return self._prev.copy()

    def _feed(self, g):
        self._prev = g.copy()


class AdversarialNegate(HintSource):
    """Emits minus the previous gradient: a deliberately harmful hint."""

    kind = "adversarial_negate"

    def __init__(self, dim):
        super().__init__(dim)
        self._prev = np.zeros(dim)

    def next_hint(self):
        return -self._prev

    def _feed(self, g):
        self._prev = g.copy()


class RunningAverage(HintSource):
    """Follow-the-leader for squared-distance losses: the running mean.

    Means of unit-bounded vectors stay unit-bounded, so no normalization.
    With ``batch`` = B it keeps one mean per trial and emits (B, dim) hints.
    """

    kind = "running_average"

    def __init__(self, dim, batch=None):
        super().__init__(dim, batch)
        self._sum = np.zeros(dim if batch is None else (batch, dim))
        self._count = 0

    def next_hint(self):
        return self._sum / max(self._count, 1)  # zeros before the first feed

    def _feed(self, g):
        self._sum = self._sum + g
        self._count += 1


class UnitBallDescent(HintSource):
    """Gradient descent on the unit ball against the loss <g_t, g_t - 2h>.

    The loss subgradient in h is -2 g_t; the step is
    1 / sqrt(sum_s ||2 g_s||^2). Minimizing this loss drives the hint
    toward the normalized gradient sum.
    """

    kind = "unit_ball_descent"

    def __init__(self, dim):
        super().__init__(dim)
        self.point = np.zeros(dim)
        self._sq_sum = 0.0

    def next_hint(self):
        return self.point.copy()

    def _feed(self, g):
        self._sq_sum += 4.0 * float(np.dot(g, g))
        if self._sq_sum <= 0.0:
            return
        h = self.point + (2.0 / math.sqrt(self._sq_sum)) * g
        n = norm(h)
        if n > 1.0:
            h = h / n
        self.point = h


class ConstantHint(HintSource):
    kind = "constant"

    def __init__(self, vector):
        v = as_vector(vector, name="hint")
        check_unit_norm(v, "hint")
        super().__init__(v.shape[0])
        self._v = v

    def next_hint(self):
        return self._v.copy()


class ExternalHints(HintSource):
    """Replays a fixed sequence of hints, one row per round.

    Feeding the stream itself yields oracle ("perfect") hints in replays.
    """

    kind = "external"

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[:, None]
        if not np.all(np.isfinite(rows)):
            raise ValueError("hint rows contain non-finite entries")
        norms = np.linalg.norm(rows, axis=1)
        if norms.size and float(norms.max()) > 1.0 + GRAD_TOL:
            raise ValueError(f"hint row norm {norms.max():.12g} exceeds 1")
        super().__init__(rows.shape[1])
        self.rows = rows
        self._next = 0

    @classmethod
    def from_file(cls, path) -> "ExternalHints":
        # whitespace-separated reals, one row per round
        return cls(np.loadtxt(path, ndmin=2))

    def next_hint(self):
        if self._next >= self.rows.shape[0]:
            raise IndexError(f"hint sequence exhausted after {self._next} rounds")
        h = self.rows[self._next].copy()
        self._next += 1
        return h


def best_fixed_hint(gradients) -> np.ndarray:
    """Minimizer over the unit ball of sum_t <g_t, g_t - 2h>: the normalized
    gradient sum (zero if the sum vanishes)."""
    G = np.asarray(gradients, dtype=np.float64)
    s = G.sum(axis=0)
    n = float(np.linalg.norm(s))
    if n == 0.0:
        return np.zeros(G.shape[1])
    return s / n


def hint_learner_regret(gradients) -> float:
    """Regret of the unit-ball descent source against the best fixed hint.

    Losses are ell_t(h) = <g_t, g_t - 2h>; the best fixed hint has the
    closed form above, so the regret is 2(||sum g|| - sum <g_t, h_t>).
    """
    G = np.asarray(gradients, dtype=np.float64)
    src = UnitBallDescent(G.shape[1])
    terms = []
    for t in range(G.shape[0]):
        h = src.next_hint()
        terms.append(float(np.dot(G[t], h)))
        src.feed(G[t])
    played = math.fsum(terms)
    return 2.0 * (float(np.linalg.norm(G.sum(axis=0))) - played)


def ftl_regret_check(gradients) -> float:
    """Gap of the running-average source under squared-distance losses.

    Replays the source over the stream and returns
    sum ||g_t - h_t||^2 - sum ||g_t - gbar||^2 with gbar the empirical mean.
    Nonnegative by optimality of the mean; grows only logarithmically in T.
    """
    G = np.asarray(gradients, dtype=np.float64)
    T = G.shape[0]
    if T == 0:
        return 0.0
    src = RunningAverage(G.shape[1])
    terms = []
    for t in range(T):
        h = src.next_hint()
        diff = G[t] - h
        terms.append(float(np.dot(diff, diff)))
        src.feed(G[t])
    gbar = G.sum(axis=0) / T
    centred = G - gbar
    return math.fsum(terms) - math.fsum(np.einsum("td,td->t", centred, centred))
