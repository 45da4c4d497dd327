"""Hint sources: stateful producers of the per-round hint vector.

Data-driven sources emit the zero vector on round 1 (nothing seen yet).
Every source keeps its emissions inside the unit ball; the descent source
projects, the others cannot exceed it when fed unit-bounded gradients.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import GRAD_TOL, as_vector, ball_step, check_batch, check_unit_norm


class HintSource:
    """next_hint() -> vector before the round; feed(g) after it.

    feed() validates g (shape and finite entries) and hands it to the trusted
    _feed(), which subclasses implement. core.drive runs a source over a segment
    of rounds before they run, calling _feed() directly, so a hint may depend
    only on the gradients fed so far, and an override of feed() is never
    reached: a subclass that defines feed() without _feed() is a TypeError.

    A class with a closed form defines _draw(G, out), which replaces that row loop: it writes
    the hints for n >= 1 checked (n, dim) rows G into ``out``, leaving the source as next_hint()
    then _feed() on each row would, or returns False, changing nothing.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "feed" in vars(cls) and "_feed" not in vars(cls):
            raise TypeError(
                f"{cls.__name__} overrides feed(), which the stream drivers "
                "bypass; override _feed(g), which takes a validated gradient"
            )

    def __init__(self, dim: int, batch=None):
        self.dim = dim
        self.batch = check_batch(batch)

    def next_hint(self) -> np.ndarray:
        raise NotImplementedError

    def feed(self, g) -> None:
        self._feed(as_vector(g, self.dim, "gradient", self.batch))

    def _feed(self, g: np.ndarray) -> None:
        """Take one round's gradient, already validated by the caller."""


class ZeroHint(HintSource):
    def next_hint(self):
        return np.zeros(self.dim)


class LastGradient(HintSource):
    """Emits the previous round's gradient verbatim."""

    def __init__(self, dim):
        super().__init__(dim)
        self._prev = np.zeros(dim)

    def next_hint(self):
        return self._prev.copy()

    def _feed(self, g):
        self._prev = g.copy()

    def _draw(self, G, out):  # the rows shifted down one
        out[0], out[1:] = self._prev, G[:-1]
        self._prev = G[-1].copy()
        return True


class AdversarialNegate(LastGradient):
    """Emits minus the previous gradient: a deliberately harmful hint."""

    def next_hint(self):
        return -self._prev

    def _draw(self, G, out):
        super()._draw(G, out)
        np.negative(out, out=out)
        return True


class RunningAverage(HintSource):
    """Follow-the-leader for squared-distance losses: the running mean.

    Means of unit-bounded vectors stay unit-bounded, so no normalization.
    With ``batch`` = B it keeps one mean per trial and emits (B, dim) hints.
    """

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

    def __init__(self, dim):
        super().__init__(dim)
        self.point = np.zeros(dim)
        self._sq_sum = 0.0

    def next_hint(self):
        return self.point.copy()

    def _feed(self, g):
        self._sq_sum += 4.0 * float(np.dot(g, g))
        if self._sq_sum > 0.0:  # point + step * g, bitwise
            self.point = ball_step(self.point, -(2.0 / math.sqrt(self._sq_sum)) * g)


class ConstantHint(HintSource):
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

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"hint rows must be a (T, d) array, got shape {rows.shape}")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt's "input contained no data"
            rows = np.loadtxt(path, ndmin=2)
        if rows.size == 0:
            raise ValueError(f"hint file {path} has no rows")
        return cls(rows)

    def next_hint(self):
        if self._next >= self.rows.shape[0]:
            raise IndexError(f"hint sequence exhausted after {self._next} rounds")
        h = self.rows[self._next].copy()
        self._next += 1
        return h

    def _draw(self, G, out):
        stop = self._next + len(G)
        if stop <= len(self.rows):  # else the row loop fails at the exhausted round
            out[...], self._next = self.rows[self._next:stop], stop
        return stop <= len(self.rows)

