import csv
import math

import numpy as np
import pytest

from regretforge import (CoinBettor, DimFreeLearner, Learner, OptimisticLearner, drive,
                         dual_exponent, pnorm_grid)
from regretforge.core import as_vector, row_dot
from regretforge.harness import _walk
from regretforge.hints import UnitBallDescent


def unit_stream(rng, T, d, scale=1.0):
    """Random gradient stream with every row norm <= scale (<= 1)."""
    assert scale <= 1.0
    v = rng.standard_normal((T, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = scale * rng.uniform(0.0, 1.0, size=(T, 1))
    return v * radii


def rademacher_stream(rng, T, d, scale=1.0):
    """i.i.d. signs, rows normalized to norm == scale."""
    signs = rng.integers(0, 2, size=(T, d)) * 2.0 - 1.0
    return scale * signs / np.sqrt(d)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def running_average_hints(G):
    """RunningAverage's hints for the rows of a (T, ...) G in closed form, bitwise: the sums of
    the rows before each, added in order from a +0.0 start, divided by max(count, 1)."""
    S = np.zeros_like(G)
    S[1:] = G[:-1]
    np.cumsum(S, axis=0, out=S)
    return S / np.maximum(np.arange(len(G)), 1).reshape((-1,) + (1,) * (G.ndim - 1))


def drawn_hints(G, source):
    """The hints ``source`` gives on the rows of a (T, d) G, as core.drive draws them."""
    learner = OptimisticLearner(DimFreeLearner(G.shape[1], 0.5), CoinBettor(0.5))
    return drive(learner, G, source)[2]


def ftl_gap(G, H):
    """sum ||g_t - h_t||^2 - sum ||g_t - gbar||^2 with gbar the mean of the (T, d) stream G:
    the gap of the running-average hints H under squared-distance losses (0 when T = 0)."""
    if len(G) == 0:
        return 0.0
    D = G - H
    centred = G - G.sum(axis=0) / len(G)
    return math.fsum(row_dot(D, D)) - math.fsum(np.einsum("td,td->t", centred, centred))


def descent_regret(G):
    """Regret of UnitBallDescent's hints against the best fixed hint under the losses
    <g_t, g_t - 2h>, whose minimizer over the unit ball has the closed form sum g / ||sum g||:
    2 (||sum g|| - sum <g_t, h_t>)."""
    H = drawn_hints(G, UnitBallDescent(G.shape[1]))
    return 2.0 * (float(np.linalg.norm(G.sum(axis=0))) - math.fsum(row_dot(G, H)))


class ConstantLearner(Learner):
    """Always plays a fixed point (no regret guarantee at the origin)."""

    def __init__(self, point):
        point = as_vector(point, name="point")
        super().__init__(point.shape[0], epsilon=None)
        self.point = point

    def _prediction(self):
        return self.point.copy()

    def _update(self, g):
        pass


def grid_cover(d: int, x, p: float) -> int:
    """Index of the grid norm covering the user's p: largest i with q_i <= q.

    The returned spec satisfies ||x||_{p_i} <= ||x||_p and
    ||x||_{q_i} <= e * ||x||_q for every x.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError("p must lie in [1, 2]")
    as_vector(x, d, "x")
    q = dual_exponent(p)
    best = 0
    for i, spec in enumerate(pnorm_grid(d)):
        if spec.q <= q + 1e-12:
            best = i
    return best


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def resolve_comparator(cfg: dict, dim: int, gsum: np.ndarray, path: str) -> np.ndarray:
    """Comparator vector at a checkpoint; best_in_ball uses the gradient sum."""
    return _walk("comparator", cfg, path, dim)(gsum)
