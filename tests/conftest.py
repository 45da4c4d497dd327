import math

import numpy as np
import pytest

from regretforge import drive, optimistic
from regretforge.core import row_dot
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
    return drive(optimistic(G.shape[1]), G, source)[2]


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
