"""Norms, the p-norm grid, and convex-domain machinery."""

import math

import numpy as np
import pytest

from regretforge import (
    Ball,
    Box,
    NormSpec,
    WholeSpace,
    dual_exponent,
    grid_cover,
    p_norm,
    pnorm_grid,
)


def grid_oracle(d):
    """Independent recurrence evaluation for the dual-exponent grid."""
    log_d = math.log(d)
    out = []
    inv_q = 0.5
    for i in range(int(math.floor(log_d / 2.0)) + 1):
        if i > 0:
            inv_q = inv_q - 1.0 / log_d
        q = 1.0 / inv_q
        out.append((q / (q - 1.0), q))
    return out


def test_p_norm_examples():
    assert p_norm([3.0, 4.0], 2.0) == 5.0
    assert p_norm([1.0, 1.0, 1.0, 1.0], 1.0) == 4.0
    # direct evaluation oracle: (1^1.5 + 1^1.5)^(1/1.5) = 2^(2/3)
    assert p_norm([1.0, 1.0], 1.5) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    assert p_norm([1.0, -3.0, 2.0], math.inf) == 3.0
    assert p_norm([], 1.5) == 0.0


def test_norm_spec_duality():
    spec = NormSpec.from_p(1.5)
    assert spec.q == pytest.approx(3.0)
    assert spec.lam == pytest.approx(0.5)
    assert NormSpec.from_p(1.0).q == math.inf
    with pytest.raises(ValueError):
        NormSpec(p=1.5, q=2.0, lam=0.5)
    with pytest.raises(ValueError):
        NormSpec(p=2.5, q=5.0 / 3.0, lam=1.5)
    with pytest.raises(ValueError):
        dual_exponent(0.5)


def test_pnorm_grid_d16():
    grid = pnorm_grid(16)
    oracle = grid_oracle(16)
    assert len(grid) == 2
    assert grid[0].p == 2.0 and grid[0].q == 2.0
    assert grid[1].q == pytest.approx(oracle[1][1], rel=1e-12)
    assert grid[1].p == pytest.approx(oracle[1][0], rel=1e-12)
    # recurrence values: q1 = 1/(1/2 - 1/ln 16), p1 its dual
    assert grid[1].q == pytest.approx(7.17739889912418, rel=1e-10)
    assert grid[1].p == pytest.approx(1.1618804316071896, rel=1e-10)


def test_pnorm_grid_small_and_large():
    grid3 = pnorm_grid(3)
    assert grid3[0].p == 2.0 and grid3[0].q == 2.0
    assert len(pnorm_grid(1024)) == math.floor(math.log(1024) / 2.0) + 1 == 4
    with pytest.raises(ValueError):
        pnorm_grid(2)


def test_grid_cover_examples(rng):
    x = rng.standard_normal(16)
    assert grid_cover(16, x, 2.0) == 0
    # p = 1.05 -> q = 21, and q1 ~ 7.18 <= 21
    assert grid_cover(16, x, 1.05) == 1


def test_grid_cover_inequalities(rng):
    for d in (8, 64):
        grid = pnorm_grid(d)
        for _ in range(2000):
            x = rng.standard_normal(d) * float(rng.uniform(0.1, 5.0))
            p = 1.0 if rng.uniform() < 0.05 else float(rng.uniform(1.0, 2.0))
            i = grid_cover(d, x, p)
            spec = grid[i]
            q = dual_exponent(p)
            assert spec.primal(x) <= p_norm(x, p) + 1e-10
            assert spec.dual(x) <= math.e * p_norm(x, q) + 1e-10


def test_project_examples():
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8])
    inside = np.array([0.2, -0.1])
    assert np.array_equal(ball.project(inside), inside)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.array_equal(box.project(np.array([2.0, -3.0])), [1.0, -1.0])
    assert np.array_equal(WholeSpace().project(np.array([9.0, -9.0])), [9.0, -9.0])


def test_distance_matches_projection(rng):
    dom = Ball(np.array([0.5, -0.5, 0.0]), 0.75)
    for _ in range(200):
        x = rng.standard_normal(3) * 3
        assert dom.distance(x) == pytest.approx(
            float(np.linalg.norm(x - dom.project(x))), abs=1e-10
        )


def test_distance_subgradient_examples():
    ball = Ball(np.zeros(2), 1.0)
    assert np.allclose(ball.distance_subgradient(np.array([3.0, 4.0])), [0.6, 0.8])
    assert np.array_equal(
        ball.distance_subgradient(np.array([0.1, 0.1])), np.zeros(2)
    )
    assert np.array_equal(
        WholeSpace().distance_subgradient(np.array([5.0, 5.0])), np.zeros(2)
    )


@pytest.mark.parametrize(
    "dom",
    [
        Ball(np.array([0.2, -0.3, 0.1]), 0.8),
        Box([-1.0, -0.5, -2.0], [1.0, 0.5, 0.0]),
        WholeSpace(),
    ],
    ids=["ball", "box", "whole_space"],
)
def test_subgradient_inequality_and_lipschitz(dom, rng):
    for _ in range(2000):
        x = rng.standard_normal(3) * 2.5
        v = rng.standard_normal(3) * 2.5
        z = dom.distance_subgradient(x)
        assert dom.distance(v) >= dom.distance(x) + float(z @ (v - x)) - 1e-9
        assert abs(dom.distance(x) - dom.distance(v)) <= np.linalg.norm(x - v) + 1e-12
        if dom.distance(x) > 0:
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "dom",
    [Ball(np.array([0.2, -0.3]), 0.8), Box([-1.0, -0.5], [1.0, 0.5])],
    ids=["ball", "box"],
)
def test_projection_optimality(dom, rng):
    # <x - proj(x), w - proj(x)> <= 0 for every w in the domain
    for _ in range(500):
        x = rng.standard_normal(2) * 3
        px = dom.project(x)
        w = dom.project(rng.standard_normal(2) * 3)
        assert float((x - px) @ (w - px)) <= 1e-9


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)
