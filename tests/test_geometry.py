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
    p_norm,
    pnorm_grid,
)
from regretforge.geometry import COMPACT_SHARE, NORM_ROWS, row_powers
from conftest import grid_cover


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


def p_norm_oracle(x, p):
    """The one-exponent formulas, with every entry of |x| / max raised."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    if p == 2.0:
        return float(np.linalg.norm(a))
    if p == 1.0:
        return float(np.sum(a))
    m = float(a.max()) if a.size else 0.0
    if math.isinf(p) or m == 0.0:
        return m
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


@pytest.mark.parametrize("d", [1, 64, 1024])
def test_p_norm_of_many_exponents_is_each_one_bitwise(d):
    rng = np.random.default_rng(d)
    rule = math.floor(COMPACT_SHARE * d)
    exps = [1.0, 1.5, 2.0, 2.6, 7.3, 52.0, math.inf]
    # no nonzero, one, just at and just above the compaction rule, dense
    for nnz in sorted({0, 1, rule, min(rule + 1, d), d}):
        for scale in (1e-150, 1.0, 1e150):
            x = np.zeros(d)
            idx = rng.choice(d, nnz, replace=False)
            x[idx] = rng.standard_normal(nnz) * scale
            got = p_norm(x, np.array(exps))
            assert got.shape == (len(exps),)
            for p, norm_p in zip(exps, got.tolist()):
                assert norm_p == p_norm(x, p) == p_norm_oracle(x, p), (nnz, scale, p)


def test_p_norm_of_a_matrix_is_its_row_norms():
    X = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        got = p_norm(X, p)
        assert got.shape == (2,)
        assert got.tolist() == [p_norm(X[0], p), p_norm(X[1], p)]
    assert p_norm(X, 1.5)[1] == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-15)
    both = p_norm(X, [1.5, 3.0])
    assert both.shape == (2, 2)
    assert both.tolist() == [[p_norm(x, 1.5), p_norm(x, 3.0)] for x in X]
    with pytest.raises(ValueError, match="rows"):
        p_norm(X[None], 1.5)


@pytest.mark.parametrize("d", [8, 1024])
def test_p_norm_of_rows_is_each_row_bitwise(d):
    # a block of NORM_ROWS rows is raised compacted unless more than COMPACT_SHARE of its
    # entries are nonzero; rows of every block must keep the bits of their own 1-D call
    rng = np.random.default_rng(d + 1)
    exps = [1.0, 1.5, 2.0, 2.6, 7.3, 52.0, math.inf]
    edge = math.floor(COMPACT_SHARE * d)  # nonzeros per row at the compaction rule
    for n in (1, NORM_ROWS - 1, NORM_ROWS, 2 * NORM_ROWS + 1):
        for nnz in sorted({0, 1, edge, edge + 1, d}):
            for scale in (1e-150, 1.0, 1e150):
                X = np.zeros((n, d))
                for row in X:
                    row[rng.choice(d, nnz, replace=False)] = rng.standard_normal(nnz) * scale
                if n > NORM_ROWS:
                    X[-1] = -0.0  # a zero row, signed, alone in the last block
                got = p_norm(X, np.array(exps))
                assert got.shape == (n, len(exps))
                for j, p in enumerate(exps):
                    alone = p_norm(X, p)
                    for i, x in enumerate(X):
                        want = p_norm_oracle(x, p)
                        assert p_norm(x, p) == want, (n, nnz, scale, p, i)
                        assert math.copysign(1.0, want) == 1.0
                        assert got[i, j] == alone[i] == want, (n, nnz, scale, p, i)
                        assert math.copysign(1.0, got[i, j]) == 1.0


@pytest.mark.parametrize("d", [8, 64, 1024])
def test_row_powers_is_the_dense_power(d):
    rng = np.random.default_rng(d)
    e = np.array([1.3, 2.6, 51.0])
    for share in (0.0, 0.01, COMPACT_SHARE, COMPACT_SHARE + 1.0 / d, 0.9, 1.0):
        nnz = min(d, math.ceil(share * d))
        R = np.zeros((3, d))
        cols = rng.choice(d, nnz, replace=False)
        R[:, cols] = rng.uniform(0.0, 1.0, (3, nnz))
        R[1, cols[: nnz // 3]] = 0.0  # a column may be zero in some rows only
        assert np.array_equal(row_powers(R, e), R ** e[:, None])
        assert np.array_equal(row_powers(R[0], e), R[0] ** e[:, None])


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
            assert p_norm(x, spec.p) <= p_norm(x, p) + 1e-10
            assert p_norm(x, spec.q) <= math.e * p_norm(x, q) + 1e-10


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


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_ball_rejects_a_radius_that_is_not_positive_and_finite(radius):
    # a NaN radius would make every projection of an outside point NaN, and an infinite one an
    # infinite diameter, so an infinite apd step
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        Ball(np.zeros(2), radius)


def _old_pair(dom, x):
    """distance_subgradient and distance written out: the unit gap to project(x), zeros for no
    gap, and its norm; a ball's distance is max(0, ||x - center|| - radius)."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(dom, WholeSpace):
        return np.zeros_like(x), 0.0
    gap = x - dom.project(x)
    n = float(np.linalg.norm(gap))
    z = np.zeros_like(x) if n == 0.0 else gap / n
    if isinstance(dom, Ball):
        n = max(0.0, float(np.linalg.norm(x - dom.center)) - dom.radius)
    return z, n


_C = np.array([0.2, -0.3, 0.1])


@pytest.mark.parametrize("dom, points", [
    (Ball(_C, 0.5), [_C, _C + [0.1, 0.2, -0.1], _C + [0.5, 0.0, 0.0], _C + [0.0, -0.5, 0.0],
                     _C + [np.nextafter(0.5, 1.0), 0.0, 0.0], _C + [3.0, -4.0, 1.0]]),
    (Box([-1.0, -0.5, -2.0], [1.0, 0.5, 0.0]),
     [[0.0, 0.0, -1.0], [1.0, 0.5, 0.0], [-1.0, 0.2, -2.0], [np.nextafter(1.0, 2.0), 0.0, 0.0],
      [2.0, -3.0, 4.0], [0.5, 0.0, 0.1]]),
    (WholeSpace(), [[0.0, 0.0, 0.0], [5.0, -5.0, 1.0]]),
], ids=["ball", "box", "whole_space"])
def test_subgradient_and_distance_is_the_two_calls_bitwise(dom, points, rng):
    # the centre, inside, on the boundary, one ulp outside and far outside, then random points
    points = list(points) + list(rng.standard_normal((200, 3)) * 2.0)
    for x in points:
        z_ref, d_ref = _old_pair(dom, x)
        z, d = dom.subgradient_and_distance(x)
        assert (z.tobytes(), d) == (z_ref.tobytes(), d_ref)
        assert dom.distance_subgradient(x).tobytes() == z.tobytes() and dom.distance(x) == d
