"""Concentration radius and Monte Carlo coverage."""

import math

import numpy as np
import pytest

from regretforge import (
    BernsteinConfig,
    bernstein_radius,
    coverage_experiment,
    learner_radius,
    make_sampler,
)
from regretforge.concentration import K1, SAMPLER_PRESETS, empirical_variance


def test_radius_zero_variance():
    # all samples identical: Vhat = 0, radius = K1 * (1 + log(e T / delta))
    X = np.tile([0.3, -0.1], (16, 1))
    delta = 0.05
    expected = K1 * (1.0 + math.log(math.e * 16 / delta))
    assert bernstein_radius(X, delta) == pytest.approx(expected, rel=1e-12)


def test_radius_single_sample():
    X = np.array([[0.5, 0.0]])
    delta = 0.1
    expected = K1 * (1.0 + math.log(math.e / delta))
    assert bernstein_radius(X, delta) == pytest.approx(expected, rel=1e-12)


def test_radius_monotone_in_variance_and_delta(rng):
    X = rng.standard_normal((64, 3)) * 0.2
    assert bernstein_radius(2.0 * X, 0.05) > bernstein_radius(X, 0.05)
    assert bernstein_radius(X, 0.01) > bernstein_radius(X, 0.05)
    with pytest.raises(ValueError):
        bernstein_radius(np.empty((0, 2)), 0.05)
    with pytest.raises(ValueError):
        bernstein_radius(X, 0.0)


def test_empirical_variance_matches_oracle(rng):
    X = rng.standard_normal((32, 4))
    mean = X.mean(axis=0)
    oracle = math.fsum(float(np.dot(x - mean, x - mean)) for x in X)
    assert empirical_variance(X) == pytest.approx(oracle, rel=1e-12)


def test_sampler_outputs_are_centered_and_bounded():
    for name in SAMPLER_PRESETS:
        s = make_sampler(name)
        X = s.draw(np.random.default_rng(0), 512)
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0)
        assert abs(X.mean(axis=0)[0]) < 0.2  # mean zero in expectation
    with pytest.raises(ValueError):
        make_sampler("cauchy")


def test_degenerate_deltas():
    cfg = BernsteinConfig(delta=1.0, T=64, trials=50, seed=3)
    res = coverage_experiment(cfg)
    assert res.failure_rate <= 1.0
    with pytest.raises(ValueError):
        BernsteinConfig(delta=0.0, T=64)


def test_degenerate_constant_sampler():
    # zero-variance sampler: deviation is 0 every trial, so no failures
    cfg = BernsteinConfig(delta=0.05, T=64, sampler="zero", trials=50, seed=3)
    res = coverage_experiment(cfg)
    assert res.failure_rate == 0.0
    assert np.all(res.deviations == 0.0)
    assert res.mean_radius > 0.0


def test_coverage_quick():
    cfg = BernsteinConfig(delta=0.1, T=256, sampler="rademacher", trials=300, seed=0)
    res = coverage_experiment(cfg)
    slack = 3.0 * math.sqrt(0.1 * 0.9 / 300)
    assert res.failure_rate <= 0.1 + slack


def test_coverage_deterministic_given_seed():
    cfg = BernsteinConfig(delta=0.1, T=128, trials=100, seed=42)
    a = coverage_experiment(cfg)
    b = coverage_experiment(cfg)
    assert a.failure_rate == b.failure_rate
    assert np.array_equal(a.radii, b.radii)


def test_radius_variance_adaptivity():
    # per-coordinate sigma 1, 0.5, 0.1: mean radius shrinks with sigma
    means = []
    for name in SAMPLER_PRESETS:
        cfg = BernsteinConfig(delta=0.05, T=256, sampler=name, trials=100, seed=1)
        means.append(coverage_experiment(cfg).mean_radius)
    assert means[0] > means[1] > means[2]


def test_via_learner_radius_reasonable():
    # single-trial sanity; the 4x cross-mode agreement at the stated config
    # (means over trials, T = 1024) lives in the acceptance suite
    s = make_sampler("rademacher")
    X = s.draw(np.random.default_rng(9), 256)
    r_learner = learner_radius(X, 0.05)
    r_formula = bernstein_radius(X, 0.05)
    assert r_learner > 0.0
    assert r_formula / 8.0 <= r_learner <= 8.0 * r_formula
