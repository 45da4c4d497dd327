"""Empirical-Bernstein-style concentration, checked by Monte Carlo.

The radius scales with the empirical variance of the sample rather than the
worst-case range. Two modes compute it:

* formula: K1 * (1 + sqrt(Vhat * log(e T / delta)) + log(e T / delta)) with
  Vhat = sum_t ||X_t - Xbar||^2;
* via-learner: run the optimistic learner with the running-average hint
  source on the centered sample and convert its measured regret through the
  Markov step (epsilon = delta, comparator length c = 1), i.e.
  radius = R_T(u) - epsilon + epsilon/delta at u = -sum g / ||sum g||.

K1 is an engineering constant calibrated so that (a) Monte Carlo coverage
holds for every shipped sampler and (b) both modes agree within 4x.

Via-learner trials run in fixed-size blocks along a trial axis: one
replay drives the same learner, hint source and validation for a whole
(T, B, d) block, one row per trial. Each trial keeps its own draw (seed +
trial index) and its radius is bitwise the one a replay of that trial
alone gives, so results do not depend on where block boundaries fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinators import OptimisticLearner
from .core import replay_hinted, row_norm
from .hints import RunningAverage
from .learners import CoinBettor, DimFreeLearner

K1 = 0.58

#: bytes of (T, B, d) float64 gradients per via-learner trial block
TRIAL_BLOCK_BYTES = 1 << 19


def trial_block(T: int, dim: int) -> int:
    """Trials per via-learner block: as many as fit in TRIAL_BLOCK_BYTES, at least 1.

    The block's gradients are the only per-trial array a batched replay
    keeps at full size, so this bounds the memory a block adds.
    """
    return max(1, TRIAL_BLOCK_BYTES // (8 * T * dim))


def balanced_log_bound(A: float, B: float, C: float, D: float, E: float) -> float:
    """Upper bound on inf_{y>=0} y(A + B log(e + Cy)) + D^2/y + E sqrt(log(e + Cy)).

    Evaluates the infimand at the balancing guess y = D / sqrt(max(A + B
    log(e + CD), 1)); every argument must be nonnegative.
    """
    for name, v in (("A", A), ("B", B), ("C", C), ("D", D), ("E", E)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    inner = max(A + B * math.log(math.e + C * D), 1.0)
    return 2.0 * D * math.sqrt(inner) + E * math.sqrt(math.log(math.e + C * D))


def empirical_variance(samples: np.ndarray) -> float:
    """sum_t ||X_t - Xbar||^2 around the sample mean."""
    X = np.asarray(samples, dtype=np.float64)
    centred = X - X.mean(axis=0)
    return float(np.einsum("td,td->", centred, centred))


def bernstein_radius(samples, delta: float, k1: float = K1) -> float:
    """Concentration radius for ||sum X_t - E sum X_t|| from the sample itself."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("samples must be a nonempty (T, d) array")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    T = X.shape[0]
    log_term = math.log(math.e * T / delta)
    vhat = empirical_variance(X)
    return k1 * (1.0 + math.sqrt(vhat * log_term) + log_term)


class Sampler:
    """Named distribution over centered vectors with ||X - E[X]|| <= 1."""

    def __init__(self, name: str, sigma: float, dim: int = 4):
        if not (0.0 <= sigma <= 1.0):
            raise ValueError("sigma must lie in [0, 1]")
        self.name = name
        self.sigma = sigma
        self.dim = dim

    def draw(self, rng: np.random.Generator, T: int) -> np.ndarray:
        # signed first basis vector scaled by sigma; mean zero by construction
        signs = rng.integers(0, 2, size=T) * 2.0 - 1.0
        X = np.zeros((T, self.dim))
        X[:, 0] = self.sigma * signs
        return X


#: the shipped sampler presets (per-coordinate standard deviation 1, 0.5, 0.1)
SAMPLER_PRESETS = ("rademacher", "rademacher_half", "rademacher_tenth")

# "zero" is a degenerate diagnostic sampler, not a shipped preset
_SIGMAS = {"rademacher": 1.0, "rademacher_half": 0.5, "rademacher_tenth": 0.1,
           "zero": 0.0}


def make_sampler(name: str, dim: int = 4) -> Sampler:
    if name not in _SIGMAS:
        raise ValueError(f"unknown sampler {name!r}; choose from {SAMPLER_PRESETS}")
    return Sampler(name, _SIGMAS[name], dim)


def learner_radius(samples, delta: float):
    """Radius from actually running the optimistic learner on the sample.

    Uses total budget epsilon = delta split between base and bettor, the
    running-average hint source, and the comparator u = -sum g / ||sum g||.
    A (T, B, d) block of B trials runs as one batched replay and returns
    the (B,) radii, each bitwise equal to that trial's own radius.
    """
    X = np.asarray(samples, dtype=np.float64)
    dim = X.shape[-1]
    batch = X.shape[1] if X.ndim == 3 else None
    eps = delta
    learner = OptimisticLearner(
        DimFreeLearner(dim, epsilon=eps / 2.0, batch=batch), CoinBettor(eps / 2.0, batch)
    )
    ledger = replay_hinted(learner, X, RunningAverage(dim, batch))
    s = ledger.gradient_sum()
    if batch is None:
        n = float(np.linalg.norm(s))
        u = np.zeros(dim) if n == 0.0 else -s / n
    else:
        n = row_norm(s)
        u = np.zeros_like(s)
        live = n != 0.0
        u[live] = -s[live] / n[live, None]
    return ledger.regret_at(u) - eps + eps / delta


@dataclass
class BernsteinConfig:
    delta: float
    T: int
    sampler: str = "rademacher"
    trials: int = 2000
    seed: int = 0
    dim: int = 4
    via_learner: bool = False

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.T < 1 or self.trials < 1:
            raise ValueError("T and trials must be positive")


@dataclass
class CoverageResult:
    failure_rate: float
    mean_radius: float
    deviations: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)


def coverage_experiment(cfg: BernsteinConfig) -> CoverageResult:
    """Monte Carlo coverage of the radius against the true deviation.

    Trials are independent with derived seeds (seed + trial index), so the
    aggregate is order-independent and reproducible. Shipped samplers are
    centered, so the deviation ||sum X_t - E sum X_t|| is exact. Via-learner
    trials are drawn into blocks of ``trial_block`` trials, and each block
    is one ``learner_radius`` call.
    """
    sampler = make_sampler(cfg.sampler, cfg.dim)
    deviations = np.empty(cfg.trials)
    radii = np.empty(cfg.trials)
    if cfg.via_learner:
        size = min(trial_block(cfg.T, cfg.dim), cfg.trials)
        block = np.empty((cfg.T, size, cfg.dim))  # reused, so one block is ever held
        for start in range(0, cfg.trials, size):
            stop = min(start + size, cfg.trials)
            for i in range(start, stop):
                X = sampler.draw(np.random.default_rng(cfg.seed + i), cfg.T)
                deviations[i] = float(np.linalg.norm(X.sum(axis=0)))
                block[:, i - start] = X
            radii[start:stop] = learner_radius(block[:, :stop - start], cfg.delta)
    else:
        for i in range(cfg.trials):
            X = sampler.draw(np.random.default_rng(cfg.seed + i), cfg.T)
            deviations[i] = float(np.linalg.norm(X.sum(axis=0)))
            radii[i] = bernstein_radius(X, cfg.delta)
    failures = float(np.mean(deviations > radii))
    return CoverageResult(failures, float(radii.mean()), deviations, radii)
