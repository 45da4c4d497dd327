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

Via-learner trials run in blocks of up to 8 MiB of gradients along a trial axis: one replay
drives the same learner, hint source and validation for a whole (T, B, d) block, one row per
trial. At T = 1024, d = 4 a block holds 256 trials, so a 60-trial job is one replay and 2000
trials take eight. A block round there takes about 14 us at B = 1, 20 us at B = 32 and 77 us
at B = 256 (fastest of 25 runs, 2-CPU Xeon, NumPy 2.4.6), so fewer, larger blocks are faster;
the budget caps the memory a large job holds. Each trial keeps its own draw (seed + trial
index) and its radius is bitwise the one a replay of that trial alone gives, so results depend on
neither the block size nor where block boundaries fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinators import OptimisticLearner
from .core import MAX_STREAM_ENTRIES, replay_hinted, row_norm
from .hints import RunningAverage
from .learners import CoinBettor, DimFreeLearner

K1 = 0.58

#: bytes of (T, B, d) float64 gradients per trial block, of via-learner trials or sweep seeds
TRIAL_BLOCK_BYTES = 8 << 20


def trial_block(T: int, dim: int) -> int:
    """Trials per block, via-learner trials or a sweep's seeds: as many as fit in
    TRIAL_BLOCK_BYTES, at least 1.

    Only the (T, B, d) gradients count, 8 d bytes per trial-round; the (T, B)
    losses of the batched replay add another 1/d on top.
    """
    return max(1, TRIAL_BLOCK_BYTES // (8 * T * dim))


def empirical_variance(samples: np.ndarray) -> float:
    """sum_t ||X_t - Xbar||^2 around the sample mean."""
    X = np.asarray(samples, dtype=np.float64)
    centred = X - X.mean(axis=0)
    return float(np.einsum("td,td->", centred, centred))


def bernstein_radius(samples, delta: float) -> float:
    """Concentration radius for ||sum X_t - E sum X_t|| from the sample itself."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("samples must be a nonempty (T, d) array")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    T = X.shape[0]
    log_term = math.log(math.e * T / delta)
    vhat = empirical_variance(X)
    return K1 * (1.0 + math.sqrt(vhat * log_term) + log_term)


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
    n = row_norm(s)[..., None]
    u = np.divide(-s, n, out=np.zeros_like(s), where=n != 0.0)
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
        # a trial draws a (T, dim) sample and keeps 2 numbers, its deviation and radius
        if max(self.T * self.dim, 2 * self.trials) > MAX_STREAM_ENTRIES:
            raise ValueError(f"T * dim = {self.T * self.dim} and 2 * trials = {2 * self.trials} "
                             f"must not exceed the stream size limit of {MAX_STREAM_ENTRIES}")


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
        for start in range(0, cfg.trials, size):
            stop = min(start + size, cfg.trials)
            block = np.empty((cfg.T, stop - start, cfg.dim))  # C-contiguous: check_stream keeps it
            for i in range(start, stop):
                block[:, i - start] = sampler.draw(np.random.default_rng(cfg.seed + i), cfg.T)
            deviations[start:stop] = row_norm(block.sum(axis=0))  # X.sum(axis=0)'s order
            radii[start:stop] = learner_radius(block, cfg.delta)
    else:
        for i in range(cfg.trials):
            X = sampler.draw(np.random.default_rng(cfg.seed + i), cfg.T)
            deviations[i] = float(np.linalg.norm(X.sum(axis=0)))
            radii[i] = bernstein_radius(X, cfg.delta)
    failures = float(np.mean(deviations > radii))
    return CoverageResult(failures, float(radii.mean()), deviations, radii)
