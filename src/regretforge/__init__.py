"""Composable online linear optimization.

Parameter-free base learners, add-iterates combination, optimistic
reductions (unconstrained, constrained, multi-hint), hint learners, and an
empirical-Bernstein concentration check, plus an experiment harness.
"""

from .core import (
    Accumulator,
    ContractViolation,
    DimensionMismatch,
    HintedLearner,
    Learner,
    RegretLedger,
    ReplayError,
    ZeroLearner,
    ConstantLearner,
    drive,
    replay,
    replay_hinted,
    replay_multi_hint,
)
from .geometry import (
    Ball,
    Box,
    ConvexDomain,
    NormSpec,
    WholeSpace,
    dual_exponent,
    grid_cover,
    p_norm,
    pnorm_grid,
)
from .learners import (
    AdaptiveProjectedDescent,
    CoinBettor,
    DimFreeLearner,
    PerCoordinateLearner,
    PNormBallDescent,
)
from .combinators import (
    AddCombiner,
    ConstrainedOptimisticLearner,
    MultiHintLearner,
    OptimisticLearner,
    add_iterates,
    constrained_optimistic,
    multi_hint,
    multi_norm,
    optimistic,
    tilde_hint,
)
from .hints import (
    AdversarialNegate,
    ConstantHint,
    ExternalHints,
    HintSource,
    LastGradient,
    RunningAverage,
    UnitBallDescent,
    ZeroHint,
)
from .concentration import (
    BernsteinConfig,
    CoverageResult,
    bernstein_radius,
    coverage_experiment,
    learner_radius,
    make_sampler,
)
from .harness import (
    CompositionError,
    StreamSpec,
    build_learner,
    fit_slope,
    generate_stream,
    run_experiment,
    run_sweep,
)

__version__ = "0.1.0"
