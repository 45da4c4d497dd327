"""Reductions that compose learners into better learners.

* add_iterates: play the exact vector sum of several learners' predictions
  and forward the same gradient to each. Per-round losses then decompose
  exactly, so the combination inherits the best child guarantee plus the
  other children's origin budgets.
* multi_norm: one p-norm-adapted learner per grid exponent, summed.
* OptimisticLearner: unconstrained hint reduction. A scalar bettor learns
  how far to trust the hint; the played point is x_t - y_t * h_t, the
  bettor's round loss is -<g_t, h_t>.
* ConstrainedOptimisticLearner: same idea inside a convex domain, via the
  distance-function surrogate gradient and a corrected hint.
* MultiHintLearner: k hints, k bettors, one shared base learner.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    DimensionMismatch,
    HintedLearner,
    Learner,
    as_vector,
    check_unit_norm,
    norm,
    row_dot,
)
from .geometry import ConvexDomain, pnorm_grid
from .learners import CoinBettor, DimFreeLearner


class AddCombiner(Learner):
    """Plays the exact sum of its children's predictions.

    Every child must declare an origin budget (epsilon); the combiner's own
    budget is the sum. Children share one dimension and all see the same
    gradient.
    """

    def __init__(self, children: Sequence[Learner], require_budgets: bool = True):
        children = list(children)
        if len(children) < 2:
            raise ValueError("add_iterates needs at least two children")
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise DimensionMismatch(f"children disagree on dimension: {sorted(dims)}")
        epsilon = None
        if require_budgets:
            for i, c in enumerate(children):
                if c.epsilon is None:
                    raise ValueError(
                        f"child {i} declares no origin budget; add_iterates requires one"
                    )
            epsilon = sum(c.epsilon for c in children)
        super().__init__(dims.pop(), epsilon=epsilon)
        self.children = children

    def _prediction(self):
        w = self.children[0].predict().copy()
        for c in self.children[1:]:
            w += c.predict()
        return w

    def _update(self, g):
        for c in self.children:
            c._step(g)


def add_iterates(children: Sequence[Learner]) -> AddCombiner:
    """Combine learners by adding their iterates."""
    return AddCombiner(children)


def multi_norm(d: int, epsilon: float = 1.0) -> Learner:
    """Learner adaptive to every p-norm in [1, 2] at once.

    Builds one dimension-free learner per grid exponent with budget
    epsilon / grid_size and sums them. Per-update work is proportional to
    d times the grid size, i.e. O(d log d).
    """
    grid = pnorm_grid(d)
    share = epsilon / len(grid)
    children = [DimFreeLearner(d, epsilon=share, spec=spec) for spec in grid]
    if len(children) == 1:
        return children[0]
    return AddCombiner(children)


class OptimisticLearner(HintedLearner):
    """Hint reduction on an unconstrained domain.

    Plays w_t = x_t - y_t * h_t with x_t from the base learner and the
    scalar y_t from a coin bettor. The gradient goes to the base unchanged;
    the bettor's loss for the round is -<g_t, h_t>, so it accumulates wealth
    exactly when trusting the hints pays. Bad hints cost at most the
    bettor's budget. The trial axis, if any, is the base learner's; the
    bettor must carry the same one.
    """

    def __init__(self, base: Learner, bettor: Optional[CoinBettor] = None,
                 bettor_epsilon: float = 1.0):
        self.base = base
        if bettor is None:
            bettor = CoinBettor(bettor_epsilon, base.batch)
        elif bettor.batch != base.batch:
            raise DimensionMismatch(
                f"bettor has batch {bettor.batch}, base learner has batch {base.batch}"
            )
        self.bettor = bettor
        eps = None if base.epsilon is None else base.epsilon + self.bettor.epsilon
        super().__init__(base.dim, epsilon=eps, batch=base.batch)
        self.last_hint = None

    def _hinted_prediction(self, h):
        x = self.base.predict()
        y = self.bettor.predict()
        self.last_hint = h.copy()
        if self.batch is None:
            return x - y * h
        return x - y[:, None] * h

    def _update(self, g):
        if self.last_hint is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without a hint this round"
            )
        self.base._step(g)
        # loss -<g, h>; the bettor consumes the negated loss
        if self.batch is None:
            self.bettor.observe(float(np.dot(g, self.last_hint)))
        else:
            self.bettor.observe(row_dot(g, self.last_hint))
        self.last_hint = None


def tilde_hint(domain: ConvexDomain, x, y: float, h):
    """Corrected hint for the constrained reduction.

    Evaluates the distance subgradient z at x - y*h/2, shrinks z when the
    hinted move y*||h||/2 would overshoot the distance there, and returns
    (h_tilde, z) with h_tilde = h/2 + ||h|| z/2. The returned z is a
    subgradient of the distance function at x - y*h_tilde. A nonpositive
    y*||h|| skips the rescale (the move then points away from or along the
    domain, where the raw z stays valid).
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    anchor = x - 0.5 * y * h
    z = domain.distance_subgradient(anchor)
    h_norm = norm(h)
    yh = y * h_norm
    if yh > 1e-12 and 0.5 * yh > domain.distance(anchor):
        z = (2.0 * domain.distance(anchor) / yh) * z
    return 0.5 * h + 0.5 * h_norm * z, z


class ConstrainedOptimisticLearner(HintedLearner):
    """Hint reduction constrained to a convex domain.

    Builds the unconstrained optimistic iterate from a corrected hint,
    plays its projection, and feeds both learners the surrogate gradient
    g_tilde = g/2 + z ||g||/2 (never longer than g). The corrected hint is
    never farther from g_tilde than h was from g, so hint quality survives
    the reduction.
    """

    def __init__(self, base: Learner, domain: ConvexDomain,
                 bettor: Optional[CoinBettor] = None, bettor_epsilon: float = 1.0):
        self.base = base
        self.domain = domain
        self.bettor = bettor if bettor is not None else CoinBettor(bettor_epsilon)
        eps = None if base.epsilon is None else 2.0 * (base.epsilon + self.bettor.epsilon)
        super().__init__(base.dim, epsilon=eps)
        self.last_hint = None
        self.last_tilde_hint = None
        self.last_z = None
        self.last_tilde_iterate = None

    def _hinted_prediction(self, h):
        x = self.base.predict()
        y = self.bettor.predict()
        h_tilde, z = tilde_hint(self.domain, x, y, h)
        w_tilde = x - y * h_tilde
        self.last_hint = h.copy()
        self.last_tilde_hint = h_tilde
        self.last_z = z
        self.last_tilde_iterate = w_tilde
        return self.domain.project(w_tilde)

    def _update(self, g):
        if self.last_hint is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without a hint this round"
            )
        # ||g_tilde|| <= ||g|| because ||z|| <= 1, so the base trusts it too
        g_tilde = 0.5 * g + 0.5 * norm(g) * self.last_z
        self.base._step(g_tilde)
        self.bettor.observe(float(np.dot(g_tilde, self.last_tilde_hint)))
        self.last_hint = None


class MultiHintLearner(Learner):
    """k hints per round, one bettor per hint slot, a shared base learner.

    Plays x_t - sum_i y_{t,i} h_{t,i}; each bettor i gets the loss
    -<g_t, h_{t,i}>. Competing with the best hint sequence costs only the
    sum of the bettors' budgets.
    """

    def __init__(self, base: Learner, bettors: Sequence[CoinBettor]):
        bettors = list(bettors)
        if not bettors:
            raise ValueError("multi-hint learner needs at least one bettor")
        eps = None
        if base.epsilon is not None:
            eps = base.epsilon + sum(b.epsilon for b in bettors)
        super().__init__(base.dim, epsilon=eps)
        self.base = base
        self.bettors = bettors
        self.k = len(bettors)
        self.last_hints = None

    def predict(self, hints) -> np.ndarray:
        H = as_vector(hints, self.dim, "hints", batch=self.k)
        check_unit_norm(H, "hint", row="slot")
        x = self.base.predict()
        w = x.copy()
        for i, b in enumerate(self.bettors):
            w = w - b.predict() * H[i]
        self.last_hints = H.copy()
        self._awaiting_predict = False
        return w

    def _update(self, g):
        if self.last_hints is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without hints this round"
            )
        self.base._step(g)
        for b, z in zip(self.bettors, row_dot(self.last_hints, g).tolist()):
            b.observe(z)
        self.last_hints = None


def optimistic(dim: int, epsilon: float = 1.0, spec=None) -> OptimisticLearner:
    """Optimistic learner over a dimension-free base, budget split in half."""
    return OptimisticLearner(
        DimFreeLearner(dim, epsilon=epsilon / 2.0, spec=spec),
        CoinBettor(epsilon / 2.0),
    )


def constrained_optimistic(dim: int, domain: ConvexDomain,
                           epsilon: float = 1.0) -> ConstrainedOptimisticLearner:
    """Constrained optimistic learner with budgets chosen so epsilon holds at 0."""
    return ConstrainedOptimisticLearner(
        DimFreeLearner(dim, epsilon=epsilon / 4.0),
        domain,
        CoinBettor(epsilon / 4.0),
    )


def multi_hint(dim: int, k: int, epsilon: float = 1.0) -> MultiHintLearner:
    """k-hint learner over a dimension-free base, budget split k+1 ways."""
    share = epsilon / (k + 1.0)
    return MultiHintLearner(
        DimFreeLearner(dim, epsilon=share),
        [CoinBettor(share) for _ in range(k)],
    )
