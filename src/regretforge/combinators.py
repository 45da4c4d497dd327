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

from typing import Sequence

import numpy as np

from .core import (
    ContractViolation,
    DimensionMismatch,
    HintedLearner,
    Learner,
    check_hints,
    check_unit_norm,  # noqa: F401 - perfbench/tracer.py wraps this binding
    norm,
    row_dot,
)
from .geometry import ConvexDomain, pnorm_grid
from .learners import PLAN_ROWS, CoinBettor, DimFreeLearner


class AddCombiner(Learner):
    """Plays the exact sum of its children's predictions.

    Every child must declare an origin budget (epsilon); the combiner's own
    budget is the sum. Children share one dimension and all see the same
    gradient. The trial axis, if any, is the children's: all or none of them
    take one, of the same B.
    """

    def __init__(self, children: Sequence[Learner]):
        children = list(children)
        if len(children) < 2:
            raise ValueError("add_iterates needs at least two children")
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise DimensionMismatch(f"children disagree on dimension: {sorted(dims)}")
        batches = [c.batch for c in children]
        if len(set(batches)) != 1:
            raise DimensionMismatch(f"an add combiner takes children of one trial axis, got "
                                    f"batches {batches}")
        for i, c in enumerate(children):
            if c.epsilon is None:
                raise ValueError(
                    f"child {i} declares no origin budget; add_iterates requires one"
                )
        super().__init__(dims.pop(), epsilon=sum(c.epsilon for c in children), batch=batches[0])
        self.children = children

    def _prediction(self):
        first, second, *rest = self.children
        w = first.predict() + second.predict()
        for c in rest:
            w += c.predict()
        return w

    def _update(self, g):
        for c in self.children:
            c._step(g)

    def _plan(self, G, H, settle=False):
        if type(self) is AddCombiner:  # every child sees the same g and steps its rounds
            for c in self.children:
                c._plan(G, None)


def add_iterates(children: Sequence[Learner]) -> AddCombiner:
    """Combine learners by adding their iterates."""
    return AddCombiner(children)


def multi_norm(d: int, epsilon: float = 1.0) -> Learner:
    """Learner adaptive to every p-norm in [1, 2] at once.

    Sums the p = 2 dimension-free learner and one grid DimFreeLearner whose
    rows are the p < 2 exponents, each with budget epsilon / grid_size.
    Per-update work is O(d) per grid row, O(d log d) in all; the grid's powers
    r^(q-1) follow the gradient's nonzero columns (see PNormBallDescent).
    """
    grid = pnorm_grid(d)
    share = epsilon / len(grid)
    two = DimFreeLearner(d, epsilon=share, spec=grid[0])
    if len(grid) == 1:
        return two
    return AddCombiner([two, DimFreeLearner(d, epsilon=share, spec=grid[1:])])


PLAY_ROWS = 1024  # rows of hint play settled at a time: the temporary stays small


def _plan_hinted(root, G, H, settle=False):
    """Learner._plan of the hinted roots: the bettor outcomes <g_t, h_t> are one row_dot, which a
    trial axis's bettor plans its rounds on. The base may settle only under exact CoinBettors
    (scalar ones, as a settling base has no trial axis); each one's KT recursion then runs on
    its outcomes at once, and its bets times its hints leave the base's plays as rounds do."""
    if type(root) not in (OptimisticLearner, MultiHintLearner):
        return None
    Z = None if G is None or H is None else row_dot(H, G[:, None] if H.ndim > G.ndim else G)
    if root.batch:
        return _plan_block(root, G, H, Z)
    bettors = root.bettors if type(root) is MultiHintLearner else [root.bettor]
    exact = H is not None and all(type(b) is CoinBettor for b in bettors)
    W = root.base._plan(G, None, settle and exact)
    root._planned = None if Z is None or W is not None else (root.round_index, Z.tolist())
    if W is not None:
        for b, z, h in zip(bettors, Z.reshape(len(G), -1).T.tolist(),
                           H.reshape(len(G), len(bettors), -1).transpose(1, 0, 2)):
            y = np.array(b._settle(z))
            for s in range(0, len(W), PLAY_ROWS):
                W[s:s + PLAY_ROWS] -= y[s:s + PLAY_ROWS, None] * h[s:s + PLAY_ROWS]
        root.round_index, root._awaiting_predict = root.round_index + len(G), True
    return W


def _plan_block(root, G, H, Z) -> None:
    """A trial-axis root's plan: the hint bettor plans its KT rounds on Z (None drops the plan),
    in one _kt call with an exact DimFreeLearner base's magnitude where both can. When the base
    has fixed its plays X for the whole segment and the hint bettor its bets y, the root fixes
    its plays X - y * H, bitwise the rounds' multiply and subtraction."""
    base = root.base
    if type(base) is DimFreeLearner and G is not None:
        base._plan(G, None, hint=(root.bettor, Z))
    else:
        base._plan(G, None)
        root.bettor._plan(Z)
    X = base._planned[5] if type(base) is DimFreeLearner and base._planned is not None else None
    bets = root.bettor._planned
    W = None
    if X is not None and bets is not None and len(G) <= PLAN_ROWS:
        W = X - bets[2][:, :, None] * H
    root._planned = None if Z is None else (root.round_index, Z, W)


class OptimisticLearner(HintedLearner):
    """Hint reduction on an unconstrained domain.

    Plays w_t = x_t - y_t * h_t with x_t from the base learner and the
    scalar y_t from a coin bettor. The gradient goes to the base unchanged;
    the bettor's loss for the round is -<g_t, h_t>, so it accumulates wealth
    exactly when trusting the hints pays. Bad hints cost at most the
    bettor's budget. The trial axis, if any, is the base learner's; the
    bettor must carry the same one.
    """

    def __init__(self, base: Learner, bettor: CoinBettor):
        if bettor.batch != base.batch:
            raise DimensionMismatch(
                f"bettor has batch {bettor.batch}, base learner has batch {base.batch}"
            )
        self.base = base
        self.bettor = bettor
        eps = None if base.epsilon is None else base.epsilon + bettor.epsilon
        super().__init__(base.dim, epsilon=eps, batch=base.batch)
        self.last_hint = None

    def _hinted_prediction(self, h):
        x = self.base.predict()
        y = self.bettor.predict()
        self.last_hint = h
        if self.batch is None:
            return x - y * h
        plan = self._planned
        if plan is not None and plan[2] is not None:  # the play _plan_block fixed
            return plan[2][self.round_index - plan[0]]
        return x - y[:, None] * h

    def _update(self, g):
        if self.last_hint is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without a hint this round"
            )
        self.base._step(g)
        # loss -<g, h>; the bettor consumes the negated loss
        plan = self._planned
        z = row_dot(g, self.last_hint) if plan is None else plan[1][self.round_index - plan[0]]
        self.bettor.observe(z, checked=True)
        self.last_hint = None

    _plan = _plan_hinted


def tilde_hint(domain: ConvexDomain, x, y: float, h):
    """Corrected hint for the constrained reduction.

    Evaluates the distance subgradient z and the distance at x - y*h/2, in one
    call (ConvexDomain.subgradient_and_distance), shrinks z when the hinted
    move y*||h||/2 would overshoot that distance, and returns
    (h_tilde, z) with h_tilde = h/2 + ||h|| z/2. The returned z is a
    subgradient of the distance function at x - y*h_tilde. A nonpositive
    y*||h|| skips the rescale (the move then points away from or along the
    domain, where the raw z stays valid).
    """
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    z, dist = domain.subgradient_and_distance(x - 0.5 * y * h)
    h_norm = norm(h)
    yh = y * h_norm
    if yh > 1e-12 and 0.5 * yh > dist:
        z = (2.0 * dist / yh) * z
    return 0.5 * h + 0.5 * h_norm * z, z


class ConstrainedOptimisticLearner(HintedLearner):
    """Hint reduction constrained to a convex domain.

    Builds the unconstrained optimistic iterate from a corrected hint,
    plays its projection, and feeds both learners the surrogate gradient
    g_tilde = g/2 + z ||g||/2 (never longer than g). The corrected hint is
    never farther from g_tilde than h was from g, so hint quality survives
    the reduction.
    """

    def __init__(self, base: Learner, domain: ConvexDomain, bettor: CoinBettor):
        if base.batch is not None or bettor.batch is not None:
            raise DimensionMismatch("a constrained learner takes no batched base or bettor")
        self.base = base
        self.domain = domain
        self.bettor = bettor
        eps = None if base.epsilon is None else 2.0 * (base.epsilon + bettor.epsilon)
        super().__init__(base.dim, epsilon=eps)
        self.last_tilde_hint = None
        self.last_z = None
        self.last_tilde_iterate = None

    def _hinted_prediction(self, h):
        x = self.base.predict()
        y = self.bettor.predict()
        h_tilde, z = tilde_hint(self.domain, x, y, h)
        w_tilde = x - y * h_tilde
        self.last_tilde_hint = h_tilde
        self.last_z = z
        self.last_tilde_iterate = w_tilde
        return self.domain.project(w_tilde)

    def _update(self, g):
        if self.last_tilde_hint is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without a hint this round"
            )
        # ||g_tilde|| <= ||g|| because ||z|| <= 1, so the base trusts it too
        g_tilde = 0.5 * g + 0.5 * norm(g) * self.last_z
        self.base._step(g_tilde)
        self.bettor.observe(row_dot(g_tilde, self.last_tilde_hint), checked=True)
        self.last_tilde_hint = None


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
        if any(part.batch is not None for part in (base, *bettors)):
            raise DimensionMismatch("a multi-hint learner takes no batched base or bettor")
        eps = None
        if base.epsilon is not None:
            eps = base.epsilon + sum(b.epsilon for b in bettors)
        super().__init__(base.dim, epsilon=eps)
        self.base = base
        self.bettors = bettors
        self.k = len(bettors)
        self.last_hints = None

    def predict(self, hints) -> np.ndarray:  # checks and copies as HintedLearner.predict
        w = self._hinted_prediction(
            check_hints(hints, self.dim, self.k, row="slot", name="hints").copy())
        self._awaiting_predict = False
        return w

    def _hinted_prediction(self, H):
        w = self.base.predict()
        for i, b in enumerate(self.bettors):
            w = w - b.predict() * H[i]
        self.last_hints = H
        return w

    def _update(self, g):
        if self.last_hints is None:
            raise ContractViolation(
                f"observe at round {self.round_index} without hints this round"
            )
        self.base._step(g)
        plan = self._planned
        zs = (row_dot(self.last_hints, g).tolist() if plan is None
              else plan[1][self.round_index - plan[0]])
        for b, z in zip(self.bettors, zs):
            b.observe(z, checked=True)
        self.last_hints = None

    _plan = _plan_hinted


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
