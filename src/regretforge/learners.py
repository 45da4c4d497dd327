"""Concrete online learners used as building blocks by the combinators.

* CoinBettor: 1-D parameter-free coin betting (KT-style fraction).
* DimFreeLearner: magnitude bettor times a direction learner on the unit
  p-norm ball; dimension-free regret shape.
* PerCoordinateLearner: one independent 1-D bettor per coordinate.
* AdaptiveProjectedDescent: projected gradient descent on a bounded domain
  with step B / sqrt(sum ||g||^2).

Sign convention, fixed once: learners consume gradients (losses). The raw
bettor consumes the negated loss z (a reward), so wrappers feeding it a
loss ell pass z = -ell.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    GRAD_TOL,
    HINT_SEGMENT,
    Accumulator,
    Learner,
    as_vector,
    ball_step,
    norm,
    row_dot,
    row_norm,
)
from .geometry import COMPACT_SHARE, Ball, ConvexDomain, NormSpec, p_norm, row_powers

# On a perfectly predictable stream the bettor's wealth grows exponentially
# and would overflow float64; the cap keeps iterates finite. Capping only
# ever reduces wealth, so nonnegativity and the epsilon-at-origin guarantee
# survive (the measured loss sum is tracked separately and exactly).
WEALTH_CAP = 1e80


#: exponents for which NumPy's power loop may take a shortcut (x * x for 2.0) instead of its
#: SIMD pow, by whether the call's shape broadcasts them: a grid with such an r^(q-1) exponent
#: (p = 1.5 gives 2.0) raises whole rows every round, as one call, to keep its bits
POWER_SHORTCUTS = {-1.0, 0.0, 0.5, 1.0, 2.0}


def _budget(epsilon) -> float:
    """An origin budget: a finite positive float."""
    if not 0.0 < float(epsilon) < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return float(epsilon)


#: rows of a segment a plan holds at once, a block's segment; a spent chunk plans the next from
#: the state it left, so a plan's memory does not grow with T
PLAN_ROWS = HINT_SEGMENT


def _kt(Z, wealth, signed_sum, first: int):
    """The KT rounds on rewards Z, (n <= PLAN_ROWS, w), from wealth, signed_sum and round
    ``first``: the bets (n, w), and the wealth and signed sums before each row and after the
    last, each bitwise the rounds' own. None if a row could reach the wealth cap: |z| and the
    fraction are at most (1 + GRAD_TOL)**2, so a row multiplies wealth by less than 4, and n
    rows from a wealth at or below WEALTH_CAP / 4**n never do."""
    n = len(Z)
    if not n or np.maximum.reduce(wealth, axis=None) > WEALTH_CAP * 0.25 ** n:
        return None
    S = np.empty((n + 1,) + Z.shape[1:])
    S[0] = signed_sum
    S[1:] = Z
    np.add.accumulate(S, axis=0, out=S)  # adds in row order
    F = S[:-1] / (first + 1 + np.arange(n))[:, None]
    W = np.empty_like(S)
    W[0] = wealth
    for f, z, w, w1 in zip(F, Z, W, W[1:]):
        f *= w  # the bet
        np.multiply(z, f, w1)
        w1 += w
    return F, W, S


class CoinBettor:
    """Parameter-free scalar learner via coin betting with a KT-style fraction.

    Bets the fraction signed_sum / (round + 1) of current wealth; the divisor
    keeps |fraction| < 1 strictly so wealth stays positive for |z| <= 1.
    ``observe`` consumes the reward z = negated loss. With ``batch`` = B the
    bettor runs B independent copies, one per trial or per grid row of a
    DimFreeLearner: outcomes, bets, wealth and regrets are (B,) arrays, and
    the wealth cap applies to each copy on its own. ``capped_rounds`` counts
    the rounds where the cap clipped wealth (one count per copy). A tree that
    knows a segment's (n, B) rewards plans them with ``_plan``: each round then
    reads its bet, wealth and signed sum from _kt's rows, whatever z it is given.
    """

    def __init__(self, epsilon: float = 1.0, batch: int | None = None):
        self.epsilon = _budget(epsilon)
        self.batch = batch
        self.round = 0
        self._loss_sum = Accumulator(batch)  # sum_t (-z_t) * y_t, measured exactly
        self._bet = None  # this round's bet, kept by predict() for observe()
        self.wealth = self.epsilon if batch is None else np.full(batch, self.epsilon)
        self.signed_sum = 0.0 if batch is None else np.zeros(batch)
        self.capped_rounds = 0 if batch is None else np.zeros(batch, dtype=np.int64)
        self._planned = None  # (first round, Z, bets, wealth, signed sums, rewards after Z)

    def predict(self):
        plan = self._planned
        if plan is not None:
            self._bet = plan[2][self.round - plan[0]]
            return self._bet
        self._bet = self.signed_sum / (self.round + 1) * self.wealth
        return self._bet

    def observe(self, z, checked: bool = False) -> None:
        """Settle the round on the reward z, checked to lie in [-1, 1] up to GRAD_TOL.

        The reductions pass ``checked=True``: their z is <g, v> for a checked
        gradient g and a v no longer than a checked hint (the hint itself, the
        constrained reduction's corrected hint, a unit-ball direction), so it is
        finite and |z| <= c = (1 + GRAD_TOL)**2 up to rounding, and it is not
        checked again. Wealth stays positive under that bound: after t rounds
        the bet fraction has size at most c * t / (t + 1), so |z * fraction| < 1
        for the first 1 / (c**2 - 1), about 2.5e8, rounds.
        """
        if self.batch is None:
            z = float(z)
            if not checked and (not math.isfinite(z) or abs(z) > 1.0 + GRAD_TOL):
                raise ValueError(f"bettor outcome {z!r} outside [-1, 1]")
        else:
            if not checked:
                z = np.asarray(z, dtype=np.float64)
                worst = np.abs(z).max() if z.shape == (self.batch,) else math.nan
                if not worst <= 1.0 + GRAD_TOL:  # as_vector rejects a bad shape or NaN first
                    as_vector(z, self.batch, "bettor outcome")
                    raise ValueError(f"bettor outcome of size {float(worst)!r} outside [-1, 1]")
            plan = self._planned
            if plan is not None:
                i = self.round - plan[0] + 1
                self.wealth, self.signed_sum = plan[3][i], plan[4][i]
                self._bet, self.round = None, self.round + 1
                if i == len(plan[1]):  # spent: plan the rest, if any, before the next predict
                    self._plan(plan[5])
                return
        bet = self.predict() if self._bet is None else self._bet
        self._bet, self.round = None, self.round + 1
        zy = z * bet
        self._loss_sum.add(-zy)
        wealth = self.wealth + zy
        if self.batch is None:  # the step _settle takes
            if wealth > WEALTH_CAP:
                wealth = WEALTH_CAP
                self.capped_rounds += 1
        elif np.maximum.reduce(wealth) > WEALTH_CAP:
            self.capped_rounds += wealth > WEALTH_CAP
            wealth = np.minimum(wealth, WEALTH_CAP)
        self.wealth = wealth
        self.signed_sum += z

    def _plan(self, Z, other=None, Z_other=None) -> None:
        """Plan an exact array bettor's rounds on (n, B) rewards Z, PLAN_ROWS rows at a time; None
        drops the plan. A chunk's end folds the loss terms of the rows run, bitwise their adds.
        ``other``, a bettor of the same width, plans on its rewards Z_other too: when both can plan
        a first chunk of as many rows from the same round, one _kt call runs their rewards side
        by side and each plan keeps views of its half (the kernel's arithmetic is by column);
        otherwise each plans alone."""
        plan = self._planned
        if plan is not None:
            k = self.round - plan[0]
            self._loss_sum.extend(-(plan[1][:k] * plan[2][:k]))
            self.wealth, self.signed_sum = self.wealth.copy(), self.signed_sum.copy()
            self._bet = None if self._bet is None else self._bet.copy()
        self._planned = None
        if other is not None:
            other._plan(None)
            if self._plans(Z) and other._plans(Z_other) and other.round == self.round and \
                    len(Z[:PLAN_ROWS]) == len(Z_other[:PLAN_ROWS]):
                kt = _kt(np.hstack((Z[:PLAN_ROWS], Z_other[:PLAN_ROWS])),
                         np.hstack((self.wealth, other.wealth)),
                         np.hstack((self.signed_sum, other.signed_sum)), self.round)
                if kt is not None:
                    for b, z, half in ((self, Z, np.s_[:, :self.batch]),
                                       (other, Z_other, np.s_[:, self.batch:])):
                        b._planned = (b.round, z[:PLAN_ROWS], *(a[half] for a in kt),
                                      z[PLAN_ROWS:])
                    return
        if self._plans(Z):
            kt = _kt(Z[:PLAN_ROWS], self.wealth, self.signed_sum, self.round)
            if kt is not None:
                self._planned = (self.round, Z[:PLAN_ROWS], *kt, Z[PLAN_ROWS:])
        if other is not None:
            other._plan(Z_other)

    def _plans(self, Z) -> bool:
        """Whether _plan may run _kt on rewards Z: an exact array bettor's."""
        return Z is not None and self.batch is not None and type(self) is CoinBettor

    def _settle(self, zs) -> list:
        """observe()'s scalar KT step over the rewards ``zs`` (floats) of a settled segment, whose
        loss terms fold at once; returns the bets. The first bet is predict()'s, if kept."""
        w, s, r, bet, bets = self.wealth, self.signed_sum, self.round, self._bet, []
        for z in zs:
            if bet is None:
                bet = s / (r + 1) * w
            bets.append(bet)
            w += z * bet
            if w > WEALTH_CAP:
                w = WEALTH_CAP
                self.capped_rounds += 1
            s, r, bet = s + z, r + 1, None
        self._loss_sum.extend(-np.multiply(zs, bets))
        self.wealth, self.signed_sum, self.round, self._bet = w, s, r, None
        return bets

    def regret_at(self, u: float) -> float:
        """Measured regret sum_t ell_t (y_t - u) with ell_t = -z_t."""
        return self._loss_sum.total + u * self.signed_sum

    def regret_at_zero(self) -> float:
        return self._loss_sum.total


class PNormBallDescent:
    """Mirror descent over the unit p-norm ball, 1 < p <= 2.

    Uses the gradient maps of psi_p = 0.5*||.||_p^2 and psi_q with adaptive
    step sqrt(p-1)/sqrt(sum ||g_s||_q^2), projecting back by radial
    rescaling. Ties keep the previous point; the initial point is the
    origin. ``spec`` is one NormSpec (p = 2 when None) or a sequence. One p = 2 spec is
    projected online gradient descent on a (d,) point, or (B, d) with a trial axis
    (``batch`` = B). Otherwise each norm is a grid row, point (k, d) and ``dual_sq_sum``
    (k,): one set of array operations steps all rows, each bitwise as it would alone unless
    its r^(q-1) exponent is in POWER_SHORTCUTS (p = 1.5), whose power may round by the grid.

    The grid keeps its state in the dual: theta = grad psi_p(point),
    starting at 0. A round sets theta <- theta - eta*g and
    point = grad psi_q(theta), and when n = ||theta||_q > 1 divides both by
    n. This is the primal step "point <- grad psi_q(grad psi_p(point) -
    eta*g), rescaled to ||.||_p <= 1" in exact arithmetic: the two maps are
    inverse to each other and 1-homogeneous, and ||grad psi_q(theta)||_p =
    ||theta||_q, so dividing theta by n keeps theta = grad psi_p(point).
    The point's own map and p-norm are therefore never recomputed. The grid also keeps
    r = |theta| / max |theta| and r^(q-1) by row: a row that did not rescale last round and
    whose max is bitwise unchanged raises only g's nonzero columns again (see _powers).
    """

    def __init__(self, dim: int, spec=None, batch: int | None = None):
        single = spec is None or isinstance(spec, NormSpec)
        specs = self.specs = (spec or NormSpec.from_p(2.0),) if single else tuple(spec)
        if not specs or min(s.p for s in specs) <= 1.0:
            raise ValueError("direction learner needs p > 1 (lam > 0)")
        self.dim, self.batch = dim, batch
        if single and specs[0].p == 2.0:
            self.theta = None
            self.sqrt_lam = math.sqrt(specs[0].lam)
            self.point = np.zeros(dim if batch is None else (batch, dim))
            self.dual_sq_sum = 0.0 if batch is None else np.zeros(batch)
            return
        if batch is not None:
            raise ValueError("a trial axis needs the p = 2 direction learner")
        self.q = np.array([s.q for s in specs])
        self._e = self.q - 1.0  # the exponent of r^(q-1)
        self._offsets = np.arange(0, len(specs) * dim, dim)[:, None]  # each row's flat start
        self._moved_only = not set(self._e.tolist()) & POWER_SHORTCUTS
        self.sqrt_lam = np.sqrt([s.lam for s in specs])
        self.theta, self.point, self._r, self._rq1 = np.zeros((4, len(specs), dim))
        self.dual_sq_sum = np.zeros(len(specs))
        self._m = [0.0] * len(specs)  # each row's max |theta| in its last step, before rescaling
        self._rescaled = [False] * len(specs)

    def observe(self, g: np.ndarray, planned=None) -> None:
        """Step on g; a grid reads ``planned``, g's (sums, steps) row of _steps, if given."""
        if self.theta is not None:
            if planned is None:  # the one round's plan
                S, eta = self._steps(p_norm(g, self.q)[None])
                planned = S[0], eta[0]
            self._observe_grid(g, *planned)
        elif self.batch is not None:  # the trial path of one row: its (2, B, d) points, (1, B) sums
            (_, self.point), (self.dual_sq_sum,) = self._path(g[None])
        else:
            gq = norm(g)
            self.dual_sq_sum += gq * gq
            if self.dual_sq_sum > 0.0:  # else no evidence yet: the point stays
                self.point = ball_step(self.point, self.sqrt_lam / math.sqrt(self.dual_sq_sum) * g)

    def _steps(self, norms: np.ndarray) -> tuple:
        """The sums S of squared dual norms after each of n rounds, (n, [B or k]), and the
        steps sqrt(lam) / sqrt(S), 0 where S = 0, from the rounds' dual norms, bitwise the
        rounds' own (cumsum adds in order; sqrt and divide round correctly); the state stays."""
        S = norms * norms
        S[0] += self.dual_sq_sum
        np.cumsum(S, axis=0, out=S)
        eta = np.sqrt(S)
        np.divide(self.sqrt_lam, eta, out=eta, where=eta > 0.0)
        return S, eta

    def _path(self, G: np.ndarray) -> tuple:
        """The p = 2 points P before each of n rows G, (n, [B,] d), and after the last, and the sums
        S of squared norms after each (floats for (n, d)), bitwise observe()'s; the state stays.
        A sum still at 0 (zero gradients only) takes a zero step."""
        S, eta = self._steps(row_norm(G))
        P = np.empty((len(G) + 1,) + G.shape[1:])
        P[0] = self.point
        np.multiply(eta[..., None], G, out=P[1:])
        for prev, u in zip(P, P[1:]):  # row t + 1 holds the step until its point overwrites it
            np.subtract(prev, u, out=u)
            if G.ndim == 3:
                u /= np.maximum(row_norm(u), 1.0)[:, None]  # / 1.0 changes no bit
                continue
            n = math.sqrt(u.dot(u))  # ball_step's norm: a contiguous row ravels to itself
            if n > 1.0:
                u /= n
        return P, S if G.ndim == 3 else S.tolist()

    def _observe_grid(self, g: np.ndarray, sums: np.ndarray, eta: np.ndarray) -> None:
        # per-row scalars (powers of S) stay Python floats: NumPy's power rounds otherwise
        self.dual_sq_sum = sums
        if max(sums.tolist()) <= 0.0:
            return  # no evidence yet: theta and the point stay at the origin
        # a row whose sum is still 0 takes a zero step and keeps theta = 0
        theta = self.theta - np.asarray(eta)[:, None] * g
        a = np.abs(theta)
        m = a.max(axis=1)
        ms = m.tolist()
        if 0.0 in ms:
            m[m == 0.0] = 1.0  # r = 0 / 1 keeps a zero row at the origin
        # r = |theta|/m keeps the powers in range; r^(q-1) gives both
        # grad psi_q(theta) = m * S^(2/q - 1) * sign(theta) * r^(q-1) and
        # ||theta||_q = m * S^(1/q), where S = sum r^(q-1) * r.
        r, rq1 = self._powers(g, a, m, ms)
        rows = list(zip(ms, row_dot(rq1, r).tolist(), self.q.tolist()))
        scale = [m_i * S ** (2.0 / q - 1.0) if m_i else 0.0 for m_i, S, q in rows]
        n = [max(m_i * S ** (1.0 / q), 1.0) if m_i else 1.0 for m_i, S, q in rows]
        u = np.copysign(rq1, theta)
        u *= np.array(scale)[:, None]
        self._m, self._rescaled = ms, [n_i > 1.0 for n_i in n]
        if max(n) > 1.0:  # rows with n <= 1 divide by 1.0, which changes no bit
            n = np.array(n)[:, None]
            u /= n
            theta /= n
        self.theta = theta
        self.point = u

    def _powers(self, g, a, m, ms) -> tuple:
        """r = a / m and r^(q - 1) by row, kept for the next round. theta - eta * 0 is theta in
        absolute value, so a row that did not rescale last round and whose max m is bitwise
        unchanged has new r and r^(q-1) only in g's nonzero columns: unless g is dense, only
        those are computed (an element's power does not depend on its SIMD lane; see
        POWER_SHORTCUTS for the exponents where the call's shape matters)."""
        kept = []
        if self._moved_only and np.count_nonzero(g) <= COMPACT_SHARE * g.size:
            kept = [m_i == m0 and not resc for m_i, m0, resc in zip(ms, self._m, self._rescaled)]
        if not any(kept):
            self._r = a / m[:, None]
            self._rq1 = row_powers(self._r, self._e)
            return self._r, self._rq1
        r, rq1, e = self._r, self._rq1, self._e
        for i, keep in enumerate(kept):  # in full; its moved columns take the same bits below
            if not keep:
                np.divide(a[i], m[i], out=r[i])
                rq1[i] = row_powers(r[i], e[i:i + 1])[0]
        at = self._offsets + (g != 0.0).nonzero()[0]  # the moved columns' flat indices, by row
        moved = a.take(at) / m[:, None]
        r.put(at, moved)
        rq1.put(at, moved ** e[:, None])
        return r, rq1


class DimFreeLearner(Learner):
    """Magnitude times direction: a coin bettor scales a unit-ball direction.

    The magnitude bettor sees the loss <g, direction> (so |z| <= 1 whenever
    ||g||_2 <= 1 and p <= 2), the direction learner sees g itself. Zero
    accumulated gradient leaves the direction at the origin, so the learner
    plays 0 until evidence arrives. With a grid direction the bettor has one entry
    per row, each with budget ``epsilon``, and the learner plays the rows' sum.
    """

    def __init__(self, dim: int, epsilon: float = 1.0, spec=None,
                 batch: int | None = None):
        self.direction = PNormBallDescent(dim, spec, batch)
        rows = None if self.direction.theta is None else len(self.direction.specs)
        self.magnitude = CoinBettor(epsilon, batch if rows is None else rows)
        super().__init__(dim, epsilon if rows is None else sum([epsilon] * rows), batch)

    def _prediction(self):
        y = self.magnitude.predict()
        if self.magnitude.batch is None:
            return y * self.direction.point
        if self.batch is None:  # a grid plays its rows' sum
            return (y[:, None] * self.direction.point).sum(axis=0)
        plan = self._planned
        if plan is not None and plan[5] is not None:  # the play _chunk fixed
            return plan[5][self.round_index - plan[0]]
        return y[:, None] * self.direction.point

    def _update(self, g):
        plan, direction = self._planned, self.direction
        if plan is None or direction.theta is not None:  # a grid reads its planned steps
            self.magnitude.observe(-row_dot(g, direction.point), checked=True)
            steps = None if plan is None else plan[1][self.round_index - plan[0]]
            return direction.observe(g, steps)
        i = self.round_index - plan[0]  # the planned round: the same bettor step, no direction one
        self.magnitude.observe(plan[3][i], checked=True)
        direction.point, direction.dual_sq_sum = plan[1][i + 1], plan[2][i]
        if i + 1 == len(plan[3]) and len(plan[4]):  # spent: plan the next before the next predict
            self._chunk(plan[4], self.round_index + 1)

    def _chunk(self, G, first, hint=()):
        """Plan the p = 2 direction path of G's first PLAN_ROWS rows from round ``first`` on and the
        magnitude outcomes -<g_t, point_t> it fixes (an array bettor's plan, made with ``hint``'s
        (bettor, rewards) where given); the rest waits. A planned trial-axis magnitude also fixes
        the plays y_t * point_t, bitwise the rounds' multiply."""
        P, S = self.direction._path(G[:PLAN_ROWS])
        Z = -row_dot(G[:PLAN_ROWS], P[:-1])
        block = G.ndim == 3
        self.magnitude._plan(Z if block else None, *hint)
        bets = self.magnitude._planned
        X = None if bets is None else bets[2][:, :, None] * P[:-1]
        self._planned = (first, P, S, Z if block else Z.tolist(), G[PLAN_ROWS:], X)

    def _plan(self, G, H, settle=False, hint=()):
        """Learner._plan; a hinted root's ``hint``, its (bettor, rewards), plans with a trial
        axis's magnitude in one _kt call."""
        direction = self.direction
        if self._planned is not None:  # a plan ends: let its arrays go
            direction.point = direction.point.copy()
            if type(direction.dual_sq_sum) is np.ndarray:
                direction.dual_sq_sum = direction.dual_sq_sum.copy()
            self.magnitude._plan(None)
        self._planned = None
        if G is None or type(self) is not DimFreeLearner:
            return None
        if direction.theta is not None:  # a grid's dual norms, their sums and its steps
            S, eta = direction._steps(p_norm(G, direction.q))
            self._planned = (self.round_index, list(zip(S, eta)))
        elif settle and G.ndim == 2 and type(self.magnitude) is CoinBettor:  # one KT recursion
            P, S = direction._path(G)
            direction.point, direction.dual_sq_sum = P[-1].copy(), S[-1]
            self.round_index, self._awaiting_predict = self.round_index + len(G), True
            Y = np.array(self.magnitude._settle((-row_dot(G, P[:-1])).tolist()))
            return np.multiply(P[:-1], Y[:, None], out=P[:-1])
        else:
            self._chunk(G, self.round_index, hint)


class PerCoordinateLearner(Learner):
    """d independent 1-D coin bettors, each with budget epsilon / d.

    State is held in coordinate arrays rather than d bettor objects; the
    update is one vector operation and matches the d-instance semantics
    exactly (each coordinate sees only its own gradient entries). With
    ``batch`` = B the arrays are (B, d), one row per trial, and every entry
    still steps on its own. ``capped_rounds`` counts the rounds where the
    wealth cap clipped any coordinate's wealth, one count per trial with a
    trial axis. A segment's rewards are its rows' -g, so _plan runs _kt on
    them, (n, d) or (n, B * d), a chunk at a time, and the rounds read their rows.
    """

    def __init__(self, dim: int, epsilon: float = 1.0, batch: int | None = None):
        super().__init__(dim, epsilon=_budget(epsilon), batch=batch)
        shape = (dim,) if batch is None else (batch, dim)
        self.wealth = np.full(shape, self.epsilon / dim)
        self.signed_sum = np.zeros(shape)
        self.round = 0
        self.capped_rounds = 0 if batch is None else np.zeros(batch, dtype=np.int64)
        self._bet = np.zeros(shape)  # the last prediction, the bet _update settles

    def _prediction(self):
        plan = self._planned
        if plan is not None:
            self._bet = plan[1][self.round - plan[0]]
            return self._bet
        self._bet = self.signed_sum / (self.round + 1) * self.wealth
        return self._bet

    def _update(self, g):
        plan = self._planned
        if plan is not None:  # a planned round: its row of the wealth and signed sums
            i = self.round - plan[0] + 1
            self.wealth, self.signed_sum, self.round = plan[2][i], plan[3][i], self.round + 1
            if i == len(plan[1]):  # spent: plan the rest, if any, before the next predict
                self._plan(plan[4], None)
            return
        # the reward is z = -g: wealth + bet * z and signed_sum + z, to the bit
        wealth = self.wealth - self._bet * g
        if wealth.max() > WEALTH_CAP:
            self.capped_rounds += (wealth > WEALTH_CAP).any(axis=-1)
            wealth = np.minimum(wealth, WEALTH_CAP)
        self.wealth = wealth
        self.signed_sum = self.signed_sum - g
        self.round += 1

    def _plan(self, G, H, settle=False):
        """Plan the rounds of G's first PLAN_ROWS rows on their rewards -g, which step wealth and
        signed_sum bitwise as _update does (w - bet * g = w + (-g) * bet); the rest waits. A
        block's rows flatten to B * d columns, each stepped on its own by _kt."""
        if self._planned is not None:  # a chunk ends: let its arrays go
            self.wealth, self.signed_sum = self.wealth.copy(), self.signed_sum.copy()
            self._bet = self._bet.copy()
        kt, shape = None, self.wealth.shape
        if G is not None and type(self) is PerCoordinateLearner:
            Z = -G[:PLAN_ROWS].reshape(-1, self.wealth.size)
            kt = _kt(Z, self.wealth.reshape(-1), self.signed_sum.reshape(-1), self.round)
        self._planned = None if kt is None else (
            self.round, *(a.reshape(len(a), *shape) for a in kt), G[PLAN_ROWS:])


class AdaptiveProjectedDescent(Learner):
    """Projected gradient descent with step B / sqrt(sum ||g||^2).

    Needs a bounded domain (B is its diameter). The first round with zero
    accumulated gradient performs no move, so an all-zero stream leaves the
    iterate at its start, the origin's projection, forever. No origin-budget
    guarantee.
    """

    def __init__(self, domain: ConvexDomain):
        if not domain.bounded:
            raise ValueError("adaptive projected descent needs a bounded domain")
        if isinstance(domain, Ball):
            dim = domain.center.shape[0]
        else:
            dim = domain.lo.shape[0]
        super().__init__(dim, epsilon=None)
        self.domain = domain
        self.B = domain.diameter
        self.point = domain.project(np.zeros(dim))
        self.grad_sq_sum = 0.0

    def _prediction(self):
        return self.point.copy()

    def _update(self, g):
        self.grad_sq_sum += float(np.dot(g, g))
        if self.grad_sq_sum <= 0.0:
            return
        step = self.B / math.sqrt(self.grad_sq_sum)
        self.point = self.domain.project(self.point - step * g)
