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
    Accumulator,
    Learner,
    as_vector,
    ball_step,
    norm,
    row_dot,
    row_norm,
)
from .geometry import Ball, ConvexDomain, NormSpec, p_norm, row_powers

# On a perfectly predictable stream the bettor's wealth grows exponentially
# and would overflow float64; the cap keeps iterates finite. Capping only
# ever reduces wealth, so nonnegativity and the epsilon-at-origin guarantee
# survive (the measured loss sum is tracked separately and exactly).
WEALTH_CAP = 1e80


def _budget(epsilon) -> float:
    """An origin budget: a finite positive float."""
    if not 0.0 < float(epsilon) < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return float(epsilon)


class CoinBettor:
    """Parameter-free scalar learner via coin betting with a KT-style fraction.

    Bets the fraction signed_sum / (round + 1) of current wealth; the divisor
    keeps |fraction| < 1 strictly so wealth stays positive for |z| <= 1.
    ``observe`` consumes the reward z = negated loss. With ``batch`` = B the
    bettor runs B independent copies, one per trial or per grid row of a
    DimFreeLearner: outcomes, bets, wealth and regrets are (B,) arrays, and
    the wealth cap applies to each copy on its own. ``capped_rounds`` counts
    the rounds where the cap clipped wealth (one count per copy).
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

    def predict(self):
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
        elif not checked:
            z = np.asarray(z, dtype=np.float64)
            worst = np.abs(z).max() if z.shape == (self.batch,) else math.nan
            if not worst <= 1.0 + GRAD_TOL:  # as_vector rejects a bad shape or NaN first
                as_vector(z, self.batch, "bettor outcome")
                raise ValueError(f"bettor outcome of size {float(worst)!r} outside [-1, 1]")
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

    def _settle(self, zs) -> list:
        """observe()'s scalar KT step over the rewards ``zs`` (floats) of a scan segment, whose
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
    (k,): one set of array operations steps all rows, each bitwise as it would alone.

    The grid keeps its state in the dual: theta = grad psi_p(point),
    starting at 0. A round sets theta <- theta - eta*g and
    point = grad psi_q(theta), and when n = ||theta||_q > 1 divides both by
    n. This is the primal step "point <- grad psi_q(grad psi_p(point) -
    eta*g), rescaled to ||.||_p <= 1" in exact arithmetic: the two maps are
    inverse to each other and 1-homogeneous, and ||grad psi_q(theta)||_p =
    ||theta||_q, so dividing theta by n keeps theta = grad psi_p(point).
    The point's own map and p-norm are therefore never recomputed.
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
        self.theta, self.point = np.zeros((2, len(specs), dim))
        self.dual_sq_sum = np.zeros(len(specs))

    def observe(self, g: np.ndarray) -> None:
        if self.theta is not None:
            self._observe_grid(g)
            return
        if self.batch is not None:
            self._observe_trials(g)
            return
        gq = norm(g)
        self.dual_sq_sum += gq * gq
        if self.dual_sq_sum > 0.0:  # else no evidence yet: the point stays
            self.point = ball_step(self.point, self.sqrt_lam / math.sqrt(self.dual_sq_sum) * g)

    def _path(self, G: np.ndarray) -> np.ndarray:
        """The p = 2 points before each row of (n, d) G, stepped past them all. The sums and
        steps are vectorized, bitwise as observe() builds them (cumsum adds in order)."""
        S = np.sqrt(row_dot(G, G))
        S *= S
        S[0] += self.dual_sq_sum
        np.cumsum(S, out=S)
        first = int(np.searchsorted(S, 0.0, side="right"))  # S grows: no evidence before
        P, point = np.empty_like(G), self.point
        P[:first] = point
        np.multiply((self.sqrt_lam / np.sqrt(S[first:]))[:, None], G[first:], out=P[first:])
        for t in range(first, len(G)):  # row t holds the step until its point overwrites it
            u = point - P[t]
            n = math.sqrt(u.dot(u))  # ball_step's norm: a contiguous row ravels to itself
            P[t], point = point, u / n if n > 1.0 else u
        self.point, self.dual_sq_sum = point, float(S[-1])
        return P

    def _observe_grid(self, g: np.ndarray) -> None:
        # per-row scalars (eta, powers of S) stay Python floats: NumPy's power rounds otherwise
        gq = p_norm(g, self.q)
        self.dual_sq_sum = self.dual_sq_sum + gq * gq
        sums = self.dual_sq_sum.tolist()
        if max(sums) <= 0.0:
            return  # no evidence yet: theta and the point stay at the origin
        # a row whose sum is still 0 takes a zero step and keeps theta = 0
        eta = [math.sqrt(s.lam) / math.sqrt(t) if t else 0.0 for s, t in zip(self.specs, sums)]
        theta = self.theta - np.array(eta)[:, None] * g
        a = np.abs(theta)
        m = a.max(axis=1)
        ms = m.tolist()
        if 0.0 in ms:
            m[m == 0.0] = 1.0  # r = 0 / 1 keeps a zero row at the origin
        # r = |theta|/m keeps the powers in range; r^(q-1) gives both
        # grad psi_q(theta) = m * S^(2/q - 1) * sign(theta) * r^(q-1) and
        # ||theta||_q = m * S^(1/q), where S = sum r^(q-1) * r.
        r = a / m[:, None]
        rq1 = row_powers(r, self.q - 1.0)
        rows = list(zip(ms, row_dot(rq1, r).tolist(), self.q.tolist()))
        scale = [m_i * S ** (2.0 / q - 1.0) if m_i else 0.0 for m_i, S, q in rows]
        n = [max(m_i * S ** (1.0 / q), 1.0) if m_i else 1.0 for m_i, S, q in rows]
        u = np.copysign(rq1, theta) * np.array(scale)[:, None]
        if max(n) > 1.0:  # rows with n <= 1 divide by 1.0, which changes no bit
            n = np.array(n)[:, None]
            u, theta = u / n, theta / n
        self.theta = theta
        self.point = u

    def _observe_trials(self, g: np.ndarray) -> None:
        # p = 2, one row per trial. A trial whose squared-gradient sum is still 0 has seen only zero
        # gradients: a zero step keeps it at the origin, as the scalar early return does.
        gq = row_norm(g)
        self.dual_sq_sum = self.dual_sq_sum + gq * gq
        eta = np.sqrt(self.dual_sq_sum)
        np.divide(self.sqrt_lam, eta, out=eta, where=eta > 0.0)
        np.subtract(self.point, eta[:, None] * g, out=self.point)
        self.point /= np.maximum(row_norm(self.point), 1.0)[:, None]  # / 1.0 changes no bit


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
        w = y[:, None] * self.direction.point
        return w if self.batch is not None else w.sum(axis=0)

    def _update(self, g):
        self.magnitude.observe(-row_dot(g, self.direction.point), checked=True)
        self.direction.observe(g)

    def _scan(self, G, H):
        # the p = 2 direction path, then the magnitude bets on -<g_t, point_t>
        if (type(self) is not DimFreeLearner or H is not None or self.direction.theta is not None
                or type(self.magnitude) is not CoinBettor):
            return None
        W = self.direction._path(G)
        W *= np.array(self.magnitude._settle((-row_dot(G, W)).tolist()))[:, None]
        self.round_index, self._awaiting_predict = self.round_index + len(G), True
        return W


class PerCoordinateLearner(Learner):
    """d independent 1-D coin bettors, each with budget epsilon / d.

    State is held in coordinate arrays rather than d bettor objects; the
    update is one vector operation and matches the d-instance semantics
    exactly (each coordinate sees only its own gradient entries).
    ``capped_rounds`` counts the rounds where the wealth cap clipped any
    coordinate's wealth.
    """

    def __init__(self, dim: int, epsilon: float = 1.0):
        super().__init__(dim, epsilon=_budget(epsilon))
        self.wealth = np.full(dim, self.epsilon / dim)
        self.signed_sum = np.zeros(dim)
        self.round = 0
        self.capped_rounds = 0
        self._bet = np.zeros(dim)  # the last prediction, the bet _update settles

    def _prediction(self):
        self._bet = self.signed_sum / (self.round + 1) * self.wealth
        return self._bet

    def _update(self, g):
        # the reward is z = -g: wealth + bet * z and signed_sum + z, to the bit
        wealth = self.wealth - self._bet * g
        if wealth.max() > WEALTH_CAP:
            self.capped_rounds += 1
            wealth = np.minimum(wealth, WEALTH_CAP)
        self.wealth = wealth
        self.signed_sum = self.signed_sum - g
        self.round += 1


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
