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
        if batch is None:
            self.wealth = self.epsilon
            self.signed_sum = 0.0
            self.capped_rounds = 0
        else:
            self.wealth = np.full(batch, self.epsilon)
            self.signed_sum = np.zeros(batch)
            self.capped_rounds = np.zeros(batch, dtype=np.int64)

    def predict(self):
        return self.signed_sum / (self.round + 1) * self.wealth

    def observe(self, z) -> None:
        if self.batch is None:
            z = float(z)
            if not math.isfinite(z) or abs(z) > 1.0 + GRAD_TOL:
                raise ValueError(f"bettor outcome {z!r} outside [-1, 1]")
        else:
            z = np.asarray(z, dtype=np.float64)
            worst = np.abs(z).max() if z.shape == (self.batch,) else math.nan
            if not worst <= 1.0 + GRAD_TOL:  # as_vector rejects a bad shape or NaN first
                as_vector(z, self.batch, "bettor outcome")
                raise ValueError(f"bettor outcome of size {float(worst)!r} outside [-1, 1]")
        zy = z * self.predict()
        self._loss_sum.add(-zy)
        wealth = self.wealth + zy
        if self.batch is None:
            if wealth > WEALTH_CAP:
                wealth = WEALTH_CAP
                self.capped_rounds += 1
        elif wealth.max() > WEALTH_CAP:
            self.capped_rounds += wealth > WEALTH_CAP
            wealth = np.minimum(wealth, WEALTH_CAP)
        self.wealth = wealth
        self.signed_sum += z
        self.round += 1

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
        if self.dual_sq_sum <= 0.0:
            return
        eta = math.sqrt(self.specs[0].lam) / math.sqrt(self.dual_sq_sum)
        u = self.point - eta * g
        np_u = norm(u)
        if np_u > 1.0:
            u = u / np_u
        self.point = u

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
        # p = 2, one row per trial. A trial whose squared-gradient sum is
        # still 0 has seen only zero gradients, so its point is the origin;
        # a zero step keeps it there, as the scalar early return does.
        gq = row_norm(g)
        self.dual_sq_sum = self.dual_sq_sum + gq * gq
        eta = np.sqrt(self.dual_sq_sum)
        np.divide(math.sqrt(self.specs[0].lam), eta, out=eta, where=eta > 0.0)
        u = self.point - eta[:, None] * g
        np_u = row_norm(u)[:, None]
        self.point = np.divide(u, np_u, out=u, where=np_u > 1.0)


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
        self.magnitude.observe(-row_dot(g, self.direction.point))
        self.direction.observe(g)


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

    def _prediction(self):
        return self.signed_sum / (self.round + 1) * self.wealth

    def _update(self, g):
        y = self._prediction()
        z = -g
        wealth = self.wealth + y * z
        if wealth.max() > WEALTH_CAP:
            self.capped_rounds += 1
        self.wealth = np.minimum(wealth, WEALTH_CAP)
        self.signed_sum = self.signed_sum + z
        self.round += 1


class AdaptiveProjectedDescent(Learner):
    """Projected gradient descent with step B / sqrt(sum ||g||^2).

    Needs a bounded domain (B is its diameter). The first round with zero
    accumulated gradient performs no move, so an all-zero stream leaves the
    iterate at the initial point forever. No origin-budget guarantee.
    """

    def __init__(self, domain: ConvexDomain, x0=None):
        if not domain.bounded:
            raise ValueError("adaptive projected descent needs a bounded domain")
        if isinstance(domain, Ball):
            dim = domain.center.shape[0]
        else:
            dim = domain.lo.shape[0]
        super().__init__(dim, epsilon=None)
        self.domain = domain
        self.B = domain.diameter
        start = np.zeros(dim) if x0 is None else as_vector(x0, dim, "x0")
        self.point = domain.project(start)
        self.grad_sq_sum = 0.0

    def _prediction(self):
        return self.point.copy()

    def _update(self, g):
        self.grad_sq_sum += float(np.dot(g, g))
        if self.grad_sq_sum <= 0.0:
            return
        step = self.B / math.sqrt(self.grad_sq_sum)
        self.point = self.domain.project(self.point - step * g)
