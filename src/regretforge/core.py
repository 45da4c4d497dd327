"""Learner contract, loss accounting, and regret evaluation.

Everything downstream speaks two conventions fixed here once:

* losses are linear: playing w against gradient g costs <g, w>;
* regret against a comparator u is sum_t <g_t, w_t - u>.

Cumulative sums that tests check to 1e-9*T are accumulated with
``math.fsum`` (exact) or a compensated (TwoSum) accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# Tolerance for the unit-gradient / unit-hint contracts.
GRAD_TOL = 1e-9


class ContractViolation(RuntimeError):
    """A learner or caller broke the predict/observe protocol."""


class DimensionMismatch(ValueError):
    """Vector dimensions do not agree."""


class ReplayError(RuntimeError):
    """Replay aborted; the message names the offending round."""


def as_vector(x, dim=None, name="vector", batch=None) -> np.ndarray:
    """Validate and return x as a finite 1-D float64 array.

    With ``batch`` set, x must instead be one row per trial: exactly
    (batch, dim).
    """
    v = np.asarray(x, dtype=np.float64)
    if batch is None:
        if v.ndim != 1:
            raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
        if dim is not None and v.shape[0] != dim:
            raise DimensionMismatch(f"{name} has dim {v.shape[0]}, expected {dim}")
    elif v.shape != (batch, dim):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({batch}, {dim})")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


_vecdot = getattr(np, "vecdot", None)  # NumPy >= 2.0


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products of two (..., d) arrays, such as (B, d) or (T, B, d).

    Both ``np.vecdot`` and a stacked (1, d) @ (d, 1) matmul run NumPy's 1-D
    dot loop on every row, so row i is bitwise equal to ``np.dot(a[i], b[i])``.
    """
    if _vecdot is not None:
        return _vecdot(a, b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norm(a: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms, bitwise equal to ``np.linalg.norm(a[i])``."""
    return np.sqrt(row_dot(a, a))


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a float64 array, bitwise equal to ``np.linalg.norm(v)``.

    It is built as ``np.linalg.norm`` builds it: ravel in memory order (a
    contiguous copy of a strided view, so the dot sums in the same order),
    then the square root of the dot product. At small d this skips most of
    the wrapper's cost.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def check_unit_norm(v: np.ndarray, name: str, tol: float = GRAD_TOL,
                    row: str = "trial") -> None:
    """Reject a vector, or any row of a (B, d) array, longer than 1 + tol.

    ``row`` names what a row of a 2-D array is in the error message.
    """
    if v.ndim == 2:
        norms = row_norm(v)
        i = int(norms.argmax())
        if norms[i] > 1.0 + tol:
            raise ValueError(f"{name} of {row} {i} has norm {norms[i]:.12g} > 1 + {tol}")
        return
    n = norm(v)
    if n > 1.0 + tol:
        raise ValueError(f"{name} has norm {n:.12g} > 1 + {tol}")


#: a squared norm at or below this passes the unit-norm check by a wide margin
_CLEAR_SQ = (1.0 + 0.5 * GRAD_TOL) ** 2


def check_hints(h, dim: int, batch: Optional[int] = None, row="trial", name="hint") -> np.ndarray:
    """``as_vector(h, dim, name, batch)`` then ``check_unit_norm(h, "hint", row=row)``, cheaply.

    A squared-norm pass clears h of the right shape whose rows all have norm
    <= 1 by a margin; anything else (a non-finite entry included) goes through
    those two checks, which decide and give the message.
    """
    v = np.asarray(h, dtype=np.float64)
    if v.shape != ((dim,) if batch is None else (batch, dim)) or not (
            (v.dot(v) if batch is None else row_dot(v, v).max()) <= _CLEAR_SQ):
        v = as_vector(v, dim, name, batch)
        check_unit_norm(v, "hint", row=row)
    return v


def check_stream(G, dim: int, batch: Optional[int] = None, unit: bool = True) -> np.ndarray:
    """Validate a whole (T, dim) stream, or a (T, batch, dim) block, before round 0.

    Applies to every round the checks ``Learner.observe`` applies to one:
    shape, finite entries and, with ``unit``, norm <= 1 + GRAD_TOL (every
    trial's row in a block). One vectorized pass over the squared row norms
    clears the rows that pass with a margin; any other row is checked again
    on its own with ``as_vector``/``check_unit_norm``, which decide. The
    error message is theirs, prefixed with the first bad round. Returns the
    stream as a float64 array.
    """
    G = np.asarray(G, dtype=np.float64)
    row = (dim,) if batch is None else (batch, dim)
    if G.shape[1:] != row:
        raise DimensionMismatch(f"round 0: gradient has shape {G.shape[1:]}, expected {row}")
    sq = row_dot(G, G)
    # a non-finite entry makes its row's squared norm non-finite
    clear = sq <= _CLEAR_SQ if unit else np.isfinite(sq)
    if batch is not None:
        clear = clear.all(axis=1)
    for t in np.flatnonzero(~clear):
        try:
            v = as_vector(G[t], dim, "gradient", batch)
            if unit:
                check_unit_norm(v, "gradient")
        except ValueError as exc:
            raise type(exc)(f"round {t}: {exc}") from None
    return G


class Accumulator:
    """Compensated running sum (branch-free TwoSum, so it also runs on arrays)."""

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x) -> None:
        s = self._s
        t = s + x
        bp = t - s
        self._c += (s - (t - bp)) + (x - bp)
        self._s = t

    @property
    def total(self) -> float:
        return self._s + self._c


class BatchAccumulator(Accumulator):
    """Compensated running sums, one per trial, in (B,) arrays.

    Each entry takes the same operations as a scalar Accumulator fed that
    trial's values.
    """

    __slots__ = ()

    def __init__(self, batch: int):
        self._s = np.zeros(batch)
        self._c = np.zeros(batch)


@dataclass
class RegretContract:
    """Declared regret-bound shape of a learner.

    ``epsilon`` is the guaranteed regret at the origin. C, c, D describe the
    scalar learner's log-scaled terms, ``lam`` the strong-convexity modulus of
    the squared norm the learner adapts to, and A_T/B_T the comparator-dependent
    envelope functions (both nonnegative everywhere).
    """

    epsilon: float
    C: float = 0.0
    c: float = 0.0
    D: float = 0.0
    lam: float = 1.0
    A_T: Optional[Callable[[np.ndarray], float]] = None
    B_T: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        for field in ("epsilon", "C", "c", "D"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be nonnegative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")


class RegretLedger:
    """Replay record of (w_t, g_t) pairs.

    Supports regret evaluation at arbitrary comparators after the fact.
    ``hints`` is attached by the hinted replay drivers and is None otherwise.

    A batched replay records (T, B, d) gradients and (T, B) per-round losses
    instead of iterates; its sums and regrets are then per trial, with the
    comparator given as one (B, d) row per trial.
    """

    def __init__(self, iterates, gradients, hints=None, losses=None):
        self.gradients = np.asarray(gradients, dtype=np.float64)
        self.hints = hints
        self._losses = losses
        if iterates is None:
            if losses is None:
                raise ValueError("a ledger needs iterates or per-round losses")
            self.iterates = None
            return
        self.iterates = np.asarray(iterates, dtype=np.float64)
        if self.iterates.shape != self.gradients.shape:
            raise DimensionMismatch(
                f"iterates {self.iterates.shape} vs gradients {self.gradients.shape}"
            )

    def __len__(self) -> int:
        return self.gradients.shape[0]

    @property
    def dim(self) -> int:
        return self.gradients.shape[-1]

    def per_round_losses(self) -> np.ndarray:
        if self._losses is None:
            self._losses = np.einsum("td,td->t", self.gradients, self.iterates)
        return self._losses

    @property
    def cumulative_loss(self):
        losses = self.per_round_losses()
        if losses.ndim == 2:
            return np.array([math.fsum(trial) for trial in losses.T])
        return math.fsum(losses)

    def gradient_sum(self) -> np.ndarray:
        return self.gradients.sum(axis=0)

    def regret_at(self, u):
        batch = self.gradients.shape[1] if self.gradients.ndim == 3 else None
        u = as_vector(u, self.dim, "comparator", batch)
        losses = self.per_round_losses()
        if batch is None:
            # single pass: fsum over per-round <g_t, w_t - u>
            return math.fsum(losses - self.gradients @ u)
        return np.array([math.fsum(losses[:, i] - self.gradients[:, i] @ u[i])
                         for i in range(batch)])


def regret_at(ledger: RegretLedger, u) -> float:
    """Regret of the recorded play against the fixed comparator u."""
    return ledger.regret_at(u)


class Learner:
    """Base online learner: alternating predict() / observe(g).

    predict() is pure and may be called repeatedly; observe() must be
    preceded by at least one predict() for the round. round_index counts
    completed observes. Subclasses implement _prediction() and _update().

    A gradient is validated once, at the boundary. The public observe()
    runs as_vector and the unit-norm check, then hands the validated array
    to _step(), which checks the predict/observe turn, runs _update() and
    advances the round. The stream drivers (replay, replay_hinted,
    replay_multi_hint and the harness) check the whole stream once with
    check_stream before round 0 and then call _step() directly. Composite
    learners pass the array they were given straight to their children's
    _step(), so a nested gradient is not checked again; a child's own
    observe() still validates.

    Learners that support it take ``batch`` = B to run B independent trials
    in lockstep: every vector then carries a leading trial axis, (B, d), and
    every per-trial scalar is a (B,) array.
    """

    #: learners declaring this reject gradients with ||g||_2 > 1 + GRAD_TOL
    unit_gradient_bound = True

    def __init__(self, dim: int, epsilon: Optional[float] = None,
                 batch: Optional[int] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1")
        self.dim = dim
        self.epsilon = epsilon
        self.batch = batch
        self.round_index = 0
        self._awaiting_predict = True

    def predict(self) -> np.ndarray:
        w = self._prediction()
        self._awaiting_predict = False
        return w

    def observe(self, g) -> None:
        self._check_turn()
        g = as_vector(g, self.dim, "gradient", self.batch)
        if self.unit_gradient_bound:
            check_unit_norm(g, "gradient")
        self._step(g)

    def _step(self, g: np.ndarray) -> None:
        """Advance one round on a gradient the caller has already validated."""
        self._check_turn()
        self._update(g)
        self.round_index += 1
        self._awaiting_predict = True

    def _check_turn(self) -> None:
        if self._awaiting_predict:
            raise ContractViolation(
                f"observe at round {self.round_index} without a preceding predict"
            )

    @property
    def contract(self) -> Optional[RegretContract]:
        if self.epsilon is None:
            return None
        return RegretContract(epsilon=self.epsilon)

    def _prediction(self) -> np.ndarray:
        raise NotImplementedError

    def _update(self, g: np.ndarray) -> None:
        raise NotImplementedError


class HintedLearner(Learner):
    """Learner whose prediction consumes a hint vector for the round.

    The hint arrives strictly before the prediction is fixed; observe()
    consumes the most recent hint and clears it, so every round needs a
    fresh predict(h).
    """

    def predict(self, h) -> np.ndarray:  # noqa: D102 - contract in class docstring
        w = self._hinted_prediction(check_hints(h, self.dim, self.batch))
        self._awaiting_predict = False
        return w

    def _hinted_prediction(self, h: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroLearner(Learner):
    """Always plays the origin. Useful as an identity element in sums."""

    def __init__(self, dim: int):
        super().__init__(dim, epsilon=0.0)

    def _prediction(self):
        return np.zeros(self.dim)

    def _update(self, g):
        pass


class ConstantLearner(Learner):
    """Always plays a fixed point (no regret guarantee at the origin)."""

    def __init__(self, point):
        point = as_vector(point, name="point")
        super().__init__(point.shape[0], epsilon=None)
        self.point = point

    def _prediction(self):
        return self.point.copy()

    def _update(self, g):
        pass


def _check_iterate(w, shape, t) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != shape:
        raise ReplayError(f"round {t}: iterate has shape {w.shape}, expected {shape}")
    if not np.isfinite(w).all():
        raise ReplayError(f"round {t}: iterate contains non-finite entries")
    return w


def _replay_stream(learner: Learner, gradients) -> np.ndarray:
    """The stream checked once for ``learner``; a bad round is a ReplayError."""
    try:
        return check_stream(gradients, learner.dim, learner.batch, learner.unit_gradient_bound)
    except ValueError as exc:
        raise ReplayError(str(exc)) from exc


def replay(learner: Learner, gradients) -> RegretLedger:
    """Drive a plain learner over a finite gradient stream.

    The stream is checked once before round 0. Aborts with a diagnostic
    naming the round index if a gradient is out of contract, the learner
    emits a non-finite iterate or it breaks the alternation contract.
    """
    G = _replay_stream(learner, gradients)
    T, d = G.shape
    W = np.empty_like(G)
    for t in range(T):
        try:
            W[t] = _check_iterate(learner.predict(), (d,), t)
            learner._step(G[t])
        except (ContractViolation, ValueError) as exc:
            raise ReplayError(f"round {t}: {exc}") from exc
    return RegretLedger(W, G)


def replay_hinted(learner: HintedLearner, gradients, source) -> RegretLedger:
    """Drive a hinted learner; hints come from ``source`` before each play.

    A (T, B, d) stream drives a learner and source built with batch = B,
    one trial per column. The ledger then keeps each round's (B,) losses,
    computed as a single-trial ledger computes them, but no iterates or
    hints, so that a block of trials costs little more memory than its
    gradients. The stream is checked once before round 0; the learner and
    the source then take each round's gradient without checking it again.
    """
    G = _replay_stream(learner, gradients)
    if G.ndim == 3:
        return _replay_hinted_batch(learner, G, source)
    T, d = G.shape
    W = np.empty_like(G)
    H = np.empty_like(G)
    for t in range(T):
        try:
            H[t] = source.next_hint()
            W[t] = _check_iterate(learner.predict(H[t]), (d,), t)
            learner._step(G[t])
            source._feed(G[t])
        except (ContractViolation, ValueError) as exc:
            raise ReplayError(f"round {t}: {exc}") from exc
    return RegretLedger(W, G, hints=H)


def _replay_hinted_batch(learner, G, source) -> RegretLedger:
    T, B, d = G.shape
    losses = np.empty((T, B))
    for t in range(T):
        g = G[t]
        try:
            w = _check_iterate(learner.predict(source.next_hint()), (B, d), t)
            learner._step(g)
            source._feed(g)
        except (ContractViolation, ValueError) as exc:
            raise ReplayError(f"round {t}: {exc}") from exc
        losses[t] = np.einsum("bd,bd->b", g, w)
    return RegretLedger(None, G, losses=losses)


def replay_multi_hint(learner, gradients, sources: Sequence) -> RegretLedger:
    """Drive a multi-hint learner with one hint source per slot.

    The stream is checked once before round 0, as in ``replay``.
    """
    G = _replay_stream(learner, gradients)
    T, d = G.shape
    k = len(sources)
    W = np.empty_like(G)
    H = np.empty((T, k, d))
    for t in range(T):
        try:
            for i, src in enumerate(sources):
                H[t, i] = src.next_hint()
            W[t] = _check_iterate(learner.predict(H[t]), (d,), t)
            learner._step(G[t])
            for src in sources:
                src._feed(G[t])
        except (ContractViolation, ValueError) as exc:
            raise ReplayError(f"round {t}: {exc}") from exc
    return RegretLedger(W, G, hints=H)
