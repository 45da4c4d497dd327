"""Learner contract, loss accounting, and regret evaluation.

Everything downstream speaks two conventions fixed here once:

* losses are linear: playing w against gradient g costs <g, w>;
* regret against a comparator u is sum_t <g_t, w_t - u>.

Cumulative sums that tests check to 1e-9*T are accumulated with
``math.fsum`` (exact) or a compensated (TwoSum) accumulator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# Tolerance for the unit-gradient / unit-hint contracts.
GRAD_TOL = 1e-9
#: the most entries a (T, dim) stream may hold: 2 GiB of float64 gradients,
#: checked before a config's stream or a Bernstein run's samples are drawn
MAX_STREAM_ENTRIES = 2 ** 28


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


def check_batch(batch: Optional[int]) -> Optional[int]:
    """A trial count: None (no trial axis) or at least 1."""
    if batch is not None and batch < 1:
        raise ValueError("batch must be >= 1")
    return batch


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products of two (..., d) arrays, such as (B, d) or (T, B, d).

    Both ``np.vecdot`` and a stacked (1, d) @ (d, 1) matmul run NumPy's 1-D
    dot loop on every row, so row i is bitwise equal to ``np.dot(a[i], b[i])``
    (not for a reversed, negative-stride row). Two 1-D vectors take
    ``ndarray.dot``, which is ``np.dot`` at less call cost. The one difference:
    a row of length 1 whose product is -0.0 gives +0.0, where ``np.dot`` gives -0.0.
    """
    if a.ndim == 1 == b.ndim:
        return a.dot(b)
    if _vecdot is not None:
        return _vecdot(a, b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norm(a: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms: row i is the square root of ``np.dot(a[i], a[i])``, so bitwise
    ``np.linalg.norm(a[i])`` for a C-contiguous row (that norm dots a strided row's copy)."""
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


def ball_step(point: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The p = 2 step: point - step, divided by its norm when that exceeds 1."""
    u = point - step
    n = norm(u)
    if n > 1.0:
        u /= n
    return u


def check_unit_norm(v: np.ndarray, name: str, row: str = "trial") -> None:
    """Reject a vector, or any row of a (B, d) array, longer than 1 + GRAD_TOL.

    ``row`` names what a row of a 2-D array is in the error message.
    """
    if v.ndim == 2:
        norms = row_norm(v)
        i = int(norms.argmax())
        if norms[i] > 1.0 + GRAD_TOL:
            raise ValueError(f"{name} of {row} {i} has norm {norms[i]:.12g} > 1 + {GRAD_TOL}")
        return
    n = norm(v)
    if n > 1.0 + GRAD_TOL:
        raise ValueError(f"{name} has norm {n:.12g} > 1 + {GRAD_TOL}")


#: a squared norm at or below this passes the unit-norm check by a wide margin
_CLEAR_SQ = (1.0 + 0.5 * GRAD_TOL) ** 2


def check_hints(h, dim: int, batch: Optional[int] = None, row="trial", name="hint") -> np.ndarray:
    """``as_vector(h, dim, name, batch)`` then ``check_unit_norm(h, "hint", row=row)``."""
    v = as_vector(h, dim, name, batch)
    check_unit_norm(v, "hint", row=row)
    return v


def check_stream(G, dim: int, batch: Optional[int] = None, first_round: int = 0,
                 name: str = "gradient", row: str = "trial") -> np.ndarray:
    """Validate a whole (T, dim) stream, or a (T, batch, dim) block, before round 0.

    Applies to every round the checks ``Learner.observe`` applies to one:
    shape, finite entries and norm <= 1 + GRAD_TOL (every trial's row in a
    block). One vectorized pass over the squared row norms
    clears the rows that pass with a margin; any other row is checked again
    on its own with ``as_vector``/``check_unit_norm``, which decide. The
    error message is theirs, prefixed with the first bad round, counted from
    ``first_round`` (row 0 of G). ``name`` is what a row of G is and ``row``
    what its rows are in a block. Returns the stream as a C-contiguous float64 array (a copy
    only of a non-contiguous one), so a replay's bits do not depend on its layout: a strided
    row's dot may add in another order than a contiguous one's.
    """
    G = np.ascontiguousarray(G, dtype=np.float64)
    shape = (dim,) if batch is None else (batch, dim)
    if G.shape[1:] != shape:
        raise DimensionMismatch(
            f"round {first_round}: {name} has shape {G.shape[1:]}, expected {shape}")
    # a non-finite entry makes its row's squared norm non-finite
    clear = row_dot(G, G) <= _CLEAR_SQ
    if batch is not None:
        clear = clear.all(axis=1)
    for t in np.flatnonzero(~clear):
        try:
            check_unit_norm(as_vector(G[t], dim, name, batch), name, row=row)
        except ValueError as exc:
            raise type(exc)(f"round {first_round + t}: {exc}") from None
    return G


def prefix_sums(X: np.ndarray, s=0.0, c=0.0) -> tuple:
    """TwoSum over the terms X, (n,) or (n, B) rows, from a sum s and compensation c: the arrays
    (S, E) of the sums and compensations after the first k terms, k = 0..n, so S[k] + E[k] is
    the total of k terms. Its two add.accumulate passes run TwoSum's operations in its order,
    so each entry is bitwise the terms added one at a time."""
    S = np.concatenate(([s], X))
    np.add.accumulate(S, axis=0, out=S)  # S[k]: the sum of the first k terms
    s, t = S[:-1], S[1:]
    bp = t - s
    E = np.concatenate(([c], (s - (t - bp)) + (X - bp)))
    np.add.accumulate(E, axis=0, out=E)
    return S, E


class Accumulator:
    """B compensated running sums, one per trial, in (B,) arrays (TwoSum, see prefix_sums).

    It keeps the (B,) rows it is given until FOLD_ROWS are pending or ``total`` is read;
    ``extend`` adds a sequence of rows in one fold.
    """

    __slots__ = ("_s", "_c", "_rows")
    FOLD_ROWS = 64

    def __init__(self, batch: int):
        self._s = np.zeros(batch)
        self._c = np.zeros(batch)
        self._rows = []  # the pending rows

    def add(self, x) -> None:
        self._rows.append(x)
        if len(self._rows) == self.FOLD_ROWS:
            self._fold()

    def _fold(self, xs=()) -> tuple:
        """Add the pending rows, then the rows of xs, in order; return the folded (s, c)."""
        if self._rows:
            xs, self._rows = self._rows + list(xs), []
        if len(xs):
            S, E = prefix_sums(np.array(xs, dtype=np.float64), self._s, self._c)
            self._s, self._c = S[-1].copy(), E[-1].copy()
        return self._s, self._c
    extend = _fold

    @property
    def total(self):
        s, c = self._fold()
        return s + c


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
            self._losses = row_dot(self.gradients, self.iterates)
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
            # single pass: fsum over per-round <g_t, w_t - u>, as Python floats
            return math.fsum((losses - self.gradients @ u).tolist())
        return np.array([math.fsum((losses[:, i] - self.gradients[:, i] @ u[i]).tolist())
                         for i in range(batch)])


class Learner:
    """Base online learner: alternating predict() / observe(g).

    predict() is pure and may be called repeatedly; observe() must be
    preceded by at least one predict() for the round. round_index counts
    completed observes. Subclasses implement _prediction() and _update().

    A gradient is validated once, at the boundary. The public observe()
    runs as_vector and the unit-norm check, then hands the validated array
    to _step(), which checks the predict/observe turn, runs _update() and
    advances the round. The one stream driver, drive() (behind replay,
    replay_hinted, replay_multi_hint and the harness), checks the whole
    stream once with check_stream before round 0 and then calls _step()
    directly. Composite learners pass the array they were given straight to
    their children's _step(), so a nested gradient is not checked again; a
    child's own observe() still validates. drive() hands each segment to
    _plan(), the one per-segment hook: a tree able to settle it runs it at
    once, and any other tree's rounds read the plan of each chunk.

    Learners that support it take ``batch`` = B to run B independent trials
    in lockstep: every vector then carries a leading trial axis, (B, d), and
    every per-trial scalar is a (B,) array.
    """

    def __init__(self, dim: int, epsilon: Optional[float] = None,
                 batch: Optional[int] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.epsilon = epsilon
        self.batch = check_batch(batch)
        self.round_index = 0
        self._awaiting_predict = True

    def predict(self) -> np.ndarray:
        w = self._prediction()
        self._awaiting_predict = False
        return w

    def observe(self, g) -> None:
        self._check_turn()
        g = as_vector(g, self.dim, "gradient", self.batch)
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

    def _prediction(self) -> np.ndarray:
        raise NotImplementedError

    def _update(self, g: np.ndarray) -> None:
        raise NotImplementedError

    _planned = None  # the segment plan a class's _plan keeps, if any

    def _plan(self, G: Optional[np.ndarray], H, settle: bool = False) -> Optional[np.ndarray]:
        """Plan what the rounds of rows G (hints H or None) fix alone, as whole arrays that each
        _step reads a row of, with every call and bit kept; G = None drops it. drive plans chunks
        of at most HINT_SEGMENT rows. With ``settle``, on a whole segment, a tree able to run the
        rows at once returns their plays in a fresh array, every component stepped past them
        bitwise as the rounds would; any other tree returns None, changing nothing but dropping
        its plans. A class that plans matches its exact type: subclasses keep the round."""


class HintedLearner(Learner):
    """Learner whose prediction consumes a hint vector for the round.

    The hint arrives strictly before the prediction is fixed; observe()
    consumes the most recent hint and clears it, so every round needs a
    fresh predict(h).
    """

    def predict(self, h) -> np.ndarray:  # noqa: D102 - contract in class docstring
        w = self._hinted_prediction(check_hints(h, self.dim, self.batch).copy())
        self._awaiting_predict = False
        return w

    def _hinted_prediction(self, h: np.ndarray) -> np.ndarray:
        """The play for a checked hint, kept uncopied until observe (predict() passes a copy)."""
        raise NotImplementedError


class ZeroLearner(Learner):
    """Always plays the origin. Useful as an identity element in sums."""

    def __init__(self, dim: int):
        super().__init__(dim, epsilon=0.0)

    def _prediction(self):
        return np.zeros(self.dim)

    def _update(self, g):
        pass


def _check_iterate(w, shape) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != shape:
        raise ValueError(f"iterate has shape {w.shape}, expected {shape}")
    if not np.isfinite(w).all():
        raise ValueError("iterate contains non-finite entries")
    return w


#: rounds of a (T, B, d) block whose hints are drawn and checked together; rows of a plan's chunk
HINT_SEGMENT = 64


def _draw_hints(hints, G, learner: Learner, first_round: int) -> np.ndarray:
    """The checked hints for the rows of G: (n, ...) for one source, (n, k, d) for a list of k.

    Each source gives its hint for a row and is then fed the row, as in a
    round-by-round replay, so a hint depends only on the rows before its own.
    A source whose own class defines _draw (see HintSource) writes them at once, except in a
    (T, B, d) block, a list naming it twice, or where its dim is not the learner's.
    """
    multi = isinstance(hints, list)
    sources = hints if multi else [hints]
    H = np.empty((len(G), len(sources)) + G.shape[1:])
    loop = list(enumerate(sources))
    if len(G) and G.ndim == 2 and len(set(map(id, sources))) == len(sources):
        loop = [(i, src) for i, src in loop if not ("_draw" in vars(type(src))
                and src.dim == learner.dim and src._draw(G, H[:, i]))]
    for t, g in enumerate(G if loop else ()):
        try:
            for i, src in loop:
                h = src.next_hint()
                if type(h) is not np.ndarray or h.shape != g.shape:
                    h = as_vector(h, learner.dim, "hint", learner.batch)
                H[t, i] = h
            for _, src in loop:
                src._feed(g)
        except (ContractViolation, ValueError, IndexError) as exc:  # IndexError: exhausted rows
            raise ReplayError(f"round {first_round + t}: {exc}") from exc
    rows = getattr(learner, "k", learner.batch)  # the learner's hint slots, or its trials
    try:
        return check_stream(H if multi else H[:, 0], learner.dim, rows, first_round,
                            "hint", "slot" if multi else "trial")
    except ValueError as exc:
        raise ReplayError(str(exc)) from exc


def drive(learner: Learner, G, hints=None, keep_iterates: bool = True):
    """Replay ``learner`` over a gradient stream, one segment of rounds at a time.

    ``G`` is a (T, d) stream, or a (T, B, d) block for a learner built with
    batch = B, one trial per column. ``hints`` is None for a plain learner,
    one HintSource, or a list of k sources whose hints form a (k, d) array.
    The stream is checked once with check_stream before the first round.
    A segment is the whole stream, or HINT_SEGMENT rounds of a block. Before
    each, _draw_hints runs the sources over its gradients and checks their
    hints. The segment then goes to the root's _plan(G, H, settle=True):
    a tree that settles it returns its plays, checked as a round checks its
    play; any other tree changes nothing, and drive plans each chunk of
    HINT_SEGMENT rows with _plan before its rounds: each plays its hints,
    uncopied, into the trusted _hinted_prediction() (or calls predict()) and
    steps it with _step(), reading the plan, which is dropped in a finally.

    Returns (losses, iterates, hints played). The losses are
    row_dot(g_t, w_t), (T,) or (T, B) for a block. The iterates are (T, d)
    when kept; the hints are (T, d), or (T, k, d) for a list, when there are
    sources. A block keeps neither, so it costs little more memory than its
    gradients. Every failure (a bad gradient, hint or iterate, or a broken
    predict/step turn) is a ReplayError naming the absolute round,
    ``learner.round_index + t``; a bad hint fails before its segment runs.
    After a ReplayError the learner is as the rounds leave it, but the hint
    sources may be up to a segment ahead: they were fed every row of the
    failing segment before its first round ran.
    """
    t0 = learner.round_index
    try:
        G = check_stream(G, learner.dim, learner.batch, t0)
    except ValueError as exc:
        raise ReplayError(str(exc)) from exc
    T, shape, block = len(G), G.shape[1:], G.ndim == 3
    seg = HINT_SEGMENT if block else max(T, 1)  # an empty stream still returns its (0, ...) hints
    # a fresh array: no hint row is written once played
    H = None if hints is None else _draw_hints(hints, G[:seg], learner, t0)
    losses = np.empty(G.shape[:-1])
    W = np.empty_like(G) if keep_iterates and not block else None
    predict, step = learner.predict if hints is None else learner._hinted_prediction, learner._step
    # a non-finite entry makes the sum of squares non-finite; an overflow only runs the full check
    finite = (lambda x: math.isfinite(x.dot(x))) if block else math.isfinite
    try:
        for start in range(0, T, seg):
            stop = min(T, start + seg)
            if start and hints is not None:  # the first segment's hints are drawn above
                H = _draw_hints(hints, G[start:stop], learner, t0 + start)
            played = learner._plan(G[start:stop], H, True)
            if played is not None:
                g = G[start:stop]
                # a round's 1-D dot of length 1 is the product, -0.0 included (see row_dot)
                losses[start:stop] = row_dot(g, played) if shape[0] > 1 else g[:, 0] * played[:, 0]
                for t in start + np.flatnonzero(~np.isfinite(losses[start:stop])):
                    if not np.isfinite(played[t - start]).all():
                        raise ReplayError(f"round {t0 + t}: iterate contains non-finite entries")
                if W is not None:
                    W[start:stop] = played
                continue
            for c in range(start, stop, HINT_SEGMENT):
                end = min(stop, c + HINT_SEGMENT)
                learner._plan(G[c:end], None if H is None else H[c - start:end - start])
                for t in range(c, end):
                    g = G[t]
                    try:
                        w = predict() if H is None else predict(H[t - start])
                        learner._awaiting_predict = False  # a hinted play leaves the turn to drive
                        if type(w) is not np.ndarray or w.shape != shape:
                            w = _check_iterate(w, shape)
                        loss = row_dot(g, w)
                        if not finite(loss):  # a non-finite entry of w makes the loss non-finite
                            _check_iterate(w, shape)
                        step(g)
                    except (ContractViolation, ValueError) as exc:
                        raise ReplayError(f"round {t0 + t}: {exc}") from exc
                    losses[t] = loss
                    if W is not None:
                        W[t] = w
    finally:
        learner._plan(None, None)
    return losses, W, None if block else H


def replay(learner: Learner, gradients) -> RegretLedger:
    """Drive a plain learner over a gradient stream and record the play (see drive)."""
    losses, W, _ = drive(learner, gradients)
    return RegretLedger(W, gradients, losses=losses)


def replay_hinted(learner: HintedLearner, gradients, source) -> RegretLedger:
    """Drive a hinted learner; hints come from ``source`` before each play.

    A (T, B, d) block drives a learner and source built with batch = B; its
    ledger keeps each round's (B,) losses but no iterates or hints.
    """
    losses, W, H = drive(learner, gradients, source)
    return RegretLedger(W, gradients, hints=H, losses=losses)


def replay_multi_hint(learner, gradients, sources) -> RegretLedger:
    """Drive a multi-hint learner with one hint source per slot."""
    losses, W, H = drive(learner, gradients, list(sources))
    return RegretLedger(W, gradients, hints=H, losses=losses)
