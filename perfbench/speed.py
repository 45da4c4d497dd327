"""Machine-speed probe: a fixed reference kernel timed alongside the workload's jobs.

On a shared host the same code runs up to twice as fast in one minute as in
the next, and the process's CPU time slows with its wall time, so the
slowdown is the CPU's own speed, not time spent descheduled. The probe
times a fixed chunk of reference work (NumPy at d=8 and d=1024 with Python
scalar arithmetic, the mix the library runs, but none of its code) at the
same moments as the jobs. A job's time is then corrected to a machine on
which one chunk takes ``NOMINAL_CHUNK_S``:

    corrected = job seconds * NOMINAL_CHUNK_S / measured seconds per chunk

No change to regretforge can change the chunk, so a faster library still
shows as a faster corrected time, while the machine's phases cancel out.

Two modes:

- ``during``: a one-shot ``SIGALRM`` timer runs ``CHUNKS_PER_TICK`` chunks
  every ``TICK_S`` of job time, inside the job, and re-arms itself. The time
  the chunks take is subtracted from the job. Used when the job runs in
  this process.
- ``after``: chunks worth ``AFTER_SHARE`` of the job's time run right after
  it. Used when the job's work runs in child processes (the sweep pool),
  which a chunk in this process would compete with.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: seconds one reference chunk is corrected to; near its time on a 2-CPU Xeon VM
NOMINAL_CHUNK_S = 1.0e-3
TICK_S = 0.015
CHUNKS_PER_TICK = 2
AFTER_SHARE = 0.3

_SMALL = np.linspace(0.1, 0.9, 8)
_BIG = np.linspace(-1.0, 1.0, 1024)


def reference_chunk() -> float:
    """A fixed amount of work: 200 small-vector steps and 20 d=1024 p-norm steps."""
    x, v, s = _SMALL.copy(), _BIG.copy(), 0.0
    for k in range(200):
        y = x * 0.999 + 0.001
        n = float(np.dot(y, y)) ** 0.5
        s += n / (1.0 + abs(s))
        x = y / max(1.0, n)
        if k % 10 == 0:
            a = np.abs(v)
            s += float(np.sum(a ** 2.7)) ** (1 / 2.7)
            v = np.sign(v) * a ** 0.9
    return s


class Probe:
    """Counts reference chunks run and the seconds they took."""

    def __init__(self, mode: str):
        if mode not in ("during", "after"):
            raise ValueError(f"unknown probe mode {mode!r}")
        self.mode = mode
        self.seconds = 0.0
        self.chunks = 0
        self.last_chunk_s = None
        self._previous = None

    def _run(self, count: int) -> None:
        start = time.perf_counter()
        for _ in range(count):
            reference_chunk()
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.chunks += count
        self.last_chunk_s = elapsed / count

    def _tick(self, signum, frame) -> None:
        self._run(CHUNKS_PER_TICK)
        # one-shot and re-armed after the chunks, so ticks never nest
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def __enter__(self) -> "Probe":
        self._run(CHUNKS_PER_TICK)
        if self.mode == "during":
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.mode == "during":
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def measure_after(self, work_s: float) -> float:
        """Run chunks worth ``AFTER_SHARE`` of ``work_s`` now; returns seconds per chunk."""
        self._run(max(1, math.ceil(AFTER_SHARE * work_s / NOMINAL_CHUNK_S)))
        return self.last_chunk_s

    def time_job(self, run) -> tuple:
        """(result, job seconds without the probe's chunks, seconds per chunk) of ``run()``.

        The chunk time is measured during the job (``during``) or right
        after it (``after``); a job too short for a tick takes the latest one.
        """
        seconds, chunks = self.seconds, self.chunks
        start = time.perf_counter()
        result = run()
        job_s = time.perf_counter() - start - (self.seconds - seconds)
        if self.mode == "after":
            self.measure_after(job_s)
        if self.chunks > chunks:
            return result, job_s, (self.seconds - seconds) / (self.chunks - chunks)
        return result, job_s, self.last_chunk_s
