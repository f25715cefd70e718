"""Shared numeric conventions: float64 arrays, splittable RNG streams, and
the handful of scalar routines every other module leans on.

Conventions
-----------
* All numeric arrays are dense ``numpy.float64``.  Helpers here and in the
  rest of the package reject NaN/inf inputs at module boundaries instead of
  letting them propagate silently.
* Randomness flows through :class:`RngStream`, a counter-based generator
  (Philox) addressed by ``(seed, stream_id)``.  Reconstructing a stream from
  the same pair replays the same sequence on any platform; ``split`` derives
  independent child streams so concurrent consumers never share state.
* A cosine is ``unit_rows(A) @ unit_rows(B).T``: a zero row's cosine with
  anything is ``0.0``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RngStream",
    "as_array",
    "std_normal_cdf",
    "unit_rows",
]

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    # SplitMix64 finalizer: bijective 64-bit mix, used only to derive child
    # stream ids that are well separated for nearby inputs.
    value = (value + _GOLDEN64) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


@dataclass
class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by ``(seed, stream_id)``; the underlying bit
    generator is counter-based (Philox), so equal identities yield equal
    sequences run-to-run and platform-to-platform.  Each stream is a single
    consumer: draws advance an internal counter.  Use :meth:`split` to hand
    independent streams to sub-tasks instead of sharing one.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) <= _MASK64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= int(self.stream_id) <= _MASK64):
            raise ValueError(f"stream_id must be a 64-bit unsigned integer, "
                             f"got {self.stream_id}")

    @property
    def generator(self) -> np.random.Generator:
        """The live numpy generator backing this stream (created lazily)."""
        if self._gen is None:
            seq = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream_id),))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def split(self, index: int) -> "RngStream":
        """Derive the ``index``-th child stream.

        Pure function of ``(seed, stream_id, index)``: the same call on an
        equal parent returns an identically-seeded stream, independent of how
        much either stream has already been consumed.
        """
        if index < 0:
            raise ValueError(f"split index must be non-negative, got {index}")
        child_id = _splitmix64((int(self.stream_id) + (index + 1) * _GOLDEN64) & _MASK64)
        return RngStream(self.seed, child_id)


def as_array(values, *, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or inf")
    return arr


def _is_int(value, minimum: int) -> bool:
    """Whether ``value`` is an int of at least ``minimum``; a bool or a float is not."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum)


def _is_number(value) -> bool:
    """Whether ``value`` is a finite int or float; a bool, a string, NaN or inf is not."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def _require_number(name: str, value) -> None:
    """Reject what :func:`_is_number` rejects, naming the field: a string
    would fail a comparison in Python's words and a bool would pass for 0 or 1."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _fork_pool(workers: int, held):
    """A :class:`_Pool` of ``workers`` processes, forked now, that find ``held``
    in ``_held``; leaving its ``with`` block ends and reaps them."""
    return contextlib.closing(_Pool(workers, held))


_held = None  # what _fork_pool handed this worker; None outside its workers


class _Pool:
    """Forked workers that each run the pickled calls on their own task pipe
    and write each ``(ok, value)`` to their own result pipe.  A call goes to
    the first idle worker.  A worker that dies fails its job and every
    unfinished one, and the others are killed."""

    def __init__(self, workers: int, held):
        self.workers, self.queue, self.failure = {}, [], None  # result file: [pid, task fd, job]
        sys.stdout.flush()  # else each worker would print the buffered text again
        sys.stderr.flush()
        try:
            for _ in range(workers):
                tasks, results = os.pipe(), os.pipe()
                if (pid := os.fork()) == 0:  # a write end left open would hide an EOF
                    _serve(held, tasks[0], results[1], [tasks[1], results[0], *(
                        fd for file, w in self.workers.items() for fd in (file.fileno(), w[1]))])
                os.close(tasks[0])
                os.close(results[1])
                self.workers[open(results[0], "rb")] = [pid, tasks[1], None]
        except BaseException:
            self.close()
            raise

    def submit(self, function, *args) -> "_Job":
        self.queue.append((job := _Job(self), pickle.dumps((function, args))))
        self.wait(None)
        return job

    def wait(self, job: "_Job | None") -> None:
        """Give queued calls to idle workers, then read outcomes until ``job`` has one."""
        while self.failure is None:
            for worker in self.workers.values():
                if worker[2] is None and self.queue:
                    worker[2], message = self.queue.pop(0)
                    try:
                        _send(worker[1], message)
                    except BrokenPipeError:  # it died while idle
                        return self._fail(worker)
            if job is None or job.outcome is not None:
                return
            file = select.select([f for f, w in self.workers.items() if w[2]], [], [])[0][0]
            worker = self.workers[file]
            try:
                worker[2].outcome, worker[2] = pickle.load(file), None
            except (EOFError, pickle.UnpicklingError):  # the pipe ended first
                self._fail(worker)

    def _fail(self, dead: list) -> None:
        for pid, _, _ in self.workers.values():
            os.kill(pid, signal.SIGKILL)  # what they return could not be delivered
        code = os.waitstatus_to_exitcode(os.waitpid(dead[0], 0)[1])
        dead[0], self.failure = None, RuntimeError(
            f"a forked worker ended with exit code {code} before returning its job")

    def close(self) -> None:
        for file, (_, tasks, _) in self.workers.items():
            os.close(tasks)  # ends the worker's loop
            file.close()  # fails a result it still writes
        for pid, _, _ in self.workers.values():
            if pid is not None:
                os.waitpid(pid, 0)


class _Job:
    """A submitted call; ``result()`` and ``exception()`` wait for it."""

    def __init__(self, pool: _Pool):
        self.pool, self.outcome = pool, None  # (ok, value) once it came back

    def exception(self) -> Exception | None:
        self.pool.wait(self)
        ok, value = self.outcome or (False, self.pool.failure)
        return None if ok else value

    def result(self):
        if (exc := self.exception()) is not None:
            raise exc
        return self.outcome[1]


def _serve(held, tasks: int, results: int, inherited: list) -> None:
    """A worker: run each ``(function, args)`` read from ``tasks`` and write its
    ``(ok, value)`` to ``results`` until the task pipe closes; then
    ``os._exit``, never returning into the caller's stack."""
    global _held
    _held, status = held, 1
    try:
        for fd in inherited:
            os.close(fd)
        reader = open(tasks, "rb")
        while reader.peek(1):  # empty once the parent closes the task pipe
            function, args = pickle.load(reader)
            try:
                outcome = True, function(*args)
            except Exception as exc:  # the job's failure is its outcome
                outcome = False, exc
            try:
                pickle.loads(message := pickle.dumps(outcome))  # as the parent will
            except Exception as exc:
                message = pickle.dumps((False, pickle.PicklingError(
                    f"the job's {'result' if outcome[0] else 'exception'} "
                    f"{outcome[1]!r:.200} does not pickle: {exc!r}")))
            _send(results, message)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _send(fd: int, message: bytes) -> None:
    view = memoryview(message)
    while view:
        view = view[os.write(fd, view):]


def _worker_count(limit: int) -> int:
    """Workers a pool started here may use: one per usable CPU, at most
    ``limit``, and 1 inside a ``_fork_pool`` worker, whose siblings fill the
    other CPUs."""
    return 1 if _held is not None else min(len(os.sched_getaffinity(0)), limit)


def _run_jobs(function, jobs) -> list:
    """``function(*job)`` or the exception it raised, for each job in order.

    The jobs run in forked workers, one per usable CPU (at most one per job),
    which find the jobs in their forked memory, so only results are pickled.
    With one worker they run here.  A dead worker fails its unfinished jobs.
    """
    jobs = list(jobs)
    workers = _worker_count(len(jobs))
    if workers <= 1:
        return [_outcome(function, job) for job in jobs]
    with _fork_pool(workers, (function, jobs)) as pool:
        handles = [pool.submit(_run_held, index) for index in range(len(jobs))]
        return [handle.exception() or handle.result() for handle in handles]


def _run_held(index: int):
    function, jobs = _held
    return function(*jobs[index])


def _outcome(function, job):
    try:
        return function(*job)
    except Exception as exc:  # the job's failure is its result
        return exc


def _row_reduce(ufunc, block: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(block, axis=1)`` for ``np.maximum`` or ``np.add``, bit for
    bit.  Below 8 columns numpy reduces each row in column order (a sum from
    +0.0), so walking the columns gives its bits without a short-axis
    reduction's per-row overhead; from 8 on it sums pairwise, and the sign of
    a zero maximum is numpy's own."""
    if block.shape[1] >= 8:
        return ufunc.reduce(block, axis=1)
    out = ufunc(-np.inf if ufunc is np.maximum else 0.0, block[:, 0])
    for column in block.T[1:]:
        ufunc(out, column, out=out)  # in place: a large block allocates once
    return out


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF for a scalar, accurate to well below 1e-10.

    Implemented as ``erfc(-x / sqrt(2)) / 2``.  Saturates cleanly to 0.0 / 1.0
    for |x| beyond roughly 40 (erfc underflow) without raising.
    """
    return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))


def unit_rows(matrix) -> np.ndarray:
    """Normalize each row to unit length; zero rows stay zero.

    For matrices ``A`` and ``B``, ``unit_rows(A) @ unit_rows(B).T`` is the
    pairwise cosine matrix, 0.0 wherever either row is zero.
    """
    mat = as_array(matrix, name="matrix")
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {mat.shape}")
    # Dividing each row by the power of two just above its largest |entry| is
    # exact and keeps its squared norm from underflowing or overflowing.
    _, exponent = np.frexp(np.abs(mat).max(axis=1, keepdims=True, initial=0.0))
    mat = np.ldexp(mat, -exponent)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return mat / safe
