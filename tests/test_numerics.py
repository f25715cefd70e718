"""Tests for RNG streams, the normal CDF, small vector helpers and the job
runner."""

import math
import operator
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossfeat.numerics
from crossfeat.numerics import (RngStream, _row_reduce, _run_jobs, as_array, std_normal_cdf,
                                unit_rows)

# Reference values computed with mpmath.ncdf at 20 significant digits.
PHI_TABLE = {
    -8.0: 6.2209605742717841235e-16,
    -1.0: 0.15865525393145704647,
    0.0: 0.5,
    0.5: 0.69146246127401310364,
    1.0: 0.84134474606854294859,
    math.sqrt(2.0): 0.92135039647485744886,
    2.0: 0.9772498680518207928,
    3.5: 0.99976737092096447496,
}


class TestRngStream:
    def test_same_seed_same_stream_bit_identical(self):
        a = RngStream(seed=7, stream_id=3).generator.normal(size=64)
        b = RngStream(seed=7, stream_id=3).generator.normal(size=64)
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = RngStream(seed=7, stream_id=0).generator.normal(size=64)
        b = RngStream(seed=7, stream_id=1).generator.normal(size=64)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = RngStream(5).split(2).generator.integers(0, 1 << 30, size=16)
        b = RngStream(5).split(2).generator.integers(0, 1 << 30, size=16)
        assert np.array_equal(a, b)

    def test_split_children_are_pairwise_distinct(self):
        parent = RngStream(11)
        draws = [parent.split(i).generator.normal(size=8) for i in range(20)]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_split_does_not_consume_parent_state(self):
        parent = RngStream(3)
        before = parent.split(9).generator.normal(size=4)
        parent.split(1)  # unrelated split in between
        after = parent.split(9).generator.normal(size=4)
        assert np.array_equal(before, after)

    def test_nested_splits_are_independent_of_sibling_order(self):
        a = RngStream(13).split(4).split(2).generator.normal(size=8)
        b = RngStream(13).split(4).split(2).generator.normal(size=8)
        assert np.array_equal(a, b)


class TestStdNormalCdf:
    def test_frozen_reference_values(self):
        for x, expected in PHI_TABLE.items():
            assert std_normal_cdf(x) == pytest.approx(expected, abs=5e-16)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_range_and_monotonicity(self, x):
        p = std_normal_cdf(x)
        assert 0.0 <= p <= 1.0
        assert std_normal_cdf(x + 0.5) >= p


class TestAsArray:
    def test_converts_lists_to_float64(self):
        arr = as_array([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.shape == (2, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or inf"):
            as_array([1.0, float("nan")])
        with pytest.raises(ValueError, match="NaN or inf"):
            as_array([1.0, float("inf")])


def cosines(a, b) -> np.ndarray:
    """The library's pairwise cosine matrix of the rows of ``a`` and ``b``."""
    return unit_rows(np.atleast_2d(a)) @ unit_rows(np.atleast_2d(b)).T


class TestCosineSimilarity:
    def test_parallel_and_orthogonal(self):
        got = cosines([[1.0, 0.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 5.0], [-1.0, -1.0]])
        assert got[0, 0] == pytest.approx(1.0)
        assert got[0, 1] == pytest.approx(0.0)
        assert got[1, 2] == pytest.approx(-1.0)

    def test_known_value(self):
        # cos between (1,0) and (1,1) = 1/sqrt(2).
        assert cosines([1.0, 0.0], [1.0, 1.0])[0, 0] == pytest.approx(
            0.7071067811865476, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosines([0.0, 0.0], [1.0, 2.0])[0, 0] == 0.0
        assert cosines([0.0, 0.0], [0.0, 0.0])[0, 0] == 0.0

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
           st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    # The squared norm of v underflows; unscaled, the cosine was 1.0000000037.
    @example([1.0, 1.0, 0.0], [7.8e-159, 7.8e-159, 0.0])
    def test_bounded(self, u, v):
        assert -1.0 - 1e-12 <= cosines(u, v)[0, 0] <= 1.0 + 1e-12

    def test_scale_invariance(self):
        u, v = np.array([0.3, -1.2, 2.0]), np.array([1.0, 0.4, -0.7])
        base = cosines(u, v)[0, 0]
        assert cosines(3.5 * u, v)[0, 0] == pytest.approx(base, abs=1e-12)
        assert cosines(u, 0.02 * v)[0, 0] == pytest.approx(base, abs=1e-12)


class TestUnitRows:
    def test_normalizes_nonzero_rows(self):
        # The last row's squared norm underflows, the one before overflows.
        rows = unit_rows(np.array([[3.0, 4.0], [0.0, 2.0], [1e200, 1e200],
                                   [7.8e-159, 7.8e-159]]))
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        rows = unit_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(rows[0], [0.0, 0.0])


class TestRowReductions:
    """_row_reduce gives numpy's axis-1 max and sum bit for bit."""

    @staticmethod
    def blocks(columns, rows):
        gen = RngStream(columns * 1000 + rows, stream_id=95).generator
        normal = gen.normal(size=(rows, columns))
        yield normal
        yield normal * 10.0 ** gen.integers(-8, 8, size=(rows, columns))
        logits = gen.uniform(-700.0, 700.0, size=(rows, columns))
        yield logits
        yield np.exp(logits - logits.max(axis=1, keepdims=True))
        yield gen.choice([0.0, -0.0, 1.0, -1.0, 700.0, -700.0], size=(rows, columns))
        yield np.full((rows, columns), -0.0)

    @pytest.mark.parametrize("rows", [1, 37, 256])
    @pytest.mark.parametrize("columns", range(2, 13))
    def test_same_bits_as_axis_reductions(self, columns, rows):
        for block in self.blocks(columns, rows):
            assert _row_reduce(np.maximum, block).tobytes() == block.max(axis=1).tobytes()
            assert _row_reduce(np.add, block).tobytes() == block.sum(axis=1).tobytes()


class TestRunJobs:
    """Each job's result or exception, in job order, from forked workers that
    find the jobs in their memory, or from this process with one CPU."""

    @staticmethod
    def run(monkeypatch, cpus, *args):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            return _run_jobs(*args)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_results_and_errors_in_job_order(self, monkeypatch, cpus):
        got = self.run(monkeypatch, cpus, divmod, [(7, 2), (1, 0), (9, 4)])
        assert got[0] == (3, 1) and got[2] == (2, 1)
        assert type(got[1]) is ZeroDivisionError

    def test_jobs_reach_the_workers_without_pickling(self, monkeypatch):
        # A lambda does not pickle; the forked workers find it in memory.
        jobs = [(lambda k=k: k * k,) for k in range(4)]
        assert self.run(monkeypatch, 2, operator.call, jobs) == [0, 1, 4, 9]

    def test_a_job_in_a_worker_runs_its_own_jobs_inline(self, monkeypatch):
        # The worker's siblings fill the other CPUs, so it forks no pool.
        def nested():
            return os.getpid(), _run_jobs(os.getpid, [(), ()])

        results = self.run(monkeypatch, 2, operator.call, [(nested,), (nested,)])
        for pid, inner in results:
            assert pid != os.getpid()
            assert inner == [pid, pid]
        assert not crossfeat.numerics._in_worker

    def test_a_killed_worker_fails_its_job_and_every_later_one(self, monkeypatch):
        def killed():
            time.sleep(0.2)  # the first job has come back by then
            os.kill(os.getpid(), signal.SIGKILL)

        jobs = [(lambda: "done",), (killed,), (time.sleep, 60), (time.sleep, 60)]
        started = time.monotonic()
        results = self.run(monkeypatch, 2, operator.call, jobs)
        assert time.monotonic() - started < 30  # the sleeping worker was killed
        assert results[0] == "done"
        for failed in results[1:]:
            assert type(failed) is RuntimeError
            assert str(failed) == ("a forked worker ended with exit code -9 "
                                   "before returning its job")
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_an_outcome_that_does_not_pickle_names_itself(self, monkeypatch):
        class Local(Exception):  # pickle cannot find it by name
            pass

        def local():
            raise Local("kept message")

        def needs_two():
            raise NeedsTwo("a", "b")

        jobs = [(local,), (needs_two,), (lambda: lambda: 0,)]
        got = self.run(monkeypatch, 2, operator.call, jobs)
        assert [type(exc) for exc in got] == [pickle.PicklingError] * 3
        assert str(got[0]).startswith(
            "the job's exception Local('kept message') does not pickle: ")
        assert str(got[1]).startswith(
            "the job's exception NeedsTwo('a and b') does not pickle: ")
        assert str(got[2]).startswith("the job's result <function ")
        assert "<lambda>" in str(got[2]) and " does not pickle: " in str(got[2])

    def test_text_buffered_at_the_fork_is_printed_once(self):
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from crossfeat.numerics import _run_jobs\n"
                "print('out', end=' ')\n"
                "print('err', end=' ', file=sys.stderr)\n"
                "print(_run_jobs(abs, [(-1,), (-2,)]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(crossfeat.__file__)))
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}  # which would flush every print at once
        out = subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60, check=True)
        assert (out.stdout, out.stderr) == ("out [1, 2]\n", "err ")

    def test_workers_are_forked_when_the_pool_opens(self):
        held = ["at the fork"]
        with crossfeat.numerics._fork_pool(2, held) as pool:
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # children, none ended
            held.append("after the fork")
            assert pool.submit(held_by_the_worker).result() == ["at the fork"]
        assert not crossfeat.numerics._in_worker

    def test_a_pool_without_workers_runs_each_job_here_at_submit(self):
        calls, error = [], ZeroDivisionError("kept")

        def doubled(held, value):
            calls.append((os.getpid(), held))
            return 2 * value

        def raising(held):
            raise error

        with crossfeat.numerics._fork_pool(0, "held") as pool:
            done = pool.submit(doubled, 21)
            assert done.outcome == (True, 42)
            assert calls == [(os.getpid(), "held")]
            failed = pool.submit(raising)
            assert failed.outcome == (False, error)
            assert failed.exception() is error
            with pytest.raises(ZeroDivisionError):
                failed.result()
            assert (done.exception(), done.result()) == (None, 42)
            with pytest.raises(ChildProcessError):  # no child process exists
                os.waitpid(-1, os.WNOHANG)


class NeedsTwo(Exception):
    """Pickles, but cannot be rebuilt from its one stored argument."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


def held_by_the_worker(held):
    return held
