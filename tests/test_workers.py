"""The two workers: pair's order and errors, the fixed row split, and the
split's edges (1-row and odd-row batches) at every place that uses it."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import random_model, random_spins
from spinrbm import workers
from spinrbm.data import compute_stats
from spinrbm.metrics import energy_coefficient, reconstruct
from spinrbm.model import add_model_phase, data_phase
from spinrbm.sampling import make_rng, sample_hidden, sample_visible


class TestPair:
    def test_worker_thread_and_caller(self):
        caller = threading.current_thread()
        theirs, mine = workers.pair(threading.current_thread,
                                    threading.current_thread)
        assert mine is caller and theirs is not caller

    def test_caller_error_raised_after_the_worker_finished(self):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(1)

        def failing():
            raise KeyError("caller")

        with pytest.raises(KeyError, match="caller"):
            workers.pair(slow, failing)
        assert done == [1]

    def test_worker_error_raised_after_the_caller_finished(self):
        done = []

        def failing():
            raise KeyError("worker")

        def slow():
            time.sleep(0.05)
            done.append(1)

        with pytest.raises(KeyError, match="worker"):
            workers.pair(failing, slow)
        assert done == [1]

    def test_worker_error_first(self):
        def raising(what):
            def fn():
                raise KeyError(what)
            return fn

        with pytest.raises(KeyError, match="worker") as exc:
            workers.pair(raising("worker"), raising("caller"))
        assert "caller" in str(exc.value.__context__)

    def test_nested_pair_runs_in_turn(self):
        # the worker thread is taken: an inner pair runs on its own thread
        def inner():
            here = threading.current_thread()
            assert workers.pair(threading.current_thread,
                                threading.current_thread) == (here, here)
            return "inner"

        assert workers.pair(inner, inner) == ("inner", "inner")

    def test_pair_after_an_error_still_works(self):
        with pytest.raises(ZeroDivisionError):
            workers.pair(lambda: 1 / 0, lambda: None)
        assert workers.pair(lambda: 1, lambda: 2) == (1, 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
    def test_forked_child_gets_a_worker(self):
        workers.pair(lambda: None, lambda: None)  # the worker thread exists
        with warnings.catch_warnings():
            # Python 3.12 warns about fork in a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: without a fresh worker, pair never returns
            code = 0 if workers.pair(lambda: 1, lambda: 2) == (1, 2) else 1
            os._exit(code)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("pair in the forked child did not return")
        assert os.waitstatus_to_exitcode(status) == 0

    def test_threads_sharing_the_worker(self):
        # more callers than cores, switching often: every call gets its
        # own two results, whether it took the worker or ran in turn
        errors = []

        def caller(k):
            try:
                for i in range(200):
                    assert workers.pair(lambda: (k, i), lambda: (i, k)) == (
                        (k, i), (i, k))
                    assert workers.split_rows(lambda lo, hi: (k, lo, hi),
                                              2 * i + 3) == [
                        (k, 0, i + 1), (k, i + 1, 2 * i + 3)]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestSplitRows:
    @pytest.mark.parametrize("n, ranges", [
        (0, [(0, 0)]), (1, [(0, 1)]), (2, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 3)]), (8, [(0, 4), (4, 8)])])
    def test_fixed_halves(self, n, ranges):
        assert workers.split_rows(lambda lo, hi: (lo, hi), n) == ranges

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_matmul(self, rows, rng):
        # small integers: every product and sum is exact
        a = rng.integers(-3, 4, (rows, 5)).astype(np.float32)
        b = rng.integers(-3, 4, (5, 6)).astype(np.float32)
        out = workers.matmul(a, np.asfortranarray(b))  # as W32.T is
        assert out.dtype == np.float32 and np.array_equal(out, a @ b)

    def test_matmul_overflow_left_to_the_caller(self):
        # no warning on either thread (warnings fail the suite)
        a = np.full((3, 2), 3e38, np.float32)
        assert np.isinf(workers.matmul(a, np.ones((2, 2), np.float32))).all()


@pytest.mark.parametrize("rows", [1, 2, 5])
class TestRowSplitEdges:
    def test_energy_coefficient(self, rows, rng):
        x = random_spins(rng, (rows, 9))
        y = random_spins(rng, (rows + 2, 9))

        def mean_dist(a, b):
            return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).mean()

        a, b = x.astype(float), y.astype(float)
        d_xy = mean_dist(a, b)
        expected = (2 * d_xy - mean_dist(a, a) - mean_dist(b, b)) / (2 * d_xy)
        assert energy_coefficient(x, y) == pytest.approx(expected, abs=1e-12)
        assert energy_coefficient(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_data_and_model_phase(self, rows, rng):
        m = random_model(rng, 6, 3, centered=False)
        data = random_spins(rng, (3, 6))
        neg = random_spins(rng, (rows, 6))

        def phase(v):
            vc = v - m.mu
            return v.mean(axis=0), vc.T @ np.tanh(vc @ m.W) / v.shape[0]

        (b_d, W_d), (b_m, W_m) = phase(data), phase(neg)
        g = add_model_phase(m, data_phase(m, data), neg)
        assert np.abs(g.d_b - (b_m - b_d)).max() < 1e-12
        assert np.abs(g.d_W - (W_m - W_d)).max() < 1e-12

    def test_gibbs_fields(self, rows, rng):
        # strong couplings: where a field exceeds 10 in size its spin is
        # drawn with probability 1 - 2e-9, so each half's rows must land in
        # their own place
        m = random_model(rng, 6, 4, scale=20.0)
        v = random_spins(rng, (rows, 6))
        h = sample_hidden(m, v, make_rng(0))
        phi = (v - m.mu) @ m.W
        assert h.shape == (rows, 4) and (np.abs(phi) > 10).any()
        assert np.array_equal(h[np.abs(phi) > 10],
                              np.sign(phi[np.abs(phi) > 10]))
        v2 = sample_visible(m, h, make_rng(1))
        field = m.b + h @ m.W.T
        assert v2.shape == (rows, 6) and (np.abs(field) > 10).any()
        assert np.array_equal(v2[np.abs(field) > 10],
                              np.sign(field[np.abs(field) > 10]))
        readback = reconstruct(m, v, make_rng(2))
        expected = np.tanh(sample_hidden(m, v, make_rng(2)) @ m.W.T + m.b)
        assert np.abs(readback - expected).max() < 1e-12

    def test_compute_stats(self, rows, rng):
        spins = random_spins(rng, (rows + 1, 7))
        s = spins.astype(np.int64)
        mu = s.sum(axis=0) / len(s)
        ref = s.T @ s / len(s) - np.outer(mu, mu)
        assert compute_stats(spins).sigma.tobytes() == ref.tobytes()
