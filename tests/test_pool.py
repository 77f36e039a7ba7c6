"""`pool.run_in_order`: jobs shared with the pool, used in order on the
calling thread, never too far ahead, and errors that wait for running jobs."""

import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from melsynth.nn_core import pool


@pytest.fixture(params=[1, 3])
def workers(request, block_pools, monkeypatch):
    """The calling thread alone, or it and two pool threads."""
    monkeypatch.setattr(pool, "worker_pool", lambda: block_pools[request.param])
    return request.param


@pytest.mark.parametrize("count,ahead", [(1, 3), (7, 1), (7, 2), (12, 3), (5, 5)])
def test_use_sees_every_job_in_order_on_the_calling_thread(workers, count, ahead):
    used = []

    def make(i):
        time.sleep(0.001 * (i % 3))  # jobs end out of order
        return i * i

    def use(i, value):
        used.append((i, value, threading.current_thread()))

    pool.run_in_order(make, use, count, ahead)
    assert used == [(i, i * i, threading.main_thread()) for i in range(count)]


@pytest.mark.parametrize("ahead", [2, 3])
def test_no_job_starts_ahead_of_its_slot(workers, ahead):
    lock, returned, early = threading.Lock(), [0], []

    def make(i):
        with lock:
            # job i may reuse the buffers of job i - ahead
            if i >= returned[0] + ahead:
                early.append(i)
        time.sleep(0.002)
        return i

    def use(i, value):
        time.sleep(0.003)  # the pool would run ahead if it could
        with lock:
            returned[0] = i + 1

    pool.run_in_order(make, use, 16, ahead)
    assert early == []


def test_waiting_caller_makes_a_job_no_thread_has_started(block_pools,
                                                          monkeypatch):
    monkeypatch.setattr(pool, "worker_pool", lambda: block_pools[3])
    # both pool threads wait in jobs 1 and 2 for job 3, which only the
    # calling thread can start while it waits for job 1
    started = {1: threading.Event(), 2: threading.Event()}
    third, makers = threading.Event(), {}

    def make(i):
        makers[i] = threading.current_thread()
        if i == 0:  # the pool threads hold jobs 1 and 2 before the caller waits
            assert all(event.wait(timeout=5) for event in started.values())
        if i in started:
            started[i].set()
            assert third.wait(timeout=5), "job 3 was left to the pool"
        if i == 3:
            third.set()
        return i

    pool.run_in_order(make, lambda i, value: None, 4, 4)
    assert makers[0] is makers[3] is threading.main_thread()
    assert threading.main_thread() not in (makers[1], makers[2])


@pytest.mark.parametrize("failing", ["make", "use"])
def test_error_leaves_after_every_running_job_ends(workers, failing):
    lock, running = threading.Lock(), []

    def make(i):
        with lock:
            running.append(i)
        try:
            if failing == "make" and i == 1:
                raise RuntimeError("job failed")
            time.sleep(0.05)
            return i
        finally:
            with lock:
                running.remove(i)

    def use(i, value):
        if failing == "use" and i == 1:
            raise RuntimeError("job failed")

    with pytest.raises(RuntimeError, match="job failed"):
        pool.run_in_order(make, use, 8, 3)
    assert running == []


def test_every_job_made_once_under_frequent_switches(monkeypatch):
    # four pool threads, more than there are cores, the interpreter
    # switching threads every 10 us: a job made twice, lost or used out of
    # order breaks the counts
    threads = ThreadPoolExecutor(4)
    monkeypatch.setattr(pool, "worker_pool", lambda: (threads, 5))
    lock, makes, used, returned, early = threading.Lock(), Counter(), [], [0], []

    def make(i):
        with lock:
            makes[i] += 1
            if i >= returned[0] + 3:
                early.append(i)
        return i

    def use(i, value):
        used.append(value)
        with lock:
            returned[0] = i + 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            makes.clear()
            used.clear()
            returned[0] = 0
            pool.run_in_order(make, use, 40, 3)
            assert used == list(range(40))
            assert makes == Counter(range(40))
            assert early == []
    finally:
        sys.setswitchinterval(interval)
        threads.shutdown()
