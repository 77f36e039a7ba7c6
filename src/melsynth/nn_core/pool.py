"""The package's worker threads, shared by the conv kernels and Griffin-Lim."""

from __future__ import annotations

import functools
import os


@functools.cache
def worker_pool():
    """The threads that share work with the calling thread, and the number
    of threads that do it in all: one per CPU this process may run on
    (os.sched_getaffinity), the calling thread being one. There are no
    threads (None) on one CPU. Made on first use, so that importing
    melsynth starts no thread and imports no concurrent.futures.
    """
    workers = len(os.sched_getaffinity(0))
    if workers == 1:
        return None, 1
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers - 1, "melsynth"), workers


def run_in_order(make, use, count, ahead):
    """Call ``use(i, make(i))`` for i = 0 ... count - 1, in order, on the
    calling thread, with the jobs `make(i)` shared with the pool.

    Pool threads make jobs up to ``ahead - 1`` past the next one `use`
    takes; job i + ahead is handed out only after ``use(i, ...)`` returns,
    so it may reuse job i's buffers. The calling thread makes job i when no
    thread has started it, and while it waits for job i, the first later
    job no thread has started. Jobs run numpy, which releases the GIL; only
    `use` combines results, in order, so outputs do not depend on the
    thread count. If `make` or `use` raises, the jobs threads are still
    making finish before the error leaves. Without pool threads, or with
    `ahead` under 2, it is a plain loop.
    """
    threads = worker_pool()[0] if count > 1 and ahead > 1 else None
    if threads is None:
        for i in range(count):
            use(i, make(i))
        return
    from concurrent.futures import Future

    jobs = []  # the Futures of jobs i, i + 1, ... that have been handed out
    try:
        for i in range(count):
            if not jobs:  # job i was handed to no thread, nor will it be
                jobs.append(Future())
            jobs.extend(threads.submit(make, k)
                        for k in range(i + len(jobs), min(i + ahead, count)))
            while not jobs[0].done():  # make the first job no thread started
                k = next((k for k, job in enumerate(jobs) if job.cancel()), None)
                if k is None:
                    break
                jobs[k] = Future()
                jobs[k].set_result(make(i + k))
            use(i, jobs.pop(0).result())
    finally:
        for job in jobs:
            if not job.cancel():
                job.exception()  # waits for a job a thread is making
