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

    A job handed to the pool calls numpy only, which releases the GIL in
    its array passes; the caller keeps the order in which results are
    combined, so outputs do not depend on the number of threads.
    """
    workers = len(os.sched_getaffinity(0))
    if workers == 1:
        return None, 1
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers - 1, "melsynth"), workers
