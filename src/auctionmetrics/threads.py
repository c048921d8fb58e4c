"""Thread counts and the shared pool of leaf workers.

``AUCTIONMETRICS_THREADS`` is the number of threads one call may keep busy:
the cells of a sweep, and the batches of one reserve-probe oracle reading.
Unset, it is the number of CPUs in the process's affinity mask, at most 8.

The leaf pool is created on first use, not on import. A caller waits only on
tasks that have started, never on a queued one, so callers on several
threads (the cells of a sweep) share it without deadlock. It holds at most
``threads - 1`` workers, for the thread count of its first use, and fewer
than the CPUs the process may run on.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import ValidationError


def available_cpus():
    """CPUs the process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def max_workers():
    """The thread count ``AUCTIONMETRICS_THREADS`` sets, a positive integer."""
    env = os.environ.get("AUCTIONMETRICS_THREADS")
    if not env:
        return min(8, available_cpus())
    try:
        threads = int(env)
    except ValueError as exc:
        raise ValidationError(f"AUCTIONMETRICS_THREADS={env!r} is not an integer") from exc
    if threads < 1:
        raise ValidationError(f"AUCTIONMETRICS_THREADS must be >= 1, not {threads}")
    return threads


_pool_lock = threading.Lock()
_pool = None


def _leaf_pool(threads):
    """The leaf pool, made on first use with ``threads - 1`` workers."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=threads - 1,
                                       thread_name_prefix="auctionmetrics-leaf")
        return _pool


def run_leaves(task, count):
    """Call ``task(i)`` once for each i in ``range(count)``, on up to
    ``max_workers()`` threads (and no more than the CPUs), the calling thread
    among them; return when every call has ended.

    Tasks are claimed in index order, but any thread may run any of them,
    so each task must write only its own part of the output. If tasks
    raise, no further task starts, and the exception of the lowest index is
    raised.
    """
    threads = min(max_workers(), available_cpus())
    lanes = min(count, threads)
    if lanes < 2:
        for i in range(count):
            task(i)
        return
    claims = iter(range(count))
    lock = threading.Lock()
    failed = {}

    def lane():
        while True:
            with lock:
                i = None if failed else next(claims, None)
            if i is None:
                return
            try:
                task(i)
            except Exception as exc:
                with lock:
                    failed[i] = exc

    pool = _leaf_pool(threads)
    helpers = [pool.submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:
        # a helper still queued behind other callers' tasks finds nothing
        # left to claim: drop it rather than wait for a free worker
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    if failed:
        raise failed[min(failed)]
