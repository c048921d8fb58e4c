"""The thread count of a sweep's cell pool.

``AUCTIONMETRICS_THREADS`` is the number of threads one sweep may keep busy
with its cells. Unset, it is the number of CPUs in the process's affinity
mask, at most 8.
"""

from __future__ import annotations

import os

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
