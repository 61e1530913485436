"""The package's worker pool.

``ordered_map`` runs every parallel loop of the package: the experiment
runner's cells, one estimator's chunks and strata, and the QMC oracle's
per-cell integrals.  ``RARE_UNION_THREADS`` caps its threads.
Each unit of work is a deterministic function of its own inputs and the
results come back in item order, so the thread count changes speed,
never output.  A call made from one of the pool's own threads runs
inline, so a table cell's estimator never nests a second pool.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .errors import ModelSpecError

# units submitted ahead of the consumer, per worker: enough to keep every
# worker busy while the consumer reduces, few enough to bound the results held
AHEAD_PER_WORKER = 2

_pool_thread = threading.local()


def worker_count() -> int:
    """``RARE_UNION_THREADS`` when set, else the CPUs this process may run on."""
    env = os.environ.get("RARE_UNION_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ModelSpecError("RARE_UNION_THREADS must be an integer") from exc
        if n >= 1:
            return n
        raise ModelSpecError("RARE_UNION_THREADS must be at least 1")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _mark_pool_thread():
    _pool_thread.active = True


def ordered_map(fn, items):
    """Yield ``fn(item)`` for each item, in item order.

    Runs on at most ``worker_count()`` threads and keeps at most
    ``AHEAD_PER_WORKER`` units per worker submitted ahead of the consumer.
    With one worker, one item, or when called from one of its own pool
    threads, every unit runs inline in the calling thread.  The first
    exception in item order propagates with its own type; units not yet
    started are cancelled, and the running ones are waited for, so no
    worker thread outlives the call.
    """
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or getattr(_pool_thread, "active", False):
        for item in items:
            yield fn(item)
        return
    ahead = AHEAD_PER_WORKER * workers
    with ThreadPoolExecutor(workers, thread_name_prefix="rareunion",
                            initializer=_mark_pool_thread) as pool:
        pending = deque()
        try:
            for item in items:
                if len(pending) == ahead:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
