"""Size of the package's thread pools.

``RARE_UNION_THREADS`` caps every pool: the experiment runner's cells and
the QMC oracle's (scramble, cell) integrals.  Each unit of work is a
deterministic function of its own inputs and results are combined in a
fixed order, so the count changes speed, never output.
"""

from __future__ import annotations

import os

from .errors import ModelSpecError


def worker_count() -> int:
    """``RARE_UNION_THREADS`` when set, else the number of CPUs."""
    env = os.environ.get("RARE_UNION_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ModelSpecError("RARE_UNION_THREADS must be an integer") from exc
        if n >= 1:
            return n
        raise ModelSpecError("RARE_UNION_THREADS must be at least 1")
    return os.cpu_count() or 1
