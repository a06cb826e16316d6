"""Small shared helpers: trapezoid end weights, worker-count resolution and an
order-preserving map."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def trapezoid_weights(n: int) -> np.ndarray:
    """Trapezoid-rule weights over n equally spaced nodes, in units of the step."""
    wts = np.ones(n)
    wts[0] = wts[-1] = 0.5
    return wts


def worker_count() -> int:
    """Worker count from FRACMOMENT_THREADS; defaults to 1 (sequential)."""
    raw = os.environ.get("FRACMOMENT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map preserving input order; threads only when FRACMOMENT_THREADS > 1.

    The heavy lifting inside fn is numpy work that releases the GIL, so
    threads are enough; results are assembled in submission order so reports
    stay deterministic regardless of scheduling.
    """
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
