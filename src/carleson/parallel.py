"""Deterministic worker-pool plumbing.

Every sweep in this package reduces its per-item results in submission
order, so the outputs are a pure function of (inputs, seed) and do not
depend on how many workers happened to run them.  Threads are sufficient
here: the heavy loops release the GIL inside numpy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ordered_map"]


def ordered_map(
    fn: Callable[[T], R], items: Sequence[T], workers: int = 1
) -> list[R]:
    """Apply fn to every item and return results in input order.

    workers <= 1 degrades to a plain sequential map, guaranteeing the
    exact same result list either way.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
