"""The process-wide counter registry.

Every process-wide number lives here: a lock-protected dict of process
totals plus, per thread, a stack of open scopes.  :func:`increment`
adds to the totals and to every scope open on the calling thread, so a
job run inside ``with scope() as delta:`` collects exactly its own
increments, whatever other threads count meanwhile.

Process boundaries ship a scope and the receiving side :func:`merge`\\ s
it: the parallel executor's forked worker returns its cell's scope,
and a worker agent pushes its job's scope with the completion.  After
a parallel study the parent's totals therefore reflect every
simulation run on its behalf (a warm-cache rerun provably performs
zero simulation calls), and fleet totals are exact even with several
jobs running at once.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

_TOTALS: Dict[str, int] = {}
_LOCK = threading.Lock()


class _Scopes(threading.local):
    """The calling thread's open scopes, innermost last."""

    stack: Tuple[Dict[str, int], ...] = ()


_SCOPES = _Scopes()


def _new_lock() -> None:
    # The executor forks from an agent thread while HTTP or executor
    # threads may hold the lock; none of them exists in the child, so
    # the child starts with a fresh one.
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock)


def increment(key: str, n: int = 1) -> None:
    """Add *n* to *key* in the process totals and in every scope open
    on the calling thread."""
    with _LOCK:
        _TOTALS[key] = _TOTALS.get(key, 0) + n
    for delta in _SCOPES.stack:
        delta[key] = delta.get(key, 0) + n


def merge(delta: Dict[str, int]) -> None:
    """Fold increments counted in another process (a shipped scope)
    in, as if the calling thread had counted them."""
    for key, n in delta.items():
        increment(key, n)


@contextmanager
def scope() -> Iterator[Dict[str, int]]:
    """Collect the increments the calling thread makes while the
    context is open; nested scopes each see them."""
    delta: Dict[str, int] = {}
    outer = _SCOPES.stack
    _SCOPES.stack = outer + (delta,)
    try:
        yield delta
    finally:
        _SCOPES.stack = outer


def snapshot() -> Dict[str, int]:
    """Copy of the process totals."""
    with _LOCK:
        return dict(_TOTALS)


def counter_value(key: str) -> int:
    """Current process total for *key* (0 when never incremented)."""
    with _LOCK:
        return _TOTALS.get(key, 0)
