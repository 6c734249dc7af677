"""One bounded, thread-safe memo for every cache that outlives a request.

The parse, skeleton, declaration, DDL-schema, SQLite-template and
mutation-space memos, the service's suite cache and a
:class:`~repro.api.Session`'s runs are each a :class:`Memo`: an LRU map
bounded by entry count or by a size function, with one
:class:`CacheStats` and an optional eviction callback.  A memo created
with a ``name`` is a *process memo*: its counters appear in
:func:`memo_counters` (the service's ``/metrics``) and
:func:`clear_process_memos` empties it.  One ``os.register_at_fork``
hook gives every memo a fresh lock in a forked child (a parent thread
may hold the old one) and empties, without calling back, those built
with ``fork_safe=False`` (SQLite connections must not cross a fork).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["CacheStats", "Memo", "clear_process_memos", "memo_counters"]

_MISSING = object()


@dataclass
class CacheStats:
    """Counters exposed via ``/metrics`` and the benchmark report."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Memo:
    """A thread-safe LRU map bounded by entry count or by total size.

    Args:
        limit: The bound: an entry count, or with ``size`` the budget
            for the summed sizes of the values.  A single entry over the
            budget is still admitted (the budget bounds *retained*
            neighbours; it is not an admission filter).
        size: Size function of a value (``len`` for bytes); every value
            weighs 1 without it.
        on_evict: Called with each value that leaves the memo through
            eviction, replacement or :meth:`clear`, under the lock.
        name: Registers a process memo (see the module docstring).
        fork_safe: ``False`` empties the memo in a forked child.

    ``lock`` is reentrant, so a caller may hold it across a lookup and
    its use of the value (the SQLite templates back up under it).
    """

    def __init__(
        self,
        limit: int,
        *,
        size: Callable[[Any], int] | None = None,
        on_evict: Callable[[Any], None] | None = None,
        name: str | None = None,
        fork_safe: bool = True,
    ) -> None:
        self.limit = limit
        self.stats = CacheStats()
        self.lock = threading.RLock()
        self.fork_safe = fork_safe
        self._size = size
        self._on_evict = on_evict
        self._entries: OrderedDict = OrderedDict()
        self._total = 0
        _LIVE.add(self)
        if name is not None:
            _PROCESS[name] = self

    def _weigh(self, value) -> int:
        return 1 if self._size is None else self._size(value)

    def get(self, key, default=None):
        """The value for ``key`` (refreshing its recency), counted as a
        hit; ``default`` and a miss when absent."""
        with self.lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key, default=None):
        """Like :meth:`get`, without touching recency or counters."""
        with self.lock:
            return self._entries.get(key, default)

    def put(self, key, value) -> None:
        """Store ``value`` as the most recent entry; evict the least
        recent ones while the bound is exceeded."""
        weight = self._weigh(value)
        with self.lock:
            old = self._entries.pop(key, _MISSING)
            if old is not _MISSING:
                self._total -= self._weigh(old)
                if self._on_evict is not None and old is not value:
                    self._on_evict(old)
            self._entries[key] = value
            self._total += weight
            self.stats.stores += 1
            while self._total > self.limit and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._total -= self._weigh(evicted)
                self.stats.evictions += 1
                if self._on_evict is not None:
                    self._on_evict(evicted)

    def items(self) -> list:
        """``(key, value)`` pairs, least recent first."""
        with self.lock:
            return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self.lock:
            dropped = list(self._entries.values())
            self._entries.clear()
            self._total = 0
            if self._on_evict is not None:
                for value in dropped:
                    self._on_evict(value)

    @property
    def total(self) -> int:
        """Summed sizes of the entries (their count without ``size``)."""
        with self.lock:
            return self._total

    def __contains__(self, key) -> bool:
        with self.lock:
            return key in self._entries

    def __len__(self) -> int:
        with self.lock:
            return len(self._entries)


#: Every live memo, for the fork hook.
_LIVE: weakref.WeakSet[Memo] = weakref.WeakSet()
#: Process memos by name, for metrics and clearing.
_PROCESS: dict[str, Memo] = {}


def memo_counters() -> dict[str, int]:
    """``xdata_memo_<name>_<counter>_total`` for every process memo."""
    return {
        f"xdata_memo_{name}_{counter}_total": value
        for name, memo in sorted(_PROCESS.items())
        for counter, value in vars(memo.stats).items()
    }


def clear_process_memos() -> None:
    """Empty every process memo (tests, memory pressure)."""
    for memo in list(_PROCESS.values()):
        memo.clear()


def _after_fork_in_child() -> None:
    for memo in list(_LIVE):
        memo.lock = threading.RLock()
        if not memo.fork_safe:
            memo._entries.clear()
            memo._total = 0


os.register_at_fork(after_in_child=_after_fork_in_child)
