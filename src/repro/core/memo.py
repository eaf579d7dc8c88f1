"""The one memo protocol of planning: a bounded LRU map and an
identity key.

Planning re-prices the same workloads against the same executors on
every pass, so its results are memoised, as the paper's middleware
caches DSE results for known workloads.  Every planning memo is a
:class:`Memo`; a key part that must match one object, not an equal
one, is a :class:`Ref`.  Module-level result memos come from
:func:`result_memo`, so :func:`clear_result_memos` empties all of them
and a cold benchmark run cannot be subsidised by a forgotten memo.
Memos owned by a strategy or a partitioner live and die with it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable
from weakref import WeakSet


class Memo:
    """A bounded least-recently-used map with plain-int counters.

    :meth:`get` counts a hit or a miss, marks a hit most recently used
    and returns ``None`` on a miss, so values are never ``None``.
    :meth:`put` inserts (or refreshes) an entry as most recently used
    and evicts the least recently used entries beyond ``max_entries``.
    ``in`` and ``len`` count nothing.  :meth:`clear` drops the entries
    and keeps the counters, which count from construction.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries", "__weakref__")

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = self.misses = self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Any:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self._entries.move_to_end(key)
            self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class Ref:
    """A key part that matches only the object it holds: its hash is
    the object's ``id()`` and its equality is ``is``, so an equal but
    distinct object (a rebuilt graph, a copied chain) misses.  The
    strong reference keeps the id from being reused while the key
    lives in a memo."""

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return type(other) is Ref and other.obj is self.obj


#: Every memo :func:`result_memo` made that is still alive.
_RESULT_MEMOS: "WeakSet[Memo]" = WeakSet()


def result_memo(max_entries: int) -> Memo:
    """A :class:`Memo` that :func:`clear_result_memos` empties."""
    memo = Memo(max_entries)
    _RESULT_MEMOS.add(memo)
    return memo


def clear_result_memos() -> None:
    """Empty every registered result memo (share and pipeline plans,
    pipeline geometries, assembled partitions).  Benchmarks call this
    between measurements so a warmed memo from one configuration cannot
    subsidise another.  Structural caches on the immutable graph
    (segments, segment table, halo tables) stay."""
    for memo in list(_RESULT_MEMOS):
        memo.clear()
