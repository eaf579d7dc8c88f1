"""Unit tests for the planning memo protocol: :class:`Memo` (a bounded
LRU map with counters) and :class:`Ref` (an identity key)."""

import gc
import weakref

import pytest

import repro.core.memo as memo_module
from repro.core.memo import Memo, Ref, clear_result_memos, result_memo


class TestMemo:
    def test_get_counts_hits_and_misses(self):
        memo = Memo(4)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert (memo.hits, memo.misses, memo.evictions) == (1, 1, 0)

    def test_in_and_len_count_nothing(self):
        memo = Memo(4)
        memo.put("a", 1)
        assert "a" in memo and "b" not in memo
        assert len(memo) == 1
        assert (memo.hits, memo.misses) == (0, 0)

    def test_evicts_least_recently_used_first(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "b" is now the oldest
        memo.put("c", 3)
        assert "b" not in memo and "a" in memo and "c" in memo
        memo.put("a", 10)  # a re-put refreshes too: "c" is the oldest
        memo.put("d", 4)
        assert "c" not in memo
        assert memo.get("a") == 10
        assert len(memo) == 2
        assert memo.evictions == 2

    def test_lowered_bound_evicts_down_to_it_on_the_next_put(self):
        memo = Memo(8)
        for key in range(8):
            memo.put(key, key)
        memo.max_entries = 3
        memo.put(8, 8)
        assert [key for key in range(9) if key in memo] == [6, 7, 8]
        assert memo.evictions == 6

    def test_clear_keeps_the_counters(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.get("a")
        memo.get("b")
        memo.clear()
        assert len(memo) == 0
        assert (memo.hits, memo.misses) == (1, 1)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_nonpositive_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="max_entries"):
            Memo(bound)


class TestRef:
    def test_same_object_hits(self):
        chain = (1, 2, 3)
        memo = Memo(4)
        memo.put((Ref(chain), 7), "plan")
        assert memo.get((Ref(chain), 7)) == "plan"

    def test_equal_but_distinct_object_misses(self):
        chain = [1, 2, 3]
        twin = list(chain)
        assert twin == chain and twin is not chain
        memo = Memo(4)
        memo.put(Ref(chain), "plan")
        assert memo.get(Ref(twin)) is None
        assert (memo.hits, memo.misses) == (0, 1)

    def test_never_equals_the_bare_object(self):
        chain = (1, 2, 3)
        assert Ref(chain) != chain
        assert Ref(chain) == Ref(chain)

    def test_holds_a_strong_reference(self):
        class Graph:
            pass

        memo = Memo(4)
        graph = Graph()
        probe = weakref.ref(graph)
        memo.put(Ref(graph), "decision")
        del graph
        gc.collect()
        assert probe() is not None  # alive, so its id cannot be reused


class TestResultMemos:
    def test_registered_and_cleared_together(self):
        first, second = result_memo(4), result_memo(4)
        private = Memo(4)
        for memo in (first, second, private):
            memo.put("k", "v")
        assert first in memo_module._RESULT_MEMOS and second in memo_module._RESULT_MEMOS
        assert private not in memo_module._RESULT_MEMOS
        clear_result_memos()
        assert (len(first), len(second), len(private)) == (0, 0, 1)

    def test_registry_drops_dead_memos(self):
        memo = result_memo(4)
        size = len(memo_module._RESULT_MEMOS)
        del memo
        gc.collect()
        assert len(memo_module._RESULT_MEMOS) == size - 1
