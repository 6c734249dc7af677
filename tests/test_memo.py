"""The bounded memo behind every process-level cache (``repro.memo``)."""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import memo as memo_module
from repro.memo import Memo, clear_process_memos, memo_counters


class TestLru:
    def test_least_recently_used_entry_is_evicted(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes a: b is now the oldest
        memo.put("c", 3)
        assert "b" not in memo
        assert [key for key, _ in memo.items()] == ["a", "c"]

    def test_peek_touches_neither_recency_nor_counters(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.peek("a") == 1
        assert memo.peek("missing") is None
        memo.put("c", 3)
        assert "a" not in memo
        assert (memo.stats.hits, memo.stats.misses) == (0, 0)

    def test_replacing_a_key_refreshes_it_without_growing(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)
        memo.put("c", 3)
        assert dict(memo.items()) == {"a": 10, "c": 3}
        assert memo.total == len(memo) == 2

    def test_get_returns_the_default_on_a_miss(self):
        memo = Memo(2)
        sentinel = object()
        assert memo.get("missing", sentinel) is sentinel


class TestByteBudget:
    def test_total_size_bounds_the_retained_entries(self):
        memo = Memo(10, size=len)
        memo.put("a", b"1234")
        memo.put("b", b"5678")
        assert memo.total == 8
        memo.put("c", b"90ab")
        assert "a" not in memo
        assert memo.total == 8
        assert memo.stats.evictions == 1

    def test_a_single_oversized_entry_is_admitted(self):
        memo = Memo(10, size=len)
        memo.put("small", b"1234")
        memo.put("big", b"x" * 25)
        assert dict(memo.items()) == {"big": b"x" * 25}
        assert memo.total == 25
        memo.put("next", b"12")
        assert dict(memo.items()) == {"next": b"12"}


class TestCounters:
    def test_hits_misses_stores_and_evictions(self):
        memo = Memo(1)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        memo.put("b", 2)
        stats = memo.stats
        assert (stats.hits, stats.misses, stats.stores, stats.evictions) == (
            1, 1, 2, 1
        )
        assert stats.hit_rate == 0.5

    def test_clear_keeps_the_counters(self):
        memo = Memo(4)
        memo.put("a", 1)
        memo.get("a")
        memo.clear()
        assert len(memo) == 0 and memo.total == 0
        assert memo.stats.hits == 1

    def test_named_memos_expose_metrics_and_clear_together(
        self, monkeypatch
    ):
        # A private registry copy: the test memo leaves no trace.
        monkeypatch.setattr(
            memo_module, "_PROCESS", dict(memo_module._PROCESS)
        )
        memo = Memo(4, name="test_memo_registry")
        memo.put("a", 1)
        memo.get("a")
        memo.get("b")
        counters = memo_counters()
        assert counters["xdata_memo_test_memo_registry_hits_total"] == 1
        assert counters["xdata_memo_test_memo_registry_misses_total"] == 1
        assert counters["xdata_memo_test_memo_registry_stores_total"] == 1
        assert counters["xdata_memo_test_memo_registry_evictions_total"] == 0
        for name in ("parse", "skeleton", "declaration", "schema"):
            assert f"xdata_memo_{name}_hits_total" in counters
        clear_process_memos()
        assert len(memo) == 0


class TestEvictionCallback:
    def test_called_for_evicted_replaced_and_cleared_values(self):
        gone = []
        memo = Memo(2, on_evict=gone.append)
        memo.put("a", "A")
        memo.put("b", "B")
        memo.put("c", "C")
        assert gone == ["A"]
        memo.put("b", "B2")
        assert gone == ["A", "B"]
        memo.put("b", "B2")  # the same value again: nothing leaves
        assert gone == ["A", "B"]
        memo.clear()
        assert sorted(gone) == ["A", "B", "B2", "C"]


class TestThreads:
    def test_eight_threads_inserting_past_the_cap(self):
        memo = Memo(16)
        errors = []
        barrier = threading.Barrier(8)

        def insert(worker):
            try:
                barrier.wait()
                for index in range(500):
                    memo.put((worker, index), index)
                    memo.get((worker, index // 2))
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [
            threading.Thread(target=insert, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == memo.total == 16
        assert memo.stats.stores == 8 * 500
        assert memo.stats.evictions == 8 * 500 - 16
        assert memo.stats.hits + memo.stats.misses == 8 * 500


class TestFork:
    def test_child_gets_a_fresh_lock_while_the_parent_holds_it(self):
        safe = Memo(4)
        unsafe = Memo(4, fork_safe=False)
        safe.put("kept", 1)
        unsafe.put("dropped", 2)
        held, release = threading.Event(), threading.Event()

        def hold():
            with safe.lock, unsafe.lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        try:
            pid = os.fork()
            if pid == 0:  # the child: exit 0 only if every check holds
                code = 1
                try:
                    signal.alarm(10)  # a deadlocked child dies instead
                    safe.put("child", 3)
                    unsafe.put("child", 4)
                    if (
                        safe.get("kept") == 1
                        and "dropped" not in unsafe
                        and unsafe.get("child") == 4
                    ):
                        code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 20
            while True:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child hung on the parent's lock")
                time.sleep(0.01)
        finally:
            release.set()
            holder.join()
        assert os.waitstatus_to_exitcode(status) == 0
        assert "dropped" in unsafe and "child" not in safe
