"""Unit tests for repro.service.store."""

import multiprocessing
import sqlite3
import sys
import threading

import pytest

from repro.errors import EvaluationCacheError
from repro.service.store import LOOKUP_BATCH, ResultStore


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store.sqlite")


class TestKeyValue:
    def test_put_get_round_trip(self, store):
        store.put("k", {"misses": 10, "accesses": 99})
        assert store.get("k") == {"misses": 10, "accesses": 99}

    def test_get_absent_is_none_and_miss(self, store):
        assert store.get("absent") is None
        assert (store.hits, store.misses) == (0, 1)

    def test_present_null_is_a_hit(self, store):
        store.put("k", None)
        assert "k" in store
        assert store.get("k") is None
        assert (store.hits, store.misses) == (1, 0)

    def test_upsert_overwrites(self, store):
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert store.count() == 1

    def test_put_many_and_items(self, store):
        store.put_many({f"p/{i}": i for i in range(5)})
        store.put("other", -1)
        assert store.items(prefix="p/") == {f"p/{i}": i for i in range(5)}
        assert store.keys(prefix="p/") == [f"p/{i}" for i in range(5)]

    def test_items_limit(self, store):
        store.put_many({f"k{i}": i for i in range(10)})
        assert len(store.items(limit=3)) == 3

    def test_unserializable_value_raises(self, store):
        with pytest.raises(EvaluationCacheError, match="JSON"):
            store.put("bad", object())
        assert store.count() == 0

    def test_glob_metacharacters_in_prefix_are_literal(self, store):
        store.put("a*b[1]?", 1)
        store.put("axb11x", 2)  # would match if * ? [ were wildcards
        assert store.items(prefix="a*b[1]?") == {"a*b[1]?": 1}


class TestGetMany:
    def test_found_items_and_counts(self, store):
        store.put_many({"a": 1, "b": None, "c": [3]})
        found = store.get_many(["a", "b", "zz", "c"])
        assert found == {"a": 1, "b": None, "c": [3]}
        # A present null is a hit, an absent key a miss: as get() counts.
        assert (store.hits, store.misses) == (3, 1)

    def test_scoped_to_namespace(self, store):
        store.put("k", 1, namespace="evalcache")
        assert store.get_many(["k"]) == {}
        assert store.get_many(["k"], namespace="evalcache") == {"k": 1}

    def test_more_keys_than_one_batch(self, store):
        n = 2 * LOOKUP_BATCH + 7
        store.put_many({f"k{i}": i for i in range(0, n, 2)})
        found = store.get_many(f"k{i}" for i in range(n))
        assert found == {f"k{i}": i for i in range(0, n, 2)}
        assert store.hits + store.misses == n
        assert store.hits == len(found)

    def test_empty(self, store):
        assert store.get_many([]) == {}
        assert (store.hits, store.misses) == (0, 0)


class TestCounterRace:
    def test_threads_count_exactly(self, store):
        store.put_many({"hit1": 1, "hit2": 2})
        threads, calls = 8, 200
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for _ in range(calls):
                store.get_many(["hit1", "hit2", "miss"])

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        # Switch threads as often as possible, so an unguarded counter
        # update gets the chance to lose increments.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert store.hits == threads * calls * 2
        assert store.misses == threads * calls


class TestNamespaces:
    def test_namespaces_are_disjoint(self, store):
        store.put("k", 1, namespace="metrics")
        store.put("k", 2, namespace="evalcache")
        assert store.get("k", namespace="metrics") == 1
        assert store.get("k", namespace="evalcache") == 2
        assert store.namespaces() == {"metrics": 1, "evalcache": 1}

    def test_default_namespace(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite", namespace="frontiers")
        store.put("k", 1)
        assert store.count("frontiers") == 1
        assert store.count("metrics") == 0


class TestGC:
    def test_delete(self, store):
        store.put("k", 1)
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_gc_by_prefix(self, store):
        store.put_many({"old/a": 1, "old/b": 2, "keep": 3})
        assert store.gc(prefix="old/") == 2
        assert store.keys() == ["keep"]

    def test_gc_by_age(self, store):
        store.put("fresh", 1)
        # Everything was just written: an age threshold removes nothing,
        # no threshold clears the namespace.
        assert store.gc(older_than=3600) == 0
        assert store.gc() == 1
        store.vacuum()

    def test_gc_scoped_to_namespace(self, store):
        store.put("k", 1, namespace="metrics")
        store.put("k", 1, namespace="evalcache")
        assert store.gc(namespace="evalcache") == 1
        assert store.count("metrics") == 1


class TestStats:
    def test_stats_document(self, store):
        store.put("k", 1)
        store.get("k")
        store.get("absent")
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1
        assert stats["db_bytes"] > 0


class TestDurability:
    def test_reopen_sees_writes(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultStore(path).put("k", {"a": 1})
        assert ResultStore(path).get("k") == {"a": 1}

    def test_two_handles_share_one_database(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = ResultStore(path)
        reader = ResultStore(path)
        writer.put("k", 7)
        assert reader.get("k") == 7  # no stale snapshot

    def test_transaction_rolls_back_on_error(self, store):
        with pytest.raises(RuntimeError):
            with store.transaction() as conn:
                conn.execute(
                    "INSERT INTO results (namespace, key, value, created,"
                    " updated) VALUES ('metrics', 'k', '1', 0, 0)"
                )
                raise RuntimeError("boom")
        assert store.get("k") is None

    def test_parent_directory_created(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nest" / "s.sqlite")
        store.put("k", 1)
        assert store.get("k") == 1

    def test_open_drops_the_unread_run_rows_index(self, tmp_path):
        path = tmp_path / "old.sqlite"
        ResultStore(path).close()
        # A database written by an older build carries this index.
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE INDEX run_rows_design"
            " ON run_rows (run_id, design, benchmark, repetition)"
        )
        conn.execute(
            "INSERT INTO run_rows (run_id, idx, design) VALUES ('r', 0, 'd')"
        )
        conn.commit()
        conn.close()
        conn = ResultStore(path).connection()
        indexes = {
            row["name"] for row in conn.execute("PRAGMA index_list(run_rows)")
        }
        assert "run_rows_design" not in indexes
        (row,) = conn.execute("SELECT design FROM run_rows").fetchall()
        assert row["design"] == "d"


def _store_hammer(path, worker, n_keys):
    store = ResultStore(path)
    for i in range(n_keys):
        store.put(f"w{worker}/k{i}", worker * 1000 + i)
        store.put("shared", worker)  # contended row
    store.close()


class TestConcurrentProcesses:
    @pytest.mark.skipif(
        sys.platform.startswith("win"), reason="fork is POSIX"
    )
    def test_multiprocess_hammer(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultStore(path)  # bootstrap the schema before forking
        ctx = multiprocessing.get_context("fork")
        workers, n_keys = 4, 25
        procs = [
            ctx.Process(target=_store_hammer, args=(path, w, n_keys))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ResultStore(path)
        for w in range(workers):
            for i in range(n_keys):
                assert store.get(f"w{w}/k{i}") == w * 1000 + i
        assert store.get("shared") in range(workers)
        assert store.count() == workers * n_keys + 1

