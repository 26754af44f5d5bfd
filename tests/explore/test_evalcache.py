"""The evaluation cache: checkpoints in a ResultStore's ``evalcache``
namespace (Section 5.1's persistent disk-based database)."""

import multiprocessing
import sys

import pytest

from repro.cache.sweep import CHECKPOINT_NAMESPACE
from repro.errors import EvaluationCacheError
from repro.service.store import ResultStore


def open_cache(path):
    """A handle on the evaluation cache stored at ``path``."""
    return ResultStore(path, namespace=CHECKPOINT_NAMESPACE)


@pytest.fixture
def cache(tmp_path):
    return open_cache(tmp_path / "metrics.sqlite")


class TestHitMissAccounting:
    """Regression pin: lookups count hits AND misses."""

    def test_get_counts_misses(self, cache):
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_get_none_value_is_a_hit(self, cache):
        # Present-with-None matches __contains__: stored null is a hit.
        cache.put("k", None)
        assert "k" in cache
        assert cache.get("k") is None
        assert (cache.hits, cache.misses) == (1, 0)

    def test_hit_rate_and_stats(self, cache):
        assert cache.hit_rate == 0.0
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert {k: stats[k] for k in ("hits", "misses", "hit_rate")} == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
        }
        assert stats["entries"] == 1
        assert stats["namespaces"] == {CHECKPOINT_NAMESPACE: 1}


class TestPersistent:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        cache = open_cache(path)
        cache.put("misses/gcc/ic32", 1234)
        cache.put("dilation/6332", 2.79)
        reloaded = open_cache(path)
        assert reloaded.get("misses/gcc/ic32") == 1234
        assert reloaded.get("dilation/6332") == 2.79

    def test_structured_values(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        cache = open_cache(path)
        cache.put("vector", [1, 2, 3])
        cache.put("table", {"a": 1.0})
        reloaded = open_cache(path)
        assert reloaded.get("vector") == [1, 2, 3]
        assert reloaded.get("table") == {"a": 1.0}

    def test_corrupt_file_raises(self, tmp_path):
        # A JSON checkpoint of earlier releases is not a result store.
        path = tmp_path / "metrics.json"
        path.write_text('{"sweep:key=x:line=16:sets=8:assoc=1": [0, {}]}')
        with pytest.raises(EvaluationCacheError, match="not a database"):
            open_cache(path)

    def test_empty_file_ok(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        path.write_text("")
        cache = open_cache(path)
        assert len(cache) == 0

    def test_parent_directory_created(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "metrics.sqlite"
        cache = open_cache(path)
        cache.put("k", 1)
        assert path.exists()


def _hammer_worker(path, worker, n_keys):
    cache = open_cache(path)
    for i in range(n_keys):
        cache.put(f"w{worker}/k{i}", worker * 1000 + i)
    cache.close()


class TestConcurrentWriters:
    """Two writers of one path must union, not clobber."""

    def test_two_instances_merge_on_flush(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        first = open_cache(path)
        second = open_cache(path)
        first.put("a", 1)
        second.put("b", 2)
        reloaded = open_cache(path)
        assert reloaded.get("a") == 1
        assert reloaded.get("b") == 2

    def test_later_writer_wins_per_key(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        first = open_cache(path)
        second = open_cache(path)
        first.put("k", "old")
        second.put("k", "new")
        assert open_cache(path).get("k") == "new"

    def test_bulk_flush_merges(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        first = open_cache(path)
        second = open_cache(path)
        first.put_many({f"first/{i}": i for i in range(5)})
        second.put_many({f"second/{i}": i for i in range(5)})
        reloaded = open_cache(path)
        assert len(reloaded) == 10

    @pytest.mark.skipif(
        sys.platform.startswith("win"), reason="fork is POSIX"
    )
    def test_multiprocess_hammer(self, tmp_path):
        path = tmp_path / "metrics.sqlite"
        open_cache(path)  # bootstrap the schema before forking
        ctx = multiprocessing.get_context("fork")
        workers, n_keys = 4, 20
        procs = [
            ctx.Process(target=_hammer_worker, args=(path, w, n_keys))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reloaded = open_cache(path)
        assert len(reloaded) == workers * n_keys
        for w in range(workers):
            for i in range(n_keys):
                assert reloaded.get(f"w{w}/k{i}") == w * 1000 + i

