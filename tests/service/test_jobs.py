"""Unit tests for repro.service.jobs (spec parsing and execution)."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.simulator import simulate_trace
from repro.errors import ServiceError
from repro.experiments.runner import RunnerSettings
from repro.runtime.executor import ExecutorPolicy
from repro.service.jobs import (
    NS_EVALCACHE,
    NS_FRONTIERS,
    NS_METRICS,
    build_trace_arrays,
    execute_job,
    parse_configs,
    result_key,
    trace_key,
    validate_spec,
)
from repro.service.store import ResultStore


SYNTH = {
    "kind": "synthetic",
    "seed": 7,
    "ranges": 200,
    "footprint": 8192,
    "max_size": 32,
}


def sweep_spec(**overrides):
    spec = {
        "kind": "sweep",
        "trace": SYNTH,
        "configs": {"sets": [8, 16], "assocs": [1, 2], "line_sizes": [16]},
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "service.sqlite")


class TestContentAddressing:
    def test_trace_key_is_order_independent(self):
        a = {"kind": "synthetic", "seed": 1, "ranges": 10}
        b = {"ranges": 10, "seed": 1, "kind": "synthetic"}
        assert trace_key(a) == trace_key(b)
        assert trace_key(a).startswith("spec=")

    def test_different_specs_different_keys(self):
        assert trace_key({"seed": 1}) != trace_key({"seed": 2})

    def test_result_key_embeds_config_identity(self):
        key = result_key("spec=abc", CacheConfig(8, 2, 16))
        assert key == "misses:spec=abc:S8A2L16"


class TestParseConfigs:
    def test_grid_cross_product(self):
        configs = parse_configs(
            {"sets": [8, 16], "assocs": [1, 2], "line_sizes": [16, 32]}
        )
        assert len(configs) == 8
        assert CacheConfig(16, 2, 32) in configs

    def test_explicit_list(self):
        configs = parse_configs([{"sets": 8, "assoc": 1, "line_size": 16}])
        assert configs == [CacheConfig(8, 1, 16)]

    def test_duplicates_removed_order_kept(self):
        configs = parse_configs(
            [
                {"sets": 8, "assoc": 1, "line_size": 16},
                {"sets": 16, "assoc": 1, "line_size": 16},
                {"sets": 8, "assoc": 1, "line_size": 16},
            ]
        )
        assert configs == [CacheConfig(8, 1, 16), CacheConfig(16, 1, 16)]

    def test_malformed_raises(self):
        with pytest.raises(ServiceError, match="malformed configs"):
            parse_configs([{"sets": 8}])
        with pytest.raises(ServiceError, match="malformed configs"):
            parse_configs({"sets": [8]})

    def test_infeasible_config_raises(self):
        with pytest.raises(ServiceError, match="infeasible"):
            parse_configs([{"sets": 7, "assoc": 1, "line_size": 16}])

    def test_empty_raises(self):
        with pytest.raises(ServiceError, match="empty"):
            parse_configs([])


class TestTraceArrays:
    def test_ranges(self):
        starts, sizes = build_trace_arrays(
            {"kind": "ranges", "starts": [0, 32], "sizes": [16, 8]}
        )
        assert starts.tolist() == [0, 32]
        assert sizes.tolist() == [16, 8]

    def test_ranges_mismatch_raises(self):
        with pytest.raises(ServiceError, match="equal-length"):
            build_trace_arrays(
                {"kind": "ranges", "starts": [0], "sizes": [16, 8]}
            )

    def test_synthetic_is_deterministic(self):
        first = build_trace_arrays(SYNTH)
        second = build_trace_arrays(SYNTH)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert len(first[0]) == SYNTH["ranges"]
        assert first[1].min() >= 1
        assert first[1].max() <= SYNTH["max_size"]

    def test_synthetic_bad_params_raise(self):
        with pytest.raises(ServiceError, match="positive"):
            build_trace_arrays({"kind": "synthetic", "ranges": 0})

    def test_unknown_kind_raises(self):
        with pytest.raises(ServiceError, match="unknown trace kind"):
            build_trace_arrays({"kind": "mystery"})


class TestValidateSpec:
    def test_accepts_good_specs(self):
        validate_spec(sweep_spec())
        validate_spec(
            {
                "kind": "estimate",
                "benchmark": "085.gcc",
                "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
                "dilations": [1.0, 2.0],
            }
        )
        validate_spec({"kind": "explore", "benchmark": "085.gcc"})

    def test_rejects_non_object(self):
        with pytest.raises(ServiceError, match="JSON object"):
            validate_spec([1, 2])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ServiceError, match="unknown job kind"):
            validate_spec({"kind": "transmogrify"})

    def test_rejects_missing_fields(self):
        with pytest.raises(ServiceError, match="missing required field"):
            validate_spec({"kind": "sweep", "configs": []})
        with pytest.raises(ServiceError, match="missing required field"):
            validate_spec({"kind": "explore"})

    def test_rejects_bad_trace_eagerly(self):
        spec = sweep_spec(trace={"kind": "ranges", "starts": [], "sizes": []})
        with pytest.raises(ServiceError, match="equal-length"):
            validate_spec(spec)

    def test_rejects_negative_synthetic_seed(self):
        with pytest.raises(ServiceError, match="'seed' must be a non-negative"):
            validate_spec(sweep_spec(trace={**SYNTH, "seed": -1}))

    def test_rejects_non_integer_synthetic_seed(self):
        with pytest.raises(ServiceError, match="'seed' must be a non-negative"):
            validate_spec(sweep_spec(trace={**SYNTH, "seed": "x"}))

    def test_rejects_non_integer_synthetic_footprint(self):
        with pytest.raises(ServiceError, match="'footprint' must be a positive"):
            validate_spec(sweep_spec(trace={**SYNTH, "footprint": "big"}))

    def test_rejects_non_integer_ranges_entries(self):
        trace = {"kind": "ranges", "starts": [1, "a"], "sizes": [4, 4]}
        with pytest.raises(ServiceError, match="must be integers"):
            validate_spec(sweep_spec(trace=trace))

    def test_synthetic_validation_generates_nothing(self, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("validation generated the trace")

        monkeypatch.setattr(
            "repro.service.jobs.build_trace_arrays", no_generation
        )
        validate_spec(sweep_spec(trace={**SYNTH, "ranges": 10**12}))

    def test_rejects_bad_role_and_empty_dilations(self):
        base = {
            "kind": "estimate",
            "benchmark": "085.gcc",
            "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
        }
        with pytest.raises(ServiceError, match="unknown role"):
            validate_spec({**base, "role": "tlb"})
        with pytest.raises(ServiceError, match="at least one dilation"):
            validate_spec({**base, "dilations": []})


ESTIMATE = {
    "kind": "estimate",
    "benchmark": "epic",
    "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
}
BENCH_TRACE = {"kind": "benchmark", "benchmark": "epic", "role": "icache"}


class TestKnobValidation:
    """Malformed knobs fail at submission, not at execution."""

    @pytest.mark.parametrize(
        "spec",
        [
            *(
                pytest.param(sweep_spec(**{key: value}), id=f"{key}={value!r}")
                for key, value in (
                    ("max_workers", "2"),
                    ("max_workers", 0),
                    ("max_workers", -3),
                    ("max_workers", True),
                    ("job_retries", "x"),
                    ("job_retries", -1),
                    ("job_timeout", "soon"),
                    ("job_timeout", 0),
                    ("job_timeout", -1),
                    ("scale", "big"),
                    ("scale", 0),
                    ("visits", -5),
                    ("visits", "500"),
                )
            ),
            *(
                pytest.param(
                    sweep_spec(trace={**BENCH_TRACE, key: value}),
                    id=f"trace-{key}={value!r}",
                )
                for key, value in (
                    ("scale", "big"),
                    ("scale", 0),
                    ("visits", -5),
                )
            ),
            *(
                pytest.param(
                    {**ESTIMATE, "dilations": value}, id=f"dilations={value!r}"
                )
                for value in ("abc", [], ["x"], [0])
            ),
        ],
    )
    def test_malformed_knob_rejected(self, spec):
        with pytest.raises(ServiceError, match="knob|dilation"):
            validate_spec(spec)

    def test_well_formed_knobs_accepted(self):
        spec = {
            **ESTIMATE,
            "scale": 0.5,
            "visits": 500,
            "max_workers": 2,
            "job_timeout": 7.5,
            "job_retries": 0,
            "dilations": [1, 2.5],
        }
        assert validate_spec(spec) is spec
        assert RunnerSettings.from_spec(spec) == RunnerSettings(
            scale=0.5,
            max_visits=500,
            policy=ExecutorPolicy(max_workers=2, timeout=7.5, retries=0),
        )


class TestSweepExecution:
    def test_results_match_direct_simulation(self, store):
        result = execute_job(sweep_spec(), store)
        assert result["total"] == 4
        assert result["from_store"] == 0
        assert result["simulated"] == 4
        starts, sizes = build_trace_arrays(SYNTH)
        for doc in result["results"]:
            config = CacheConfig(doc["sets"], doc["assoc"], doc["line_size"])
            expected = simulate_trace(config, starts, sizes)
            assert doc["misses"] == expected.misses
            assert doc["accesses"] == expected.accesses
            assert doc["source"] == "simulated"

    def test_second_run_served_entirely_from_store(self, store):
        execute_job(sweep_spec(), store)
        before = (store.hits, store.misses)
        result = execute_job(sweep_spec(), store)
        assert result["from_store"] == 4
        assert result["simulated"] == 0
        assert store.hits > before[0]  # hit counters moved
        assert all(doc["source"] == "store" for doc in result["results"])

    def test_results_are_durable_metrics(self, store):
        result = execute_job(sweep_spec(), store)
        tkey = result["trace_key"]
        stored = store.items(prefix=f"misses:{tkey}:", namespace=NS_METRICS)
        assert len(stored) == 4
        for value in stored.values():
            assert set(value) == {"accesses", "misses"}

    def test_partial_overlap_reuses_group_checkpoints(self, store):
        execute_job(sweep_spec(), store)
        # A superset grid at the same line size: the overlapping configs
        # come straight from the metric store and the new ones reuse the
        # checkpointed single-pass group state (no extra full passes).
        bigger = sweep_spec(
            configs={"sets": [8, 16, 32], "assocs": [1, 2], "line_sizes": [16]}
        )
        result = execute_job(bigger, store)
        assert result["from_store"] == 4
        assert result["simulated"] == 2
        # The checkpoint namespace holds the shared group states.
        assert store.count(NS_EVALCACHE) > 0

    def test_equivalent_specs_share_store_entries(self, store):
        execute_job(sweep_spec(), store)
        # Same trace spec with keys in another order: same content address.
        reordered = sweep_spec(
            trace={
                "max_size": 32,
                "footprint": 8192,
                "ranges": 200,
                "seed": 7,
                "kind": "synthetic",
            }
        )
        result = execute_job(reordered, store)
        assert result["from_store"] == 4
        assert result["simulated"] == 0


class TestRetiredKnobs:
    """Specs written when jobs could pick a trace-shipping mode and a
    counting parallelism still validate, execute and dedup unchanged."""

    LEGACY = {"trace_shipping": "shm", "count_parallelism": 2}

    def test_validate_and_policy_ignore_retired_knobs(self):
        legacy = sweep_spec(max_workers=2, **self.LEGACY)
        assert validate_spec(legacy) is legacy
        assert RunnerSettings.from_spec(legacy).policy == (
            RunnerSettings.from_spec(sweep_spec(max_workers=2)).policy
        )

    def test_keys_are_byte_identical(self):
        legacy = sweep_spec(**self.LEGACY)
        assert trace_key(legacy["trace"]) == trace_key(SYNTH)
        config = CacheConfig(8, 1, 16)
        assert result_key(trace_key(legacy["trace"]), config) == (
            result_key(trace_key(SYNTH), config)
        )

    def test_legacy_spec_executes_and_dedups(self, store):
        plain = execute_job(sweep_spec(), store)
        legacy = execute_job(sweep_spec(max_workers=2, **self.LEGACY), store)
        assert legacy["trace_key"] == plain["trace_key"]
        assert legacy["from_store"] == 4
        assert legacy["simulated"] == 0
        assert [d["misses"] for d in legacy["results"]] == (
            [d["misses"] for d in plain["results"]]
        )

    def test_legacy_spec_simulates_like_a_plain_one(self, tmp_path):
        plain = execute_job(
            sweep_spec(), ResultStore(tmp_path / "plain.sqlite")
        )
        legacy = execute_job(
            sweep_spec(
                configs={
                    "sets": [8, 16], "assocs": [1, 2],
                    "line_sizes": [16, 32],
                },
                max_workers=2,
                **self.LEGACY,
            ),
            ResultStore(tmp_path / "legacy.sqlite"),
        )
        assert legacy["simulated"] == 8
        by_config = {
            (d["sets"], d["assoc"], d["line_size"]): d["misses"]
            for d in legacy["results"]
        }
        for doc in plain["results"]:
            key = (doc["sets"], doc["assoc"], doc["line_size"])
            assert by_config[key] == doc["misses"]


class TestEstimateAndExplore:
    def test_estimate_grid_shape(self, store):
        spec = {
            "kind": "estimate",
            "benchmark": "085.gcc",
            "role": "icache",
            "scale": 0.05,
            "visits": 4000,
            "configs": {"sets": [64], "assocs": [1, 2], "line_sizes": [32]},
            "dilations": [1.0, 2.0],
        }
        result = execute_job(spec, store)
        assert result["kind"] == "estimate"
        assert len(result["results"]) == 2
        for doc in result["results"]:
            assert set(doc["misses"]) == {"1", "2"}
            for value in doc["misses"].values():
                assert value >= 0
        # Priming checkpointed into the shared store: a second evaluator
        # adopts the states instead of re-simulating.
        assert store.count(NS_EVALCACHE) > 0
        before = store.count(NS_EVALCACHE)
        execute_job(spec, store)
        assert store.count(NS_EVALCACHE) == before

    def test_estimate_primes_under_the_spec_policy(self, store, monkeypatch):
        """An estimate job primes under the spec's whole policy: workers,
        timeout and retries alike."""
        from repro.explore import evaluators

        real = evaluators.run_group_jobs
        seen = []

        def spy(units, traces, policy, journal):
            seen.append(policy)
            return real(units, traces, policy, journal)

        monkeypatch.setattr(evaluators, "run_group_jobs", spy)
        spec = {
            "kind": "estimate",
            "benchmark": "epic",
            "role": "dcache",
            "scale": 0.1,
            "visits": 1000,
            "configs": {"sets": [16], "assocs": [1], "line_sizes": [16, 32]},
            "max_workers": 2,
            "job_timeout": 7.5,
            "job_retries": 0,
        }
        execute_job(spec, store, record=False)
        assert seen == [ExecutorPolicy(max_workers=2, timeout=7.5, retries=0)]

    def test_store_keys_are_unchanged(self, store):
        """The checkpoint and frontier keys of an estimate and an
        explore spec, pinned literally: stores written by earlier
        releases keep hitting."""
        bench = "key=epic:scale=0.1:visits=2000"
        estimate = {
            "kind": "estimate",
            "benchmark": "epic",
            "role": "icache",
            "scale": 0.1,
            "visits": 2000,
            "configs": {
                "sets": [16, 32], "assocs": [1, 2], "line_sizes": [16, 32],
            },
            "dilations": [1.0, 1.5],
        }
        execute_job(estimate, store, record=False)
        assert sorted(store.items(namespace=NS_EVALCACHE)) == [
            f"prime:icache:{bench}:icache:line=16:sets=16,32:assoc=8",
            f"prime:icache:{bench}:icache:line=32:sets=16,32:assoc=8",
            f"prime:icache:{bench}:icache:line=8:sets=16,32:assoc=8",
        ]
        explore = {
            "kind": "explore",
            "benchmark": "epic",
            "scale": 0.1,
            "visits": 2000,
            "space": {
                "processors": {
                    "int_units": [1, 2], "float_units": [1],
                    "memory_units": [1],
                },
                "icache": {
                    "sizes_kb": [0.5, 1], "assocs": [1],
                    "line_sizes": [16, 32],
                },
                "dcache": {
                    "sizes_kb": [0.5], "assocs": [1], "line_sizes": [16],
                },
                "unified": {
                    "sizes_kb": [8], "assocs": [2], "line_sizes": [32],
                },
            },
        }
        result = execute_job(explore, store, record=False)
        key = "pareto:epic:scale=0.1:visits=2000:space=cc79c796ad7e4f7e"
        assert result["frontier_key"] == key
        assert list(store.items(namespace=NS_FRONTIERS)) == [key]

    def test_exact_estimate_after_a_sampled_one_is_exact(self, store):
        spec = {
            "kind": "estimate",
            "benchmark": "epic",
            "role": "unified",
            "scale": 0.1,
            "visits": 2000,
            "configs": {"sets": [16], "assocs": [1], "line_sizes": [16]},
        }
        exact = execute_job(spec, store, record=False)
        sampled = {
            **spec,
            "sample": {"intervals": 2, "interval_ranges": 50},
        }
        assert execute_job(sampled, store, record=False)["sampled"] is True
        again = execute_job(spec, store, record=False)
        assert again["sampled"] is False
        assert again["results"] == exact["results"]

    def test_estimate_unknown_benchmark_raises(self, store):
        spec = {
            "kind": "estimate",
            "benchmark": "999.nope",
            "configs": [{"sets": 8, "assoc": 1, "line_size": 16}],
        }
        with pytest.raises(ServiceError, match="cannot build"):
            execute_job(spec, store)


class TestChunkedTraceKind:
    def _chunked_spec(self, tmp_path, **overrides):
        from repro.trace.chunkstore import write_chunked

        starts, sizes = build_trace_arrays(SYNTH)
        path = tmp_path / "trace.rct"
        with write_chunked(path, starts, sizes, chunk_ranges=64) as trace:
            digest = trace.digest
        spec = sweep_spec(
            trace={"kind": "chunked", "path": str(path), "digest": digest}
        )
        spec.update(overrides)
        return spec

    def test_results_match_in_memory_sweep(self, store, tmp_path):
        result = execute_job(self._chunked_spec(tmp_path), store)
        assert result["simulated"] == 4
        starts, sizes = build_trace_arrays(SYNTH)
        for doc in result["results"]:
            config = CacheConfig(doc["sets"], doc["assoc"], doc["line_size"])
            expected = simulate_trace(config, starts, sizes)
            assert doc["misses"] == expected.misses

    def test_digest_pin_rejects_changed_file(self, store, tmp_path):
        from repro.trace.chunkstore import write_chunked

        spec = self._chunked_spec(tmp_path)
        starts, sizes = build_trace_arrays(SYNTH)
        write_chunked(
            tmp_path / "trace.rct", starts[:50], sizes[:50]
        ).close()  # rewrite the file behind the pinned digest
        with pytest.raises(ServiceError, match="digest"):
            execute_job(spec, store)

    def test_validate_requires_path(self):
        with pytest.raises(ServiceError, match="path"):
            validate_spec(sweep_spec(trace={"kind": "chunked"}))

    def test_missing_file_is_service_error(self, store, tmp_path):
        spec = sweep_spec(
            trace={"kind": "chunked", "path": str(tmp_path / "nope.rct")}
        )
        with pytest.raises(ServiceError):
            execute_job(spec, store)


class TestSampledSweepJobs:
    SAMPLE = {"intervals": 4, "interval_ranges": 30, "warmup_ranges": 10}

    def test_sampled_results_flagged_and_plausible(self, store):
        result = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert result["sampled"] is True
        assert ":sample=" in result["trace_key"]
        exact = execute_job(sweep_spec(), store)
        by_config = {
            (d["sets"], d["assoc"], d["line_size"]): d
            for d in exact["results"]
        }
        for doc in result["results"]:
            assert doc["estimated"] is True
            assert doc["intervals"] >= 1
            true = by_config[(doc["sets"], doc["assoc"], doc["line_size"])]
            assert doc["misses"] == pytest.approx(true["misses"], rel=0.5)

    def test_sampled_and_exact_keys_never_collide(self, store):
        execute_job(sweep_spec(), store)
        sampled = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert sampled["from_store"] == 0  # exact results not reused
        again = execute_job(sweep_spec(sample=self.SAMPLE), store)
        assert again["from_store"] == 4  # same plan: reused
        exact = execute_job(sweep_spec(), store)
        assert exact["from_store"] == 4  # exact results untouched

    def test_different_plans_are_distinct(self, store):
        execute_job(sweep_spec(sample=self.SAMPLE), store)
        other = execute_job(
            sweep_spec(sample={**self.SAMPLE, "intervals": 2}), store
        )
        assert other["from_store"] == 0

    def test_validate_rejects_bad_sample(self):
        with pytest.raises(ServiceError, match="sample"):
            validate_spec(sweep_spec(sample={"intervals": 4}))
        with pytest.raises(ServiceError, match="sample"):
            validate_spec(sweep_spec(sample="first"))
        with pytest.raises(ServiceError):
            validate_spec(
                sweep_spec(sample={**self.SAMPLE, "mode": "random"})
            )
