"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--scale", "0.12", "--visits", "2000", "--benchmarks", "epic"]


@pytest.fixture
def explore_pipeline(tiny):
    """A private tiny pipeline for explore commands.

    An explore job attaches the pipeline's evaluator to the command's
    (temporary) store, so the session-wide ``tiny_pipeline`` is kept
    out of it.
    """
    from repro.experiments.pipeline import ExperimentPipeline

    return ExperimentPipeline(
        tiny, max_visits=4_000, i_granule=200, u_granule=800
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_exist(self):
        parser = build_parser()
        for command in (
            "table2",
            "table3",
            "table4",
            "fig5",
            "fig6",
            "fig7",
            "dilation",
            "explore",
            "benchmarks",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_options_per_subcommand(self):
        args = build_parser().parse_args(
            ["dilation", "--scale", "0.5", "--visits", "123"]
        )
        assert args.scale == 0.5
        assert args.visits == 123


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "085.gcc" in out and "unepic" in out

    def test_dilation(self, capsys):
        assert main(["dilation", *FAST]) == 0
        out = capsys.readouterr().out
        assert "epic" in out
        assert "6332=" in out

    def test_table3(self, capsys):
        assert main(["table3", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Text Dilation" in out

    def test_table2(self, capsys):
        assert main(["table2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Relative Data Cache Miss Rates" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit, match="unknown benchmarks"):
            main(["dilation", "--benchmarks", "176.gcc"])

    def test_report_from_results_dir(self, capsys, tmp_path):
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Reproduction run report" in out
        assert "Text Dilation" in out

    def test_report_to_file(self, capsys, tmp_path):
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        output = tmp_path / "report.md"
        assert main(
            ["report", "--results", str(tmp_path), "--output", str(output)]
        ) == 0
        assert output.exists()
        assert "written to" in capsys.readouterr().out

    def test_errors_command(self, capsys):
        assert main(["errors", *FAST]) == 0
        out = capsys.readouterr().out
        assert "estimated/icache" in out
        assert "median" in out


class TestMaxWorkers:
    def test_parser_accepts_max_workers(self):
        args = build_parser().parse_args(
            ["explore", "--max-workers", "2"]
        )
        assert args.max_workers == 2
        # Sweep commands share the common options.
        args = build_parser().parse_args(["table2", "--max-workers", "3"])
        assert args.max_workers == 3

    def test_default_is_serial(self):
        assert build_parser().parse_args(["explore"]).max_workers is None

    def test_settings_carry_max_workers(self):
        from repro.cli import _settings

        args = build_parser().parse_args(
            ["table2", "--max-workers", "4"]
        )
        assert _settings(args).policy.max_workers == 4

    def test_explore_runs_with_max_workers(
        self, capsys, monkeypatch, explore_pipeline
    ):
        """The explore command reaches the parallel-priming path."""
        import repro.experiments.runner as runner
        import repro.service.jobs as jobs
        from repro.explore.spec import (
            CacheDesignSpace,
            ProcessorDesignSpace,
            SystemDesignSpace,
        )

        space = SystemDesignSpace(
            processors=ProcessorDesignSpace(
                int_units=(1, 2), float_units=(1,), memory_units=(1,),
                branch_units=(1,),
            ),
            icache=CacheDesignSpace(
                sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16, 32)
            ),
            dcache=CacheDesignSpace(
                sizes_kb=(0.5, 1), assocs=(1,), line_sizes=(16,)
            ),
            unified=CacheDesignSpace(
                sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
            ),
        )
        seen = []

        def get_pipeline(bench, settings):
            seen.append(settings)
            return explore_pipeline

        monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
        monkeypatch.setattr(runner, "get_pipeline", get_pipeline)
        assert main(["explore", *FAST, "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier for epic" in out
        assert "cost=" in out
        assert [s.policy.max_workers for s in seen] == [2]

    def test_table2_with_max_workers(self, capsys):
        """A sweep command accepts --max-workers end to end."""
        assert main(["table2", *FAST, "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Relative Data Cache Miss Rates" in out

    @pytest.mark.parametrize("bad", ["0", "-1", "nope"])
    def test_non_positive_max_workers_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--max-workers", bad])
        err = capsys.readouterr().err
        assert "positive integer" in err or "invalid int" in err


class TestExecutorOptions:
    def test_timeout_and_retries_parse(self):
        args = build_parser().parse_args(
            ["table2", "--job-timeout", "1.5", "--job-retries", "3"]
        )
        assert args.job_timeout == 1.5
        assert args.job_retries == 3

    def test_settings_build_policy(self):
        from repro.cli import _settings

        args = build_parser().parse_args(
            ["table2", "--max-workers", "2", "--job-timeout", "9",
             "--job-retries", "1"]
        )
        policy = _settings(args).policy
        assert policy.max_workers == 2
        assert policy.timeout == 9
        assert policy.retries == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--job-retries", "-1"),
            ("--job-timeout", "0"),
            ("--job-timeout", "-1"),
            ("--visits", "0"),
            ("--scale", "0"),
        ],
    )
    def test_out_of_range_knob_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table3", "--benchmarks", "epic", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert value in err


class TestExploreAllBenchmarks:
    def _patch_tiny(self, monkeypatch, pipeline):
        import repro.experiments.runner as runner
        import repro.service.jobs as jobs
        from repro.explore.spec import (
            CacheDesignSpace,
            ProcessorDesignSpace,
            SystemDesignSpace,
        )

        space = SystemDesignSpace(
            processors=ProcessorDesignSpace(
                int_units=(1,), float_units=(1,), memory_units=(1,),
                branch_units=(1,),
            ),
            icache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            dcache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            unified=CacheDesignSpace(
                sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
            ),
        )
        monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
        monkeypatch.setattr(
            runner, "get_pipeline", lambda bench, settings: pipeline
        )

    def test_explore_walks_every_requested_benchmark(
        self, capsys, monkeypatch, explore_pipeline
    ):
        """Regression: explore used to evaluate only the first benchmark."""
        self._patch_tiny(monkeypatch, explore_pipeline)
        assert main(
            ["explore", "--scale", "0.12", "--visits", "2000",
             "--benchmarks", "epic", "unepic"]
        ) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier for epic" in out
        assert "Pareto frontier for unepic" in out


class TestJournalFlag:
    def test_journal_file_written(self, capsys, tmp_path):
        from repro.experiments.runner import clear_pipeline_cache

        clear_pipeline_cache()  # force fresh simulation passes
        path = tmp_path / "journal.jsonl"
        assert main(["table2", *FAST, "--journal", str(path)]) == 0
        assert "[journal]" in capsys.readouterr().err
        from repro.runtime import RunJournal

        journal = RunJournal.load(path)
        events = {e["event"] for e in journal.events}
        assert "run_start" in events and "run_end" in events
        assert journal.select("pass")  # simulations were journaled

    def test_report_includes_journal_section(self, capsys, tmp_path):
        from repro.runtime import RunJournal

        with RunJournal(tmp_path / "journal.jsonl") as journal:
            journal.record("pass", role="sweep", wall_s=0.5, where="serial")
            journal.record("retry", key="32", attempt=0, error="boom")
        (tmp_path / "table3.txt").write_text("Text Dilation\n")
        assert main(
            ["report", "--results", str(tmp_path),
             "--journal", str(tmp_path / "journal.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "Run journal" in out
        assert "1 retries" in out


class TestSweepCheckpoint:
    """``repro sweep --checkpoint``: a sqlite result store, resumable."""

    SWEEP = ["sweep", "--benchmarks", "epic", "--scale", "0.25"]

    def _run_twice(self, capsys, tmp_path, between=None):
        """Run the sweep twice against one store (calling ``between``
        on the store in between); returns the stdouts, the rerun's
        journal and the store."""
        from repro.runtime import RunJournal
        from repro.service.store import ResultStore

        ck = tmp_path / "ck.sqlite"
        outs = []
        for run in ("first", "second"):
            if run == "second" and between is not None:
                store = ResultStore(ck)
                between(store)
                store.close()
            journal = tmp_path / f"{run}.jsonl"
            argv = [*self.SWEEP, "--checkpoint", str(ck),
                    "--journal", str(journal)]
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        second = RunJournal.load(tmp_path / "second.jsonl")
        return outs, second, ResultStore(ck)

    def test_round_trip_resumes_from_store(self, capsys, tmp_path):
        from repro.cache.sweep import CHECKPOINT_NAMESPACE

        outs, second, store = self._run_twice(capsys, tmp_path)
        assert outs[0] == outs[1]
        assert second.select("pass") == []
        # The rerun is answered from the stored per-config results.
        (dedup,) = second.select("service_dedup")
        assert dedup["simulated"] == 0
        assert dedup["from_store"] == 27
        assert store.count(namespace=CHECKPOINT_NAMESPACE) == 3

    def test_rerun_without_results_resumes_from_checkpoints(
        self, capsys, tmp_path
    ):
        """With the per-config results gone, the rerun adopts every
        line-size group's checkpoint instead of simulating it."""
        from repro.service.jobs import NS_METRICS

        def clear_metrics(store):
            for key in store.keys(namespace=NS_METRICS):
                store.delete(key, namespace=NS_METRICS)

        outs, second, _ = self._run_twice(capsys, tmp_path, clear_metrics)
        assert outs[0] == outs[1]
        assert second.select("pass") == []
        hits = [
            e for e in second.select("checkpoint") if e["action"] == "hit"
        ]
        line_sizes = build_parser().parse_args(self.SWEEP).line_sizes
        assert len(hits) == len(line_sizes)

    def test_json_checkpoint_file_is_rejected(self, tmp_path):
        legacy = tmp_path / "ck.json"
        legacy.write_text('{"sweep:key=x:line=16:sets=64:assoc=1": [0, {}]}')
        with pytest.raises(SystemExit) as excinfo:
            main([*self.SWEEP, "--checkpoint", str(legacy)])
        message = str(excinfo.value)
        assert str(legacy) in message
        assert "must be a sqlite result store" in message

    def test_checkpoint_with_sampling_is_rejected(self, tmp_path):
        ck = tmp_path / "ck.sqlite"
        with pytest.raises(SystemExit) as excinfo:
            main([*self.SWEEP, "--checkpoint", str(ck),
                  "--sample-intervals", "4"])
        message = str(excinfo.value)
        assert "--checkpoint" in message and "--sample-intervals" in message
        assert not ck.exists()

    def test_checkpoint_and_runs_db_must_name_one_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.SWEEP, "--checkpoint", str(tmp_path / "a.sqlite"),
                  "--runs-db", str(tmp_path / "b.sqlite")])
        assert excinfo.value.code == 2
        assert "must name the same file" in capsys.readouterr().err
        assert not (tmp_path / "a.sqlite").exists()

    def test_temporary_store_is_removed(self, capsys, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(self.SWEEP) == 0
        assert list(tmp_path.iterdir()) == []


class TestRunsDbParity:
    """``repro sweep --runs-db`` records the very rows the service's
    ``execute_job`` records for the same spec."""

    SPEC = {
        "kind": "sweep",
        "trace": {
            "kind": "benchmark", "benchmark": "epic", "role": "unified",
            "scale": 0.25, "visits": 60_000,
        },
        "configs": {
            "line_sizes": [16, 32, 64], "sets": [64, 256, 1024],
            "assocs": [1, 2, 4],
        },
    }

    @staticmethod
    def table(store):
        """The store's one run table, run id and timings masked."""
        import csv
        import io

        from repro.analytics.runs import list_runs
        from repro.analytics.table import run_table_csv

        (run,) = list_runs(store)
        text = run_table_csv(store, run["id"])
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            for column in ("run_id", "wall_s", "kernel_s"):
                row[column] = "*"
        return rows

    def test_cli_rows_equal_service_rows(self, capsys, tmp_path):
        from repro.runtime import RunJournal
        from repro.service.jobs import execute_job
        from repro.service.store import ResultStore

        cli_db = tmp_path / "cli.sqlite"
        argv = ["sweep", "--benchmarks", "epic", "--scale", "0.25",
                "--runs-db", str(cli_db)]
        assert main(argv) == 0
        assert f"-> {cli_db}" in capsys.readouterr().out
        service = ResultStore(tmp_path / "service.sqlite")
        execute_job(self.SPEC, service, journal=RunJournal())
        rows = self.table(ResultStore(cli_db))
        assert len(rows) == 27
        assert rows == self.table(service)



class TestJobRunRecords:
    def test_runs_list_names_the_sweep_benchmark(self, capsys, tmp_path):
        """Regression: sweep runs were recorded without a benchmark (it
        lives in the spec's trace), so ``runs list`` showed ``-``."""
        db = str(tmp_path / "runs.sqlite")
        argv = ["sweep", "--benchmarks", "epic", "--scale", "0.25",
                "--runs-db", db]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--db", db]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split()[3] == "benchmark"
        assert row.split()[1:4] == ["sweep", "done", "epic"]


class TestJobLeavesNoStoreAttached:
    def test_pipeline_primes_after_explore_store_is_gone(
        self, capsys, monkeypatch
    ):
        """Regression: an explore job left the memoized pipeline's
        evaluator attached to the command's temporary store, so a later
        prime on the same pipeline failed once that store was deleted."""
        import repro.service.jobs as jobs
        from repro.cache.config import CacheConfig
        from repro.experiments.runner import (
            RunnerSettings,
            clear_pipeline_cache,
            get_pipeline,
        )
        from repro.explore.spec import (
            CacheDesignSpace,
            ProcessorDesignSpace,
            SystemDesignSpace,
        )

        space = SystemDesignSpace(
            processors=ProcessorDesignSpace(
                int_units=(1,), float_units=(1,), memory_units=(1,),
                branch_units=(1,),
            ),
            icache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            dcache=CacheDesignSpace(
                sizes_kb=(0.5,), assocs=(1,), line_sizes=(16,)
            ),
            unified=CacheDesignSpace(
                sizes_kb=(8,), assocs=(2,), line_sizes=(32,)
            ),
        )
        monkeypatch.setattr(jobs, "_system_space", lambda overrides: space)
        clear_pipeline_cache()
        try:
            assert main(["explore", *FAST]) == 0
            capsys.readouterr()
            settings = RunnerSettings.from_spec({"scale": 0.12, "visits": 2000})
            pipeline = get_pipeline("epic", settings)
            evaluator = pipeline.memory_evaluator()
            assert evaluator.simulation_passes > 0  # the explore's pipeline
            # A line size the explore never primed: a new pass.
            grid = evaluator.misses_batch(
                "icache", [CacheConfig(sets=8, assoc=1, line_size=64)], [1.0]
            )
            assert grid.shape == (1, 1) and grid[0, 0] > 0
        finally:
            clear_pipeline_cache()
