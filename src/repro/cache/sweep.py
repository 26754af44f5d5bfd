"""Design-space sweep driver.

Implements the paper's first efficiency technique (Section 1): group the
cache design space by line size and run one single-pass Cheetah simulation
per distinct line size, rather than one simulation per configuration.

Distinct line-size groups are independent single-pass simulations, so the
driver can fan them out over worker processes (``max_workers``) through
the fault-tolerant executor in :mod:`repro.runtime`: each worker
simulates one group and ships back the stack-depth histograms, which the
parent folds — in completion order, keyed by line size — into the
ordinary :class:`~repro.cache.simulator.MissResult` mapping.  Callers
see the same API either way, and a crashed or hung worker costs a retry
(or an in-process fallback), not the sweep.

In-process sweeps use the whole-design-space kernel
(:class:`~repro.cache.designspace.DesignSpaceSimulator`): one line-stream
expansion and one value sort shared by every line size, instead of one
of each per line size.  ``strategy="perline"`` keeps the independent
per-line-size passes (the equivalence oracle; results are bit-identical
either way).

Trace shipping: a worker receives its trace only as the ``(path,
digest)`` of a :class:`~repro.trace.chunkstore.ChunkedTrace`.  An
on-disk chunked trace ships as itself; an in-memory trace (or a factory's
output) is materialized once in the parent and spilled to a temporary
one-chunk file (:func:`~repro.trace.chunkstore.spilled_trace`) that is
unlinked when the jobs finish.  :func:`run_group_jobs` is that single
path, shared with evaluator and pipeline priming.

Sweeps can checkpoint completed groups into an
:class:`~repro.explore.evalcache.EvaluationCache` (one durable flush per
group, via :meth:`~repro.explore.evalcache.EvaluationCache.bulk`), so a
killed run resumes from the finished groups instead of restarting.
"""

from __future__ import annotations

import hashlib
import pickle
from contextlib import ExitStack
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

import numpy as np

from repro.cache._util import as_int64_array
from repro.cache.cheetah import CheetahSimulator
from repro.cache.config import CacheConfig
from repro.cache.designspace import DesignSpaceSimulator
from repro.cache.simulator import MissResult, SampledMissResult
from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime.executor import ExecutorPolicy, Job, JobResult, run_jobs
from repro.runtime.journal import RunJournal, resolve_journal
from repro.trace.chunkstore import ChunkedTrace, spilled_trace
from repro.trace.sampling import SamplePlan, extrapolate, plan_windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.explore.evalcache import EvaluationCache

#: A range trace: callable returning (starts, sizes).  Sweeps accept a
#: factory rather than arrays so multi-gigabyte traces can be re-generated
#: lazily per pass instead of held resident.
TraceFactory = Callable[[], tuple[Sequence[int], Sequence[int]]]

#: A trace argument: the (starts, sizes) pair, a factory, or an on-disk
#: chunked trace fed to the engines chunk-at-a-time.
Trace = "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace"

#: One group-simulation job: ``(job key, trace name, line_size,
#: set_counts, max_assoc)``; the trace name indexes :func:`run_group_jobs`'
#: ``traces`` mapping.
GroupUnit = tuple[Hashable, Hashable, int, Sequence[int], int]


def simulate_group_state(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    starts: np.ndarray,
    sizes: np.ndarray,
) -> tuple[int, dict[int, list[int]]]:
    """Run one single-pass simulation in-process; export its histograms.

    The in-process entry point of the per-line-size sweep;
    :func:`simulate_group_from_chunks` is its worker-side twin.
    """
    sim = CheetahSimulator(line_size, set_counts, max_assoc)
    sim.simulate(starts, sizes)
    return sim.state()


def simulate_group_from_chunks(
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    path: str,
    digest: str,
) -> tuple[int, dict[int, list[int]]]:
    """Worker function: mmap a chunked trace by path and simulate it.

    The only worker-side group simulator.  Ships only the path and
    expected content digest (a few hundred bytes); the worker maps the
    file and feeds the engine one chunk at a time, so a one-chunk spill
    file runs the same single ``simulate`` call as the in-memory path.
    """
    with ChunkedTrace(path) as ctrace:
        if ctrace.digest != digest:
            raise RuntimeExecutionError(
                f"chunked trace at {path} has digest {ctrace.digest}, "
                f"job expected {digest}"
            )
        sim = CheetahSimulator(line_size, set_counts, max_assoc)
        for starts, sizes in ctrace.iter_chunks():
            sim.simulate(starts, sizes)
        return sim.state()


def run_group_jobs(
    units: Sequence[GroupUnit],
    traces: Mapping[Hashable, "tuple[np.ndarray, np.ndarray] | ChunkedTrace"],
    policy: ExecutorPolicy,
    journal: RunJournal,
) -> dict[Hashable, JobResult]:
    """Run group simulations under the fault-tolerant executor.

    Every fan-out of single-pass simulations (sweeps, evaluator and
    pipeline priming) goes through here.  Each distinct trace in
    ``traces`` is spilled once (:func:`spilled_trace`), every job ships
    only that file's ``(path, digest)`` to
    :func:`simulate_group_from_chunks`, and the spill files are unlinked
    once the jobs finish — whatever happened to the workers.  The
    ``trace_shipping`` journal event records the pickled handle bytes
    shipped and the file bytes each worker maps, summed over jobs.
    """
    with ExitStack() as stack:
        files = {
            name: stack.enter_context(spilled_trace(trace))
            for name, trace in traces.items()
        }
        jobs = []
        shipped = mapped = 0
        for key, name, line_size, set_counts, max_assoc in units:
            ctrace = files[name]
            handle = (str(ctrace.path), ctrace.digest)
            jobs.append(
                Job(
                    key=key,
                    fn=simulate_group_from_chunks,
                    args=(line_size, list(set_counts), max_assoc, *handle),
                )
            )
            shipped += len(pickle.dumps(handle))
            mapped += ctrace.path.stat().st_size
        journal.record(
            "trace_shipping",
            mode="chunkpath",
            jobs=len(jobs),
            trace_ranges=sum(f.n_ranges for f in files.values()),
            chunks=sum(f.n_chunks for f in files.values()),
            bytes_shipped=shipped,
            bytes_mapped=mapped,
        )
        return run_jobs(jobs, policy, journal)


def _materialize(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(trace, ChunkedTrace):
        return trace.materialize()
    starts, sizes = trace() if callable(trace) else trace
    return as_int64_array(starts), as_int64_array(sizes)


# ----------------------------------------------------------------------
# Group-state checkpointing codec (shared with evaluator priming and the
# evaluation service, so every layer's checkpoints interoperate in one
# store).
# ----------------------------------------------------------------------


def trace_digest(starts: np.ndarray, sizes: np.ndarray) -> str:
    """Content address of a materialized trace (``sha256=<24 hex>``)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(starts).tobytes())
    digest.update(np.ascontiguousarray(sizes).tobytes())
    return f"sha256={digest.hexdigest()[:24]}"


def group_state_key(
    trace_id: str,
    line_size: int,
    set_counts: Sequence[int],
    max_assoc: int,
    prefix: str = "sweep",
) -> str:
    """Cache key of one line-size group's simulation state."""
    sets = ",".join(str(s) for s in set_counts)
    return (
        f"{prefix}:{trace_id}:line={line_size}:sets={sets}:assoc={max_assoc}"
    )


def encode_group_state(state: tuple[int, dict[int, list[int]]]) -> list:
    """JSON-representable form of an exported single-pass state."""
    accesses, hists = state
    return [int(accesses), {str(s): list(h) for s, h in hists.items()}]


def decode_group_state(value) -> tuple[int, dict[int, list[int]]] | None:
    """Inverse of :func:`encode_group_state`; None for foreign values."""
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and isinstance(value[1], dict)
    ):
        return int(value[0]), {
            int(sets): list(hist) for sets, hist in value[1].items()
        }
    return None


def encode_chunk_state(
    next_chunk: int, full_state: tuple[int, dict[int, dict]]
) -> list:
    """JSON form of a mid-trace snapshot (histograms **and** LRU stacks).

    Stored between chunks of a chunked-trace sweep so a killed run
    resumes from the last finished chunk rather than the last finished
    group.  The stacks are truncated at ``max_assoc`` per set, so the
    payload is bounded by the design space, not the trace.
    """
    accesses, families = full_state
    return [
        int(next_chunk),
        int(accesses),
        {
            str(nsets): [list(snap["hist"]), [list(s) for s in snap["stacks"]]]
            for nsets, snap in families.items()
        },
    ]


def decode_chunk_state(value) -> tuple[int, int, dict[int, dict]] | None:
    """Inverse of :func:`encode_chunk_state`; None for foreign values."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or not isinstance(value[2], dict)
    ):
        return None
    families = {
        int(nsets): {"hist": list(snap[0]), "stacks": [list(s) for s in snap[1]]}
        for nsets, snap in value[2].items()
    }
    return int(value[0]), int(value[1]), families


class _SweepCheckpoint:
    """Group-state checkpointing through an EvaluationCache.

    One entry per (trace, line size, set counts, max assoc): the exported
    single-pass histogram state.  Stores flush durably per group (inside
    :meth:`EvaluationCache.bulk`, one write each), so a killed sweep
    resumes from its completed groups.
    """

    def __init__(
        self,
        cache: "EvaluationCache",
        trace: Trace,
        trace_key: str | None,
        journal: RunJournal,
    ):
        self.cache = cache
        self.journal = journal
        if trace_key is not None:
            self.trace_id = f"key={trace_key}"
        elif isinstance(trace, ChunkedTrace):
            # The chunk index already carries a content digest; no need
            # to materialize anything.
            self.trace_id = trace.trace_id
        else:
            # All line-size groups share one trace, so one digest
            # identifies the whole sweep; materialize once and drop.
            starts, sizes = _materialize(trace)
            self.trace_id = trace_digest(starts, sizes)

    def key(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> str:
        return group_state_key(self.trace_id, line_size, set_counts, max_assoc)

    def lookup(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> tuple[int, dict[int, list[int]]] | None:
        key = self.key(line_size, set_counts, max_assoc)
        state = decode_group_state(self.cache.get(key))
        if state is not None:
            self.journal.record("checkpoint", action="hit", key=key)
            return state
        self.journal.record("checkpoint", action="miss", key=key)
        return None

    def store(
        self,
        line_size: int,
        set_counts: Sequence[int],
        max_assoc: int,
        state: tuple[int, dict[int, list[int]]],
    ) -> None:
        key = self.key(line_size, set_counts, max_assoc)
        with self.cache.bulk():
            self.cache.put(key, encode_group_state(state))
        self.journal.record("checkpoint", action="store", key=key)

    def chunk_key(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> str:
        return group_state_key(
            self.trace_id, line_size, set_counts, max_assoc, prefix="sweepchunk"
        )

    def lookup_chunk(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> tuple[int, int, dict[int, dict]] | None:
        key = self.chunk_key(line_size, set_counts, max_assoc)
        state = decode_chunk_state(self.cache.get(key))
        if state is not None:
            self.journal.record(
                "checkpoint", action="chunk_hit", key=key, chunk=state[0]
            )
            return state
        return None

    def store_chunk(
        self,
        line_size: int,
        set_counts: Sequence[int],
        max_assoc: int,
        next_chunk: int,
        full_state: tuple[int, dict[int, dict]],
    ) -> None:
        key = self.chunk_key(line_size, set_counts, max_assoc)
        with self.cache.bulk():
            self.cache.put(key, encode_chunk_state(next_chunk, full_state))
        self.journal.record(
            "checkpoint", action="chunk_store", key=key, chunk=next_chunk
        )


def sweep_design_space(
    configs: Iterable[CacheConfig],
    trace: "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace",
    max_workers: int | None = None,
    *,
    policy: ExecutorPolicy | None = None,
    journal: RunJournal | None = None,
    checkpoint: "EvaluationCache | None" = None,
    trace_key: str | None = None,
    on_error: str = "raise",
    strategy: str = "auto",
) -> dict[CacheConfig, MissResult]:
    """Simulate every configuration, one pass per distinct line size.

    ``trace`` is a ``(starts, sizes)`` pair, a zero-argument callable
    producing one, or an on-disk
    :class:`~repro.trace.chunkstore.ChunkedTrace` (streamed chunk by
    chunk in-process; resumable mid-trace through ``checkpoint``).

    With ``max_workers`` > 1 (or ``policy.max_workers`` > 1) and more
    than one line-size group, the groups run concurrently in worker
    processes under the fault-tolerant executor: failed attempts are
    retried per ``policy``, a broken pool degrades to in-process serial
    execution, and results fold in completion order.  Workers receive
    the trace as a chunked file's ``(path, digest)``; an in-memory trace
    is spilled to a temporary one-chunk file first
    (:func:`run_group_jobs`).

    ``strategy`` selects the in-process engine: ``"auto"`` feeds every
    pending line size through one
    :class:`~repro.cache.designspace.DesignSpaceSimulator` (one
    expansion, one sort) whenever an in-memory sweep runs in-process
    without fault injection; ``"designspace"`` forces that kernel
    (in-process, even when workers were requested — one shared sort
    usually beats a per-line-size fan-out); ``"perline"`` forces the
    independent per-line-size passes.  Chunked traces always use
    per-line-size passes.  Results are bit-identical across strategies.

    ``checkpoint`` (an :class:`~repro.explore.evalcache.EvaluationCache`)
    persists each completed group's simulation state, keyed by a trace
    digest — or by ``trace_key`` when the caller has a cheaper stable
    identity — so re-running the same sweep resumes instead of
    re-simulating.

    ``on_error`` controls what happens when a group still fails after
    retries and fallback: ``"raise"`` (default) raises
    :class:`~repro.errors.RuntimeExecutionError`; ``"partial"`` returns
    results for the surviving groups only (the failure is journaled).
    """
    if on_error not in ("raise", "partial"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    if strategy not in ("auto", "designspace", "perline"):
        raise ConfigurationError(
            "strategy must be 'auto', 'designspace' or 'perline', "
            f"got {strategy!r}"
        )
    journal = resolve_journal(journal)
    policy = (policy or ExecutorPolicy()).with_workers(max_workers)

    groups: dict[int, list[CacheConfig]] = {}
    for config in configs:
        groups.setdefault(config.line_size, []).append(config)
    if not groups:
        return {}
    meta = {
        line_size: (
            sorted({c.sets for c in group}),
            max(c.assoc for c in group),
        )
        for line_size, group in groups.items()
    }

    ck = (
        _SweepCheckpoint(checkpoint, trace, trace_key, journal)
        if checkpoint is not None
        else None
    )

    results: dict[CacheConfig, MissResult] = {}
    pending: list[int] = []
    for line_size in sorted(groups):
        set_counts, max_assoc = meta[line_size]
        state = ck.lookup(line_size, set_counts, max_assoc) if ck else None
        if state is not None:
            _fold_group(results, groups[line_size], line_size, max_assoc, state)
        else:
            pending.append(line_size)

    chunked = isinstance(trace, ChunkedTrace)
    # "designspace" keeps in-memory sweeps in-process; chunked traces
    # never feed that kernel (it wants the full arrays), so they fan out.
    parallel = (
        policy.max_workers is not None
        and policy.max_workers > 1
        and len(pending) > 1
        and (chunked or strategy != "designspace")
    )
    failures: list[tuple[int, str]] = []
    if not pending:
        passes: Iterator[tuple[int, tuple]] = iter(())
    elif parallel or policy.fault is not None:
        passes = _worker_passes(
            trace, groups, meta, pending, policy, journal, failures
        )
    elif chunked:
        passes = _chunked_passes(trace, meta, pending, journal, ck)
    elif strategy == "designspace" or (
        strategy == "auto" and len(pending) > 1
    ):
        passes = _designspace_passes(trace, meta, pending, journal)
    else:
        passes = _perline_passes(trace, meta, pending, journal)
    # Store and fold each group as it completes, so a killed sweep
    # resumes from every group finished before the kill.
    for line_size, state in passes:
        set_counts, max_assoc = meta[line_size]
        if ck is not None:
            ck.store(line_size, set_counts, max_assoc, state)
        _fold_group(results, groups[line_size], line_size, max_assoc, state)
    if ck is not None:
        journal.observe_cache(ck.cache, label="sweep-checkpoint")
    if failures and on_error == "raise":
        line_size, error = failures[0]
        raise RuntimeExecutionError(
            f"{len(failures)} line-size group(s) failed after retries "
            f"(first: line {line_size}: {error})"
        )
    return results


def _perline_passes(
    trace: Trace,
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    journal: RunJournal,
) -> Iterator[tuple[int, tuple]]:
    """In-process per-line-size passes, materializing the trace per pass."""
    for line_size in pending:
        set_counts, max_assoc = meta[line_size]
        with journal.timed(
            "pass", role="sweep", line_size=line_size, where="serial"
        ) as extra:
            # Attribute this pass's stack-distance kernel time: the
            # simulator records one "stackdist" event per family into
            # the same (active) journal, so the events appended while
            # the pass runs are exactly this pass's kernel calls.
            # Serial/in-process only — worker events never cross the
            # pool boundary, so parallel passes carry no kernel_s.
            kernels_before = len(journal.select("stackdist"))
            starts, sizes = _materialize(trace)
            extra["trace_ranges"] = len(starts)
            state = simulate_group_state(
                line_size, set_counts, max_assoc, starts, sizes
            )
            extra["kernel_s"] = round(
                sum(
                    e.get("wall_s", 0.0)
                    for e in journal.select("stackdist")[kernels_before:]
                ),
                6,
            )
        del starts, sizes
        yield line_size, state


def _designspace_passes(
    trace: Trace,
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    journal: RunJournal,
) -> Iterator[tuple[int, tuple]]:
    """Every pending line size from one shared expansion and sort."""
    starts, sizes = _materialize(trace)
    journal.record(
        "trace_materialized", line_size="all", trace_ranges=len(starts)
    )
    space = DesignSpaceSimulator(
        {line_size: meta[line_size] for line_size in pending}
    )
    space.simulate(starts, sizes)
    trace_ranges = len(starts)
    del starts, sizes
    for line_size in pending:
        journal.record(
            "pass",
            role="sweep",
            line_size=line_size,
            where="serial",
            trace_ranges=trace_ranges,
            wall_s=round(space.consume_seconds[line_size], 6),
            kernel_s=round(space.kernel_seconds.get(line_size, 0.0), 6),
        )
        yield line_size, space.state(line_size)


def _chunked_passes(
    ctrace: ChunkedTrace,
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    journal: RunJournal,
    ck: "_SweepCheckpoint | None",
) -> Iterator[tuple[int, tuple]]:
    """In-process passes streaming an on-disk trace chunk at a time.

    Each group snapshots full state (histograms + LRU stacks) into the
    checkpoint between chunks, so a killed run resumes mid-trace.
    """
    for line_size in pending:
        set_counts, max_assoc = meta[line_size]
        with journal.timed(
            "pass", role="sweep", line_size=line_size, where="serial"
        ) as extra:
            sim = None
            first_chunk = 0
            if ck is not None:
                resume = ck.lookup_chunk(line_size, set_counts, max_assoc)
                if resume is not None and 0 < resume[0] <= ctrace.n_chunks:
                    first_chunk, accesses, families = resume
                    if sorted(families) == list(set_counts):
                        sim = CheetahSimulator.from_full_state(
                            line_size, max_assoc, accesses, families
                        )
                    else:
                        first_chunk = 0
            if sim is None:
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
            for index in range(first_chunk, ctrace.n_chunks):
                starts, sizes = ctrace.chunk(index)
                sim.simulate(starts, sizes)
                del starts, sizes
                if ck is not None and index + 1 < ctrace.n_chunks:
                    ck.store_chunk(
                        line_size,
                        set_counts,
                        max_assoc,
                        index + 1,
                        sim.full_state(),
                    )
            state = sim.state()
            extra["trace_ranges"] = ctrace.n_ranges
            extra["chunks"] = ctrace.n_chunks
            if first_chunk:
                extra["resumed_at_chunk"] = first_chunk
        del sim
        yield line_size, state


def _worker_passes(
    trace: Trace,
    groups: dict[int, list[CacheConfig]],
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    policy: ExecutorPolicy,
    journal: RunJournal,
    failures: list[tuple[int, str]],
) -> Iterator[tuple[int, tuple]]:
    """Pending groups as fault-tolerant jobs (see :func:`run_group_jobs`).

    Groups that still fail after retries and fallback are journaled and
    appended to ``failures`` instead of being yielded.
    """
    if not isinstance(trace, ChunkedTrace):
        trace = _materialize(trace)
        journal.record(
            "trace_materialized", line_size="all", trace_ranges=len(trace[0])
        )
    units = [(ls, "trace", ls, *meta[ls]) for ls in pending]
    outcomes = run_group_jobs(units, {"trace": trace}, policy, journal)
    del trace
    for line_size in pending:
        outcome = outcomes[line_size]
        if not outcome.ok:
            failures.append((line_size, outcome.error or "unknown error"))
            journal.record(
                "group_failed",
                line_size=line_size,
                configs=len(groups[line_size]),
                error=outcome.error,
            )
            continue
        journal.record(
            "pass",
            role="sweep",
            line_size=line_size,
            where=outcome.where,
            wall_s=round(outcome.wall_s, 6),
        )
        yield line_size, outcome.value


def sampled_sweep_design_space(
    configs: Iterable[CacheConfig],
    trace: "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace",
    plan: SamplePlan,
    *,
    journal: RunJournal | None = None,
) -> dict[CacheConfig, SampledMissResult]:
    """Estimate every configuration's misses from sampled intervals.

    Groups by line size like :func:`sweep_design_space`, but simulates
    only the plan's windows: per window, a fresh single-pass simulator
    is warmed on the warm-up prefix (its counts discarded) and then
    measures the window, and per-config misses extrapolate to the whole
    trace by the sampled fraction with a cross-interval error estimate.

    Over a :class:`~repro.trace.chunkstore.ChunkedTrace` each window
    reads only the chunks it overlaps, so a sampled sweep of an
    arbitrarily long on-disk trace stays in bounded memory.  Results are
    estimates — they are never written into exact-result checkpoints.
    """
    journal = resolve_journal(journal)
    groups: dict[int, list[CacheConfig]] = {}
    for config in configs:
        groups.setdefault(config.line_size, []).append(config)
    if not groups:
        return {}

    if isinstance(trace, ChunkedTrace):
        total = trace.n_ranges
        read = trace.window
    else:
        starts, sizes = _materialize(trace)
        total = len(starts)

        def read(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            return starts[lo:hi], sizes[lo:hi]

    windows = plan_windows(total, plan)
    results: dict[CacheConfig, SampledMissResult] = {}
    if not windows:  # empty trace
        for group in groups.values():
            for config in group:
                results[config] = SampledMissResult(
                    config, 0, 0, error=None, intervals=0
                )
        return results
    for line_size in sorted(groups):
        group = groups[line_size]
        set_counts = sorted({c.sets for c in group})
        max_assoc = max(c.assoc for c in group)
        per_interval: list[tuple[int, int, dict]] = []
        with journal.timed(
            "pass", role="sampled-sweep", line_size=line_size, where="serial"
        ) as extra:
            for w in windows:
                sim = CheetahSimulator(line_size, set_counts, max_assoc)
                if w.warm_lo < w.lo:
                    sim.simulate(*read(w.warm_lo, w.lo))
                acc0, hists0 = sim.state()
                sim.simulate(*read(w.lo, w.hi))
                acc1, hists1 = sim.state()
                delta = {
                    nsets: [
                        b - a for a, b in zip(hists0[nsets], hists1[nsets])
                    ]
                    for nsets in hists1
                }
                per_interval.append((w.measured, acc1 - acc0, delta))
            extra["intervals"] = len(windows)
            extra["sampled_ranges"] = sum(w.measured for w in windows)
            extra["trace_ranges"] = total
        for config in group:
            tuples = []
            for ranges, accesses, delta in per_interval:
                hist = delta[config.sets]
                hits = sum(hist[: config.assoc])
                tuples.append((ranges, accesses, accesses - hits))
            est = extrapolate(tuples, total)
            results[config] = SampledMissResult(
                config,
                est.accesses,
                est.misses,
                error=est.error,
                intervals=est.intervals,
                sampled_ranges=est.sampled_ranges,
                total_ranges=est.total_ranges,
            )
        journal.record(
            "sampled_pass",
            line_size=line_size,
            intervals=len(windows),
            sampled_ranges=sum(w.measured for w in windows),
            trace_ranges=total,
            configs=len(group),
        )
    return results


def _fold_group(
    results: dict[CacheConfig, MissResult],
    group: list[CacheConfig],
    line_size: int,
    max_assoc: int,
    state: tuple[int, dict[int, list[int]]],
) -> None:
    accesses, hists = state
    sim = CheetahSimulator.from_state(line_size, max_assoc, accesses, hists)
    for config in group:
        results[config] = sim.result(config)


def simulation_passes_required(configs: Iterable[CacheConfig]) -> int:
    """Number of trace passes a sweep needs (= distinct line sizes).

    This is the quantity behind the paper's order-of-magnitude reduction
    claim: "if all 20 caches in the design space have only one of two
    distinct line sizes, the overall computation effort is reduced by an
    order of magnitude."
    """
    return len({c.line_size for c in configs})
