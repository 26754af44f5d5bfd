"""Design-space sweep driver.

Implements the paper's first efficiency technique (Section 1): group the
cache design space by line size and run one single-pass Cheetah simulation
per distinct line size, rather than one simulation per configuration.

A sweep reads its trace as chunks: a
:class:`~repro.trace.chunkstore.ChunkedTrace` is its own chunks, an
in-memory ``(starts, sizes)`` pair (or a factory's output, called once)
is one chunk.  In-process, one
:class:`~repro.cache.designspace.DesignSpaceSimulator` is fed chunk by
chunk, so each chunk is read once and one range expansion per chunk
serves every line size; each line size then counts its own derived
stream on the stack-distance kernel.  ``strategy="perline"`` runs
independent per-line-size passes instead: the reference producer
(results are bit-identical either way).

Distinct line-size groups are independent single-pass simulations, so a
sweep can also fan them out over worker processes (``policy``)
through the fault-tolerant executor in :mod:`repro.runtime`: each worker
runs the same chunk loop for one group and ships back the stack-depth
histograms, which the parent folds — in completion order, keyed by line
size — into the ordinary :class:`~repro.cache.simulator.MissResult`
mapping.  Callers see the same API either way, and a crashed or hung
worker costs a retry (or an in-process fallback), not the sweep.

Trace shipping: a worker receives its trace only as the ``(path,
digest)`` of a :class:`~repro.trace.chunkstore.ChunkedTrace`.  An
on-disk chunked trace ships as itself; an in-memory trace is spilled to
a temporary one-chunk file
(:func:`~repro.trace.chunkstore.spilled_trace`) that is unlinked when the
jobs finish.  :func:`run_group_jobs` is that single path, shared with
evaluator and pipeline priming.

Sweeps can checkpoint completed groups into a
:class:`~repro.service.store.ResultStore` (or its HTTP twin
:class:`~repro.service.worker.RemoteStore`) under
:data:`CHECKPOINT_NAMESPACE`, one durable ``put`` per group, so a
killed run resumes from the finished groups instead of restarting; a
multi-chunk sweep also snapshots every group at each chunk boundary, in
one ``put_many`` per boundary.
"""

from __future__ import annotations

import hashlib
import pickle
from contextlib import ExitStack
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
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
    from repro.service.store import ResultStore

#: A range trace: callable returning (starts, sizes).  A sweep calls it
#: at most once and holds the result in memory for the whole sweep;
#: traces too long for memory belong in a ChunkedTrace.
TraceFactory = Callable[[], tuple[Sequence[int], Sequence[int]]]

#: A trace argument: the (starts, sizes) pair, a factory, or an on-disk
#: chunked trace fed to the engines chunk-at-a-time.
Trace = "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace"

#: One group-simulation job: ``(job key, trace name, line_size,
#: set_counts, max_assoc)``; the trace name indexes :func:`run_group_jobs`'
#: ``traces`` mapping.
GroupUnit = tuple[Hashable, Hashable, int, Sequence[int], int]


class _InMemoryTrace(NamedTuple):
    """An in-memory trace as one chunk (the ChunkedTrace read interface);
    still a ``(starts, sizes)`` pair, so it spills like any other."""

    starts: np.ndarray
    sizes: np.ndarray

    n_chunks = 1

    @property
    def n_ranges(self) -> int:
        return len(self.starts)

    @property
    def trace_id(self) -> str:
        return trace_digest(self.starts, self.sizes)

    def chunk(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        return self.starts, self.sizes

    def window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return self.starts[lo:hi], self.sizes[lo:hi]


#: What every sweep reads: a trace as chunks.
Chunks = "ChunkedTrace | _InMemoryTrace"


def _chunks(trace: Trace, journal: RunJournal) -> Chunks:
    """``trace`` as chunks; a factory is called here, exactly once."""
    if isinstance(trace, ChunkedTrace):
        return trace
    starts, sizes = trace() if callable(trace) else trace
    chunks = _InMemoryTrace(as_int64_array(starts), as_int64_array(sizes))
    journal.record(
        "trace_materialized", line_size="all", trace_ranges=chunks.n_ranges
    )
    return chunks


def _feed_chunks(
    space: DesignSpaceSimulator,
    chunks: Chunks,
    first: int = 0,
    boundary: Callable[[int], None] | None = None,
) -> None:
    """Feed chunks ``first..`` to ``space``: the one sweep chunk loop.

    A multi-chunk trace's line streams stay out of the process-wide memo
    (they would outlive their chunk).  Every chunk but the last leaves
    the carry for the next one; ``boundary(next_chunk)`` runs after it.
    """
    n_chunks = chunks.n_chunks
    for index in range(first, n_chunks):
        more = index + 1 < n_chunks
        space.simulate(
            *chunks.chunk(index), memoize=n_chunks == 1, final=not more
        )
        if more and boundary is not None:
            boundary(index + 1)


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
    file and runs the in-process chunk loop for one line size, so a
    one-chunk spill file makes the same single ``simulate`` call as the
    in-memory path.
    """
    with ChunkedTrace(path) as ctrace:
        if ctrace.digest != digest:
            raise RuntimeExecutionError(
                f"chunked trace at {path} has digest {ctrace.digest}, "
                f"job expected {digest}"
            )
        space = DesignSpaceSimulator({line_size: (set_counts, max_assoc)})
        _feed_chunks(space, ctrace)
        return space.state(line_size)


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


# ----------------------------------------------------------------------
# Group-state checkpointing codec (shared with evaluator priming and the
# evaluation service, so every layer's checkpoints interoperate in one
# store).
# ----------------------------------------------------------------------

#: Store namespace of every group-state checkpoint (``sweep:``,
#: ``sweepchunk:`` and ``prime:`` keys).
CHECKPOINT_NAMESPACE = "evalcache"


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
    next_chunk: int, full_state: tuple[int, dict[int, list[int]], list[int]]
) -> list:
    """JSON form of a mid-trace snapshot: ``[next_chunk, accesses,
    {set count: histogram}, carry]``.

    Stored between chunks of a chunked-trace sweep so a killed run
    resumes from the last finished chunk rather than the last finished
    group.  The carry (:meth:`CheetahSimulator.full_state`) holds at
    most ``max(set_counts) * max_assoc`` lines, so the payload is
    bounded by the design space, not the trace.
    """
    accesses, hists, carry = full_state
    return [
        int(next_chunk),
        int(accesses),
        {str(nsets): list(hist) for nsets, hist in hists.items()},
        list(carry),
    ]


def decode_chunk_state(
    value,
) -> tuple[int, int, dict[int, list[int]], list[int]] | None:
    """Inverse of :func:`encode_chunk_state`; None for foreign values
    (including the per-set-stack snapshots of earlier releases, so a
    sweep meeting one restarts at chunk 0)."""
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 4
        or not isinstance(value[2], dict)
        or not isinstance(value[3], list)
    ):
        return None
    hists = {int(nsets): list(hist) for nsets, hist in value[2].items()}
    return int(value[0]), int(value[1]), hists, list(value[3])


class _SweepCheckpoint:
    """Group-state checkpointing through a result store.

    One entry per (trace, line size, set counts, max assoc): the exported
    single-pass histogram state.  Stores are durable per group (one
    ``put`` each), so a killed sweep resumes from its completed groups.
    Hits and misses count this sweep's checkpoint lookups only, not the
    store's other traffic.
    """

    def __init__(
        self, store: "ResultStore", trace_id: str, journal: RunJournal
    ):
        self._store = store
        self.journal = journal
        self.trace_id = trace_id
        self.hits = 0
        self.misses = 0

    def _get(self, key: str):
        value = self._store.get(key, namespace=CHECKPOINT_NAMESPACE)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def stats(self) -> dict:
        """Hit/miss accounting snapshot (journal-friendly)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "entries": self._store.count(namespace=CHECKPOINT_NAMESPACE),
        }

    def key(
        self,
        line_size: int,
        set_counts: Sequence[int],
        max_assoc: int,
        prefix: str = "sweep",
    ) -> str:
        return group_state_key(
            self.trace_id, line_size, set_counts, max_assoc, prefix
        )

    def lookup(
        self, line_size: int, set_counts: Sequence[int], max_assoc: int
    ) -> tuple[int, dict[int, list[int]]] | None:
        key = self.key(line_size, set_counts, max_assoc)
        state = decode_group_state(self._get(key))
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
        self._store.put(
            key, encode_group_state(state), namespace=CHECKPOINT_NAMESPACE
        )
        self.journal.record("checkpoint", action="store", key=key)

    def lookup_chunks(
        self, spec: Mapping[int, tuple[list[int], int]], n_chunks: int
    ) -> tuple[int, dict[int, tuple[int, dict[int, list[int]], list[int]]]]:
        """``(next_chunk, {line_size: full state})`` to resume from, when
        every group of ``spec`` holds a snapshot at the same chunk over
        its own set counts; else ``(0, {})`` (e.g. line-outer snapshots
        of earlier releases, left at different chunks)."""
        snaps = {}
        for line_size, (set_counts, max_assoc) in spec.items():
            key = self.key(line_size, set_counts, max_assoc, "sweepchunk")
            snap = decode_chunk_state(self._get(key))
            if snap is None or sorted(snap[2]) != list(set_counts):
                return 0, {}
            self.journal.record(
                "checkpoint", action="chunk_hit", key=key, chunk=snap[0]
            )
            snaps[line_size] = snap
        chunks = {snap[0] for snap in snaps.values()}
        if len(chunks) != 1 or not 0 < min(chunks) <= n_chunks:
            return 0, {}
        return min(chunks), {ls: snap[1:] for ls, snap in snaps.items()}

    def store_chunks(
        self,
        spec: Mapping[int, tuple[list[int], int]],
        next_chunk: int,
        space: DesignSpaceSimulator,
    ) -> None:
        """Snapshot every group at one chunk boundary, in one write."""
        items = {
            self.key(line_size, set_counts, max_assoc, "sweepchunk"):
            encode_chunk_state(
                next_chunk, space.simulators[line_size].full_state()
            )
            for line_size, (set_counts, max_assoc) in spec.items()
        }
        self._store.put_many(items, namespace=CHECKPOINT_NAMESPACE)
        for key in items:
            self.journal.record(
                "checkpoint", action="chunk_store", key=key, chunk=next_chunk
            )


def sweep_design_space(
    configs: Iterable[CacheConfig],
    trace: "tuple[Sequence[int], Sequence[int]] | TraceFactory | ChunkedTrace",
    *,
    policy: ExecutorPolicy = ExecutorPolicy(),
    journal: RunJournal | None = None,
    checkpoint: "ResultStore | None" = None,
    trace_key: str | None = None,
    on_error: str = "raise",
    strategy: str = "auto",
) -> dict[CacheConfig, MissResult]:
    """Simulate every configuration, one pass per distinct line size.

    ``trace`` is a ``(starts, sizes)`` pair, a zero-argument callable
    producing one (called at most once), or an on-disk
    :class:`~repro.trace.chunkstore.ChunkedTrace` (streamed chunk by
    chunk; resumable mid-trace through ``checkpoint``).

    In-process, every pending line size shares one
    :class:`~repro.cache.designspace.DesignSpaceSimulator` fed chunk by
    chunk (an in-memory trace is one chunk).  ``strategy="perline"``
    runs independent per-line-size passes instead, the reference
    producer.
    Results are bit-identical across strategies.

    When ``policy`` fans out over the pending line-size groups
    (:meth:`~repro.runtime.executor.ExecutorPolicy.fans_out`), they run
    concurrently in worker processes under the fault-tolerant executor:
    failed attempts are retried per ``policy``, a broken pool degrades
    to in-process serial execution, and results fold in completion
    order.  Workers receive the trace as a chunked file's ``(path,
    digest)``; an in-memory trace is spilled to a temporary one-chunk
    file first (:func:`run_group_jobs`).

    ``checkpoint`` (a :class:`~repro.service.store.ResultStore` or
    :class:`~repro.service.worker.RemoteStore`) persists each completed
    group's simulation state under :data:`CHECKPOINT_NAMESPACE`, keyed
    by a trace digest — or by ``trace_key`` when the caller has a
    cheaper stable identity — so re-running the same sweep resumes
    instead of re-simulating.

    ``on_error`` controls what happens when a group still fails after
    retries and fallback: ``"raise"`` (default) raises
    :class:`~repro.errors.RuntimeExecutionError`; ``"partial"`` returns
    results for the surviving groups only (the failure is journaled).
    """
    if on_error not in ("raise", "partial"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    if strategy not in ("auto", "perline"):
        raise ConfigurationError(
            f"strategy must be 'auto' or 'perline', got {strategy!r}"
        )
    journal = resolve_journal(journal)

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

    # Read the trace only when needed: a fully checkpointed sweep keyed
    # by ``trace_key`` never touches it.
    chunks = None
    ck = None
    if checkpoint is not None:
        if trace_key is None:
            chunks = _chunks(trace, journal)
        trace_id = f"key={trace_key}" if chunks is None else chunks.trace_id
        ck = _SweepCheckpoint(checkpoint, trace_id, journal)

    results: dict[CacheConfig, MissResult] = {}
    pending: list[int] = []
    for line_size in sorted(groups):
        set_counts, max_assoc = meta[line_size]
        state = ck.lookup(line_size, set_counts, max_assoc) if ck else None
        if state is not None:
            _fold_group(results, groups[line_size], line_size, max_assoc, state)
        else:
            pending.append(line_size)

    failures: list[tuple[int, str]] = []
    if pending and chunks is None:
        chunks = _chunks(trace, journal)
    if not pending:
        passes: Iterator[tuple[int, tuple]] = iter(())
    elif policy.fans_out(len(pending)) or policy.fault is not None:
        passes = _worker_passes(
            chunks, groups, meta, pending, policy, journal, failures
        )
    elif strategy == "perline":
        passes = _perline_passes(chunks, meta, pending, journal)
    else:
        passes = _chunk_passes(chunks, meta, pending, journal, ck)
    # Store and fold each group as it completes, so a killed sweep
    # resumes from every group finished before the kill.
    for line_size, state in passes:
        set_counts, max_assoc = meta[line_size]
        if ck is not None:
            ck.store(line_size, set_counts, max_assoc, state)
        _fold_group(results, groups[line_size], line_size, max_assoc, state)
    if ck is not None:
        journal.observe_cache(ck, label="sweep-checkpoint")
    if failures and on_error == "raise":
        line_size, error = failures[0]
        raise RuntimeExecutionError(
            f"{len(failures)} line-size group(s) failed after retries "
            f"(first: line {line_size}: {error})"
        )
    return results


def _chunk_passes(
    chunks: Chunks,
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    journal: RunJournal,
    ck: "_SweepCheckpoint | None",
) -> Iterator[tuple[int, tuple]]:
    """Every pending line size from one simulator fed chunk by chunk,
    resuming from and snapshotting to ``ck`` at chunk boundaries."""
    spec = {line_size: meta[line_size] for line_size in pending}
    first, snapshots = (
        ck.lookup_chunks(spec, chunks.n_chunks)
        if ck is not None and chunks.n_chunks > 1
        else (0, {})
    )
    space = DesignSpaceSimulator(spec)
    for line_size, (accesses, hists, carry) in snapshots.items():
        space.simulators[line_size] = CheetahSimulator.from_full_state(
            line_size, spec[line_size][1], accesses, hists, carry
        )
    boundary = partial(ck.store_chunks, spec, space=space) if ck else None
    _feed_chunks(space, chunks, first, boundary)
    extra = {"chunks": chunks.n_chunks} if chunks.n_chunks > 1 else {}
    if first:
        extra["resumed_at_chunk"] = first
    for line_size in pending:
        journal.record(
            "pass",
            role="sweep",
            line_size=line_size,
            where="serial",
            trace_ranges=chunks.n_ranges,
            wall_s=round(space.consume_seconds[line_size], 6),
            kernel_s=round(space.kernel_seconds[line_size], 6),
            **extra,
        )
        yield line_size, space.state(line_size)


def _perline_passes(
    chunks: Chunks,
    meta: dict[int, tuple[list[int], int]],
    pending: list[int],
    journal: RunJournal,
) -> Iterator[tuple[int, tuple]]:
    """Independent per-line-size passes: the reference producer."""
    for line_size in pending:
        set_counts, max_assoc = meta[line_size]
        with journal.timed(
            "pass",
            role="sweep",
            line_size=line_size,
            where="serial",
            trace_ranges=chunks.n_ranges,
        ) as extra:
            sim = CheetahSimulator(line_size, set_counts, max_assoc)
            for index in range(chunks.n_chunks):
                sim.simulate(
                    *chunks.chunk(index), final=index + 1 == chunks.n_chunks
                )
            extra["kernel_s"] = round(sim.kernel_seconds, 6)
        yield line_size, sim.state()


def _worker_passes(
    chunks: Chunks,
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
    units = [(ls, "trace", ls, *meta[ls]) for ls in pending]
    outcomes = run_group_jobs(units, {"trace": chunks}, policy, journal)
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

    chunks = _chunks(trace, journal)
    total = chunks.n_ranges
    read = chunks.window
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
                sim.simulate(*read(w.lo, w.hi), final=True)
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
