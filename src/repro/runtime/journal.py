"""Structured run journal: the observability half of the runtime layer.

A :class:`RunJournal` is an append-only event log.  Every event is one
JSON object carrying an ``event`` type tag, a monotonically increasing
``seq`` number and a wall-clock ``ts``; with a ``path`` the events are
also appended to disk as JSON lines, flushed per event, so a killed run
still leaves a readable journal behind.  With ``keep`` only the most
recent events stay in memory (between ``keep`` and ``2 * keep``), which
bounds a long-lived service's journal; :meth:`RunJournal.open_window`
collects a run's events whatever the journal keeps.

Event vocabulary used by the library (all optional — the journal accepts
any event type):

``pass``
    One single-pass cache simulation: ``role``, ``line_size``,
    ``trace_ranges``, ``wall_s``, ``where`` (``"serial"``/``"worker"``).
``stackdist``
    One stack-distance kernel invocation (one stack family inside a
    batch consume): ``line_size``, ``nsets``, ``refs``, ``path``
    (``"scan"``/``"scan+expand"``/``"scan+expand+dominance"``/...),
    ``window``, ``residues``, ``wall_s``.  Only recorded in-process
    (serial passes); worker-side events do not cross the pool.
``job`` / ``job_failed``
    One executor work unit finishing: ``key``, ``attempts``, ``wall_s``,
    ``where``; failures carry ``error``.
``retry`` / ``timeout``
    A failed or expired attempt that will be retried: ``key``,
    ``attempt``, ``error``/``timeout_s``, ``backoff_s``.
``fallback`` / ``pool_start_failed`` / ``pool_restart``
    Pool-level degradation events (``reason``, ``remaining``).
``checkpoint``
    Sweep checkpointing: ``action`` (``"hit"``/``"miss"``/``"store"``),
    ``key``.
``designspace``
    One whole-design-space tower consume (one shared sort serving a
    ladder of line sizes): ``line_sizes``, ``refs``, ``mode``
    (``"links"``/``"streams"``, prefixed ``"fused-"`` when the tower's
    counting ran as one fused dispatch), ``sorts``, ``splits``,
    ``wall_s``.
``stackdist_fused``
    One fused stack-distance dispatch (every family of a tower counted
    by one kernel pass, :func:`repro.cache.stackdist.stack_distances_fused`):
    ``line_sizes``, ``problems``, ``refs``, ``sorted_refs``,
    ``dominance_refs``, ``window``, ``residues``, ``by_path``, per-tier
    ``sort_s``/``scan_s``/``expand_s``/``dominance_s``, ``wall_s``.
``trace_shipping``
    One fan-out of group simulations to workers, recorded parent-side
    before submission: ``mode`` (always ``"chunkpath"`` — jobs ship a
    chunked trace file's path and digest), ``jobs``, ``trace_ranges``,
    ``chunks``, ``bytes_shipped`` (the pickled handles, summed over
    jobs) and ``bytes_mapped`` (the trace-file bytes each worker maps,
    summed over jobs).
``cache``
    A hit/miss snapshot of a store or of a sweep's checkpoint lookups
    (label ``sweep-checkpoint``): ``hits``, ``misses``, ``hit_rate``,
    ``entries``.
``worker_util``
    End-of-run pool accounting: ``workers``, ``busy_s``, ``wall_s``,
    ``utilization``.
``lease``
    Job-lease lifecycle in the evaluation service: ``action``
    (``"grant"``/``"renew"``/``"expired"``), ``id`` (the job),
    ``owner``, ``token`` (the fencing token), ``expires``.
``worker``
    Fleet-worker lifecycle: ``action`` (``"register"``/``"start"``/
    ``"claimed"``/``"completed"``/``"failed"``/``"stop"``/
    ``"reaped"``), ``id``, plus action-specific fields.
``fence_rejected``
    A stale fencing token was refused: ``id`` (the job), ``token``.
    The presence of these events is *correct* behaviour under lease
    expiry — the absence of double execution is what they prove.

The module also keeps a process-wide *active* journal so deep layers
(sweeps, evaluators, executors) can record events without every caller
threading a journal object through; ``repro --journal PATH`` installs
one for the duration of a CLI command.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError

__all__ = [
    "RunJournal",
    "NullJournal",
    "active_journal",
    "resolve_journal",
    "set_active_journal",
    "use_journal",
]


class RunJournal:
    """Append-only structured event log (JSON lines)."""

    def __init__(
        self, path: str | Path | None = None, keep: int | None = None
    ):
        if keep is not None and keep < 1:
            raise ReproError(f"journal keep must be >= 1, got {keep}")
        self.path = Path(path) if path is not None else None
        self.events: list[dict[str, Any]] = []
        self.keep = keep
        self._dropped = 0
        self._windows: list[list[dict[str, Any]]] = []
        self._lock = threading.Lock()
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one event; returns the recorded entry."""
        entry: dict[str, Any] = {"event": event, **fields}
        with self._lock:
            entry["seq"] = self._dropped + len(self.events)
            entry["ts"] = round(time.time(), 6)
            self.events.append(entry)
            for window in self._windows:
                window.append(entry)
            if self.keep is not None and len(self.events) >= 2 * self.keep:
                self._dropped += len(self.events) - self.keep
                del self.events[: -self.keep]
            if self._handle is not None:
                json.dump(entry, self._handle, default=str)
                self._handle.write("\n")
                self._handle.flush()
        return entry

    def open_window(self) -> list[dict[str, Any]]:
        """A list that receives every event recorded from now until
        :meth:`close_window`, however few events the journal keeps."""
        window: list[dict[str, Any]] = []
        with self._lock:
            self._windows.append(window)
        return window

    def close_window(self, window: list[dict[str, Any]]) -> None:
        """Stop collecting into ``window``."""
        with self._lock:
            self._windows = [w for w in self._windows if w is not window]

    @contextmanager
    def timed(self, event: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """Record ``event`` with a measured ``wall_s`` when the block exits.

        Yields a mutable dict; keys added inside the block land in the
        recorded event.
        """
        extra: dict[str, Any] = {}
        start = time.perf_counter()
        try:
            yield extra
        finally:
            wall = time.perf_counter() - start
            self.record(event, **fields, **extra, wall_s=round(wall, 6))

    def observe_cache(self, cache: Any, label: str = "evalcache") -> None:
        """Snapshot a hit/miss counter (its ``stats()`` when present)."""
        stats = cache.stats() if hasattr(cache, "stats") else {
            "hits": getattr(cache, "hits", 0),
            "misses": getattr(cache, "misses", 0),
        }
        self.record("cache", label=label, **stats)

    def close(self) -> None:
        """Close the on-disk handle (in-memory events stay readable)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Reading back.
    # ------------------------------------------------------------------

    def select(self, event: str) -> list[dict[str, Any]]:
        """All events of one type, in order."""
        return [e for e in self.events if e.get("event") == event]

    @classmethod
    def load(cls, path: str | Path) -> "RunJournal":
        """Parse a JSON-lines journal back into memory (read-only)."""
        journal = cls()
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"journal {path} line {lineno} is not valid JSON: {exc}"
                ) from exc
            journal.events.append(entry)
        return journal

    # ------------------------------------------------------------------
    # Summaries.
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Aggregate counts and timings across the recorded events."""
        passes = self.select("pass")
        kernels = self.select("stackdist")
        jobs = self.select("job")
        failed = self.select("job_failed")
        retries = self.select("retry")
        timeouts = self.select("timeout")
        fallbacks = self.select("fallback")
        checkpoints = self.select("checkpoint")
        caches = self.select("cache")
        utils = self.select("worker_util")
        summary: dict[str, Any] = {
            "events": len(self.events),
            "passes": {
                "count": len(passes),
                "wall_s": round(
                    sum(e.get("wall_s", 0.0) for e in passes), 6
                ),
                "trace_ranges": sum(
                    int(e.get("trace_ranges", 0)) for e in passes
                ),
                "by_where": _count_by(passes, "where"),
            },
            "stackdist": {
                "count": len(kernels),
                "wall_s": round(
                    sum(e.get("wall_s", 0.0) for e in kernels), 6
                ),
                "refs": sum(int(e.get("refs", 0)) for e in kernels),
                "by_path": _count_by(kernels, "path"),
                "residues": sum(int(e.get("residues", 0)) for e in kernels),
                "tiers": _tier_counts(_count_by(kernels, "path")),
            },
            "jobs": {
                "completed": len(jobs),
                "failed": len(failed),
                "retries": len(retries),
                "timeouts": len(timeouts),
                "wall_s": round(sum(e.get("wall_s", 0.0) for e in jobs), 6),
            },
            "fallbacks": _count_by(fallbacks, "reason"),
            "checkpoints": _count_by(checkpoints, "action"),
        }
        towers = self.select("designspace")
        if towers:
            summary["designspace"] = {
                "towers": len(towers),
                "line_sizes": sum(
                    len(e.get("line_sizes", ())) for e in towers
                ),
                "sorts": sum(int(e.get("sorts", 0)) for e in towers),
                "splits": sum(int(e.get("splits", 0)) for e in towers),
                "wall_s": round(
                    sum(e.get("wall_s", 0.0) for e in towers), 6
                ),
                "by_mode": _count_by(towers, "mode"),
            }
        fused = self.select("stackdist_fused")
        if fused:
            merged_paths: dict[str, int] = {}
            for e in fused:
                for name, n in e.get("by_path", {}).items():
                    merged_paths[name] = merged_paths.get(name, 0) + int(n)
            summary["stackdist_fused"] = {
                "dispatches": len(fused),
                "problems": sum(int(e.get("problems", 0)) for e in fused),
                "refs": sum(int(e.get("refs", 0)) for e in fused),
                "sorted_refs": sum(
                    int(e.get("sorted_refs", 0)) for e in fused
                ),
                "dominance_refs": sum(
                    int(e.get("dominance_refs", 0)) for e in fused
                ),
                "residues": sum(int(e.get("residues", 0)) for e in fused),
                "by_path": merged_paths,
                "tiers": _tier_counts(merged_paths),
                "sort_s": round(
                    sum(e.get("sort_s", 0.0) for e in fused), 6
                ),
                "scan_s": round(
                    sum(e.get("scan_s", 0.0) for e in fused), 6
                ),
                "expand_s": round(
                    sum(e.get("expand_s", 0.0) for e in fused), 6
                ),
                "dominance_s": round(
                    sum(e.get("dominance_s", 0.0) for e in fused), 6
                ),
                "wall_s": round(
                    sum(e.get("wall_s", 0.0) for e in fused), 6
                ),
            }
        shippings = self.select("trace_shipping")
        if shippings:
            shipped = sum(int(e.get("bytes_shipped", 0)) for e in shippings)
            mapped = sum(int(e.get("bytes_mapped", 0)) for e in shippings)
            summary["trace_shipping"] = {
                "jobs": sum(int(e.get("jobs", 0)) for e in shippings),
                "bytes_shipped": shipped,
                "bytes_mapped": mapped,
                "bytes_saved": max(0, mapped - shipped),
            }
        if caches:
            summary["caches"] = {
                e.get("label", "evalcache"): {
                    k: e[k]
                    for k in ("hits", "misses", "hit_rate", "entries")
                    if k in e
                }
                for e in caches  # later snapshots of a label win
            }
        if utils:
            last = utils[-1]
            summary["worker_util"] = {
                k: last[k]
                for k in ("workers", "busy_s", "wall_s", "utilization")
                if k in last
            }
        leases = self.select("lease")
        fleet = self.select("worker")
        fences = self.select("fence_rejected")
        if leases or fleet or fences:
            summary["fleet"] = {
                "leases": _count_by(leases, "action"),
                "workers": _count_by(fleet, "action"),
                "fence_rejections": len(fences),
            }
        chunked = [e for e in shippings if e.get("mode") == "chunkpath"]
        chunk_passes = [e for e in passes if "chunks" in e]
        if chunked or chunk_passes:
            summary["streaming"] = {
                "chunked_passes": len(chunk_passes),
                "chunks": sum(int(e.get("chunks", 0)) for e in chunk_passes),
                "resumed_passes": sum(
                    1 for e in chunk_passes if e.get("resumed_at_chunk")
                ),
                "chunkpath_jobs": sum(
                    int(e.get("jobs", 0)) for e in chunked
                ),
            }
        sampled = self.select("sampled_pass")
        if sampled:
            summary["sampling"] = {
                "passes": len(sampled),
                "intervals": sum(int(e.get("intervals", 0)) for e in sampled),
                "sampled_ranges": sum(
                    int(e.get("sampled_ranges", 0)) for e in sampled
                ),
                "trace_ranges": sum(
                    int(e.get("trace_ranges", 0)) for e in sampled
                ),
            }
        evictions = self.select("linestream_evict")
        rss = self.select("rss")
        if evictions or rss:
            summary["memory"] = {
                "linestream_evictions": sum(
                    int(e.get("entries", 0)) for e in evictions
                ),
                "linestream_evicted_bytes": sum(
                    int(e.get("bytes", 0)) for e in evictions
                ),
            }
            if rss:
                last = rss[-1]
                summary["memory"]["max_rss_bytes"] = int(
                    last.get("max_rss_bytes", 0)
                )
                if "budget_bytes" in last:
                    summary["memory"]["rss_budget_bytes"] = int(
                        last["budget_bytes"]
                    )
        return summary

    def summary_text(self, title: str = "Run journal summary") -> str:
        """Human-readable summary block (``repro report`` compatible)."""
        s = self.summary()
        lines = [title, "=" * len(title)]
        lines.append(f"events: {s['events']}")
        p = s["passes"]
        where = ", ".join(
            f"{k}={v}" for k, v in sorted(p["by_where"].items())
        ) or "none"
        lines.append(
            f"simulation passes: {p['count']} "
            f"({p['trace_ranges']} trace ranges, {p['wall_s']:.3f} s; "
            f"{where})"
        )
        k = s["stackdist"]
        if k["count"]:
            tiers = ", ".join(
                f"{name}={n}" for name, n in k["tiers"].items()
            )
            lines.append(
                f"stack-distance kernel: {k['count']} families "
                f"({k['refs']} refs, {k['wall_s']:.3f} s; "
                f"tiers: {tiers}; residues={k['residues']})"
            )
        kf = s.get("stackdist_fused")
        if kf:
            tiers = ", ".join(
                f"{name}={n}" for name, n in kf["tiers"].items()
            )
            lines.append(
                f"fused stack-distance dispatches: {kf['dispatches']} "
                f"({kf['problems']} problems, {kf['refs']} refs, "
                f"{kf['wall_s']:.3f} s = sort {kf['sort_s']:.3f} + "
                f"scan {kf['scan_s']:.3f} + expand {kf['expand_s']:.3f} + "
                f"dominance {kf['dominance_s']:.3f}; "
                f"tiers: {tiers}; residues={kf['residues']})"
            )
        j = s["jobs"]
        lines.append(
            f"jobs: {j['completed']} completed, {j['failed']} failed, "
            f"{j['retries']} retries, {j['timeouts']} timeouts "
            f"({j['wall_s']:.3f} s busy)"
        )
        ds = s.get("designspace")
        if ds:
            lines.append(
                f"design-space towers: {ds['towers']} "
                f"({ds['line_sizes']} line sizes, {ds['sorts']} sorts + "
                f"{ds['splits']} splits, {ds['wall_s']:.3f} s)"
            )
        ship = s.get("trace_shipping")
        if ship:
            lines.append(
                f"trace shipping: {ship['jobs']} jobs, "
                f"{ship['bytes_shipped']} B shipped for "
                f"{ship['bytes_mapped']} B mapped "
                f"({ship['bytes_saved']} B saved)"
            )
        if s["fallbacks"]:
            reasons = ", ".join(
                f"{k} x{v}" for k, v in sorted(s["fallbacks"].items())
            )
            lines.append(f"fallbacks: {reasons}")
        if s["checkpoints"]:
            actions = ", ".join(
                f"{k}={v}" for k, v in sorted(s["checkpoints"].items())
            )
            lines.append(f"checkpoints: {actions}")
        for label, stats in s.get("caches", {}).items():
            rate = stats.get("hit_rate")
            rate_text = f"{rate:.1%}" if isinstance(rate, float) else "n/a"
            lines.append(
                f"{label}: hits={stats.get('hits', 0)} "
                f"misses={stats.get('misses', 0)} hit_rate={rate_text} "
                f"entries={stats.get('entries', 0)}"
            )
        util = s.get("worker_util")
        if util:
            lines.append(
                f"worker utilization: {util.get('utilization', 0.0):.1%} "
                f"({util.get('workers', 0)} workers, "
                f"{util.get('busy_s', 0.0):.3f} s busy / "
                f"{util.get('wall_s', 0.0):.3f} s wall)"
            )
        fleet = s.get("fleet")
        if fleet:
            leases = ", ".join(
                f"{k}={v}" for k, v in sorted(fleet["leases"].items())
            ) or "none"
            workers = ", ".join(
                f"{k}={v}" for k, v in sorted(fleet["workers"].items())
            ) or "none"
            lines.append(
                f"fleet: leases {leases}; workers {workers}; "
                f"{fleet['fence_rejections']} fence rejections"
            )
        stream = s.get("streaming")
        if stream:
            lines.append(
                f"streaming: {stream['chunked_passes']} chunked passes "
                f"({stream['chunks']} chunks, "
                f"{stream['resumed_passes']} resumed, "
                f"{stream['chunkpath_jobs']} path-shipped jobs)"
            )
        samp = s.get("sampling")
        if samp:
            frac = (
                samp["sampled_ranges"] / samp["trace_ranges"]
                if samp["trace_ranges"]
                else 1.0
            )
            lines.append(
                f"sampling: {samp['passes']} sampled passes "
                f"({samp['intervals']} intervals, "
                f"{samp['sampled_ranges']}/{samp['trace_ranges']} ranges "
                f"= {frac:.1%})"
            )
        mem = s.get("memory")
        if mem:
            text = (
                f"memory: {mem['linestream_evictions']} linestream "
                f"evictions ({mem['linestream_evicted_bytes']} B)"
            )
            if "max_rss_bytes" in mem:
                text += f", max RSS {mem['max_rss_bytes']} B"
                if "rss_budget_bytes" in mem:
                    text += f" of {mem['rss_budget_bytes']} B budget"
            lines.append(text)
        return "\n".join(lines)


class NullJournal(RunJournal):
    """A journal that drops everything (the default when none is active)."""

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Drop the event."""
        return {}

    @contextmanager
    def timed(self, event: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """Run the block without recording anything."""
        yield {}

    def observe_cache(self, cache: Any, label: str = "evalcache") -> None:
        """Drop the snapshot."""


#: Shared sink for unjournaled runs.
NULL_JOURNAL = NullJournal()

_active: RunJournal | None = None
_active_lock = threading.Lock()


def active_journal() -> RunJournal:
    """The process-wide journal (a no-op sink when none is installed)."""
    return _active if _active is not None else NULL_JOURNAL


def set_active_journal(journal: RunJournal | None) -> RunJournal | None:
    """Install (or clear, with None) the active journal; returns the old."""
    global _active
    with _active_lock:
        previous = _active
        _active = journal
    return previous


@contextmanager
def use_journal(journal: RunJournal | None) -> Iterator[RunJournal]:
    """Scope the active journal to a block."""
    previous = set_active_journal(journal)
    try:
        yield journal if journal is not None else NULL_JOURNAL
    finally:
        set_active_journal(previous)


def resolve_journal(journal: RunJournal | None) -> RunJournal:
    """An explicit journal if given, else the active one."""
    return journal if journal is not None else active_journal()


def _count_by(events: list[dict[str, Any]], field: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in events:
        key = str(event.get(field, "?"))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _tier_counts(by_path: dict[str, int]) -> dict[str, int]:
    """Cumulative kernel-tier usage from per-problem path labels.

    Every problem enters the scan tier; those labeled ``scan+expand``
    or ``dominance`` escalated into the expansion; ``dominance`` alone
    reached the fallback recount.
    """
    total = sum(by_path.values())
    dominance = by_path.get("dominance", 0)
    expand = dominance + sum(
        n for name, n in by_path.items() if "expand" in name
    )
    return {"scan": total, "expand": expand, "dominance": dominance}
