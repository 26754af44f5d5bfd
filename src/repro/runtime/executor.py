"""Fault-tolerant parallel job execution (the run-execution layer).

Every process-pool call site in the library routes through
:func:`run_jobs`, which adds what a bare ``ProcessPoolExecutor`` lacks:

* **bounded retry with backoff** — a worker raising mid-run costs one
  attempt, not the whole sweep;
* **per-job timeout** — a hung worker is detected, its pool replaced,
  and the job retried (running futures cannot be cancelled, so the pool
  is the unit of eviction);
* **graceful degradation** — if a worker process dies
  (``BrokenProcessPool``) or the pool cannot start at all, the remaining
  jobs run in-process serially with the same retry accounting, so runs
  finish with identical results instead of crashing;
* **submission-order-independent folding** — results are keyed by job,
  so callers fold them in any order and one failed job fails only its
  own key;
* **deterministic fault injection** (:class:`FaultPlan`) — tests and CI
  can crash, kill or hang specific attempts and assert the journal and
  the recovered results.

Job arguments are pickled to the workers as they are, so callers ship
small handles rather than large arrays: trace simulations ship the
``(path, digest)`` of a chunked trace file
(:func:`repro.cache.sweep.run_group_jobs`).

Everything the executor does is recorded in the active
:class:`~repro.runtime.journal.RunJournal` (retries, timeouts,
fallbacks, per-job wall time, end-of-run worker utilization).
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.errors import ConfigurationError, RuntimeExecutionError
from repro.runtime.journal import RunJournal, resolve_journal

__all__ = [
    "ExecutorPolicy",
    "FaultPlan",
    "InjectedWorkerFault",
    "Job",
    "JobResult",
    "checked_int",
    "checked_number",
    "run_jobs",
]

#: Clock slack when deciding whether an in-flight job has timed out.
_TIMEOUT_SLACK = 1e-3


def checked_int(
    name: str, value: Any, lowest: int, optional: bool = False
) -> int | None:
    """``value`` if it is an int >= ``lowest`` (0 or 1), or None when
    ``optional``; else :class:`ConfigurationError` naming ``name``.
    A bool is not an int."""
    if (value is None and optional) or (
        type(value) is int and value >= lowest
    ):
        return value
    bound = "non-negative" if lowest == 0 else "positive"
    null = " or null" if optional else ""
    raise ConfigurationError(
        f"{name!r} must be a {bound} integer{null}, got {value!r}"
    )


def checked_number(
    name: str, value: Any, optional: bool = False
) -> float | None:
    """``value`` if it is a finite number > 0, or None when
    ``optional``; else :class:`ConfigurationError` naming ``name``.
    A bool is not a number."""
    if (value is None and optional) or (
        type(value) in (int, float) and math.isfinite(value) and value > 0
    ):
        return value
    null = " or null" if optional else ""
    raise ConfigurationError(
        f"{name!r} must be a finite number > 0{null}, got {value!r}"
    )


class InjectedWorkerFault(RuntimeError):
    """Raised (inside a worker) by deterministic fault injection."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for tests and CI robustness checks.

    Attempts numbered ``0 .. times-1`` of every job whose ``str(key)``
    contains ``match`` fail with the chosen ``kind``:

    * ``"raise"`` — the worker raises :class:`InjectedWorkerFault`;
    * ``"exit"``  — the worker process dies (``os._exit``), breaking the
      pool exactly like a real worker crash;
    * ``"hang"``  — the worker sleeps past any reasonable timeout.

    In-process (serial) execution degrades every kind to ``"raise"`` so
    injection can never kill or hang the parent.
    """

    kind: str = "raise"
    match: str = ""
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "exit", "hang"):
            raise RuntimeExecutionError(
                f"unknown fault kind {self.kind!r}; "
                "expected 'raise', 'exit' or 'hang'"
            )

    def fires(self, key: Hashable, attempt: int) -> bool:
        """Whether this plan faults the given attempt of the given job."""
        return attempt < self.times and self.match in str(key)


@dataclass(frozen=True)
class ExecutorPolicy:
    """Knobs of the fault-tolerant executor.

    ``retries`` counts *re*-attempts: a job may run ``retries + 1``
    times before it is declared failed.  ``timeout`` is per attempt, in
    seconds (None disables; unenforceable in serial fallback).
    ``backoff`` is the base of an exponential delay between attempts.
    Every knob is checked on construction
    (:class:`~repro.errors.ConfigurationError` when out of range).
    """

    max_workers: int | None = None
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    serial_fallback: bool = True
    fault: FaultPlan | None = None

    def __post_init__(self) -> None:
        checked_int("max_workers", self.max_workers, 1, optional=True)
        checked_number("timeout", self.timeout, optional=True)
        checked_int("retries", self.retries, 0)
        if self.backoff != 0:
            checked_number("backoff", self.backoff)

    def fans_out(self, n_units: int) -> bool:
        """Whether ``n_units`` jobs run in worker processes: more than
        one worker and more than one job."""
        return (self.max_workers or 1) > 1 and n_units > 1

    def fault_kind(self, key: Hashable, attempt: int) -> str | None:
        """The injected fault kind for this attempt, or None."""
        if self.fault is not None and self.fault.fires(key, attempt):
            return self.fault.kind
        return None


@dataclass(frozen=True)
class Job:
    """One unit of work: a picklable function plus its arguments."""

    key: Hashable
    fn: Callable[..., Any]
    args: tuple = ()


@dataclass
class JobResult:
    """Outcome of one job: a value or an error, plus accounting."""

    key: Hashable
    value: Any = None
    error: str | None = None
    attempts: int = 1
    where: str = "worker"
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the job produced a value."""
        return self.error is None


def _invoke(fault_kind: str | None, fn: Callable[..., Any], *args: Any) -> Any:
    """Worker-side wrapper: apply an injected fault, then run the job."""
    if fault_kind == "raise":
        raise InjectedWorkerFault("injected worker fault")
    if fault_kind == "exit":
        os._exit(13)
    if fault_kind == "hang":  # pragma: no cover - killed by the parent
        time.sleep(3600)
    return fn(*args)


def run_jobs(
    jobs: Iterable[Job],
    policy: ExecutorPolicy | None = None,
    journal: RunJournal | None = None,
) -> dict[Hashable, JobResult]:
    """Run every job, fault-tolerantly; returns ``{job.key: JobResult}``.

    When :meth:`ExecutorPolicy.fans_out` the jobs run in worker
    processes; otherwise in-process.  Every job's key appears
    in the result exactly once — failed jobs carry ``error`` instead of
    ``value`` — so folding is independent of completion order.
    """
    jobs = list(jobs)
    policy = policy if policy is not None else ExecutorPolicy()
    journal = resolve_journal(journal)
    if not jobs:
        return {}
    keys = [job.key for job in jobs]
    if len(set(keys)) != len(keys):
        raise RuntimeExecutionError("job keys must be unique")
    if not policy.fans_out(len(jobs)):
        return _run_serial(
            deque((job, 0) for job in jobs), policy, journal, where="serial"
        )
    return _ParallelRun(jobs, policy, journal).run()


def _run_serial(
    items: "deque[tuple[Job, int]]",
    policy: ExecutorPolicy,
    journal: RunJournal,
    where: str,
) -> dict[Hashable, JobResult]:
    """In-process execution with the same retry/fault accounting."""
    results: dict[Hashable, JobResult] = {}
    for job, first_attempt in items:
        attempt = first_attempt
        start = time.perf_counter()
        while True:
            try:
                # In-process, every injected fault kind becomes a raise:
                # killing or hanging the parent defeats the fallback.
                kind = policy.fault_kind(job.key, attempt)
                if kind is not None:
                    raise InjectedWorkerFault(
                        f"injected {kind} fault (in-process)"
                    )
                value = job.fn(*job.args)
            except Exception as exc:  # noqa: BLE001 - jobs may raise anything
                if attempt >= policy.retries:
                    wall = time.perf_counter() - start
                    results[job.key] = JobResult(
                        job.key,
                        error=repr(exc),
                        attempts=attempt + 1,
                        where=where,
                        wall_s=wall,
                    )
                    journal.record(
                        "job_failed",
                        key=str(job.key),
                        where=where,
                        attempts=attempt + 1,
                        error=repr(exc),
                    )
                    break
                delay = policy.backoff * (2 ** attempt)
                journal.record(
                    "retry",
                    key=str(job.key),
                    attempt=attempt + 1,
                    where=where,
                    error=repr(exc),
                    backoff_s=round(delay, 6),
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
            else:
                wall = time.perf_counter() - start
                results[job.key] = JobResult(
                    job.key,
                    value=value,
                    attempts=attempt + 1,
                    where=where,
                    wall_s=wall,
                )
                journal.record(
                    "job",
                    key=str(job.key),
                    where=where,
                    attempts=attempt + 1,
                    wall_s=round(wall, 6),
                )
                break
    return results


class _ParallelRun:
    """State of one parallel :func:`run_jobs` invocation."""

    def __init__(
        self, jobs: list[Job], policy: ExecutorPolicy, journal: RunJournal
    ):
        self.policy = policy
        self.journal = journal
        self.queue: deque[tuple[Job, int]] = deque((job, 0) for job in jobs)
        self.results: dict[Hashable, JobResult] = {}
        self.workers = min(policy.max_workers or 1, len(jobs))
        self.pool: ProcessPoolExecutor | None = None
        # future -> (job, attempt, submit time)
        self.in_flight: dict[Any, tuple[Job, int, float]] = {}
        self.busy_s = 0.0
        self.t0 = time.perf_counter()

    # -- pool lifecycle -------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(max_workers=self.workers)
        except Exception as exc:  # noqa: BLE001 - any start failure degrades
            self.journal.record("pool_start_failed", error=repr(exc))
            return None

    def _abandon_pool(self, terminate: bool) -> None:
        pool, self.pool = self.pool, None
        if pool is None:
            return
        if terminate:
            # A hung worker cannot be cancelled through the public API;
            # killing its process is the only eviction mechanism (SIGKILL,
            # so a blocking shutdown below is guaranteed to return).
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.kill()
                except Exception:  # noqa: BLE001 - already-dead processes
                    pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # noqa: BLE001 - broken pools may refuse
            pass

    # -- main loop ------------------------------------------------------

    def run(self) -> dict[Hashable, JobResult]:
        self.pool = self._new_pool()
        if self.pool is None:
            return self._degrade("pool_start_failed")
        while self.queue or self.in_flight:
            self._top_up()
            if self.pool is None:
                return self._degrade("broken_pool")
            if self.in_flight:
                self._drain()
                if self.pool is None:
                    return self._degrade("broken_pool")
        self._record_utilization()
        self._abandon_pool(terminate=False)
        return self.results

    def _top_up(self) -> None:
        """Submit jobs up to the bounded in-flight window."""
        while self.queue and len(self.in_flight) < self.workers + 1:
            job, attempt = self.queue.popleft()
            kind = self.policy.fault_kind(job.key, attempt)
            try:
                future = self.pool.submit(_invoke, kind, job.fn, *job.args)
            except (BrokenProcessPool, RuntimeError):
                self.queue.appendleft((job, attempt))
                self._abandon_pool(terminate=False)
                return
            self.in_flight[future] = (job, attempt, time.perf_counter())

    def _drain(self) -> None:
        """Wait for at least one completion (or a timeout) and fold it."""
        wait_timeout = None
        if self.policy.timeout is not None:
            earliest = min(t for _, _, t in self.in_flight.values())
            wait_timeout = max(
                0.0, earliest + self.policy.timeout - time.perf_counter()
            )
        done, _ = wait(
            set(self.in_flight),
            timeout=wait_timeout,
            return_when=FIRST_COMPLETED,
        )
        now = time.perf_counter()
        if not done:
            self._handle_timeouts(now)
            return
        for future in done:
            job, attempt, submitted = self.in_flight.pop(future)
            wall = now - submitted
            try:
                value = future.result()
            except BrokenProcessPool:
                # A worker died; the pool (and every sibling future) is
                # unusable.  Requeue and let the caller degrade.
                self.queue.appendleft((job, attempt))
                self._abandon_pool(terminate=False)
                return
            except Exception as exc:  # noqa: BLE001 - worker exceptions
                self.busy_s += wall
                self._failed_attempt(job, attempt, repr(exc))
                continue
            self.busy_s += wall
            self.results[job.key] = JobResult(
                job.key,
                value=value,
                attempts=attempt + 1,
                where="worker",
                wall_s=wall,
            )
            self.journal.record(
                "job",
                key=str(job.key),
                where="worker",
                attempts=attempt + 1,
                wall_s=round(wall, 6),
            )

    def _failed_attempt(self, job: Job, attempt: int, error: str) -> None:
        if attempt >= self.policy.retries:
            self.results[job.key] = JobResult(
                job.key,
                error=error,
                attempts=attempt + 1,
                where="worker",
            )
            self.journal.record(
                "job_failed",
                key=str(job.key),
                where="worker",
                attempts=attempt + 1,
                error=error,
            )
            return
        delay = self.policy.backoff * (2 ** attempt)
        self.journal.record(
            "retry",
            key=str(job.key),
            attempt=attempt + 1,
            where="worker",
            error=error,
            backoff_s=round(delay, 6),
        )
        if delay > 0:
            time.sleep(delay)
        self.queue.append((job, attempt + 1))

    def _handle_timeouts(self, now: float) -> None:
        assert self.policy.timeout is not None
        expired = [
            future
            for future, (_, _, submitted) in self.in_flight.items()
            if now - submitted >= self.policy.timeout - _TIMEOUT_SLACK
        ]
        if not expired:
            return
        for future in expired:
            job, attempt, _ = self.in_flight.pop(future)
            self.busy_s += self.policy.timeout
            self.journal.record(
                "timeout",
                key=str(job.key),
                attempt=attempt + 1,
                timeout_s=self.policy.timeout,
            )
            self._failed_attempt(
                job, attempt, f"timed out after {self.policy.timeout}s"
            )
        # The expired jobs' workers are still running (possibly hung):
        # replace the whole pool and requeue the innocent in-flight jobs
        # at their current attempt.
        requeued = list(self.in_flight.values())
        self.in_flight.clear()
        for job, attempt, _ in requeued:
            self.queue.append((job, attempt))
        self._abandon_pool(terminate=True)
        self.journal.record(
            "pool_restart", reason="timeout", requeued=len(requeued)
        )
        self.pool = self._new_pool()

    # -- degradation and accounting ------------------------------------

    def _degrade(self, reason: str) -> dict[Hashable, JobResult]:
        for job, attempt, _ in self.in_flight.values():
            self.queue.append((job, attempt))
        self.in_flight.clear()
        self._abandon_pool(terminate=False)
        remaining = len(self.queue)
        self.journal.record("fallback", reason=reason, remaining=remaining)
        if not self.policy.serial_fallback:
            self._record_utilization()
            raise RuntimeExecutionError(
                f"worker pool failed ({reason}) with {remaining} job(s) "
                "remaining and serial fallback disabled"
            )
        self.results.update(
            _run_serial(
                self.queue, self.policy, self.journal, where="serial-fallback"
            )
        )
        self._record_utilization()
        return self.results

    def _record_utilization(self) -> None:
        wall = time.perf_counter() - self.t0
        capacity = wall * self.workers
        self.journal.record(
            "worker_util",
            workers=self.workers,
            busy_s=round(self.busy_s, 6),
            wall_s=round(wall, 6),
            utilization=round(
                min(1.0, self.busy_s / capacity) if capacity > 0 else 0.0, 4
            ),
        )
