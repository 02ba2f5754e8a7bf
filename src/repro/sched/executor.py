"""Real thread-pool evaluation backend.

Same protocol as :class:`~repro.sched.workers.VirtualWorkerPool` — ``submit``
/ ``wait_next`` / ``wait_all`` / ``pending_points`` — but evaluations run
concurrently in OS threads and the trace records real wall-clock timestamps.

This is the backend to use when the evaluation function releases the GIL or
performs genuine I/O (e.g. shelling out to an external simulator).  The pure-
Python testbenches in this repository are GIL-bound, so for *experiments* the
virtual pool is both faster and deterministic; the thread pool exists to
demonstrate the asynchronous mechanism end to end and to host user problems
that wrap real simulators.

Failure containment
-------------------
Each evaluation runs in its own daemon thread under the pool's
:class:`~repro.core.faults.FailurePolicy`:

* An exception or NaN output is retried in the worker thread (with real
  backoff sleeps) and, once retries are exhausted, surfaces through
  ``wait_next`` as a failed :class:`Completion` — it never raises into the
  driver, and the worker is only freed *after* the outcome is resolved and
  traced.
* When ``policy.timeout`` is set, ``wait_next`` enforces it on the real
  clock: a hung evaluation is *abandoned* — its logical worker slot is
  freed immediately and a ``"timeout"`` completion returned — while the
  orphaned daemon thread finishes (or hangs) harmlessly in the background;
  its late result, if any, is discarded.  Because threads are per-task
  rather than a fixed executor, an abandoned job cannot starve the
  remaining B-1 workers.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from repro.core.faults import FailurePolicy, run_with_policy
from repro.core.problem import STATUS_ORPHANED, STATUS_TIMEOUT, EvaluationResult
from repro.obs import NULL_OBS
from repro.sched.trace import EvalRecord, ExecutionTrace, PoolTelemetry
from repro.sched.workers import Completion, _problem_dim

__all__ = ["ThreadWorkerPool"]


class ThreadWorkerPool:
    """Concurrent evaluation pool with one daemon thread per in-flight task.

    ``wait_next`` never blocks unboundedly: queue waits are capped at
    ``poll_interval`` seconds, so a ``KeyboardInterrupt`` surfaces promptly
    and lease/timeout deadlines are checked on every poll even when no
    completion ever arrives.
    """

    def __init__(
        self,
        problem,
        n_workers: int,
        *,
        policy: FailurePolicy | None = None,
        poll_interval: float = 0.5,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.problem = problem
        self.n_workers = int(n_workers)
        self.policy = policy or FailurePolicy()
        self.poll_interval = float(poll_interval)
        self.trace = ExecutionTrace(n_workers)
        self._obs = NULL_OBS
        self._lock = threading.Lock()
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._t0 = time.monotonic()
        self._next_index = 0
        self._tasks: dict[int, dict] = {}
        self._abandoned: set[int] = set()
        self._free_workers = list(range(n_workers - 1, -1, -1))
        self._cost_total = 0.0
        self._cost_count = 0

    def bind_observability(self, obs) -> None:
        """Attach an :class:`~repro.obs.Observability` facade (live counters:
        ``pool.submits`` / ``pool.completions`` / ``pool.task_seconds``)."""
        self._obs = obs if obs is not None else NULL_OBS

    # ------------------------------------------------------------ inspection
    @property
    def now(self) -> float:
        """Seconds since pool creation (real time)."""
        return time.monotonic() - self._t0

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._free_workers)

    @property
    def busy_count(self) -> int:
        with self._lock:
            return len(self._tasks)

    def pending_points(self) -> np.ndarray:
        """In-flight design points in issue order; shape ``(n_busy, dim)``.

        Always two-dimensional — ``(0, dim)`` when idle — so the pending-
        point hallucination can consume it without special cases.
        """
        with self._lock:
            metas = sorted(self._tasks.values(), key=lambda m: m["index"])
        if not metas:
            return np.empty((0, _problem_dim(self.problem)))
        return np.vstack([m["x"] for m in metas])

    # ------------------------------------------------------------- operation
    def submit(self, x: np.ndarray, *, batch: int | None = None) -> int:
        """Dispatch ``x`` to a free worker thread; returns the index."""
        with self._lock:
            if not self._free_workers:
                raise RuntimeError("no idle worker; call wait_next() first")
            worker = self._free_workers.pop()
            index = self._next_index
            self._next_index += 1
        x = np.asarray(x, dtype=float).copy()
        issue_time = self.now
        deadline = None if self.policy.timeout is None else issue_time + self.policy.timeout
        lease = self._lease_deadline(issue_time)
        thread = threading.Thread(
            target=self._run_task, args=(index, x), daemon=True, name=f"eval-{index}"
        )
        with self._lock:
            self._tasks[index] = {
                "index": index,
                "worker": worker,
                "x": x,
                "issue_time": issue_time,
                "batch": batch,
                "deadline": deadline,
                "lease": lease,
                "thread": thread,
            }
        thread.start()
        self._obs.inc("pool.submits")
        return index

    def _lease_deadline(self, issue_time: float) -> float | None:
        """Lease expiry (mean completed duration x slack); ``None`` if unleased."""
        slack = self.policy.lease_slack
        with self._lock:
            if slack is None or self._cost_count == 0:
                return None
            return issue_time + (self._cost_total / self._cost_count) * slack

    def task_info(self, index: int) -> dict:
        """Issue metadata for an in-flight evaluation (for the run journal)."""
        with self._lock:
            meta = self._tasks[index]
            return {
                "worker": meta["worker"],
                "issue_time": meta["issue_time"],
                "batch": meta["batch"],
                "lease": meta["lease"],
            }

    def _run_task(self, index: int, x: np.ndarray) -> None:
        """Worker-thread body: evaluate under the policy, post the outcome."""
        result, attempts, _ = run_with_policy(
            self.problem, x, self.policy, sleep=time.sleep
        )
        self._results.put((index, result, attempts))

    def wait_next(self) -> Completion:
        """Block until an in-flight evaluation finishes or times out.

        Never raises on evaluation failure: crashed, NaN, and timed-out
        evaluations come back as completions whose ``result`` carries the
        failure status, after the outcome has been recorded in the trace
        and the worker freed — in that order, so the pool stays consistent
        even for failures.
        """
        while True:
            deadlines = self._deadlines()
            if deadlines is None:
                raise RuntimeError("nothing is running")
            # Never block unboundedly: cap every wait at poll_interval so
            # KeyboardInterrupt is honored promptly and deadlines are polled
            # even when no completion ever arrives.
            block = self.poll_interval
            if deadlines:
                block = min(block, max(min(deadlines)[0] - self.now, 0.0))
            try:
                item = self._results.get(timeout=block)
            except KeyboardInterrupt:
                raise
            except queue.Empty:
                completion = self._expire(deadlines)
            else:
                completion = self._take(item)
            if completion is not None:
                return completion

    def _deadlines(self) -> list[tuple[float, int, str]] | None:
        """``(deadline, index, kind)`` of every armed timeout and lease.

        ``None`` when nothing is in flight.
        """
        with self._lock:
            if not self._tasks:
                return None
            return [
                (m["deadline"], i, "timeout")
                for i, m in self._tasks.items()
                if m["deadline"] is not None
            ] + [
                (m["lease"], i, "lease")
                for i, m in self._tasks.items()
                if m["lease"] is not None
            ]

    def _expire(self, deadlines) -> Completion | None:
        """Fail the task with the earliest overdue deadline, if any.

        Its (possibly hung or dead) thread is abandoned; a late result from
        it is discarded by :meth:`_take`.
        """
        expired = min(
            (entry for entry in deadlines if entry[0] <= self.now), default=None
        )
        if expired is None:
            return None
        _, task_index, kind = expired
        if kind == "timeout":
            failure = EvaluationResult.failed(
                f"evaluation exceeded timeout of {self.policy.timeout:g}s",
                status=STATUS_TIMEOUT,
                cost=self.policy.timeout,
            )
        else:
            failure = EvaluationResult.failed(
                "worker lease expired with the evaluation still in "
                "flight (worker presumed dead)",
                status=STATUS_ORPHANED,
            )
        return self._complete(task_index, failure, attempts=1, abandon=True)

    def _take(self, item) -> Completion | None:
        """Complete a posted result; ``None`` for a late, abandoned one."""
        index, result, attempts = item
        with self._lock:
            stale = index in self._abandoned
            if stale:
                self._abandoned.discard(index)
        if stale:
            return None  # late result of a timed-out, abandoned task
        return self._complete(index, result, attempts)

    def _complete(
        self, index: int, result: EvaluationResult, attempts: int, *, abandon: bool = False
    ) -> Completion:
        """Resolve one task: trace it, free its worker, hand it back."""
        finish_time = self.now
        with self._lock:
            meta = self._tasks.pop(index)
            if abandon:
                self._abandoned.add(index)
            self._free_workers.append(meta["worker"])
            self._free_workers.sort(reverse=True)
            self._cost_total += max(finish_time - meta["issue_time"], 0.0)
            self._cost_count += 1
        completion = Completion(
            index=meta["index"],
            worker=meta["worker"],
            x=meta["x"],
            result=result,
            issue_time=meta["issue_time"],
            finish_time=finish_time,
            batch=meta["batch"],
            attempts=attempts,
        )
        self.trace.add(
            EvalRecord(
                index=meta["index"],
                worker=meta["worker"],
                x=meta["x"],
                fom=result.fom,
                issue_time=meta["issue_time"],
                finish_time=finish_time,
                feasible=result.feasible,
                batch=meta["batch"],
                status=result.status,
                error=result.error,
                attempts=attempts,
            )
        )
        self._obs.inc("pool.completions")
        self._obs.observe(
            "pool.task_seconds", max(finish_time - meta["issue_time"], 0.0)
        )
        return completion

    def poll(self) -> Completion | None:
        """Non-blocking :meth:`wait_next`: a ready completion or ``None``.

        Drains at most one finished evaluation (expiring an overdue
        timeout/lease deadline counts); returns ``None`` when nothing has
        finished yet so a caller multiplexing many pools — the campaign
        server — never blocks on one of them.
        """
        while True:
            try:
                item = self._results.get_nowait()
            except queue.Empty:
                deadlines = self._deadlines()
                return None if deadlines is None else self._expire(deadlines)
            completion = self._take(item)
            if completion is not None:
                return completion

    def wait_all(self) -> list[Completion]:
        """Drain every outstanding evaluation (synchronous barrier)."""
        completions = []
        while self.busy_count:
            completions.append(self.wait_next())
        return completions

    # -------------------------------------------------------------- recovery
    def restore(self, *, now: float, next_index: int, records=()) -> None:
        """Rewind a fresh pool to a journaled state (crash recovery).

        Shifts the pool epoch so ``self.now`` continues from the journaled
        clock, sets the next evaluation index, and replays completed records
        into the trace (rebuilding the duration statistics behind leases).
        """
        with self._lock:
            if self._tasks or self.trace.records:
                raise RuntimeError("restore() requires a fresh pool")
            self._t0 = time.monotonic() - float(now)
            self._next_index = int(next_index)
            for record in records:
                self.trace.add(record)
                self._cost_total += max(record.duration, 0.0)
                self._cost_count += 1

    def restore_task(
        self,
        index: int,
        worker: int,
        x: np.ndarray,
        *,
        batch: int | None = None,
        issue_time: float | None = None,
        attempts_offset: int = 0,
    ) -> int:
        """Re-issue an orphaned in-flight evaluation at a chosen slot.

        Real clocks cannot be rewound per-task, so the journaled
        ``issue_time`` is kept for the trace (the point *was* first issued
        then) while timeout/lease deadlines restart from the current time —
        the re-run gets a full fresh allowance.  ``attempts_offset`` is unused
        here (the retry loop reports its own attempt count) but accepted for
        pool-protocol compatibility.
        """
        x = np.asarray(x, dtype=float).copy()
        start = self.now
        issue_time = start if issue_time is None else float(issue_time)
        deadline = None if self.policy.timeout is None else start + self.policy.timeout
        lease = self._lease_deadline(start)
        thread = threading.Thread(
            target=self._run_task, args=(index, x), daemon=True, name=f"eval-{index}"
        )
        with self._lock:
            if worker not in self._free_workers:
                raise RuntimeError(f"worker {worker} is not idle")
            if index in self._tasks:
                raise RuntimeError(f"evaluation {index} is already running")
            self._free_workers.remove(worker)
            self._tasks[index] = {
                "index": int(index),
                "worker": int(worker),
                "x": x,
                "issue_time": issue_time,
                "batch": batch,
                "deadline": deadline,
                "lease": lease,
                "thread": thread,
            }
            self._next_index = max(self._next_index, int(index) + 1)
        thread.start()
        self._obs.inc("pool.submits")
        return int(index)

    def telemetry(self) -> PoolTelemetry:
        """Operational counters for this pool (trace-derived subset)."""
        return PoolTelemetry.from_trace(self.trace, backend="thread", elapsed=self.now)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join live (non-abandoned) threads."""
        if wait:
            with self._lock:
                threads = [m["thread"] for m in self._tasks.values()]
            for thread in threads:
                thread.join()

    def close(self) -> None:
        """Release the pool without blocking on in-flight work.

        Worker threads are daemons and cannot be cancelled from Python, so
        a close on the exception path simply abandons them — they die with
        the interpreter instead of wedging the caller the way a joining
        shutdown would on a hung evaluation.
        """
        self.shutdown(wait=False)

    def __enter__(self) -> "ThreadWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
