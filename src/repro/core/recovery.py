"""Checkpoint/resume: replay a driver journal and continue the run.

:func:`resume` is the recovery entry point.  It reads the longest valid
prefix of a :mod:`repro.core.journal` file (truncating any torn tail),
rebuilds the driver from the ``campaign_start`` record, and lets
:meth:`Campaign.replay` — the same fold :func:`resume_campaign` uses —
reconstruct the exact state at the crash boundary: the GP training set (and
every subclass side dataset, through the driver's absorb hook), the
surrogate hyperparameters and refit schedule, and the bit-exact
``np.random.Generator`` state.  What is left is the pool: resume restores
its trace, clock and next index, reconciles the points that were in flight
when the process died, and re-enters the driver's resumable loop.

Journals written in the older run-journal vocabulary (``run_start`` /
``issue`` / ``batch`` / ``complete`` / ``resume`` / ``run_end``) are
translated into campaign records when read, so they resume through the
same fold.

Resume-equivalence guarantee
----------------------------
On a deterministic problem, with the default ``on_orphan="reissue"`` policy
and ``surrogate_update="full"``, a run killed at *any* event and resumed from
its journal produces bit-for-bit the trajectory the uninterrupted run would
have produced: orphaned points are re-evaluated at their original index,
worker, and issue time, and every RNG draw after the crash boundary comes
from the restored generator state.  In ``"incremental"`` mode the rebuilt
Cholesky factor can differ from the crashed run's incrementally-updated one
by round-off, so equivalence holds to the same tolerance the incremental
mode's own equivalence harness grants.  With ``on_orphan="impute"``/``"drop"``
(the right choice when evaluations are non-deterministic or expensive) the
resumed run deliberately diverges at the orphaned points but remains a valid
continuation: no budget is lost and ``wait_next`` can never wedge on a dead
worker.  Drivers whose side models warm-start between proposals (the
constrained and cost-aware EasyBO variants, whose constraint / cost GPs draw
their ML-II restarts from the run RNG) resume to a valid but not bit-exact
continuation: their side datasets are rebuilt exactly, their warm starts are
not.
"""

from __future__ import annotations

import re

import numpy as np

from repro.core.bo import BODriverBase, shutdown_pool
from repro.core.campaign import CAMPAIGN_JOURNAL_VERSION, check_campaign_journal
from repro.core.faults import FailurePolicy
from repro.core.journal import JOURNAL_VERSION, JournalError, recover_journal
from repro.core.problem import STATUS_ORPHANED, EvaluationResult
from repro.core.results import RunResult
from repro.sched.trace import EvalRecord

__all__ = ["resume", "resolve_problem"]

_DIM_SUFFIX = re.compile(r"^([a-zA-Z]+?)(\d+)$")


def resolve_problem(name: str):
    """Rebuild a problem instance from its journaled ``name``.

    Synthetic benchmarks resolve through the factory registry (with a
    ``name<dim>`` suffix convention, e.g. ``sphere2``); the circuit
    testbenches resolve by their class defaults.  Anything else —
    custom problems, wrapped problems — must be passed to :func:`resume`
    explicitly via ``problem=``.
    """
    from repro.circuits import benchmarks

    try:
        return benchmarks.by_name(name)
    except (KeyError, TypeError):
        pass
    match = _DIM_SUFFIX.match(name)
    if match:
        try:
            return benchmarks.by_name(match.group(1), dim=int(match.group(2)))
        except (KeyError, TypeError):
            pass
    import repro.circuits as circuits

    for attr in (
        "OpAmpProblem",
        "ClassEProblem",
        "OtaProblem",
        "ConstrainedOpAmpProblem",
    ):
        cls = getattr(circuits, attr, None)
        if cls is None:
            continue
        try:
            instance = cls()
        except Exception:  # noqa: BLE001 — registry probing only
            continue
        if instance.name == name:
            return instance
    raise ValueError(
        f"cannot rebuild problem {name!r} from the journal alone; "
        "pass problem=... to resume()"
    )


def _from_run_journal(events: list[dict]) -> list[dict]:
    """Translate a run journal of the older vocabulary into campaign records.

    ``issue`` becomes ``ask`` + ``dispatch`` (dispatch only for a budget-
    neutral reissue or a member of an already-asked batch), a synchronous
    ``batch`` becomes one ``ask``, and ``complete`` becomes ``tell``.  A
    synchronous initial-design batch was never journaled as a whole, so its
    first ``issue`` asks for the design rows the batch spans, as
    ``campaign.ask(n)`` does.  ``doe``, ``checkpoint`` and ``orphan`` read
    the same in both vocabularies.
    """
    start = events[0]
    version = start.get("journal_version")
    if isinstance(version, int) and version > JOURNAL_VERSION:
        raise JournalError(
            f"run journal format v{version} is newer than supported "
            f"v{JOURNAL_VERSION}; upgrade this installation to resume it"
        )
    n_workers = int(start.get("n_workers", 1))
    n_init = int(start.get("config", {}).get("n_init", 0))
    out = [
        {
            "type": "campaign_start",
            "campaign_version": CAMPAIGN_JOURNAL_VERSION,
            "algorithm": start["algorithm"],
            "problem": start.get("problem", ""),
            "config": start.get("config", {}),
            "rng_state": start["rng_state"],
            "n_workers": n_workers,
        }
    ]
    design: list = []
    issued = 0
    asked_batches: set = set()
    for event in events[1:]:
        kind = event.get("type")
        if kind == "issue":
            batch = event.get("batch")
            if event.get("counts_budget", True) and batch not in asked_batches:
                if batch is None:
                    points = [event["x"]]
                else:  # the first issue of a synchronous initial-design batch
                    asked_batches.add(batch)
                    points = design[issued:min(issued + n_workers, n_init)]
                issued += len(points)
                out.append(
                    {"type": "ask", "points": points,
                     "rng_state": event.get("rng_state"),
                     "surrogate": event.get("surrogate")}
                )
            out.append(
                {"type": "dispatch",
                 **{k: event.get(k) for k in
                    ("index", "worker", "x", "batch", "issue_time", "lease")}}
            )
        elif kind == "batch":
            asked_batches.add(event["batch"])
            issued += len(event["points"])
            out.append(
                {"type": "ask", "points": event["points"],
                 "rng_state": event.get("rng_state"),
                 "surrogate": event.get("surrogate")}
            )
        elif kind == "complete":
            record = event["record"]
            result = {
                "fom": record["fom"],
                "cost": max(record["finish_time"] - record["issue_time"], 0.0),
                "feasible": record.get("feasible", True),
                "status": record.get("status", "ok"),
                "error": record.get("error"),
            }
            out.append(
                {"type": "tell", "x": record["x"], "result": result,
                 "action": event.get("action"), "value": event.get("value"),
                 "record": record,
                 "clock": event.get("clock", record["finish_time"])}
            )
        elif kind == "resume":
            out.append({**event, "type": "campaign_resume"})
        elif kind == "run_end":
            out.append({**event, "type": "campaign_end"})
        else:
            if kind == "doe":
                design = event["design"]
            out.append(event)
    return out


def _reconcile_orphans(driver, pool, ledger) -> None:
    """Classify every point that was in flight at the crash.

    ``on_orphan="reissue"`` re-evaluates the point at its original index /
    worker / issue time (budget-neutral; deterministic problems land exactly
    on the uninterrupted trajectory).  ``"impute"`` records a pessimistic
    observation, ``"drop"`` just counts the orphan; both spend the already-
    asked budget slot so a dead worker never wedges the run.
    """
    campaign = driver.campaign
    for index in sorted(ledger.in_flight):
        dispatch = ledger.in_flight[index]
        x = np.asarray(dispatch["x"], dtype=float)
        issue_time = float(dispatch["issue_time"])
        if campaign.note_orphan(x):
            # Journal the reissue BEFORE attempting it: if the re-evaluation
            # kills the process too, the next resume must see the spent
            # attempt, or a poisoned point would be reissued forever instead
            # of downgrading to impute after max_reissues.
            driver._journal_event(
                {"type": "orphan", "index": index, "disposition": "reissue"}
            )
            pool.restore_task(
                index,
                int(dispatch["worker"]),
                x,
                batch=dispatch.get("batch"),
                issue_time=issue_time,
            )
            continue
        record = EvalRecord(
            index=index,
            worker=int(dispatch["worker"]),
            x=x,
            fom=float("nan"),
            issue_time=issue_time,
            finish_time=max(ledger.clock, issue_time),
            feasible=False,
            batch=dispatch.get("batch"),
            status=STATUS_ORPHANED,
            error="in flight at crash; reconciled at resume",
        )
        pool.trace.add(record)
        driver._absorb(x, EvaluationResult.failed(record.error, status=STATUS_ORPHANED))
        action, value = campaign.last_action
        driver._journal_event(
            {
                "type": "orphan",
                "index": index,
                "disposition": {"imputed": "impute", "dropped": "drop"}[action],
                "value": value,
                "record": record.as_dict(),
            }
        )


def resume(journal_path, *, problem=None, pool_factory=None, tracer=None,
           metrics=None) -> RunResult:
    """Resume a crashed run from its write-ahead journal.

    Parameters
    ----------
    journal_path:
        The journal the crashed run was writing.  Any torn tail record is
        truncated in place; new events are appended to the same file, so a
        resumed run that crashes again can be resumed again.
    problem:
        The problem instance to evaluate.  Defaults to rebuilding it from the
        journaled name via :func:`resolve_problem`; required for custom or
        wrapped problems.
    pool_factory:
        Evaluation pool factory, as for the drivers.
    tracer / metrics:
        Observability sinks for the *resumed* portion of the run, as for the
        driver constructors.  Replayed journal events feed the trace /
        surrogate stats / pool telemetry (the durable sources of truth), and
        the metrics registry derives its totals from those once at packaging
        time — so the reported counters equal the uninterrupted run's and
        replayed events are never counted twice.

    Returns
    -------
    RunResult
        The completed run, with the pre-crash history replayed into its
        trace.
    """
    events = recover_journal(journal_path)
    if events and events[0].get("type") == "run_start":
        events = _from_run_journal(events)
    start = check_campaign_journal(events, journal_path)[0]
    if "n_workers" not in start:
        raise JournalError(
            f"{journal_path} is a standalone campaign journal; resume it "
            "with repro.resume_campaign()"
        )
    if problem is None:
        problem = resolve_problem(start.get("problem", ""))

    from repro.core.easybo import make_algorithm

    config = dict(start.get("config", {}))
    policy_dict = config.pop("failure_policy", None)
    policy = FailurePolicy(**policy_dict) if policy_dict else None
    # Observability sinks are live objects, never journaled; pass them only
    # when given so algorithms without the kwargs keep resuming.
    if tracer is not None:
        config["tracer"] = tracer
    if metrics is not None:
        config["metrics"] = metrics
    driver = make_algorithm(
        start["algorithm"],
        problem,
        rng=0,  # placeholder stream; the replay restores the journaled state
        pool_factory=pool_factory,
        failure_policy=policy,
        **config,
    )
    if not isinstance(driver, BODriverBase):
        raise ValueError(
            f"algorithm {start['algorithm']!r} does not support resume"
        )
    ledger = driver.campaign.replay(events)
    if driver.campaign.finished:
        raise RuntimeError(
            f"the run in {journal_path} already completed; nothing to resume"
        )

    n_workers = int(start["n_workers"])
    driver._begin_observability(n_workers, resumed=True)
    pool = driver._make_pool(n_workers)
    try:
        pool.restore(
            now=ledger.clock, next_index=ledger.next_index, records=ledger.records
        )
        driver.campaign.attach_journal(journal_path)
        driver._journal_event(
            {
                "type": "campaign_resume",
                "n_pending": driver.campaign.n_pending,
                "clock": ledger.clock,
            }
        )
        _reconcile_orphans(driver, pool, ledger)
        return driver._drive(pool)
    finally:
        shutdown_pool(pool)
