"""Ask/tell optimizer core — the paper's Algorithm 1 as a value, not a loop.

Every driver in this repo runs the same event cycle: wait for a worker, fold
the observation into the GP (Alg. 1 line 4), hallucinate the still-pending
points (lines 5-6, Eq. 9), maximize the weighted acquisition (line 7), issue
the winner.  Historically that cycle was fused into each driver's ``run()``,
so one process owned one run end-to-end.  :class:`Campaign` extracts it into
an explicit ask/tell object whose state is a value:

* :meth:`Campaign.ask` returns the next point(s) — initial-design rows first,
  then the family strategy's refit/hallucinate/acquisition pipeline
  (including the Eq. 9 pending-point penalization via
  :meth:`SurrogateSession.model_with_pending`);
* :meth:`Campaign.tell` folds one observation back in, applying the failure
  policy (impute / drop / budget-neutral orphan reissue).

The ``SequentialBO`` / ``AsynchronousBatchBO`` / ``SynchronousBatchBO``
drivers are thin loops over a Campaign (byte-for-byte equal to the golden
trajectories — see ``tests/test_campaign_equivalence.py``), and
:mod:`repro.distributed.server` serves many concurrent Campaigns over the
framed socket RPC, each with its own crash-safe journal.

Proposal logic lives in per-family strategy objects (:class:`SequentialStrategy`,
:class:`AsyncBatchStrategy`, :class:`SyncBatchStrategy`) so the same pipeline
backs both the embedded drivers and standalone campaigns.  Crash safety is
shared the same way: a driver's journal is its campaign's journal, and
:meth:`Campaign.replay` is the one recovery fold behind both
:func:`resume_campaign` and :func:`repro.core.recovery.resume`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import stats

from repro.core.acquisition import (
    EASYBO_LAMBDA,
    ExpectedImprovement,
    HighCoveragePenalty,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    WeightedAcquisition,
    pbo_weights,
    sample_easybo_weight,
)
from repro.core.doe import random_design
from repro.core.faults import FailurePolicy
from repro.core.journal import JournalError, JournalWriter, recover_journal
from repro.core.optimizers import maximize_acquisition
from repro.core.pending import estimate_lipschitz, make_pending_policy
from repro.core.problem import STATUS_ORPHANED, EvaluationResult, Problem
from repro.core.surrogate import SurrogateSession
from repro.obs import NULL_OBS
from repro.sched.trace import EvalRecord
from repro.utils.rng import as_generator, rng_state_to_dict, set_rng_state

__all__ = [
    "CAMPAIGN_JOURNAL_VERSION",
    "Campaign",
    "CampaignError",
    "CampaignExhausted",
    "PoolLedger",
    "SequentialStrategy",
    "AsyncBatchStrategy",
    "SyncBatchStrategy",
    "make_campaign",
    "resume_campaign",
    "read_campaign_journal",
    "check_campaign_journal",
]

#: Version stamp embedded in every ``campaign_start`` record.  Bump when the
#: campaign event schema changes incompatibly.
CAMPAIGN_JOURNAL_VERSION = 1

#: Bounded redraw budget for the cold-start dedupe: a fresh uniform draw
#: colliding with an in-flight point is measure-zero on a continuous domain,
#: so a handful of retries is already overkill — the bound only guards
#: degenerate (e.g. single-point) domains from spinning forever.
_COLD_REDRAW_ATTEMPTS = 32


class CampaignError(RuntimeError):
    """A campaign was driven outside its ask/tell contract."""


class CampaignExhausted(CampaignError):
    """``ask()`` was called after the evaluation budget was fully issued."""


def _pareto_front_mask(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row (maximization)."""
    n = scores.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated = np.all(scores >= scores[i], axis=1) & np.any(
            scores > scores[i], axis=1
        )
        if dominated.any():
            mask[i] = False
    return mask


# --------------------------------------------------------------------------
# Per-family proposal strategies.  Each receives the Campaign ("core") and
# uses only its public surface: session, rng, pending_matrix, maximize,
# standardized_best, cold_point.
# --------------------------------------------------------------------------
class SequentialStrategy:
    """One-at-a-time proposals with a pluggable acquisition rule."""

    kind = "sequential"

    def __init__(
        self,
        acquisition: str = "easybo",
        *,
        lam: float = EASYBO_LAMBDA,
        ucb_kappa: float = 2.0,
        ei_xi: float = 0.0,
    ):
        acquisition = acquisition.lower()
        if acquisition not in ("easybo", "ei", "pi", "lcb", "ucb"):
            raise ValueError(f"unknown acquisition {acquisition!r}")
        self.acquisition = acquisition
        self.lam = float(lam)
        self.ucb_kappa = float(ucb_kappa)
        self.ei_xi = float(ei_xi)

    def make_acquisition(self, core: "Campaign"):
        if self.acquisition == "easybo":
            return WeightedAcquisition(sample_easybo_weight(core.rng, self.lam))
        if self.acquisition == "ei":
            return ExpectedImprovement(core.standardized_best(), xi=self.ei_xi)
        if self.acquisition == "pi":
            return ProbabilityOfImprovement(core.standardized_best(), xi=self.ei_xi)
        return UpperConfidenceBound(self.ucb_kappa)

    def propose(self, core: "Campaign") -> np.ndarray:
        if core.session.n_observations < 2:
            # Failures (under a "drop" policy) can leave the GP with too
            # little data; explore uniformly until it has a footing.
            return core.cold_point()
        core.session.refit()
        return core.maximize(self.make_acquisition(core))

    def select(self, core: "Campaign", n_points: int) -> list[np.ndarray]:
        return [self.propose(core) for _ in range(n_points)]


class AsyncBatchStrategy:
    """The paper's Alg. 1 proposal with a pluggable pending-point policy.

    The policy decides how in-flight points shape the proposal: the default
    ``"hallucinate"`` folds them in at predictive means (lines 5-6, Eq. 9,
    byte-for-byte the historical pipeline), ``"lp"`` penalizes the
    acquisition in Lipschitz balls around them, ``"pessimistic"``
    hallucinates at ``mu - beta * sigma``, and ``"none"`` ignores them
    (standard acquisition, the historical ``penalized=False``).  See
    :mod:`repro.core.pending`.
    """

    kind = "async"

    def __init__(
        self,
        *,
        penalized: bool = True,
        lam: float = EASYBO_LAMBDA,
        pending_policy=None,
    ):
        if pending_policy is None:
            pending_policy = "hallucinate" if penalized else "none"
        self.pending_policy = make_pending_policy(pending_policy)
        self.penalized = self.pending_policy.name == "hallucinate"
        self.lam = float(lam)

    def propose(self, core: "Campaign") -> np.ndarray:
        if core.session.n_observations < 2:
            # The whole initial design may still be in flight (B >= n_init);
            # the GP has nothing to say yet, so explore uniformly — but never
            # re-issue a point that is already under evaluation.
            return core.cold_point()
        core.session.refit()
        policy = self.pending_policy
        pending = core.pending_matrix()
        model = policy.model(core.session, pending)
        w = sample_easybo_weight(core.rng, self.lam)
        acquisition = policy.wrap(
            core.session, model, WeightedAcquisition(w), pending, rng=core.rng
        )
        return core.maximize(acquisition, model=model)

    def select(self, core: "Campaign", n_points: int) -> list[np.ndarray]:
        # Greedy: each member sees the earlier ones as pending via the
        # campaign's own pending set (they were marked at ask time).
        return [self.propose(core) for _ in range(n_points)]


class SyncBatchStrategy:
    """Synchronous batch selection: pBO / pHCBO / EasyBO-S(P) / BUCB / LP / MACE."""

    kind = "sync"

    STRATEGIES = ("pbo", "phcbo", "easybo-s", "easybo-sp", "bucb", "lp", "mace")

    def __init__(
        self,
        strategy: str = "easybo-sp",
        *,
        batch_size: int = 1,
        lam: float = EASYBO_LAMBDA,
        ucb_kappa: float = 2.0,
        hc_d: float | None = None,
        dim: int | None = None,
    ):
        strategy = strategy.lower()
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {self.STRATEGIES}"
            )
        self.strategy = strategy
        self.batch_size = int(batch_size)
        self.lam = float(lam)
        self.ucb_kappa = float(ucb_kappa)
        self.hc_d = hc_d
        self._hc = (
            HighCoveragePenalty(dim, d=hc_d)
            if strategy == "phcbo" and dim is not None
            else None
        )

    def _coverage(self, core: "Campaign") -> HighCoveragePenalty:
        if self._hc is None:
            self._hc = HighCoveragePenalty(core.session.dim, d=self.hc_d)
        return self._hc

    def journal_state(self) -> dict | None:
        """State each ``ask`` record carries: pHCBO's coverage history.

        The penalty's own unit-cube points are journaled; re-deriving them
        from the physical points need not round-trip bit-exactly.
        """
        return None if self._hc is None else {"coverage": self._hc.history()}

    def restore_state(self, core: "Campaign", state: dict) -> None:
        """Reinstate a :meth:`journal_state` record on replay."""
        self._coverage(core).restore(state["coverage"])

    def propose(self, core: "Campaign") -> np.ndarray:
        return self.select(core, 1)[0]

    def select(self, core: "Campaign", n_points: int) -> list[np.ndarray]:
        """Choose ``n_points`` query points for the next batch."""
        if core.session.n_observations < 2:
            # Too many dropped failures for the GP: fall back to uniform
            # exploration for this batch.
            return core.cold_block(n_points)
        model = core.session.refit()
        if self.strategy == "pbo":
            return [
                core.maximize(WeightedAcquisition(w), model=model)
                for w in pbo_weights(self.batch_size)[:n_points]
            ]
        if self.strategy == "phcbo":
            return self._select_phcbo(core, model, n_points)
        if self.strategy == "easybo-s":
            return [
                core.maximize(
                    WeightedAcquisition(sample_easybo_weight(core.rng, self.lam)),
                    model=model,
                )
                for _ in range(n_points)
            ]
        if self.strategy == "easybo-sp":
            return self._select_hallucinated(
                core,
                n_points,
                lambda: WeightedAcquisition(sample_easybo_weight(core.rng, self.lam)),
            )
        if self.strategy == "bucb":
            return self._select_hallucinated(
                core, n_points, lambda: UpperConfidenceBound(self.ucb_kappa)
            )
        if self.strategy == "mace":
            return self._select_mace(core, model, n_points)
        return self._select_lp(core, model, n_points)

    def _select_mace(self, core, model, n_points: int) -> list[np.ndarray]:
        """Sample the batch from the Pareto front of an acquisition ensemble.

        MACE keeps batch diversity by drawing from the set of candidates that
        are non-dominated under (EI, PI, UCB) simultaneously; points that are
        good under *different* exploration/exploitation trade-offs all
        survive the filter.
        """
        best_std = core.standardized_best()
        acqs = (
            ExpectedImprovement(best_std),
            ProbabilityOfImprovement(best_std),
            UpperConfidenceBound(self.ucb_kappa),
        )
        U = core.rng.uniform(
            size=(max(core.acq_candidates, 4 * n_points), core.session.dim)
        )
        scores = np.column_stack([acq(model, U) for acq in acqs])
        front = _pareto_front_mask(scores)
        front_idx = np.nonzero(front)[0]
        if len(front_idx) >= n_points:
            chosen = core.rng.choice(front_idx, size=n_points, replace=False)
        else:
            extra = core.rng.choice(
                len(U), size=n_points - len(front_idx), replace=False
            )
            chosen = np.concatenate([front_idx, extra])
        return [core.session.to_physical(U[i].reshape(1, -1))[0] for i in chosen]

    def _select_phcbo(self, core, model, n_points: int) -> list[np.ndarray]:
        """pBO weights plus the per-slot coverage penalty of Eq. 5/6.

        The penalty and the weighted acquisition are combined on the unit
        cube; each slot's chosen point is recorded for the next batches.
        """
        hc = self._coverage(core)
        points = []
        for slot, w in enumerate(pbo_weights(self.batch_size)[:n_points]):
            base = WeightedAcquisition(w)

            def scorer(U, _slot=slot, _base=base):
                return _base(model, U) - hc(_slot, U)

            u_best = maximize_acquisition(
                scorer,
                core.session.unit_bounds(),
                rng=core.rng,
                n_candidates=core.acq_candidates,
                n_restarts=core.acq_restarts,
            )
            hc.record(slot, u_best)
            points.append(core.session.to_physical(u_best.reshape(1, -1))[0])
        return points

    def _select_hallucinated(self, core, n_points: int, make_acq) -> list[np.ndarray]:
        """Greedy batch: each member sees earlier members as pending.

        This is the paper's penalization scheme (§III-C) applied at a
        synchronous barrier (EasyBO-SP), or BUCB when the acquisition is a
        fixed UCB.
        """
        points: list[np.ndarray] = []
        for _ in range(n_points):
            pending = (
                np.vstack(points) if points else np.empty((0, core.session.dim))
            )
            model = core.session.model_with_pending(pending)
            points.append(core.maximize(make_acq(), model=model))
        return points

    def _select_lp(self, core, model, n_points: int) -> list[np.ndarray]:
        """Local penalization: multiply EI by penalty balls around batch points.

        The Lipschitz constant is estimated as the largest finite-difference
        gradient norm of the posterior mean over a random probe set
        (Gonzalez et al. 2016, eq. 11 simplified).
        """
        lipschitz = estimate_lipschitz(model, core.session.dim, core.rng)
        best_std = core.standardized_best()
        ei = ExpectedImprovement(best_std)
        points: list[np.ndarray] = []
        unit_points: list[np.ndarray] = []

        def scorer(U):
            values = np.log(np.maximum(ei(model, U), 1e-40))
            for u_j in unit_points:
                mu_j, sigma_j = model.predict(u_j.reshape(1, -1))
                radius = np.linalg.norm(U - u_j[None, :], axis=1)
                z = (lipschitz * radius - (best_std - mu_j[0])) / np.maximum(
                    np.sqrt(2.0) * sigma_j[0], 1e-12
                )
                values += np.log(np.maximum(stats.norm.cdf(z), 1e-40))
            return values

        for _ in range(n_points):
            u_best = maximize_acquisition(
                scorer,
                core.session.unit_bounds(),
                rng=core.rng,
                n_candidates=core.acq_candidates,
                n_restarts=core.acq_restarts,
            )
            unit_points.append(u_best)
            points.append(core.session.to_physical(u_best.reshape(1, -1))[0])
        return points


# --------------------------------------------------------------------------
# The Campaign itself.
# --------------------------------------------------------------------------
@dataclasses.dataclass
class PoolLedger:
    """What a driver journal says about the evaluation pool.

    Filled by :meth:`Campaign.replay` from the driver-only records
    (``dispatch``, the trace fields of ``tell``, ``orphan``); empty for a
    standalone campaign.  ``in_flight`` maps evaluation index to the
    ``dispatch`` record of every point still running at the crash.
    """

    records: list = dataclasses.field(default_factory=list)
    clock: float = 0.0
    next_index: int = 0
    in_flight: dict = dataclasses.field(default_factory=dict)


class Campaign:
    """Ask/tell Bayesian-optimization state.

    A Campaign owns the surrogate session, the RNG, the initial design, the
    set of in-flight (asked but not yet told) points, and the failure-policy
    bookkeeping.  It does **not** own workers: callers decide how asked
    points get evaluated — a driver submits them to a pool, a server hands
    them to remote clients.

    Parameters mirror the drivers'; ``journal`` attaches a write-ahead
    journal (path or object with ``append``) recording every ask/tell so
    :meth:`replay` can rebuild the exact state after a crash.  The drivers
    attach theirs through :meth:`attach_journal` and add the records only
    the pool knows (``dispatch``, ``orphan``, ``checkpoint``).

    ``absorb_hook`` is the callable ``(x, result) -> bool`` that :meth:`tell`
    and :meth:`replay` use to fold a result into the dataset.  It defaults
    to :meth:`absorb`; a driver points it at its own ``_absorb`` so subclass
    side datasets (constraint slacks, evaluation costs) stay aligned with the
    surrogate, live and on replay alike.
    """

    def __init__(
        self,
        problem: Problem,
        strategy=None,
        *,
        n_init: int = 20,
        max_evals: int = 150,
        batch_size: int = 1,
        rng=None,
        failure_policy: FailurePolicy | None = None,
        acq_candidates: int = 2048,
        acq_restarts: int = 4,
        surrogate_update: str = "incremental",
        surrogate: str = "auto",
        max_exact_n: int | None = None,
        n_inducing: int | None = None,
        refit_every: int = 1,
        obs=None,
        session: SurrogateSession | None = None,
        journal=None,
        algorithm: str = "campaign",
    ):
        if n_init < 2:
            raise ValueError("n_init must be >= 2 (the GP needs data)")
        if max_evals < n_init:
            raise ValueError("max_evals must be >= n_init")
        self.problem = problem
        self.strategy = strategy
        self.n_init = int(n_init)
        self.max_evals = int(max_evals)
        self.batch_size = int(batch_size)
        self.rng = as_generator(rng)
        self.failure_policy = failure_policy or FailurePolicy()
        self.acq_candidates = int(acq_candidates)
        self.acq_restarts = int(acq_restarts)
        self.obs = obs if obs is not None else NULL_OBS
        self.algorithm = algorithm
        surrogate_kwargs = {}
        if max_exact_n is not None:
            surrogate_kwargs["max_exact_n"] = int(max_exact_n)
        if n_inducing is not None:
            surrogate_kwargs["n_inducing"] = int(n_inducing)
        self.session = session or SurrogateSession(
            problem.bounds,
            rng=self.rng,
            surrogate_update=surrogate_update,
            surrogate=surrogate,
            refit_every=refit_every,
            obs=self.obs,
            **surrogate_kwargs,
        )
        self.design: np.ndarray | None = None
        self.issued = 0
        self.n_asks = 0
        self.pending: list[np.ndarray] = []
        self.reissue_counts: dict[bytes, int] = {}
        self.last_action: tuple[str | None, float | None] = (None, None)
        self.finished = False
        self.absorb_hook = self.absorb
        self._pending_failure_action: str | None = None
        self._config: dict = {}
        self._header: dict = {}
        self._started = False
        self._journal, self._owns_journal = None, False
        if journal is not None:
            self.attach_journal(journal)

    # ----------------------------------------------------------- properties
    @property
    def exhausted(self) -> bool:
        """Whole budget issued; only ``tell`` calls remain useful."""
        return self.issued >= self.max_evals

    @property
    def in_doe(self) -> bool:
        """Still serving initial-design rows."""
        return self.issued < self.n_init

    @property
    def done(self) -> bool:
        """Budget issued and every asked point told back."""
        return self.exhausted and not self.pending

    @property
    def n_pending(self) -> int:
        return len(self.pending)

    @property
    def n_observations(self) -> int:
        return self.session.n_observations

    @property
    def journaled(self) -> bool:
        """True when state transitions are being written to a journal."""
        return self._journal is not None

    def best(self) -> tuple[np.ndarray, float] | None:
        """Best observation so far, or ``None`` before any data."""
        if self.session.n_observations == 0:
            return None
        y = self.session.y
        idx = int(np.argmax(y))
        return self.session.X[idx].copy(), float(y[idx])

    def pending_matrix(self) -> np.ndarray:
        """In-flight points as an (k, dim) array in issue order.

        Mirrors ``pool.pending_points()`` in the embedded drivers: the same
        points in the same order, so the Eq. 9 hallucination sees an
        identical matrix whichever side supplies it.
        """
        if not self.pending:
            return np.empty((0, self.session.dim))
        return np.vstack(self.pending)

    # ------------------------------------------------------------ lifecycle
    def attach_journal(self, journal, **header) -> None:
        """Write every later state transition to ``journal``.

        ``journal`` is a path (a :class:`JournalWriter` is opened on it and
        owned by the campaign) or any object with an ``append(record)``
        method.  ``header`` fields ride along in the ``campaign_start``
        record; the drivers put their pool size there.
        """
        if hasattr(journal, "append"):
            self._journal, self._owns_journal = journal, False
        else:
            self._journal, self._owns_journal = JournalWriter(journal), True
        self._header = dict(header)

    def begin(self, design: np.ndarray) -> None:
        """Adopt an externally drawn initial design."""
        self.design = np.asarray(design, dtype=float)

    def start(self) -> np.ndarray:
        """Draw the initial design (idempotent) and journal it."""
        if self.design is None:
            self._journal_start()
            self.design = random_design(self.problem.bounds, self.n_init, self.rng)
            self._journal_event(
                {
                    "type": "doe",
                    "design": [[float(v) for v in row] for row in self.design],
                    "rng_state": rng_state_to_dict(self.rng),
                }
            )
        return self.design

    def finish(self, summary: dict | None = None) -> None:
        """Journal the campaign end and release the journal sink.

        ``summary`` fields are merged into the ``campaign_end`` record (the
        drivers report their trace-level best FOM and evaluation counts).
        """
        if self.finished:
            return
        self.finished = True
        best = self.best()
        event = {
            "type": "campaign_end",
            "issued": int(self.issued),
            "n_observations": int(self.session.n_observations),
            "best_fom": None if best is None else best[1],
        }
        event.update(summary or {})
        self._journal_event(event)
        self.close()

    def close(self) -> None:
        """Release the journal sink without marking the campaign finished."""
        if self._owns_journal and self._journal is not None:
            self._journal.close()
            self._journal = None

    # ------------------------------------------------------------- ask/tell
    def ask(self, n: int | None = None, *, request_id: str | None = None,
            _propose=None):
        """Return the next point (``n=None``) or batch of ``n`` points.

        Initial-design rows are served first; afterwards the family strategy
        runs the refit/hallucinate/acquisition pipeline.  Asked points are
        tracked as pending until the matching :meth:`tell`.  ``request_id``
        rides along in the journal event so the campaign server can rebuild
        its idempotent reply cache after a restart (a retried ``ask`` whose
        reply was lost replays the journaled points instead of issuing new
        ones).  ``_propose`` lets the drivers route proposals through their
        overridable hook methods; it is not part of the public surface.
        """
        if self.exhausted:
            raise CampaignExhausted(
                f"campaign {self.algorithm!r} has issued its whole budget "
                f"({self.max_evals} evaluations)"
            )
        self.start()
        if n is None:
            points = [self._one(_propose)]
        else:
            points = self._block(int(n), _propose)
        self._note_asked(points)
        self.obs.inc("campaign.asks")
        if self._journal is not None:
            event = {
                "type": "ask",
                "points": [[float(v) for v in p] for p in points],
                "rng_state": rng_state_to_dict(self.rng),
                "surrogate": self.session.snapshot(),
            }
            strategy_state = getattr(self.strategy, "journal_state", lambda: None)()
            if strategy_state is not None:
                event["strategy"] = strategy_state
            if request_id is not None:
                event["request_id"] = str(request_id)
            self._journal_event(event)
        return points[0] if n is None else points

    def _one(self, propose) -> np.ndarray:
        if self.in_doe:
            return np.asarray(self.design[self.issued], dtype=float)
        if propose is not None:
            return np.asarray(propose(), dtype=float)
        return np.asarray(self.strategy.propose(self), dtype=float)

    def _block(self, n: int, propose) -> list[np.ndarray]:
        if n < 1:
            raise ValueError("ask(n) needs n >= 1")
        n = min(n, self.max_evals - self.issued)
        if self.in_doe:
            end = min(self.issued + n, self.n_init)
            return [np.asarray(row, dtype=float) for row in self.design[self.issued:end]]
        if propose is not None:
            points = propose(n)
        else:
            points = self.strategy.select(self, n)
        return [np.asarray(p, dtype=float) for p in points]

    def _note_asked(self, points) -> None:
        for p in points:
            self.pending.append(np.asarray(p, dtype=float).copy())
        self.issued += len(points)
        self.n_asks += 1

    def tell(self, x, result, *, request_id: str | None = None,
             _trace: dict | None = None) -> str:
        """Fold one evaluation result back in; returns the action taken.

        ``"added"`` (observation recorded), ``"imputed"`` (failure recorded
        at a pessimistic FOM), ``"dropped"`` (budget spent, posterior
        unchanged), or ``"reissued"`` (orphaned point kept pending — the
        caller should evaluate it again; budget-neutral).  ``request_id``
        is journaled with the event (see :meth:`ask`), and so are the
        drivers' ``_trace`` fields (the pool's evaluation record and clock).

        Raises :class:`CampaignError` when ``x`` is not in the pending set —
        a point that was never asked, or one already told back.  Silently
        absorbing such a result would double-count budget and poison the
        pending bookkeeping every later hallucination reads.
        """
        x = np.asarray(x, dtype=float)
        if self._find_pending(x) is None:
            raise CampaignError(
                f"tell() for campaign {self.algorithm!r} got a point that is "
                f"not pending (never asked, or already told): {x.tolist()}"
            )
        if result.status == STATUS_ORPHANED and self.note_orphan(x):
            self._requeue(x)
            action = "reissued"
        else:
            self.absorb_hook(x, result)
            action = self.last_action[0]
        self.obs.inc("campaign.tells")
        self._journal_tell(x, result, action, request_id=request_id, trace=_trace)
        return action

    def note_orphan(self, x) -> bool:
        """Apply the orphan policy to ``x``; True means "evaluate it again".

        A True answer has already counted the reissue against
        ``max_reissues``; a False one primes the next :meth:`absorb` with
        the orphan's failure action.
        """
        policy = self.failure_policy
        key = np.asarray(x, dtype=float).tobytes()
        prior = self.reissue_counts.get(key, 0)
        if policy.on_orphan == "reissue" and prior < policy.max_reissues:
            self._count_reissue(x)
            return True
        self._pending_failure_action = (
            "impute" if policy.on_orphan == "reissue" else policy.on_orphan
        )
        return False

    def absorb(self, x, result) -> bool:
        """Fold a finished evaluation into the surrogate dataset.

        Failed evaluations follow the failure policy: ``"impute"`` records a
        pessimistic FOM at the failed point (so the surrogate steers away
        from it without poisoning the GP), ``"drop"`` records nothing — the
        budget slot is spent and the next proposal sees an unchanged
        posterior.  Returns True when an observation was added.
        """
        x = np.asarray(x, dtype=float)
        idx = self._find_pending(x)
        if idx is not None:
            del self.pending[idx]
        if result.ok:
            self.session.add(x, result.fom)
            self.last_action = ("added", float(result.fom))
            return True
        action = self._pending_failure_action or self.failure_policy.on_failure
        self._pending_failure_action = None
        if action == "impute" and self.session.n_observations > 0:
            value = self.imputed_fom()
            self.session.add(x, value)
            self.last_action = ("imputed", value)
            return True
        self.last_action = ("dropped", None)
        return False

    def imputed_fom(self) -> float:
        """Pessimistic stand-in FOM for a failed evaluation."""
        policy = self.failure_policy
        if policy.impute_value is not None:
            return float(policy.impute_value)
        y = self.session.y
        span = float(y.max() - y.min())
        return float(y.min() - policy.impute_margin * max(span, 1.0))

    def _requeue(self, x) -> None:
        """Move a reissued point to the end of the pending order.

        This mirrors the fresh pool index a driver's budget-neutral
        resubmission gets.
        """
        idx = self._find_pending(x)
        if idx is not None:
            self.pending.append(self.pending.pop(idx))

    def _find_pending(self, x) -> int | None:
        key = np.asarray(x, dtype=float).tobytes()
        for i, p in enumerate(self.pending):
            if p.tobytes() == key:
                return i
        return None

    # --------------------------------------------------- strategy utilities
    def propose(self) -> np.ndarray:
        """Run the family strategy once (without budget bookkeeping)."""
        return self.strategy.propose(self)

    def maximize(self, acquisition, model=None) -> np.ndarray:
        """Maximize an acquisition on the unit cube; return a physical point."""
        scorer = self.session.acquisition_on_unit(acquisition, model=model)
        with self.obs.span("acquisition-maximize"):
            u_best = maximize_acquisition(
                scorer,
                self.session.unit_bounds(),
                rng=self.rng,
                n_candidates=self.acq_candidates,
                n_restarts=self.acq_restarts,
                obs=self.obs,
            )
        return self.session.to_physical(u_best.reshape(1, -1))[0]

    def standardized_best(self) -> float:
        """Incumbent best in the GP's standardized output scale."""
        return float(
            self.session.output.transform(np.array([self.session.best_y]))[0]
        )

    def cold_point(self) -> np.ndarray:
        """A uniform exploration point that is not already in flight.

        The initial design (or a batch of cold draws) can still be pending
        when the GP has too little data to propose; drawing blindly here
        could hand the same point to two workers.  Collisions are
        measure-zero for a fresh uniform draw, so the dedupe consumes no
        extra RNG on the overwhelmingly common path.
        """
        x = random_design(self.problem.bounds, 1, self.rng)[0]
        for _ in range(_COLD_REDRAW_ATTEMPTS):
            if self._find_pending(x) is None:
                break
            self.obs.inc("campaign.cold_redraws")
            x = random_design(self.problem.bounds, 1, self.rng)[0]
        return x

    def cold_block(self, n: int) -> list[np.ndarray]:
        """A block of uniform exploration points, deduped against pending.

        The block is drawn in one RNG call (matching the historical
        synchronous cold path byte-for-byte when there are no collisions);
        only colliding rows pay a redraw.
        """
        block = random_design(self.problem.bounds, n, self.rng)
        seen = [p.tobytes() for p in self.pending]
        out: list[np.ndarray] = []
        for row in block:
            x = np.asarray(row, dtype=float)
            for _ in range(_COLD_REDRAW_ATTEMPTS):
                if x.tobytes() not in seen:
                    break
                self.obs.inc("campaign.cold_redraws")
                x = random_design(self.problem.bounds, 1, self.rng)[0]
            seen.append(x.tobytes())
            out.append(x)
        return out

    # ------------------------------------------------------------ journaling
    def _journal_event(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _journal_start(self) -> None:
        if self._started:
            return
        self._started = True
        self._journal_event(
            {
                "type": "campaign_start",
                "campaign_version": CAMPAIGN_JOURNAL_VERSION,
                "algorithm": self.algorithm,
                "problem": self.problem.name,
                "config": dict(self._config),
                "rng_state": rng_state_to_dict(self.rng),
                **self._header,
            }
        )

    def _journal_tell(self, x, result, action, *, request_id=None, trace=None) -> None:
        if self._journal is None:
            return
        from repro.distributed.protocol import result_to_dict

        _, value = self.last_action if action != "reissued" else (None, None)
        event = {
            "type": "tell",
            "x": [float(v) for v in x],
            "result": result_to_dict(result),
            "action": action,
            "value": None if value is None else float(value),
            "done": self.done,
        }
        if request_id is not None:
            event["request_id"] = str(request_id)
        event.update(trace or {})
        self._journal_event(event)

    # --------------------------------------------------------------- replay
    def replay(self, events) -> PoolLedger:
        """Fold journal ``events`` into this fresh campaign.

        This is the one recovery path, for standalone campaigns and drivers
        alike.  Asked points re-enter the pending set in their original
        order.  Told results re-enter the dataset through
        :attr:`absorb_hook` with their journaled failure action, so imputed
        values and subclass side datasets come out as they were.  The
        hyperparameter snapshot and the bit-exact RNG state are restored
        from the last durable record, and so is the strategy state an ``ask``
        record carries (see :meth:`SyncBatchStrategy.journal_state`).
        ``checkpoint`` records are cross-checked against the rebuilt
        dataset, and a ``campaign_end`` sets :attr:`finished`.  The
        driver-only records fill the returned :class:`PoolLedger`.
        """
        ledger = PoolLedger()
        snapshot = strategy_state = None
        rng_state = None
        for event in events:
            kind = event.get("type")
            rng_state = event.get("rng_state", rng_state)
            if kind == "campaign_start":
                self._started = True
            elif kind == "doe":
                self.design = np.asarray(event["design"], dtype=float)
            elif kind == "ask":
                self._note_asked([np.asarray(p, dtype=float) for p in event["points"]])
                if event.get("surrogate") is not None:
                    snapshot = event["surrogate"]
                strategy_state = event.get("strategy", strategy_state)
            elif kind == "dispatch":
                index = int(event["index"])
                ledger.in_flight[index] = event
                ledger.next_index = max(ledger.next_index, index + 1)
                ledger.clock = max(ledger.clock, float(event["issue_time"]))
            elif kind == "orphan" and event.get("disposition") == "reissue":
                # A resume re-ran this point at its original slot: it stays
                # in flight, only the spent attempt counts.
                dispatch = ledger.in_flight.get(int(event["index"]))
                if dispatch is not None:
                    self._count_reissue(dispatch["x"])
            elif kind in ("tell", "orphan"):
                self._replay_told(event, ledger)
            elif kind == "checkpoint":
                expected = int(event.get("n_observations", -1))
                if expected >= 0 and expected != self.session.n_observations:
                    raise JournalError(
                        f"checkpoint expects {expected} observations but replay "
                        f"reconstructed {self.session.n_observations}"
                    )
            elif kind == "campaign_end":
                self.finished = True
        self.session.restore_snapshot(snapshot)
        if strategy_state is not None:
            self.strategy.restore_state(self, strategy_state)
        if rng_state is not None:
            set_rng_state(self.rng, rng_state)
        return ledger

    def _replay_told(self, event: dict, ledger: PoolLedger) -> None:
        """Replay a ``tell``, or an ``orphan`` imputed/dropped at a resume."""
        from repro.distributed.protocol import result_from_dict

        record = event.get("record")
        if record is not None:
            record = EvalRecord.from_dict(record)
            ledger.in_flight.pop(record.index, None)
            ledger.records.append(record)
            clock = float(event.get("clock", record.finish_time))
            ledger.clock = max(ledger.clock, clock)
        if event["type"] == "orphan":
            x = np.asarray(record.x, dtype=float)
            result = EvaluationResult.failed(
                record.error or "orphaned", status=STATUS_ORPHANED
            )
            action = {"impute": "imputed", "drop": "dropped"}[event["disposition"]]
        else:
            x = np.asarray(event["x"], dtype=float)
            result = result_from_dict(event["result"])
            action = event["action"]
        if action == "reissued":
            self._count_reissue(x)
            self._requeue(x)
            return
        # Replay the journaled failure action rather than re-deciding it.
        self._pending_failure_action = {
            "imputed": "impute", "dropped": "drop"
        }.get(action)
        self.absorb_hook(x, result)

    def _count_reissue(self, x) -> None:
        key = np.asarray(x, dtype=float).tobytes()
        self.reissue_counts[key] = self.reissue_counts.get(key, 0) + 1


# --------------------------------------------------------------------------
# Label factory and journal resume.
# --------------------------------------------------------------------------
_SEQUENTIAL_FAMILIES = {"ei": "ei", "pi": "pi", "lcb": "lcb", "ucb": "ucb"}
#: Async label families and the pending policy each one implies.
_ASYNC_FAMILIES = {
    "easybo": "hallucinate",
    "easybo-a": "none",
    "easybo-lp": "lp",
    "easybo-pess": "pessimistic",
}
#: Display base per pending policy (inverse of ``_ASYNC_FAMILIES``).
_ASYNC_BASE_NAMES = {
    "hallucinate": "EasyBO",
    "none": "EasyBO-A",
    "lp": "EasyBO-LP",
    "pessimistic": "EasyBO-PESS",
}
_SYNC_FAMILIES = {
    "pbo": "pbo",
    "phcbo": "phcbo",
    "bucb": "bucb",
    "lp": "lp",
    "mace": "mace",
    "easybo-s": "easybo-s",
    "easybo-sp": "easybo-sp",
}


def make_campaign(label: str, problem: Problem, **kwargs) -> Campaign:
    """Build a standalone :class:`Campaign` from a paper-style label.

    Accepts the same labels as :func:`repro.core.easybo.make_algorithm` for
    the BO families (``"EasyBO-5"``, ``"pBO-3"``, ``"LCB"``, ...); the
    non-ask/tell baselines (DE, random search, portfolio) have no campaign
    form.  Keyword arguments are Campaign constructor kwargs plus the
    family knobs ``lam`` / ``ucb_kappa`` / ``ei_xi`` / ``hc_d`` and, for the
    asynchronous EasyBO family, ``pending_policy`` (a name from
    :data:`repro.core.pending.PENDING_POLICIES` or a policy instance) —
    equivalently spelled as a label: ``"EasyBO-LP-5"`` / ``"EasyBO-PESS-5"``
    / ``"EasyBO-A-5"``.
    """
    import re

    match = re.match(r"^(?P<family>[a-zA-Z][a-zA-Z-]*?)(?:-(?P<batch>\d+))?$", label.strip())
    if not match:
        raise ValueError(f"cannot parse algorithm label {label!r}")
    family = match.group("family").lower()
    batch = int(match.group("batch")) if match.group("batch") else 1
    lam = float(kwargs.pop("lam", EASYBO_LAMBDA))
    ucb_kappa = float(kwargs.pop("ucb_kappa", 2.0))
    ei_xi = float(kwargs.pop("ei_xi", 0.0))
    hc_d = kwargs.pop("hc_d", None)
    pending_policy = kwargs.pop("pending_policy", None)

    if family in _SEQUENTIAL_FAMILIES or (
        family == "easybo" and batch == 1 and pending_policy is None
    ):
        if pending_policy is not None:
            raise ValueError(
                "pending_policy applies to the asynchronous EasyBO family "
                f"only, not to {label!r}"
            )
        acq = _SEQUENTIAL_FAMILIES.get(family, "easybo")
        strategy = SequentialStrategy(
            acq, lam=lam, ucb_kappa=ucb_kappa, ei_xi=ei_xi
        )
        display = {"easybo": "EasyBO", "ei": "EI", "pi": "PI",
                   "lcb": "LCB", "ucb": "UCB"}[acq]
        algorithm = display
        batch = 1
    elif family in _ASYNC_FAMILIES:
        strategy = AsyncBatchStrategy(
            lam=lam,
            pending_policy=(
                pending_policy
                if pending_policy is not None
                else _ASYNC_FAMILIES[family]
            ),
        )
        policy_name = strategy.pending_policy.name
        base = _ASYNC_BASE_NAMES.get(policy_name, f"EasyBO+{policy_name}")
        algorithm = base if batch == 1 else f"{base}-{batch}"
    elif family in _SYNC_FAMILIES:
        if pending_policy is not None:
            raise ValueError(
                "pending_policy applies to the asynchronous EasyBO family "
                f"only, not to the synchronous {label!r}"
            )
        strategy = SyncBatchStrategy(
            _SYNC_FAMILIES[family],
            batch_size=batch,
            lam=lam,
            ucb_kappa=ucb_kappa,
            hc_d=hc_d,
        )
        display = {"pbo": "pBO", "phcbo": "pHCBO", "easybo-s": "EasyBO-S",
                   "easybo-sp": "EasyBO-SP", "bucb": "BUCB", "lp": "LP",
                   "mace": "MACE"}[_SYNC_FAMILIES[family]]
        algorithm = f"{display}-{batch}"
    else:
        raise ValueError(
            f"algorithm family {family!r} has no ask/tell campaign form"
        )

    policy = kwargs.pop("failure_policy", None)
    if isinstance(policy, dict):
        policy = FailurePolicy(**policy)
    campaign = Campaign(
        problem,
        strategy,
        batch_size=batch,
        failure_policy=policy,
        algorithm=algorithm,
        **kwargs,
    )
    campaign._config = {
        "n_init": campaign.n_init,
        "max_evals": campaign.max_evals,
        "acq_candidates": campaign.acq_candidates,
        "acq_restarts": campaign.acq_restarts,
        "surrogate_update": campaign.session.surrogate_update,
        "surrogate": campaign.session.surrogate,
        "max_exact_n": campaign.session.max_exact_n,
        "n_inducing": campaign.session.n_inducing,
        "refit_every": campaign.session.refit_every,
        "failure_policy": {
            k: getattr(campaign.failure_policy, k)
            for k in ("on_failure", "on_orphan", "max_reissues",
                      "impute_value", "impute_margin")
            if hasattr(campaign.failure_policy, k)
        },
        "lam": lam,
        "ucb_kappa": ucb_kappa,
        "ei_xi": ei_xi,
        "hc_d": hc_d,
    }
    if isinstance(strategy, AsyncBatchStrategy):
        # Journaled so resume rebuilds the same policy even when the label
        # alone would imply a different one.
        campaign._config["pending_policy"] = strategy.pending_policy.name
    return campaign


def check_campaign_journal(events: list[dict], path) -> list[dict]:
    """Validate the ``campaign_start`` header of recovered journal events.

    Raises :class:`JournalError` when there is no header, or when the file
    was written by a newer campaign format than this code can read, instead
    of misparsing it.
    """
    if not events or events[0].get("type") != "campaign_start":
        raise JournalError(
            f"{path} has no usable campaign_start record; nothing to resume"
        )
    version = events[0].get("campaign_version")
    if not isinstance(version, int) or version > CAMPAIGN_JOURNAL_VERSION:
        raise JournalError(
            f"campaign journal format v{version} is newer than supported "
            f"v{CAMPAIGN_JOURNAL_VERSION}; upgrade this installation to read it"
        )
    return events


def read_campaign_journal(path) -> list[dict]:
    """Recover a campaign journal (torn tail truncated) and check its header."""
    return check_campaign_journal(recover_journal(path), path)


def resume_campaign(journal_path, *, problem: Problem | None = None) -> Campaign:
    """Rebuild a campaign to its exact pre-crash state from its journal.

    :meth:`Campaign.replay` folds every ask/tell into a fresh campaign;
    asked-but-untold points come back as pending — the caller should
    evaluate and ``tell`` them (or let the orphan policy handle them).
    Subsequent ``ask()`` calls produce the points the uninterrupted
    campaign would have produced.  Driver journals (their header carries
    ``n_workers``) resume through :func:`repro.core.recovery.resume`.
    """
    events = read_campaign_journal(journal_path)
    start = events[0]
    if "n_workers" in start:
        raise JournalError(
            f"{journal_path} was written by an optimizer driver; "
            "resume it with repro.resume()"
        )
    if problem is None:
        from repro.core.recovery import resolve_problem

        problem = resolve_problem(start.get("problem", ""))
    campaign = make_campaign(
        start["algorithm"], problem, **dict(start.get("config", {}))
    )
    campaign.replay(events)
    if campaign.finished:
        raise RuntimeError(
            f"the campaign in {journal_path} already finished; nothing to resume"
        )
    campaign.attach_journal(journal_path)
    campaign._journal_event(
        {"type": "campaign_resume", "n_pending": campaign.n_pending}
    )
    return campaign
