"""Synchronous batch Bayesian optimization (paper §II-C and ablations).

One driver, several batch-selection strategies:

* ``"pbo"``    — pBO [Hu et al. 2018]: B weighted acquisitions on a uniform
  weight grid, each maximized independently on the same GP (Eq. 4).
* ``"phcbo"``  — pBO plus the high-coverage distance penalty (Eq. 5/6).
* ``"easybo-s"``  — EasyBO's randomized weights, selected independently
  (ablation: new acquisition, no penalization).
* ``"easybo-sp"`` — randomized weights *with* the pending-point
  hallucination applied sequentially inside the batch (ablation: new
  acquisition + new penalization, synchronous issue).
* ``"bucb"``   — GP-BUCB [Desautels et al. 2014]: hallucinated UCB (extension).
* ``"lp"``     — local penalization [Gonzalez et al. 2016] around batch
  points using a Lipschitz estimate (extension).
* ``"mace"``   — simplified MACE [Lyu et al. 2018]: sample the batch from
  the Pareto front of the (EI, PI, UCB) acquisition ensemble (extension;
  the original uses a multi-objective evolutionary solver, we use a dense
  candidate sweep + non-dominated filtering).

All strategies share the synchronous schedule: the next batch is only issued
once every member of the previous batch has finished (the barrier the paper's
asynchronous scheme removes).

The hallucinating strategies (``easybo-sp``, ``bucb``) build each batch
member's model through :meth:`SurrogateSession.model_with_pending`, so in
the default ``surrogate_update="incremental"`` mode every greedy step is a
rank-k :class:`~repro.core.surrogate.HallucinatedView` over the cached
factor rather than a per-point posterior rebuild.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import EASYBO_LAMBDA
from repro.core.bo import BODriverBase
from repro.core.campaign import SyncBatchStrategy, _pareto_front_mask  # noqa: F401 — re-export
from repro.core.results import RunResult

__all__ = ["SynchronousBatchBO", "SYNC_STRATEGIES"]

SYNC_STRATEGIES = SyncBatchStrategy.STRATEGIES

_DISPLAY = {
    "pbo": "pBO",
    "phcbo": "pHCBO",
    "easybo-s": "EasyBO-S",
    "easybo-sp": "EasyBO-SP",
    "bucb": "BUCB",
    "lp": "LP",
    "mace": "MACE",
}


class SynchronousBatchBO(BODriverBase):
    """Batch BO with a barrier between batches."""

    def __init__(
        self,
        problem,
        *,
        batch_size: int,
        strategy: str = "easybo-sp",
        lam: float = EASYBO_LAMBDA,
        ucb_kappa: float = 2.0,
        hc_d: float | None = None,
        **kwargs,
    ):
        super().__init__(problem, **kwargs)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        strategy = strategy.lower()
        if strategy not in SYNC_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from {SYNC_STRATEGIES}"
            )
        self.batch_size = self.n_workers = int(batch_size)
        self.strategy = strategy
        self.lam = float(lam)
        self.ucb_kappa = float(ucb_kappa)
        self.algorithm_name = f"{_DISPLAY[strategy]}-{batch_size}"
        self.campaign.strategy = SyncBatchStrategy(
            strategy,
            batch_size=self.batch_size,
            lam=self.lam,
            ucb_kappa=self.ucb_kappa,
            hc_d=hc_d,
            dim=self.session.dim,
        )
        self.campaign.batch_size = self.batch_size
        self.campaign.algorithm = self.algorithm_name

    # -------------------------------------------------------------- selection
    def _select_batch(self, n_points: int) -> list[np.ndarray]:
        """Choose ``n_points`` query points for the next batch.

        Thin hook over :meth:`SyncBatchStrategy.select`; kept overridable
        for ablations that reshape the batch rule.
        """
        return self.campaign.strategy.select(self.campaign, n_points)

    # -------------------------------------------------------------- main loop
    def _resume_config(self) -> dict:
        config = super()._resume_config()
        config.update(
            lam=self.lam, ucb_kappa=self.ucb_kappa, hc_d=self.campaign.strategy.hc_d
        )
        return config

    def _barrier(self, pool) -> None:
        """Wait for every in-flight member of the current batch."""
        while pool.busy_count:
            self._consume(pool, self._wait(pool))

    def _drive(self, pool) -> RunResult:
        """Batches of asks behind a barrier, resumable at any boundary.

        Every batch is one ``campaign.ask(n)``, so the batch index is the
        number of asks before it.  A resumed run first dispatches the asked
        but undispatched members of the current batch and waits out its
        barrier.
        """
        campaign = self.campaign
        self._dispatch_asked(pool, batch=campaign.n_asks - 1)
        self._barrier(pool)
        # Initial design goes out in synchronous batches too.
        while campaign.in_doe:
            batch = campaign.n_asks
            for x in campaign.ask(min(self.batch_size, self.n_init - campaign.issued)):
                self._dispatch(pool, x, batch=batch)
            self._barrier(pool)
        while not campaign.exhausted:
            # One synchronous cycle: ask for a batch, issue it, barrier.
            batch = campaign.n_asks
            with self.obs.span("iteration", batch=batch):
                n_points = min(self.batch_size, self.max_evals - campaign.issued)
                if self.session.n_observations < 2:
                    # Too many dropped failures for the GP: the campaign
                    # falls back to uniform exploration for this batch.
                    points = campaign.ask(n_points)
                else:
                    with self.obs.span("select-batch", n_points=n_points):
                        points = campaign.ask(n_points, _propose=self._select_batch)
                for x in points:
                    self._dispatch(pool, x, batch=batch)
                self._barrier(pool)
            self.obs.inc("driver.iterations")
        return self._package(pool)
