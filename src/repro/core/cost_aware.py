"""Cost-aware asynchronous EasyBO — optimize FOM *per simulation second*.

The paper motivates asynchrony with the observation that "different design
parameters can lead to different simulation time consumption" (§I).  Beyond
scheduling around that heterogeneity, one can *exploit* it: if two candidate
designs promise similar FOM but one simulates twice as fast, the fast one
buys more information per wall-clock second.

This driver fits a second GP to ``log(duration)`` and divides the EasyBO
acquisition (Eq. 9, hallucination included) by the predicted cost raised to a
``cost_exponent`` (Snoek et al. 2012's "expected improvement per second"
generalized to the weighted acquisition):

    alpha_cost(x, w) = alpha(x, w) / E[duration(x)]^cost_exponent

``cost_exponent = 0`` recovers plain EasyBO; 1 is full per-second
normalization.
"""

from __future__ import annotations

import numpy as np

from repro.core.acquisition import WeightedAcquisition, sample_easybo_weight
from repro.core.async_batch import AsynchronousBatchBO
from repro.gp import (
    GaussianProcess,
    HyperparameterBounds,
    OutputStandardizer,
    SquaredExponential,
    fit_hyperparameters,
)

__all__ = ["CostAwareEasyBO"]


class CostAwareEasyBO(AsynchronousBatchBO):
    """EasyBO whose acquisition is normalized by predicted evaluation cost."""

    def __init__(self, problem, *, cost_exponent: float = 1.0, **kwargs):
        super().__init__(problem, **kwargs)
        if cost_exponent < 0:
            raise ValueError("cost_exponent must be non-negative")
        self.cost_exponent = float(cost_exponent)
        base = "caEasyBO"
        self.algorithm_name = (
            base if self.batch_size == 1 else f"{base}-{self.batch_size}"
        )
        self.campaign.algorithm = self.algorithm_name
        self._cost_model: GaussianProcess | None = None
        self._cost_output = OutputStandardizer()
        self._cost_bounds = HyperparameterBounds(self.session.dim)
        self._log_costs: list[float] = []

    # -------------------------------------------------------------- dataset
    def _absorb(self, x, result) -> bool:
        added = super()._absorb(x, result)
        if added:
            # Failed evaluations still report the (possibly truncated) time
            # they occupied the worker, which is exactly the cost to model.
            self._log_costs.append(float(np.log(max(result.cost, 1e-9))))
        return added

    def _resume_config(self) -> dict:
        config = super()._resume_config()
        config.update(cost_exponent=self.cost_exponent)
        return config

    def _fit_cost_model(self) -> None:
        U = self.session.transform.to_unit(self.session.X)
        z = self._cost_output.fit_transform(np.asarray(self._log_costs))
        if self._cost_model is None:
            self._cost_model = GaussianProcess(
                kernel=SquaredExponential(self.session.dim, lengthscales=0.3),
                noise_variance=1e-2,
            )
            restarts = 2
        else:
            restarts = 1
        self._cost_model.fit(U, z)
        fit_hyperparameters(
            self._cost_model, bounds=self._cost_bounds, n_restarts=restarts,
            rng=self.rng,
        )

    def predicted_cost(self, U: np.ndarray) -> np.ndarray:
        """Expected duration (seconds) at unit-cube points."""
        if self._cost_model is None:
            raise RuntimeError("cost model not fitted yet")
        mu, sigma = self._cost_model.predict(U)
        log_mu = self._cost_output.inverse_mean(mu)
        log_sigma = self._cost_output.inverse_std(sigma)
        # Lognormal mean: exp(mu + sigma^2 / 2).
        return np.exp(log_mu + 0.5 * log_sigma**2)

    # ------------------------------------------------------------- proposal
    def _propose_async(self, pool) -> np.ndarray:
        if self.session.n_observations < 2:
            return self.campaign.cold_point()
        self.session.refit()
        self._fit_cost_model()
        if self.penalized:
            model = self.session.model_with_pending(pool.pending_points())
        else:
            model = self.session.require_model()
        w = sample_easybo_weight(self.rng, self.lam)
        base = WeightedAcquisition(w)
        exponent = self.cost_exponent

        def scorer(U: np.ndarray) -> np.ndarray:
            values = base(model, U)
            if exponent == 0.0:
                return values
            # Shift positive so dividing by cost cannot flip preferences.
            values = values - values.min() + 1e-9
            return values / self.predicted_cost(U) ** exponent

        from repro.core.optimizers import maximize_acquisition

        u_best = maximize_acquisition(
            scorer,
            self.session.unit_bounds(),
            rng=self.rng,
            n_candidates=self.acq_candidates,
            n_restarts=self.acq_restarts,
        )
        return self.session.to_physical(u_best.reshape(1, -1))[0]
