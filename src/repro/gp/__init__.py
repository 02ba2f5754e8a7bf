"""Gaussian-process regression substrate (paper §II-B).

Public surface:

* :class:`GaussianProcess` — exact GP with Eq. 2 posterior and the
  pending-point hallucination used by EasyBO's penalization scheme
  (:class:`HallucinatedView` is its factor-shared Eq. 9 view).
* :class:`SparseGaussianProcess` — budgeted inducing-point posterior with
  the same interface (:class:`PosteriorModel`, :class:`PendingView`).
* Kernels: :class:`SquaredExponential` (the paper's choice), :class:`Matern52`.
* :func:`fit_hyperparameters` — ML-II fitting with analytic gradients.
* :class:`BoxTransform` / :class:`OutputStandardizer` — scaling helpers.
"""

from repro.gp.diagnostics import LooResult, leave_one_out
from repro.gp.gp import GaussianProcess, HallucinatedView, PendingView, PosteriorModel
from repro.gp.hyperopt import HyperparameterBounds, fit_hyperparameters
from repro.gp.kernels import Kernel, Matern52, SquaredExponential
from repro.gp.mean import ConstantMean, MeanFunction, ZeroMean
from repro.gp.sparse import (
    SparseGaussianProcess,
    SparseHallucinatedView,
    SparseInducingState,
    select_inducing,
)
from repro.gp.standardize import BoxTransform, OutputStandardizer

__all__ = [
    "PosteriorModel",
    "PendingView",
    "GaussianProcess",
    "HallucinatedView",
    "SparseGaussianProcess",
    "SparseHallucinatedView",
    "SparseInducingState",
    "select_inducing",
    "HyperparameterBounds",
    "fit_hyperparameters",
    "LooResult",
    "leave_one_out",
    "Kernel",
    "SquaredExponential",
    "Matern52",
    "MeanFunction",
    "ZeroMean",
    "ConstantMean",
    "BoxTransform",
    "OutputStandardizer",
]
