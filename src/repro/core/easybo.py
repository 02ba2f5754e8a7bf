"""High-level EasyBO facade and the algorithm registry used by the benches.

:class:`EasyBO` is the one-stop user API::

    from repro import EasyBO
    from repro.circuits import OpAmpProblem

    result = EasyBO(OpAmpProblem(), batch_size=5, rng=0).optimize()
    print(result.best_fom, result.best_x)

:func:`make_algorithm` turns the paper's row labels ("pBO-5", "EasyBO-SP-10",
"DE", "LCB", ...) into configured drivers, which is how the Table I/II benches
enumerate their grids.
"""

from __future__ import annotations

import re

from repro.baselines.de import DifferentialEvolution
from repro.baselines.random_search import RandomSearch
from repro.core.async_batch import AsynchronousBatchBO
from repro.core.bo import SequentialBO
from repro.core.problem import Problem
from repro.core.results import RunResult
from repro.core.sync_batch import SynchronousBatchBO

__all__ = ["EasyBO", "make_algorithm", "ALGORITHM_FAMILIES"]


class EasyBO:
    """The paper's algorithm with sensible defaults.

    Parameters
    ----------
    problem:
        Any :class:`~repro.core.problem.Problem`.
    batch_size:
        Number of parallel workers B; 1 gives sequential EasyBO.
    mode:
        ``"async"`` (the contribution), ``"sync"`` (EasyBO-SP), or their
        unpenalized ablations ``"async-nopen"`` / ``"sync-nopen"``.
    n_init / max_evals / rng / pool_factory:
        Forwarded to the underlying driver (paper defaults: 20 / 150).
    failure_policy:
        Optional :class:`~repro.core.faults.FailurePolicy` (forwarded like
        any driver kwarg): retries/timeouts for the pool, impute-or-drop
        for the driver.  Defaults to no retries, pessimistic imputation.
    surrogate_update / refit_every:
        Surrogate fast-path knobs (forwarded like any driver kwarg):
        ``surrogate_update="incremental"`` (default) reuses the cached
        Cholesky factor between ML-II fits, and ``refit_every=K`` pays the
        hyperparameter fit only every K dispatches.  See
        :class:`~repro.core.surrogate.SurrogateSession`.
    journal / checkpoint_every:
        Crash safety (forwarded like any driver kwarg): ``journal=path``
        appends every state transition to a write-ahead journal that
        :func:`repro.core.recovery.resume` can replay after a crash, and
        ``checkpoint_every=N`` adds a verification checkpoint record every
        N completions.  See :mod:`repro.core.journal`.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        batch_size: int = 5,
        mode: str = "async",
        n_init: int = 20,
        max_evals: int = 150,
        rng=None,
        pool_factory=None,
        **driver_kwargs,
    ):
        mode = mode.lower()
        common = dict(
            n_init=n_init,
            max_evals=max_evals,
            rng=rng,
            pool_factory=pool_factory,
            **driver_kwargs,
        )
        if mode == "async":
            self.driver = AsynchronousBatchBO(
                problem, batch_size=batch_size, penalized=True, **common
            )
        elif mode == "async-nopen":
            self.driver = AsynchronousBatchBO(
                problem, batch_size=batch_size, penalized=False, **common
            )
        elif mode == "sync":
            self.driver = SynchronousBatchBO(
                problem, batch_size=batch_size, strategy="easybo-sp", **common
            )
        elif mode == "sync-nopen":
            self.driver = SynchronousBatchBO(
                problem, batch_size=batch_size, strategy="easybo-s", **common
            )
        else:
            raise ValueError(
                f"unknown mode {mode!r}; choose async, async-nopen, sync, sync-nopen"
            )

    def optimize(self) -> RunResult:
        """Run the optimization to completion and return the result."""
        return self.driver.run()


#: Registry of label prefixes -> factory(problem, batch_size, **kwargs).
ALGORITHM_FAMILIES = {
    "de": lambda problem, b, **kw: DifferentialEvolution(problem, **_de_kwargs(kw)),
    "random": lambda problem, b, **kw: RandomSearch(problem, **_rs_kwargs(kw)),
    "ei": lambda problem, b, **kw: SequentialBO(problem, acquisition="ei", **kw),
    "pi": lambda problem, b, **kw: SequentialBO(problem, acquisition="pi", **kw),
    "lcb": lambda problem, b, **kw: SequentialBO(problem, acquisition="lcb", **kw),
    "ucb": lambda problem, b, **kw: SequentialBO(problem, acquisition="ucb", **kw),
    "pbo": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="pbo", **kw
    ),
    "phcbo": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="phcbo", **kw
    ),
    "bucb": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="bucb", **kw
    ),
    "lp": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="lp", **kw
    ),
    "mace": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="mace", **kw
    ),
    "ceasybo": lambda problem, b, **kw: _make_constrained(problem, b, **kw),
    "caeasybo": lambda problem, b, **kw: _make_cost_aware(problem, b, **kw),
    "gp-hedge": lambda problem, b, **kw: _make_portfolio(problem, **kw),
    "easybo-s": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="easybo-s", **kw
    ),
    "easybo-sp": lambda problem, b, **kw: SynchronousBatchBO(
        problem, batch_size=b, strategy="easybo-sp", **kw
    ),
    "easybo-a": lambda problem, b, **kw: AsynchronousBatchBO(
        problem, batch_size=b, penalized=False, **kw
    ),
    # Async EasyBO with a non-default pending-point policy, as a label:
    # "EasyBO-LP-5" / "EasyBO-PESS-5".  An explicit pending_policy kwarg
    # (e.g. from a resumed config) wins over the label's implied policy.
    "easybo-lp": lambda problem, b, **kw: AsynchronousBatchBO(
        problem, batch_size=b, **{"pending_policy": "lp", **kw}
    ),
    "easybo-pess": lambda problem, b, **kw: AsynchronousBatchBO(
        problem, batch_size=b, **{"pending_policy": "pessimistic", **kw}
    ),
    "easybo": lambda problem, b, **kw: _make_easybo(problem, b, **kw),
}

_LABEL_RE = re.compile(r"^(?P<family>[a-zA-Z][a-zA-Z-]*?)(?:-(?P<batch>\d+))?$")


def _make_easybo(problem, batch_size, **kw):
    """The ``easybo`` family: sequential at B=1, async otherwise.

    A ``pending_policy`` kwarg forces the asynchronous driver even at B=1 —
    the sequential driver has no pending set to apply a policy to.
    """
    if batch_size == 1 and kw.get("pending_policy") is None:
        kw.pop("pending_policy", None)
        return SequentialBO(problem, acquisition="easybo", **kw)
    return AsynchronousBatchBO(
        problem, batch_size=batch_size, penalized=True, **kw
    )


def _make_constrained(problem, batch_size, **kw):
    from repro.core.constrained import ConstrainedEasyBO

    return ConstrainedEasyBO(problem, batch_size=batch_size, **kw)


def _make_cost_aware(problem, batch_size, **kw):
    from repro.core.cost_aware import CostAwareEasyBO

    return CostAwareEasyBO(problem, batch_size=batch_size, **kw)


def _make_portfolio(problem, **kw):
    from repro.core.portfolio import PortfolioBO

    return PortfolioBO(problem, **kw)


def _de_kwargs(kw: dict) -> dict:
    out = {k: v for k, v in kw.items() if k in ("max_evals", "rng", "pool_factory", "pop_size", "f", "cr", "n_workers")}
    return out


def _rs_kwargs(kw: dict) -> dict:
    return {k: v for k, v in kw.items() if k in ("max_evals", "rng", "pool_factory", "n_workers")}


def make_algorithm(label: str, problem: Problem, **kwargs):
    """Instantiate a driver from a paper-style label.

    ``label`` is case-insensitive: ``"DE"``, ``"EI"``, ``"LCB"``,
    ``"EasyBO"``, ``"pBO-5"``, ``"pHCBO-10"``, ``"EasyBO-S-5"``,
    ``"EasyBO-A-15"``, ``"EasyBO-SP-10"``, ``"EasyBO-15"``, ``"BUCB-5"``,
    ``"LP-5"``, ``"Random"``.  A trailing ``-<int>`` is the batch size.
    The asynchronous pending-point policies also have label forms:
    ``"EasyBO-LP-5"`` (local penalisation), ``"EasyBO-PESS-5"``
    (pessimistic), ``"EasyBO-A-5"`` (standard acquisition) — equivalently,
    pass ``pending_policy=`` to the ``EasyBO`` family.  Keyword arguments
    are forwarded to the driver.
    """
    match = _LABEL_RE.match(label.strip())
    if not match:
        raise ValueError(f"cannot parse algorithm label {label!r}")
    family = match.group("family").lower()
    batch = int(match.group("batch")) if match.group("batch") else 1
    if family not in ALGORITHM_FAMILIES:
        raise ValueError(
            f"unknown algorithm family {family!r} in label {label!r}; "
            f"known: {sorted(ALGORITHM_FAMILIES)}"
        )
    return ALGORITHM_FAMILIES[family](problem, batch, **kwargs)
