"""Record the spice-sweep reference pool.

Draws uniform random op-amp and class-E designs, evaluates each, and writes
its FOM, its status (``ok`` / ``infeasible`` / ``rejected``, where a
rejected design is one the testbench scores ``FAILURE_FOM`` without
metrics, such as sub-unity gain) and whether the simulator converged
(``converged`` is false when the DC, AC or transient analysis itself raised
a ``SpiceError``).  The sweep workload re-evaluates sampled pool designs
and requires the same FOM and status.  Regenerate only when a change is
meant to alter circuit results, and say so where the change is recorded::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import json  # noqa: E402

import numpy as np  # noqa: E402

from repro.circuits import ClassEProblem, OpAmpProblem  # noqa: E402
from repro.circuits.classe import F0, build_classe  # noqa: E402
from repro.circuits.opamp import build_opamp  # noqa: E402
from repro.spice import SpiceError, ac_analysis, dc_operating_point  # noqa: E402
from repro.spice import transient_analysis  # noqa: E402

from perfbench.workloads import REFERENCE, result_status  # noqa: E402

POOL_SEED = 20200720
POOL_SIZES = {"opamp": 384, "classe": 96}


def converges(circuit: str, problem, x) -> bool:
    values = problem.space.to_values(problem.validate_point(x))
    try:
        if circuit == "opamp":
            c = build_opamp(values)
            ac_analysis(c, problem.freqs, op=dc_operating_point(c))
        else:
            period = 1.0 / F0
            transient_analysis(
                build_classe(values),
                (problem.settle_periods + problem.measure_periods) * period,
                period / problem.steps_per_period,
            )
    except SpiceError:
        return False
    return True


def main() -> None:
    rng = np.random.default_rng(POOL_SEED)
    pool = {"pool_seed": POOL_SEED}
    for circuit, problem in (("opamp", OpAmpProblem()), ("classe", ClassEProblem())):
        bounds = problem.bounds
        X = rng.uniform(bounds[:, 0], bounds[:, 1],
                        size=(POOL_SIZES[circuit], bounds.shape[0]))
        entries = []
        for x in X:
            result = problem.evaluate(x)
            entries.append({
                "x": [float(v) for v in x],
                "fom": float(result.fom),
                "status": result_status(result),
                "converged": converges(circuit, problem, x),
            })
        pool[circuit] = entries
        counts = {s: sum(e["status"] == s for e in entries)
                  for s in ("ok", "infeasible", "rejected")}
        print(circuit, counts, "not converged:",
              sum(not e["converged"] for e in entries))
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(pool) + "\n")


if __name__ == "__main__":
    main()
