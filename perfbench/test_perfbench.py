"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import SpanRecorder, self_times, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_on_synthetic_span_tree():
    """root [0,10] -> a [1,4] -> a1 [2,3]; root -> b [3,6] (overlaps a);
    a remote child r [5,9] of root on another thread, linked by request id."""
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    root = rec.open("campaign.ask", request_id="req-1")
    clock.now = 1.0
    a = rec.open("gp.refit")
    clock.now = 2.0
    a1 = rec.open("gp.ml2")
    clock.now = 3.0
    rec.close(a1)
    clock.now = 4.0
    rec.close(a)
    # b overlaps a in time: the same parent's children are unioned, not summed.
    b = rec.open("acq.maximize")
    b.start = 3.0
    clock.now = 6.0
    rec.close(b)
    clock.now = 10.0
    rec.close(root)
    remote = rec.open("server.dispatch", request_id="req-1")
    remote.start, remote.thread = 5.0, -1
    clock.now = 9.0
    rec.close(remote)
    rec.link_remote()
    assert remote.parent == root.index
    own = self_times(rec.finished())
    assert own[a1.index] == pytest.approx(1.0)
    assert own[a.index] == pytest.approx(2.0)
    assert own[b.index] == pytest.approx(3.0)
    # root covered by a, b and the remote child: [1,9] -> 8 of its 10 seconds.
    assert own[root.index] == pytest.approx(2.0)
    assert own[remote.index] == pytest.approx(4.0)


def test_wrap_restores_originals():
    import repro.core.campaign as campaign_mod
    from repro.core.campaign import Campaign
    from repro.circuits.benchmarks import SyntheticProblem
    from perfbench.layers import instrument

    before = (campaign_mod.maximize_acquisition, Campaign.ask,
              SyntheticProblem.__dict__["evaluate"])
    rec = SpanRecorder()
    instrument(rec)
    assert campaign_mod.maximize_acquisition is not before[0]
    rec.unwrap_all()
    assert (campaign_mod.maximize_acquisition, Campaign.ask,
            SyntheticProblem.__dict__["evaluate"]) == before


def test_cost_ordered_loop_reproduces_asynchronous_batch_bo():
    """The benchmark's ask/tell loop follows AsynchronousBatchBO exactly."""
    from repro import make_algorithm
    from repro.circuits.benchmarks import hartmann6
    from repro.core import make_campaign
    from perfbench.workloads import drive_cost_ordered

    run = make_algorithm("EasyBO-5", hartmann6(), rng=0).run()
    problem = hartmann6()
    campaign = make_campaign("EasyBO-5", problem, rng=0)
    makespan = drive_cost_ordered(campaign, problem, 5)
    assert campaign.best()[1] == run.best_fom == 3.3223655238884526
    assert round(makespan, 2) == 302.16
    assert makespan == pytest.approx(run.wall_clock, abs=1e-9)


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    stdout, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert metric["name"] in stdout.split("{", 1)[0]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_host_clock_scales_segments_and_samples_to_reference_speed():
    from perfbench.envinfo import HostClock
    from perfbench.workloads import Tally

    clock = HostClock(reference=2e-3)
    # Readings of 2, 4 and 4 ms: the host ran at full, then half speed.
    clock.readings = [2e-3, 4e-3, 4e-3]
    clock.segments = [(1.0, True), (3.0, False)]
    assert clock.speed(0) == pytest.approx(2 / 3)
    assert clock.speed(1) == pytest.approx(0.5)
    assert clock.counted_seconds() == pytest.approx((1.0, 2 / 3))

    tally = Tally(clock)
    assert tally.timed(tally.ask, sum, [1, 2]) == 3
    assert tally.ask[0][1] == clock.segment == 2


def test_compare_refuses_mismatched_blas(tmp_path):
    from perfbench.compare import IncomparableResults, load_results

    base = {"workload": "w", "seed": 0, "trace": 0, "metrics": {},
            "env": {"blas": "openblas 1", "blas_threads": 1, "nproc": 2}}
    other = dict(base, env=dict(base["env"], blas_threads=2))
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(other))
    with pytest.raises(IncomparableResults):
        load_results([tmp_path / "a.json"], [tmp_path / "b.json"])
