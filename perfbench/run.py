"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload async-hartmann6 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the traced run: each unit of work runs once untraced and
once with every layer boundary wrapped, and the per-layer metrics, the
unattributed remainder and the tracing overhead are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the BLAS settings and each metric's sample count, is also written to
``.perfbench/results/``; ``perfbench/compare.py`` compares such files.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: a second BLAS thread on a small box both
# slows the GP linear algebra and changes optimization trajectories.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402  (fails fast outside a full checkout)

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"repro was imported from {repro.__file__}, not from {ROOT}/src")

from perfbench.envinfo import HostClock, blas_info, host_slice  # noqa: E402
from perfbench.workloads import WORKLOADS, Tally  # noqa: E402

OUT = pathlib.Path(ROOT) / ".perfbench"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 3

#: End-to-end metrics and their units, in reporting order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "ask_p50_ms": "ms",
    "ask_p90_ms": "ms",
    "tell_p50_ms": "ms",
    "eval_p50_ms": "ms",
    "eval_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def host_reading(n: int = 7) -> float:
    """Median of ``n`` host slices, in seconds."""
    return statistics.median(host_slice() for _ in range(n))


def probe_setup(workload: str, seed: int, reference: float) -> tuple[float, float]:
    """Seconds from starting a fresh process until its first ask is possible.

    Returns the wall time and the time at ``reference`` host speed, from
    host readings taken just before and just after the probe.
    """
    before = host_reading()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {code})")
    return elapsed, elapsed * reference / statistics.mean((before, host_reading()))


def measure(workload, seconds: float, tally: Tally, first_unit) -> list[dict]:
    """Run whole units for about ``seconds``; return each unit's evals and wall.

    Only the units themselves count towards the host clock's measured time;
    preparing the next unit does not.
    """
    clock = tally.clock
    units = []
    started = time.perf_counter()
    # Start another unit only while at least half a unit of time is left,
    # so the run's length stays close to ``seconds`` on average.
    while not units or (time.perf_counter() - started
                        + 0.5 * sum(u["wall"] for u in units) / len(units) < seconds):
        unit = first_unit if not units else workload.prepare(len(units))
        clock.read()
        clock.counting = True
        first, evals = clock.segment, tally.evals
        workload.run_unit(unit, tally)
        clock.read()
        clock.counting = False
        units.append({"evals": tally.evals - evals,
                      "wall": sum(w for w, _ in clock.segments[first:])})
    return units


def end_to_end(tally: Tally, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics at reference host speed, and the same at wall speed."""
    clock = tally.clock
    wall, ref = clock.counted_seconds()
    out = {}
    for speed in ("ref", "wall"):
        at_ref = speed == "ref"

        def ms(samples, stat, at_ref=at_ref):
            times = [t * clock.speed(seg) if at_ref else t for t, seg in samples]
            return float(stat(times)) * 1e3

        def p90(times):
            return np.percentile(times, 90)

        out[speed] = {
            "setup_s": statistics.median(s[at_ref] for s in setup),
            "evals_per_s": tally.evals / (ref if at_ref else wall),
            "ask_p50_ms": ms(tally.ask, np.median),
            "ask_p90_ms": ms(tally.ask, p90),
            "tell_p50_ms": ms(tally.tell, np.median),
            "eval_p50_ms": ms(tally.eval, np.median),
            "eval_p90_ms": ms(tally.eval, p90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    samples = {"setup_s": len(setup), "evals_per_s": tally.evals,
               "ask_p50_ms": len(tally.ask), "ask_p90_ms": len(tally.ask),
               "tell_p50_ms": len(tally.tell),
               "eval_p50_ms": len(tally.eval), "eval_p90_ms": len(tally.eval),
               "peak_rss_mb": 1}
    return ({name: (out["ref"][name], END_TO_END_UNITS[name], samples[name])
             for name in END_TO_END_UNITS}, out["wall"])


def traced(workload, seconds: float, trace_path) -> tuple[dict, Tally]:
    """Run each unit untraced, then again traced, until ``seconds`` have passed."""
    from perfbench.layers import instrument, layer_metrics
    from perfbench.spans import SpanRecorder

    plain, tally = Tally(), Tally()
    rec = SpanRecorder()
    plain_wall = traced_wall = 0.0
    k = 0
    while plain_wall + traced_wall < seconds:
        started = time.perf_counter()
        workload.run_unit(workload.prepare(k), plain)
        plain_wall += time.perf_counter() - started
        instrument(rec)
        try:
            started = time.perf_counter()
            workload.run_unit(workload.prepare(k), tally, rec)
            traced_wall += time.perf_counter() - started
        finally:
            rec.unwrap_all()
        k += 1
    workload.finish(plain)
    workload.finish(tally)
    metrics = layer_metrics(rec, wall=traced_wall, tally=tally,
                            main_thread=threading.get_ident())
    plain_rate, traced_rate = plain.evals / plain_wall, tally.evals / traced_wall
    metrics["trace.untraced_evals_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_evals_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
    rec.dump(trace_path)
    tally.problems += plain.problems
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    return {name: (value, unit, None) for name, (value, unit) in metrics.items()}, tally


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.setup_probe:
            unit = workload.prepare(0)
            print("ready", flush=True)
            workload.discard(unit)
            return 0
        return run(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workload) -> int:
    env = blas_info(BLAS_THREAD_VARS)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    metrics, error, units, setup, wall_metrics = {}, None, [], [], {}
    tally = Tally(HostClock())
    try:
        if args.trace:
            metrics, tally = traced(workload, args.seconds,
                                    OUT / "traces" / f"{tag}.jsonl")
        else:
            setup = [probe_setup(args.workload, args.seed, tally.clock.reference)
                     for _ in range(SETUP_PROBES)]
            first = workload.prepare(0)
            units = measure(workload, args.seconds, tally, first)
            workload.finish(tally)
            metrics, wall_metrics = end_to_end(tally, setup)
    except Exception:  # noqa: BLE001 — report the failed operation, then exit non-zero
        error = traceback.format_exc()
        tally.failed += 1
        tally.attempted += 1
        print(error, file=sys.stderr)
    correct = error is None and not tally.problems
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        count = "" if n is None else f"  (n={n})"
        print(f"{name:36s} {value:14.6g} {unit}{count}")
    for name, value in wall_metrics.items():
        if name != "peak_rss_mb":
            print(f"{name + ' at wall speed':36s} {value:14.6g} {END_TO_END_UNITS[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    if tally.clock is not None and tally.clock.readings:
        slices = np.array(tally.clock.readings) * 1e3
        print(f"host_slice_ms p10/p50/p90 {np.percentile(slices, 10):.3f} "
              f"{np.median(slices):.3f} {np.percentile(slices, 90):.3f} "
              f"over {len(slices)} readings (reference "
              f"{tally.clock.reference * 1e3:.3f})")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "error": error,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "wall_speed_metrics": wall_metrics,
        "host_slice_s": tally.clock.readings if tally.clock is not None else [],
        "setup_samples": setup,
        "units": units,
        "samples": {"ask": tally.ask, "tell": tally.tell, "eval": tally.eval},
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
