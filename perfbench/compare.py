"""Compare two sets of benchmark results, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py --base old/*.json --new .perfbench/results/*.json

Each file is a result written by ``run.py``.  For every workload and
end-to-end metric it prints both medians, the change, and whether the new
median is worse than the base by more than the metric's bound in
``BENCHMARK.json``.  Results measured under different BLAS vendors, BLAS
thread counts, core counts or reference slice times are refused: they are
not comparable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.envinfo import COMPARABLE  # noqa: E402


class IncomparableResults(ValueError):
    """The result sets were measured under different BLAS settings."""


def load_results(base_paths, new_paths):
    sets = [[json.loads(pathlib.Path(p).read_text()) for p in paths]
            for paths in (base_paths, new_paths)]
    settings = {json.dumps({k: r["env"].get(k) for k in COMPARABLE}, sort_keys=True)
                for records in sets for r in records}
    if len(settings) > 1:
        raise IncomparableResults(
            "results differ in BLAS settings and cannot be compared: "
            + "; ".join(sorted(settings)))
    return sets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        base, new = load_results(args.base, args.new)
    except IncomparableResults as exc:
        print(exc, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in records
                       if r["workload"] == workload and not r["trace"]
                       and name in r["metrics"]] for records in (base, new)]
            if not all(values):
                continue
            b, n = (statistics.median(v) for v in values)
            change = (n - b) / b
            worse = change if metric["better"] == "lower" else -change
            flag = "  REGRESSED" if worse > metric["bound"] else ""
            regressed |= bool(flag)
            print(f"{workload:16s} {name:14s} {b:12.5g} {n:12.5g} {change:+8.1%}{flag}")
    # Times are at reference host speed; the readings show how far the
    # host itself moved between the sets.
    for label, records in (("base", base), ("new", new)):
        readings = [t for r in records for t in r.get("host_slice_s", [])]
        if readings:
            print(f"host slice, {label}: median {statistics.median(readings) * 1e3:.3f} ms "
                  f"over {len(readings)} readings")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
