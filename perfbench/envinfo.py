"""The BLAS settings a result was measured under, and the host's speed.

Results taken under different BLAS vendors or thread counts are not
comparable (a second BLAS thread changes both speed and trajectories), so
every result records them and ``compare.py`` refuses to mix them.
``HostClock`` reads the host's speed during a run so that times can be
reported at a fixed reference speed.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import time

import numpy as np

#: Fields that must agree before two results may be compared.
COMPARABLE = ("blas", "blas_threads", "nproc", "reference_slice_s")


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info(thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "blas": vendor,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "reference_slice_s": REFERENCE_SLICE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


#: A round figure near the median ``host_slice`` time, in seconds, on the
#: machine the benchmark was built on (Intel Xeon VM, 2 cores, Python 3.11,
#: scipy-openblas 0.3.31 on one thread).  Times reported at reference speed
#: are scaled to it; only ratios between results taken with the same
#: figure mean anything.
REFERENCE_SLICE_S = 2.0e-3

_rng = np.random.default_rng(0)
_SPD = _rng.random((48, 48))
_SPD = _SPD @ _SPD.T + 48 * np.eye(48)
_RHS = _rng.random((48, 4))
_CANDIDATES = _rng.random((512, 6))
_WIDE = _rng.random((256, 512))
_OFFSET = np.arange(6.0)


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key, name):
        self.key = key
        self.name = name

    def score(self):
        return 2 * self.key + len(self.name)


def host_slice() -> float:
    """Seconds taken by a fixed ~2 ms mix of interpreter and numpy work.

    Five equal parts: a tight integer loop; small Cholesky factors, solves
    and a kernel over a candidate set; object, dict and sort churn; many
    numpy calls on 6-vectors; and passes over a 1 MB array.  On a shared
    host the program's own operations slow down by about as much as this
    mix does, while each part alone tracks some operations but not others
    (measured against op-amp evaluations, Hartmann-6 evaluations,
    initial-design asks and model-based asks).  Nothing in the program
    changes it, so a slower reading means a slower host.
    """
    started = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i
    for _ in range(4):
        factor = np.linalg.cholesky(_SPD)
        np.linalg.solve(factor, _RHS)
        np.exp(-np.square(_CANDIDATES).sum(axis=1)).max()
    items = [_Item(i % 97, str(i)) for i in range(300)]
    table = {it.name: {"score": it.score(), "pair": (it.key, it.name)} for it in items}
    sorted(table.items(), key=lambda kv: (kv[1]["score"], kv[0]))
    for i in range(120):
        x = np.array([i, 1.0, 2.0, 3.0, 4.0, 5.0]) - _OFFSET
        total += float(np.exp(-np.dot(x, x) * 1e-3))
    (_WIDE * 1.0001).sum(axis=0)
    np.sort(_WIDE[:64], axis=1)
    return time.perf_counter() - started


class HostClock:
    """Puts wall times measured on a shared host at a fixed reference speed.

    On a shared machine the same work can take up to 1.8x longer from one
    second to the next while the process is never descheduled, so neither wall nor
    CPU time is steady.  The clock cuts the measured run into *segments* by
    reading the host's speed (one ``host_slice``) between operations, at
    most every ``interval`` seconds, and scales each segment, and every
    operation timed inside it, by ``REFERENCE_SLICE_S`` over the slice time
    around it.  The readings take no part in any operation's timing.
    """

    def __init__(self, interval: float = 0.05, reference: float = REFERENCE_SLICE_S):
        self.interval = interval
        self.reference = reference
        self.readings: list[float] = []
        #: ``(wall seconds, counted)`` of the work between reading i and i+1.
        self.segments: list[tuple[float, bool]] = []
        self.counting = False
        self._since = None

    @property
    def segment(self) -> int:
        """Index of the segment in progress."""
        return len(self.segments)

    def read(self) -> None:
        """End the segment in progress and take a reading."""
        if self._since is not None:
            self.segments.append((time.perf_counter() - self._since, self.counting))
        self.readings.append(host_slice())
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Take a reading if ``interval`` has passed since the last one."""
        if self._since is not None and time.perf_counter() - self._since >= self.interval:
            self.read()

    def speed(self, segment: int) -> float:
        """Reference seconds per wall second during ``segment``.

        Uses the mean of the readings that open and close the segment: the
        host's speed changes within a second, and wider windows follow it
        less closely (with the median of four readings, the five-seed
        spreads of ``spice-sweep`` latencies grew by about 40%).
        """
        window = self.readings[segment:segment + 2]
        return self.reference / statistics.fmean(window)

    def counted_seconds(self) -> tuple[float, float]:
        """Wall and reference seconds of every counted segment."""
        wall = ref = 0.0
        for i, (seconds, counted) in enumerate(self.segments):
            if counted:
                wall += seconds
                ref += seconds * self.speed(i)
        return wall, ref
