"""The benchmark's closed-loop workloads and their correctness checks.

Every workload runs in *units* (one campaign, one server session, one sweep
batch) built from ``(seed, k)`` alone, so unit ``k`` of a given seed is the
same work every time it runs — the traced run relies on that to replay a
unit with and without tracing.  The harness keeps starting units until the
requested measuring time has passed; a unit is never cut short, so every
campaign ends with its whole budget told and every check covers whole
units.
"""

from __future__ import annotations

import collections
import heapq
import json
import pathlib
import shutil
import tempfile
import time
from contextlib import nullcontext

import numpy as np

from repro.circuits import ClassEProblem, OpAmpProblem
from repro.circuits.benchmarks import hartmann6
from repro.core import make_campaign
from repro.core.recovery import resolve_problem
from repro.distributed import CampaignClient, serve

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "spice_pool.json"

#: Relative tolerance for matching a sweep FOM against its reference.
FOM_RTOL = 1e-7


def subseed(seed: int, k: int) -> int:
    """Campaign RNG seed of unit ``k`` (distinct for every (seed, k) pair)."""
    return int(seed) * 1000 + int(k)


class Tally:
    """End-to-end samples and correctness findings of one measured pass.

    Each latency sample is ``(wall seconds, segment)``: with a ``HostClock``
    the segment says which host-speed reading applies to it, and the clock
    gets its chance to take a reading after every operation.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.ask: list[tuple[float, int | None]] = []
        self.tell: list[tuple[float, int | None]] = []
        self.eval: list[tuple[float, int | None]] = []
        self.evals = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.surrogate = {"incremental_updates": 0, "fallbacks": 0,
                          "mode_switches": 0}
        self.journal_bytes = 0
        self.regrets: list[float] = []

    def timed(self, samples, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        self.attempted += 1
        if samples is not None:
            samples.append((elapsed, None if self.clock is None else self.clock.segment))
        if self.clock is not None:
            self.clock.tick()
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)

    def add_stats(self, stats) -> None:
        self.surrogate["incremental_updates"] += stats.n_incremental_updates
        self.surrogate["fallbacks"] += stats.n_fallbacks
        self.surrogate["mode_switches"] += stats.n_mode_switches


class Ledger:
    """Checks one campaign's ask/tell contract from the caller's side.

    Asks are a multiset: a campaign may legitimately propose a point it
    already evaluated (the sparse posterior does, at box corners), and each
    ask must then be told back once.
    """

    def __init__(self, label: str, bounds, max_evals: int):
        self.label = label
        self.bounds = np.asarray(bounds, dtype=float)
        self.max_evals = int(max_evals)
        self.asked: collections.Counter = collections.Counter()
        self.told: collections.Counter = collections.Counter()

    def ask(self, tally: Tally, x) -> None:
        x = np.asarray(x, dtype=float)
        tally.check(
            bool(np.all(x >= self.bounds[:, 0]) and np.all(x <= self.bounds[:, 1])),
            f"{self.label}: asked point out of bounds: {x.tolist()}",
        )
        self.asked[x.tobytes()] += 1

    def tell(self, tally: Tally, x) -> None:
        key = np.asarray(x, dtype=float).tobytes()
        tally.check(self.told[key] < self.asked[key],
                    f"{self.label}: told a point more often than it was asked")
        self.told[key] += 1

    def finish(self, tally: Tally) -> None:
        n_told, n_asked = sum(self.told.values()), sum(self.asked.values())
        tally.check(
            self.told == self.asked and n_told == self.max_evals,
            f"{self.label}: {n_told} told, {n_asked} asked, budget {self.max_evals}",
        )


def drive_cost_ordered(campaign, problem, n_in_flight: int, tally: Tally | None = None,
                       ledger: Ledger | None = None) -> float:
    """Run a campaign with ``n_in_flight`` simulated workers; return the makespan.

    Each evaluation runs when its point is asked and finishes ``result.cost``
    simulated seconds later; each tell goes to the in-flight point with the
    smallest finish time (ties by issue order), and the freed worker is
    refilled at once.  That is the order the simulated worker pool gives
    ``AsynchronousBatchBO``, so a campaign run here follows its trajectory
    exactly.
    """
    tally = tally if tally is not None else Tally()
    heap: list = []
    issued = 0

    def issue(now: float) -> None:
        nonlocal issued
        samples = None if campaign.in_doe else tally.ask
        x = tally.timed(samples, campaign.ask)
        if ledger is not None:
            ledger.ask(tally, x)
        result = tally.timed(tally.eval, problem.evaluate, x)
        heapq.heappush(heap, (now + result.cost, issued, x, result))
        issued += 1

    while not campaign.exhausted and len(heap) < n_in_flight:
        issue(0.0)
    now = 0.0
    while heap:
        now, _, x, result = heapq.heappop(heap)
        tally.timed(tally.tell, campaign.tell, x, result)
        tally.evals += 1
        if ledger is not None:
            ledger.tell(tally, x)
        if not campaign.exhausted:
            issue(now)
    return now


class Workload:
    """One benchmark workload: ``prepare`` builds a unit, ``run_unit`` runs it."""

    name = ""

    def __init__(self, seed: int, scratch: pathlib.Path):
        self.seed = int(seed)
        self.scratch = scratch

    def prepare(self, k: int):
        raise NotImplementedError

    def run_unit(self, unit, tally: Tally, recorder=None) -> None:
        raise NotImplementedError

    def discard(self, unit) -> None:
        """Release a prepared unit that will not run."""

    def finish(self, tally: Tally) -> None:
        """Checks over all units of a run."""


class AsyncHartmann6(Workload):
    """EasyBO-5 (Alg. 1, Eq. 9 hallucination), exact GP, 6-D Hartmann.

    Paper settings: 20-point initial design, default acquisition search
    (2048 candidates, 4 polish restarts), ML-II on every ask.  A unit is
    one campaign of ``MAX_EVALS``.  Per-ask cost depends on the trajectory
    (one campaign's median ask ranges over 2x between seeds), so a run
    averages many short campaigns instead of a few long ones.
    """

    name = "async-hartmann6"
    MAX_EVALS = 40
    IN_FLIGHT = 5
    #: Loose bound on the run's mean regret (optimum 3.32237), meant to
    #: catch a broken optimizer such as one that minimizes.  Over 30 seeds a
    #: 40-evaluation campaign's regret ranged 0.58-2.57 (mean 1.48); 40
    #: uniform random draws reach 1.75 at the median.  A run averages five
    #: or more campaigns, so a working optimizer stays below the bound.
    MAX_MEAN_REGRET = 2.3

    def prepare(self, k):
        problem = hartmann6()
        campaign = make_campaign("EasyBO-5", problem, rng=subseed(self.seed, k),
                                 max_evals=self.MAX_EVALS)
        return problem, campaign

    def run_unit(self, unit, tally, recorder=None):
        problem, campaign = unit
        ledger = Ledger(f"{self.name} campaign", problem.bounds, campaign.max_evals)
        drive_cost_ordered(campaign, problem, self.IN_FLIGHT, tally, ledger)
        ledger.finish(tally)
        tally.regrets.append(problem.regret(campaign.best()[1]))
        tally.add_stats(campaign.session.stats)

    def finish(self, tally):
        regret = float(np.mean(tally.regrets))
        tally.check(regret <= self.MAX_MEAN_REGRET,
                    f"{self.name}: mean regret {regret:.4f} over "
                    f"{len(tally.regrets)} campaigns exceeds {self.MAX_MEAN_REGRET}")


def result_status(result) -> str:
    """Sweep status of an evaluation, as recorded in the reference pool."""
    if not result.metrics:
        return "rejected"
    return "ok" if result.feasible else "infeasible"


class SpiceSweep(Workload):
    """Op-amp DC+AC and class-E transient evaluations, no model.

    The seed shuffles each circuit's reference pool; unit ``k`` takes the
    next ``OPAMP_PER_UNIT`` op-amp and ``CLASSE_PER_UNIT`` class-E designs
    of the shuffled pools (wrapping around), evaluated in the order three
    op-amps then one class-E.  Drawing without replacement keeps a run's
    mix of cheap and expensive class-E designs close to the pool's.  Each
    circuit's designs are the initial design of a campaign, so asks and
    tells never touch the GP.
    """

    name = "spice-sweep"
    OPAMP_PER_UNIT = 12
    CLASSE_PER_UNIT = 4

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        pool = json.loads(REFERENCE.read_text())
        rng = np.random.default_rng(self.seed)
        self.pool = {c: [pool[c][i] for i in rng.permutation(len(pool[c]))]
                     for c in ("opamp", "classe")}
        self.problems = {"opamp": OpAmpProblem(), "classe": ClassEProblem()}

    def prepare(self, k):
        unit = {}
        for circuit, n in (("opamp", self.OPAMP_PER_UNIT),
                           ("classe", self.CLASSE_PER_UNIT)):
            entries = self.pool[circuit]
            picks = [entries[(k * n + i) % len(entries)] for i in range(n)]
            campaign = make_campaign("EasyBO", self.problems[circuit], n_init=n,
                                     max_evals=n, rng=subseed(self.seed, k))
            campaign.begin(np.array([e["x"] for e in picks]))
            unit[circuit] = (campaign, picks)
        return unit

    def _evaluate(self, circuit, campaign, entry, ledger, tally):
        x = tally.timed(tally.ask, campaign.ask)
        ledger.ask(tally, x)
        result = tally.timed(tally.eval, self.problems[circuit].evaluate, x)
        status = result_status(result)
        tally.check(
            status == entry["status"]
            and abs(result.fom - entry["fom"]) <= FOM_RTOL * max(1.0, abs(entry["fom"])),
            f"{self.name}: {circuit} design gave fom={result.fom!r} ({status}), "
            f"reference fom={entry['fom']!r} ({entry['status']})",
        )
        if status == "rejected" and not entry["converged"]:
            tally.failed += 1
        tally.timed(tally.tell, campaign.tell, x, result)
        ledger.tell(tally, x)
        tally.evals += 1

    def run_unit(self, unit, tally, recorder=None):
        ledgers = {c: Ledger(f"{self.name} {c}", self.problems[c].bounds,
                             len(unit[c][1])) for c in unit}
        opamps, classes = unit["opamp"][1], unit["classe"][1]
        per = len(opamps) // len(classes)
        for i, entry in enumerate(classes):
            for opamp in opamps[i * per:(i + 1) * per]:
                self._evaluate("opamp", unit["opamp"][0], opamp, ledgers["opamp"], tally)
            self._evaluate("classe", unit["classe"][0], entry, ledgers["classe"], tally)
        for ledger in ledgers.values():
            ledger.finish(tally)


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in pathlib.Path(path).iterdir() if f.is_file())


class ServerTenants(Workload):
    """One client connection drives N EasyBO-2 campaigns on a journaled server.

    The server runs on its background thread with fsync'd journals; the
    client keeps two points in flight per campaign and serves the campaigns
    round-robin.  Twice per unit (after a third and two thirds of the
    budget) the server is killed with ``abort()`` and restarted on the same
    journal directory; each campaign's ``issued`` and ``n_observations``
    must survive the restart, and the run then finishes every campaign.

    Each campaign runs under ``surrogate="auto"`` with a small
    ``max_exact_n``, so it crosses from the exact GP into the inducing-point
    posterior between the two restarts: the second restart rebuilds sparse
    sessions from their journals, and the last third of every campaign
    asks, hallucinates and tells on the sparse posterior.
    """

    name = "server-tenants"
    N_CAMPAIGNS = 8
    MAX_EVALS = 30
    IN_FLIGHT = 2
    PROBLEM = "sphere2"
    CONFIG = dict(n_init=3, acq_candidates=32, acq_restarts=1,
                  surrogate="auto", max_exact_n=16, n_inducing=12)
    RESTART_FRACTIONS = (1 / 3, 2 / 3)

    def prepare(self, k):
        journal_dir = pathlib.Path(tempfile.mkdtemp(prefix="journals-", dir=self.scratch))
        server = serve(journal_dir=journal_dir, background=True)
        client = CampaignClient(port=server.port)
        cids = [
            client.create("EasyBO-2", self.PROBLEM, config=dict(
                rng=subseed(self.seed, k) * 100 + i, max_evals=self.MAX_EVALS,
                **self.CONFIG))
            for i in range(self.N_CAMPAIGNS)
        ]
        return {"dir": journal_dir, "server": server, "client": client, "cids": cids}

    @staticmethod
    def _stop(server) -> None:
        server.stop()
        server._thread.join(timeout=10.0)

    def discard(self, unit):
        unit["client"].close()
        self._stop(unit["server"])
        shutil.rmtree(unit["dir"], ignore_errors=True)

    def _restart(self, unit, tally, recorder):
        client = unit["client"]
        before = {c: tally.timed(None, client.status, c) for c in unit["cids"]}
        unit["server"].abort()
        unit["server"]._thread.join(timeout=10.0)
        client.close()
        with nullcontext() if recorder is None else recorder.span("server.recover"):
            unit["server"] = serve(journal_dir=unit["dir"], background=True)
            unit["client"] = client = CampaignClient(port=unit["server"].port)
            after = {c: tally.timed(None, client.status, c) for c in unit["cids"]}
        for c in unit["cids"]:
            tally.check(
                all(after[c][key] == before[c][key] for key in ("issued", "n_observations")),
                f"{self.name}: {c} changed across restart: {before[c]} -> {after[c]}",
            )

    def run_unit(self, unit, tally, recorder=None):
        problem = resolve_problem(self.PROBLEM)
        cids = unit["cids"]
        ledgers = {c: Ledger(f"{self.name} {c}", problem.bounds, self.MAX_EVALS)
                   for c in cids}
        in_flight = {c: [] for c in cids}
        issued = dict.fromkeys(cids, 0)
        total = self.N_CAMPAIGNS * self.MAX_EVALS
        marks = [int(total * f) for f in self.RESTART_FRACTIONS]
        told = 0

        def ask(c):
            samples = tally.ask if issued[c] >= self.CONFIG["n_init"] else None
            x = tally.timed(samples, unit["client"].ask, c)[0]
            ledgers[c].ask(tally, x)
            in_flight[c].append(x)
            issued[c] += 1

        for c in cids:
            for _ in range(self.IN_FLIGHT):
                ask(c)
        while any(in_flight.values()):
            for c in cids:
                if not in_flight[c]:
                    continue
                x = in_flight[c].pop(0)
                result = tally.timed(tally.eval, problem.evaluate, x)
                tally.timed(tally.tell, unit["client"].tell, c, x, result)
                ledgers[c].tell(tally, x)
                tally.evals += 1
                told += 1
                if issued[c] < self.MAX_EVALS:
                    ask(c)
                if marks and told >= marks[0]:
                    marks.pop(0)
                    self._restart(unit, tally, recorder)
        for c in cids:
            ledgers[c].finish(tally)
            state = tally.timed(None, unit["client"].status, c)["state"]
            tally.check(state == "finished", f"{self.name}: {c} ended {state!r}")
        for hosted in unit["server"]._campaigns.values():
            session = hosted.campaign.session
            tally.check(
                session.active_surrogate == "sparse" and session.stats.n_mode_switches >= 1,
                f"{self.name}: {hosted.id} ended on {session.active_surrogate!r} after "
                f"{session.stats.n_mode_switches} mode switches",
            )
            tally.add_stats(session.stats)
        unit["client"].close()
        self._stop(unit["server"])
        tally.journal_bytes += _dir_bytes(unit["dir"])
        shutil.rmtree(unit["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (AsyncHartmann6, SpiceSweep, ServerTenants)}
