"""Traced-run instrumentation: wrap each layer's public functions, then
reduce the recorded spans to per-layer metrics.

Functions a module imported by name are wrapped where they are bound (for
example ``repro.core.campaign.maximize_acquisition``), because wrapping
the defining module would leave the caller's binding untouched.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

import repro.circuits.classe as classe_mod
import repro.circuits.opamp as opamp_mod
import repro.core.campaign as campaign_mod
import repro.core.surrogate as surrogate_mod
import repro.distributed.server as server_mod
from repro.circuits import ClassEProblem, OpAmpProblem
from repro.circuits.benchmarks import SyntheticProblem
from repro.core.campaign import Campaign
from repro.core.journal import JournalWriter
from repro.core.surrogate import HallucinatedView, SurrogateSession
from repro.distributed.client import CampaignClient
from repro.distributed.server import CampaignServer
from repro.gp import GaussianProcess, SparseGaussianProcess, SparseHallucinatedView

from perfbench.spans import self_times, union_length

#: Layers of the attribution table, by span-name prefix.
LAYERS = ("campaign", "acq", "gp", "pending", "problem", "circuits", "spice",
          "journal", "rpc", "server")

PREDICTORS = (GaussianProcess, HallucinatedView, SparseGaussianProcess,
              SparseHallucinatedView)


def _kind(span, args, result):
    span.attrs["kind"] = ("sparse" if isinstance(result, (SparseGaussianProcess,
                                                          SparseHallucinatedView))
                          else "exact")


def instrument(rec) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    rec.wrap(Campaign, "ask", "campaign.ask",
             request_id=lambda a: f"{id(a[0]):x}:ask{a[0].issued}")
    rec.wrap(Campaign, "tell", "campaign.tell")
    rec.wrap(campaign_mod, "maximize_acquisition", "acq.maximize")
    rec.wrap(SurrogateSession, "refit", "gp.refit", after=_kind)
    rec.wrap(surrogate_mod, "fit_hyperparameters", "gp.ml2")
    rec.wrap(SurrogateSession, "model_with_pending", "pending.hallucinate",
             after=_kind)
    rec.wrap(SyntheticProblem, "evaluate", "problem.evaluate")
    for cls in (OpAmpProblem, ClassEProblem):
        rec.wrap(cls, "evaluate", "circuits.evaluate")
    rec.wrap(opamp_mod, "dc_operating_point", "spice.dc",
             after=lambda s, a, r: rec.count("spice.dc_newton_iters", r.iterations))
    rec.wrap(opamp_mod, "ac_analysis", "spice.ac")
    rec.wrap(opamp_mod, "bode_metrics", "spice.bode")
    rec.wrap(classe_mod, "transient_analysis", "spice.transient",
             after=lambda s, a, r: rec.count("spice.transient_steps", len(r.t)))
    rec.wrap(JournalWriter, "append", "journal.append")
    rec.wrap(CampaignClient, "call", lambda a: f"rpc.{a[1]}",
             after=lambda s, a, r: setattr(s, "request_id", r.get("request_id")))
    rec.wrap(CampaignServer, "_handle_request", "server.dispatch",
             request_id=lambda a: a[2].get("request_id"))
    rec.wrap(server_mod, "resume_campaign", "server.replay")
    rec.wrap(campaign_mod, "read_campaign_journal", "server.read_journal",
             after=lambda s, a, r: rec.count("server.replayed_records", len(r)))
    rec.count_calls(GaussianProcess, "log_marginal_likelihood",
                    lambda a: rec.count("gp.mll_evals"))
    depth = threading.local()
    for cls in PREDICTORS:
        _count_predicts(rec, cls, depth)


def _count_predicts(rec, cls, depth) -> None:
    """Count outermost ``predict`` calls (and rows) made inside acq.maximize.

    A hallucinated view's ``predict`` calls its base model's; only the
    outer call is one prediction.
    """
    original = cls.predict

    @functools.wraps(original)
    def predict(self, X, *args, **kwargs):
        level = getattr(depth, "level", 0)
        if level == 0 and rec.inside("acq"):
            rec.count("acq.predict_calls")
            rec.count("acq.predict_rows", int(np.shape(X)[0]))
        depth.level = level + 1
        try:
            return original(self, X, *args, **kwargs)
        finally:
            depth.level = level

    rec.patch(cls, "predict", predict)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def layer_metrics(rec, *, wall: float, tally, main_thread: int) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``wall`` is the traced wall time; everything the main thread spent
    outside a top-level span is reported as unattributed.
    """
    rec.link_remote()
    spans = rec.finished()
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name, kind=None):
        return [s.duration for s in by_name.get(name, ())
                if kind is None or s.attrs.get("kind") == kind]

    def selfs(*names):
        return [own[s.index] for n in names for s in by_name.get(n, ())]

    c = rec.counters
    ms = 1e3
    acq = durations("acq.maximize")
    n_acq = max(len(acq), 1)
    refits = durations("gp.refit")
    appends = durations("journal.append")
    spice_errors = sum(1 for n in ("spice.dc", "spice.ac", "spice.transient")
                       for s in by_name.get(n, ()) if "error" in s.attrs)
    roots = [s for s in spans if s.parent is None and s.thread == main_thread]
    attributed = union_length((s.start, s.end) for s in roots)

    out = {
        "acq.calls": (len(acq), "count"),
        "acq.maximize_s": (sum(acq), "s"),
        "acq.maximize_ms_p50": (_median(acq) * ms, "ms"),
        "acq.predict_calls_per_maximize": (c["acq.predict_calls"] / n_acq, "count"),
        "acq.predict_rows_per_maximize": (c["acq.predict_rows"] / n_acq, "count"),
        "gp.refit_s": (sum(refits), "s"),
        "gp.refit_ms_p90": (_p90(refits) * ms, "ms"),
        "gp.ml2_fits": (len(durations("gp.ml2")), "count"),
        "gp.mll_evals": (c["gp.mll_evals"], "count"),
        "gp.incremental_updates": (tally.surrogate["incremental_updates"], "count"),
        "gp.fallbacks": (tally.surrogate["fallbacks"], "count"),
        "pending.hallucinate_s": (sum(durations("pending.hallucinate")), "s"),
        "pending.hallucinate_ms_p50": (_median(durations("pending.hallucinate")) * ms, "ms"),
        "sparse.mode_switches": (tally.surrogate["mode_switches"], "count"),
        "sparse.refit_ms_p50": (_median(durations("gp.refit", "sparse")) * ms, "ms"),
        "sparse.hallucinate_ms_p50": (
            _median(durations("pending.hallucinate", "sparse")) * ms, "ms"),
        "campaign.ask_self_ms_p50": (_median(selfs("campaign.ask")) * ms, "ms"),
        "campaign.tell_ms_p50": (_median(durations("campaign.tell")) * ms, "ms"),
        "spice.dc_ms_p50": (_median(durations("spice.dc")) * ms, "ms"),
        "spice.dc_newton_iters": (
            c["spice.dc_newton_iters"] / max(len(durations("spice.dc")), 1), "count"),
        "spice.ac_ms_p50": (_median(durations("spice.ac")) * ms, "ms"),
        "spice.transient_ms_p50": (_median(durations("spice.transient")) * ms, "ms"),
        "spice.transient_steps": (
            c["spice.transient_steps"] / max(len(durations("spice.transient")), 1),
            "count"),
        "spice.failures": (spice_errors, "count"),
        "circuits.evaluate_s": (sum(durations("circuits.evaluate")), "s"),
        "journal.appends": (len(appends), "count"),
        "journal.append_ms_p50": (_median(appends) * ms, "ms"),
        "journal.append_ms_p90": (_p90(appends) * ms, "ms"),
        "journal.bytes": (tally.journal_bytes, "B"),
        "journal.bytes_per_append": (tally.journal_bytes / max(len(appends), 1), "B"),
        "rpc.ask_ms_p50": (_median(durations("rpc.ask")) * ms, "ms"),
        "rpc.tell_ms_p50": (_median(durations("rpc.tell")) * ms, "ms"),
        "rpc.transport_ms_p50": (_median(selfs("rpc.ask", "rpc.tell")) * ms, "ms"),
        "server.recover_s": (_median(durations("server.recover")), "s"),
        "server.replayed_records": (c["server.replayed_records"], "count"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - attributed, "s"),
        "trace.unattributed_share": ((wall - attributed) / wall, "ratio"),
    }
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"layer.{layer}.count"] = (len(mine), "count")
        out[f"layer.{layer}.busy_s"] = (union_length((s.start, s.end) for s in mine), "s")
        out[f"layer.{layer}.self_s"] = (sum(own[s.index] for s in mine), "s")
    return out
