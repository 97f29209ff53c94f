"""Per-layer metrics from the spans the traced entry writes.

A layer's self time is the time its spans cover minus the part their
child spans cover.  ``<layer>.calls`` and ``<layer>.errors`` count
entry calls: spans whose parent belongs to another layer.  Times named
after a layer (``<layer>.self_s``) are seconds per traced request;
times named after a function (``montecarlo.chunk_rng_s``,
``stats.discriminate_s``) are seconds per call.
"""

from collections import defaultdict
from statistics import median

from workloads import PAIRS

LAYERS = ("config", "predict", "montecarlo", "stats", "fringes", "sectors", "cli")
# metrics that need mzsim.montecarlo.chunk_rng in the API
CHUNK_METRICS = ("montecarlo.chunks", "montecarlo.chunk_rng_s", "montecarlo.variates",
                 "montecarlo.variates_per_event")
# the layer each workload is built to load; zero calls there means the tracer lost it
DOMINANT = {
    "cli_short": ("config", "predict", "fringes", "sectors", "cli"),
    "mc_sweep": ("montecarlo",),
    "stats_search": ("stats",),
}

NS = 1e-9


def _dur(span) -> float:
    return (span["end"] - span["start"]) * NS


def _self_time(span, children) -> float:
    """Span duration minus the union of its children's intervals."""
    covered, reach = 0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        start, end = max(c["start"], reach), min(c["end"], span["end"])
        if end > start:
            covered += end - start
            reach = end
    return _dur(span) - covered * NS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(records: list[dict]) -> tuple[dict, list[str]]:
    """(metric -> (value, unit), absent API names) over all traced requests."""
    spans = [s for r in records for s in r["spans"]]
    by_id = {(s["request"], s["id"]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["request"], s["parent"])].append(s)

    def is_entry(s) -> bool:
        parent = by_id.get((s["request"], s["parent"]))
        return parent is None or parent["layer"] != s["layer"]

    requests = max(len(records), 1)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        entries = [s for s in mine if is_entry(s)]
        out[f"{layer}.calls"] = (len(entries), "count")
        out[f"{layer}.errors"] = (sum(s["error"] for s in entries), "count")
        self_s = sum(_self_time(s, children[(s["request"], s["id"])]) for s in mine)
        out[f"{layer}.self_s"] = (self_s / requests, "s")

    def named(name):
        return [s for s in spans if s["name"] == name]

    sims = [s for s in spans if s["layer"] == "montecarlo" and s["name"] != "montecarlo.chunk_rng"
            and is_entry(s)]
    events = sum(s["attrs"].get("n0", 0) for s in sims)
    out["montecarlo.events"] = (events, "count")
    out["montecarlo.events_per_s"] = (_ratio(events, sum(map(_dur, sims))), "1/s")
    chunks = named("montecarlo.chunk_rng")
    variates = sum(r["variates"] for r in records)
    out["montecarlo.chunks"] = (len(chunks), "count")
    out["montecarlo.chunk_rng_s"] = (_ratio(sum(map(_dur, chunks)), len(chunks)), "s")
    out["montecarlo.variates"] = (variates, "count")
    out["montecarlo.variates_per_event"] = (_ratio(variates, events), "ratio")
    for exp, hyp in PAIRS:
        mine = [s for s in sims if s["attrs"].get("experiment") == exp
                and s["attrs"].get("hypothesis") == hyp]
        rate = _ratio(sum(s["attrs"]["n0"] for s in mine), sum(map(_dur, mine)))
        out[f"montecarlo.{exp}.{hyp}.events_per_s"] = (rate, "1/s")

    for fn in ("build_model", "discriminate", "min_sample_size"):
        calls = named(f"stats.{fn}")
        out[f"stats.{fn}_s"] = (_ratio(sum(map(_dur, calls)), len(calls)), "s")
    sampled = [s for s in named("stats.discriminate") + named("stats.min_sample_size")
               if not s["attrs"].get("closed_form")]
    replicates = sum(s["attrs"].get("replicates", 0) for s in sampled)
    out["stats.replicates"] = (replicates, "count")
    out["stats.replicates_per_s"] = (_ratio(replicates, sum(map(_dur, sampled))), "1/s")
    out["fringes.points"] = (sum(s["attrs"].get("points", 0) for s in spans
                                 if s["layer"] == "fringes" and "attrs" in s), "count")

    absent = sorted({name for r in records for name in r["absent"]})
    if absent:
        for name in CHUNK_METRICS:
            out[name] = (None, out[name][1])
    return out, absent


def baseline(records: list[dict], labels: dict) -> dict:
    """Median span times of the ROADMAP item-1 baseline entries present in the run."""
    groups = defaultdict(list)
    for r in records:
        label = labels.get(r["request"], "")
        for s in r["spans"]:
            a = s.get("attrs", {})
            if s["error"]:
                continue
            if s["name"].startswith("montecarlo.simulate") and a.get("n0") == 10**7:
                key = (f"simulate_{a.get('experiment')} {a.get('hypothesis')} 1e7 "
                       f"chunk {a.get('chunk_size')} workers {a.get('workers')}")
                groups[key].append(_dur(s))
            elif s["name"] == "stats.discriminate":
                groups[f"discriminate {a.get('replicates'):.0e} replicates"].append(_dur(s))
            elif s["name"] == "stats.min_sample_size" and not a.get("closed_form"):
                groups[f"power-search plan {label}"].append(_dur(s))
    return {k: round(median(v), 4) for k, v in sorted(groups.items())}
