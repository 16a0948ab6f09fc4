"""Turns fleetbench's raw measurements and spans into the benchmark metrics.

Kept apart from run.py so the arithmetic (tail percentile, self time,
failure share) is testable without building anything: see test_metrics.py.
"""

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

TAIL_PERCENTILES = ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"))
MIN_BEYOND = 10


def beyond(q, n):
    """Samples ranked above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def nearest_rank(sorted_values, q):
    index = max(math.ceil(q * len(sorted_values)), 1) - 1
    return sorted_values[index]


def tail(values, floor_count=None):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it.

    The percentile is chosen at `floor_count` samples (default: all of
    them), so a run that always completes at least that many samples always
    reports the same percentile, however many more it completes. Returns
    (label, value, samples beyond), or None when even p90 has fewer than
    ten samples beyond it.
    """
    n = len(values)
    floor_count = n if floor_count is None else min(floor_count, n)
    for q, label in TAIL_PERCENTILES:
        if beyond(q, floor_count) >= MIN_BEYOND:
            return label, nearest_rank(sorted(values), q), beyond(q, n)
    return None


def failure_share(attempted, failed):
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return failed / attempted


@dataclass
class Span:
    campaign: int
    id: int
    parent: int
    name: str
    start: int  # ns
    end: int    # ns
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return max(self.end - self.start, 0)


def parse_spans(lines):
    spans = []
    for line in lines:
        cols = line.rstrip("\n").split("\t")
        if len(cols) < 6:
            continue
        attrs = {}
        for item in cols[6:]:
            key, _, value = item.partition("=")
            attrs[key] = float(value)
        spans.append(Span(int(cols[0]), int(cols[1]), int(cols[2]), cols[3],
                          int(cols[4]), int(cols[5]), attrs))
    return spans


def covered(interval, children):
    """Length of the part of `interval` that the child intervals cover."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time (ns) of every span: its duration minus covered child time.

    Keyed by (campaign, span id); spans of different campaigns never nest.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[(span.campaign, span.parent)].append((span.start, span.end))
    return {
        (s.campaign, s.id): s.duration - covered(
            (s.start, s.end), children.get((s.campaign, s.id), ()))
        for s in spans
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def end_to_end(raw):
    """Metrics of an untraced run: (metrics, tail description)."""
    walls = raw["campaign_walls"]
    tail_pick = tail(walls, raw["min_campaigns"])
    if tail_pick is None:
        raise ValueError("too few campaigns for a tail percentile")
    label, tail_value, tail_beyond = tail_pick
    completed = raw["attempted"] - raw["failed"]
    metrics = {
        "cars_per_s": (completed / raw["wall_s"], "1/s"),
        "campaign_p50_s": (statistics.median(walls), "s"),
        "campaign_tail_s": (tail_value, "s"),
        "cpu_s_per_car": ((raw["user_s"] + raw["sys_s"]) / raw["attempted"],
                          "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
    }
    return metrics, f"{label} of {len(walls)} campaigns, {tail_beyond} beyond"


def gp_precision(raw):
    return _ratio(raw["gp_correct"], raw["formula_signals"])


def per_layer(raw, spans):
    """Metrics of the traced run, named <layer>.<metric>."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)
    roots = by_name["campaign"]
    n_campaigns = max(len(roots), 1)

    def dur_s(name):
        return sum(s.duration for s in by_name[name]) * 1e-9

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0.0) for s in by_name[name])

    def per_campaign(name):
        return dur_s(name) / n_campaigns

    m = {}

    gp = by_name["gp.infer"]
    calls_ms = [s.duration * 1e-6 for s in gp]
    gp_tail = tail(calls_ms) if calls_ms else None
    m["gp.calls"] = (len(gp), "count")
    m["gp.call_p50_ms"] = (statistics.median(calls_ms) if gp else 0.0, "ms")
    m["gp.call_tail_ms"] = (gp_tail[1] if gp_tail else 0.0, "ms")
    for stage in ("breeding_s", "scoring_s", "tuning_s"):
        m[f"gp.{stage}"] = (_mean([s.attrs.get(stage, 0.0) for s in gp]),
                            "s/call")
    m["gp.setup_s"] = (_mean([
        s.attrs.get("total_s", 0.0) - s.attrs.get("breeding_s", 0.0) -
        s.attrs.get("scoring_s", 0.0) - s.attrs.get("tuning_s", 0.0)
        for s in gp]), "s/call")
    m["gp.evaluations"] = (attr_sum("gp.infer", "evaluations"), "count")
    hits = attr_sum("gp.infer", "cache_hits")
    m["gp.cache_hit_frac"] = (
        _ratio(hits, hits + attr_sum("gp.infer", "cache_misses")), "ratio")
    m["gp.converged_frac"] = (
        _mean([s.attrs.get("converged", 0.0) for s in gp]), "ratio")
    m["gp.minor_faults_per_call"] = (
        _mean([s.attrs.get("minor_faults", 0.0) for s in gp]), "count")
    m["gp.precision"] = (gp_precision(raw), "ratio")

    m["regress.fit_us"] = (
        _mean([s.duration * 1e-3 for s in by_name["regress.fit"]]), "us")

    m["can.frames"] = (attr_sum("can.replay", "frames"), "count")
    m["can.frames_per_s"] = (
        _ratio(attr_sum("can.replay", "frames"), dur_s("can.replay")), "1/s")
    for layer in ("isotp", "vwtp", "oemtp"):
        name = f"{layer}.replay"
        m[f"{layer}.frames_per_s"] = (
            _ratio(attr_sum(name, "frames"), dur_s(name)), "1/s")
        m[f"{layer}.messages"] = (attr_sum(name, "messages"), "count")
        m[f"{layer}.errors"] = (attr_sum(name, "errors"), "count")
    for layer in ("uds", "kwp"):
        name = f"{layer}.replay"
        m[f"{layer}.requests_per_s"] = (
            _ratio(attr_sum(name, "requests"), dur_s(name)), "1/s")

    bus_side = ("can.replay", "isotp.replay", "vwtp.replay", "oemtp.replay",
                "uds.replay", "kwp.replay")
    m["core.campaign.collect_s"] = (per_campaign("collect"), "s/car")
    m["core.campaign.collect_residual_s"] = (
        (attr_sum("campaign", "phase.collect_s") -
         sum(dur_s(n) for n in bus_side)) / n_campaigns, "s/car")
    m["core.campaign.analyze_s"] = (per_campaign("analyze"), "s/car")
    for phase in ("collect", "assemble", "ocr_extract", "align", "associate",
                  "infer", "score"):
        key = f"phase.{phase}_s"
        m[f"core.campaign.{key}"] = (attr_sum("campaign", key) / n_campaigns,
                                     "s/car")
    m["core.campaign.self_s"] = (
        sum(selfs[(s.campaign, s.id)] for s in roots) * 1e-9 / n_campaigns,
        "s/car")
    m["trace.replay_self_s"] = (
        sum(selfs[(s.campaign, s.id)] for s in by_name["replay"]) * 1e-9 /
        n_campaigns, "s/car")

    m["cps.frames_per_s"] = (
        _ratio(attr_sum("cps.extract", "frames"), dur_s("cps.extract")), "1/s")
    m["cps.ocr_precision"] = (
        _ratio(attr_sum("cps.extract", "strings_correct"),
               attr_sum("cps.extract", "strings_read")), "ratio")
    m["screenshot.filter_kept_frac"] = (
        _ratio(attr_sum("screenshot.filter", "kept"),
               attr_sum("screenshot.filter", "samples")), "ratio")

    m["frames.assemble_frames_per_s"] = (
        _ratio(attr_sum("frames.assemble", "frames"),
               dur_s("frames.assemble")), "1/s")
    m["frames.extract_s"] = (per_campaign("frames.extract"), "s/car")
    m["correlate.anchors"] = (attr_sum("campaign", "anchors") / n_campaigns,
                              "count/car")
    m["correlate.dataset_points"] = (
        attr_sum("campaign", "dataset_points") / n_campaigns, "count/car")

    saves, loads = by_name["checkpoint.save"], by_name["checkpoint.load"]
    m["core.checkpoint.save_ms"] = (
        _mean([s.duration * 1e-6 for s in saves]), "ms")
    m["core.checkpoint.load_ms"] = (
        _mean([s.duration * 1e-6 for s in loads]), "ms")
    m["core.checkpoint.bytes"] = (
        _mean([s.attrs.get("bytes", 0.0) for s in saves]), "bytes")
    m["core.checkpoint.save_mb_per_s"] = (
        _ratio(attr_sum("checkpoint.save", "bytes") * 1e-6,
               dur_s("checkpoint.save")), "MB/s")
    m["core.checkpoint.load_mb_per_s"] = (
        _ratio(attr_sum("checkpoint.load", "bytes") * 1e-6,
               dur_s("checkpoint.load")), "MB/s")

    m["core.fleet.parallel_efficiency"] = (
        _ratio(sum(raw["campaign_walls"]), raw["wall_s"] * raw["threads"]),
        "ratio")

    for metric, key in (("util.fault.drops", "drops"),
                        ("util.fault.corrupt", "corrupt"),
                        ("util.fault.duplicates", "duplicates"),
                        ("transact.retries", "retries"),
                        ("transact.failures", "failures"),
                        ("nm.sleeps", "sleeps"),
                        ("nm.ring_repairs", "ring_repairs")):
        m[metric] = (attr_sum("campaign", key), "count")

    cars = raw["attempted"]
    m["proc.user_s"] = (raw["user_s"] / cars, "s/car")
    m["proc.sys_s"] = (raw["sys_s"] / cars, "s/car")
    m["proc.minor_faults"] = (raw["minor_faults"] / cars, "count/car")
    m["proc.ctx_switches"] = (raw["ctx_switches"] / cars, "count/car")

    untraced = raw["attempted"] / raw["wall_s"]
    traced = _ratio(raw["traced_cars"], raw["traced_wall_s"])
    m["trace.cars_per_s"] = (traced, "1/s")
    m["trace.untraced_cars_per_s"] = (untraced, "1/s")
    m["trace.overhead_frac"] = (1.0 - traced / untraced, "ratio")
    return m


def correctness(raw, trace):
    """(ok, reasons): determinism, replay and sanity checks of one run."""
    reasons = []
    if not raw["threads_agree"]:
        reasons.append("probe signs differently at 1 thread and fleet threads")
    if not raw["repeat_agrees"]:
        reasons.append("two runs of the probe prefix disagree")
    if raw["messages_missing"]:
        reasons.append(f"{raw['messages_missing']} campaigns assembled no "
                       "messages")
    floor = raw["min_gp_precision"]
    if floor > 0 and gp_precision(raw) < floor:
        reasons.append(f"gp precision {gp_precision(raw):.3f} below {floor}")
    if trace:
        if raw["traced_signature_mismatches"]:
            reasons.append("traced pass disagrees with the timed pass: " +
                           raw["traced_first_mismatch"])
        if raw["traced_replay_mismatches"]:
            reasons.append("a layer replay disagrees with its campaign: " +
                           raw["traced_first_mismatch"])
        if not raw["spans_written"]:
            reasons.append("spans were not written")
    return not reasons, reasons
