"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the names the package looks up at call time
(module attributes and `Simulation` methods) with wrappers that record a span:
call count, inclusive time and self time (inclusive minus the time of nested
spans).  The per-hop samplers `CrossTrafficModel.delay_model` and
`DelayModel.sample_ns` run in under 10 us, so they are only counted; timing
them would add about half again to a traced run.  `restore()` puts every
original back.  Wrappers return what they wrap, so a traced run writes the
same bytes as an untraced one.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# (metric, unit).  .calls and plain counts are exact, .share is self time over
# the traced pass's operation time, .us is inclusive microseconds per call.
PER_LAYER = (
    ("netsim.exchange.calls", "count"),
    ("netsim.exchange.us", "us"),
    ("netsim.forward.share", "fraction"),
    ("netsim.reply_traversal.share", "fraction"),
    ("netsim.sim_init.share", "fraction"),
    ("netsim.table_miss.calls", "count"),
    ("netsim.table_full.calls", "count"),
    ("netsim.miss_ratio", "ratio"),
    ("netsim.rng_streams.calls", "count"),
    ("netsim.rng_streams.share", "fraction"),
    ("distributions.delay_model.calls", "count"),
    ("distributions.sample_ns.calls", "count"),
    ("defense.select_bucket.calls", "count"),
    ("defense.bucket.first", "count"),
    ("defense.bucket.followup", "count"),
    ("defense.bucket.fast", "count"),
    ("defense.delay_for.calls", "count"),
    ("defense.share", "fraction"),
    ("probes.run_schedule.calls", "count"),
    ("probes.run_schedule.share", "fraction"),
    ("probes.trace_write.us", "us"),
    ("probes.trace_read.us", "us"),
    ("features.label.calls", "count"),
    ("features.label.share", "fraction"),
    ("features.samples.calls", "count"),
    ("features.drops.calls", "count"),
    ("features.csv_read.us", "us"),
    ("stats.fit_gpd.share", "fraction"),
    ("stats.fit_gpd.us", "us"),
    ("stats.eer.share", "fraction"),
    ("stats.welch.share", "fraction"),
    ("scenario.run_scenario.us", "us"),
    ("scenario.write_bundle.share", "fraction"),
    ("scenario.emit_report.share", "fraction"),
    ("cli.simulate.share", "fraction"),
    ("cli.defend.share", "fraction"),
    ("cli.extract.share", "fraction"),
    ("cli.eer.share", "fraction"),
    ("cli.fit.share", "fraction"),
    ("cli.report.share", "fraction"),
    ("setup.import_s", "s"),
    ("trace.overhead", "ratio"),
)

# Spans whose self time makes up a .share metric, when it is not the span itself.
SHARE_SPANS = {"defense": ("defense.select_bucket", "defense.delay_for")}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        calls, incl, own, stack = self.calls, self.incl_ns, self.self_ns, self._stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                incl[name] += dt
                own[name] += dt - child
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapped

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        import sdnfp.cli as cli
        import sdnfp.defense as defense
        import sdnfp.distributions as distributions
        import sdnfp.features as features
        import sdnfp.netsim as netsim
        import sdnfp.probes as probes
        import sdnfp.scenario as scenario

        calls = self.calls

        def on_miss(outcome, args):
            if outcome.full_switch_ids:
                calls["netsim.table_full"] += 1

        def on_bucket(decision, args):
            calls[f"defense.bucket.{decision.position or decision.bucket}"] += 1

        def on_label(samples, args):
            calls["features.samples"] += len(samples)
            drops = args[2]
            calls["features.drops"] += drops.missing_reply + drops.ambiguous_label

        def span(name, on_result=None):
            return lambda fn: self.span(name, fn, on_result)

        for cmd in ("simulate", "defend", "extract", "eer", "fit", "report"):
            self._patch(cli, f"cmd_{cmd}", span(f"cli.{cmd}"))
        self._patch(cli, "run_scenario", span("scenario.run_scenario"))
        self._patch(cli, "emit_report", span("scenario.emit_report"))
        self._patch(cli, "read_trace_csv", span("probes.trace_read"))
        self._patch(cli, "read_feature_csv", span("features.csv_read"))
        self._patch(cli, "fit_gpd", span("stats.fit_gpd"))
        for owner in (cli, scenario):
            self._patch(owner, "compute_eer", span("stats.eer"))
            self._patch(owner, "welch_t_test", span("stats.welch"))
        for owner in (scenario, features):
            self._patch(owner, "label_samples", span("features.label", on_label))
        self._patch(scenario, "write_bundle", span("scenario.write_bundle"))
        self._patch(scenario, "write_trace_csv", span("probes.trace_write"))
        self._patch(scenario, "run_schedule", span("probes.run_schedule"))
        self._patch(probes, "RngStreams", span("netsim.rng_streams"))
        self._patch(probes, "Simulation", span("netsim.sim_init"))
        for method in ("exchange", "forward", "reply_traversal"):
            self._patch(netsim.Simulation, method, span(f"netsim.{method}"))
        self._patch(netsim, "handle_table_miss", span("netsim.table_miss", on_miss))
        self._patch(defense, "select_bucket", span("defense.select_bucket", on_bucket))
        self._patch(defense, "delay_for", span("defense.delay_for"))
        self._patch(distributions.CrossTrafficModel, "delay_model",
                    lambda fn: self.counter("distributions.delay_model", fn))
        self._patch(distributions.DelayModel, "sample_ns",
                    lambda fn: self.counter("distributions.sample_ns", fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict[str, int]:
        return dict(self.calls)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(passes: list[tuple[Tracer, float]], import_s: float, overhead: float) -> dict:
    """Per-layer values from traced passes, each given with its operation seconds.

    Counts come from the first pass (the run checks that all passes agree);
    shares and per-call times are medians over the passes.
    """
    first = passes[0][0].calls

    def share(metric):
        spans = SHARE_SPANS.get(metric, (metric,))
        return _median([sum(t.self_ns.get(s, 0) for s in spans) / (secs * 1e9) for t, secs in passes])

    def per_call_us(span):
        return _median([t.incl_ns[span] / t.calls[span] / 1e3 for t, _ in passes if t.calls.get(span)])

    values = {}
    for metric, _ in PER_LAYER:
        if metric.endswith(".share"):
            values[metric] = share(metric[: -len(".share")])
        elif metric.endswith(".us"):
            values[metric] = per_call_us(metric[: -len(".us")])
        elif metric.endswith(".calls"):
            values[metric] = first.get(metric[: -len(".calls")], 0)
        elif metric.startswith("defense.bucket."):
            values[metric] = first.get(metric, 0)
    exchanges = first.get("netsim.exchange", 0)
    values["netsim.miss_ratio"] = first.get("netsim.table_miss", 0) / exchanges if exchanges else 0.0
    values["setup.import_s"] = import_s
    values["trace.overhead"] = overhead
    return {metric: values[metric] for metric, _ in PER_LAYER}
