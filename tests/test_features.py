"""Feature extraction and ground-truth labeling."""

import numpy as np
import pytest

from sdnfp.distributions import CrossTrafficModel, constant
from sdnfp.features import (
    DropCounts,
    Samples,
    ScenarioContext,
    delta_rtt_labels,
    delta_rtt_ms,
    dispersion_ms,
    group_probes,
    label_samples,
    missing_reply,
)
from sdnfp.netsim import ControllerSpec, FlowKey, SwitchSpec, uniform_path
from sdnfp.probes import Trace, TraceRecord, build_probe_train, run_schedule

S = 1_000_000_000
MS = 1_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")
CTX = ScenarioContext(k=3, switch_kind="hardware", data_link_bps=100_000_000, time_span_ns=S)


def rec(pid, send_ns, recv_ns, miss=False, trial=0, kind="PROBE"):
    return TraceRecord(trial, pid, kind, "f", send_ns, recv_ns - 1000, recv_ns - 1000, recv_ns, miss, False)


def pair_value(fn, first, second, **kwargs):
    """fn over the one pair (first, second) of a two-row trace."""
    (value,) = fn(Trace.from_records([first, second]), [0], [1], **kwargs).tolist()
    return value


def delta_rtt_label(first, second):
    """The label of the pair (first, second), or None where it is ambiguous."""
    labels, ambiguous = delta_rtt_labels(Trace.from_records([first, second]), [0], [1])
    return None if ambiguous[0] else str(labels[0])


def test_dispersion_example_positive():
    first = rec(0, 0, 100_000_000)
    second = rec(1, 0, 100_120_000)
    assert pair_value(dispersion_ms, first, second) == pytest.approx(0.12)


def test_dispersion_example_reordered_negative():
    first = rec(0, 0, 105_000_000)
    second = rec(1, 0, 104_200_000)
    assert pair_value(dispersion_ms, first, second) == pytest.approx(-0.8)


def test_dispersion_miss_pair_from_simulation():
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    trace = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(1))
    first, second, _ = group_probes(trace)
    value = dispersion_ms(trace, first, second)[0]
    assert value == pytest.approx(5.12)


def test_dispersion_antisymmetric():
    first = rec(0, 0, 100_000_000)
    second = rec(1, 0, 100_120_000)
    assert pair_value(dispersion_ms, first, second) == -pair_value(dispersion_ms, second, first)


def test_missing_reply_raises():
    # A reply that never came marks its pair, and extraction drops the pair.
    first = rec(0, 0, 100_000_000)
    broken = TraceRecord(0, 1, "PROBE", "f", 0, -1, -1, -1, False, False)
    assert pair_value(missing_reply, first, broken) is True
    assert pair_value(missing_reply, first, rec(1, 0, 100_120_000)) is False
    drops = DropCounts()
    assert len(label_samples(Trace.from_records([first, broken]), CTX, drops)) == 0
    assert drops.missing_reply == 1


def test_delta_rtt_zero_without_jitter():
    first = rec(0, 0, 10_000_000)
    second = rec(1, S, S + 10_000_000)
    assert pair_value(delta_rtt_ms, first, second) == 0.0


def test_delta_rtt_miss_penalty():
    first = rec(0, 0, 15_000_000, miss=True)
    second = rec(1, S, S + 10_000_000)
    assert pair_value(delta_rtt_ms, first, second) == pytest.approx(5.0)
    assert delta_rtt_label(first, second) == "Y"


def test_delta_rtt_seeded_replay():
    cross = CrossTrafficModel(kind="pareto", mean_ns=90_000, variance_ns2=2_000_000_000)

    def run(seed):
        path = uniform_path(4, 4, 100_000_000, cross_traffic=cross)
        trace = run_schedule(build_probe_train(KEY), path, ControllerSpec(), seed, trials=range(1))
        _, _, singles = group_probes(trace)
        return delta_rtt_ms(trace, singles[:1], singles[1:2])[0]

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_delta_rtt_label_taxonomy():
    miss = rec(0, 0, MS, miss=True)
    hit = rec(1, S, S + MS)
    assert delta_rtt_label(miss, hit) == "Y"
    assert delta_rtt_label(hit.__class__(**{**hit.__dict__, "packet_id": 0}), hit) == "N"
    assert delta_rtt_label(miss, rec(1, S, S + MS, miss=True)) is None
    assert delta_rtt_label(hit, miss) is None


def test_label_samples_standard_train():
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(1))
    samples = label_samples(records, CTX)
    assert samples.label[samples.feature == "dispersion"].tolist() == ["Y", "N", "N", "N"]
    assert samples.label[samples.feature == "delta_rtt"].tolist() == ["Y"]


def test_label_samples_prewarmed_all_n():
    path = uniform_path(4, 4, 100_000_000)
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(1))
    samples = label_samples(records, CTX)
    assert set(samples.label.tolist()) == {"N"}


def test_label_samples_clear_mid_stream():
    # The second CLEAR re-arms the miss: the first subsequent probe is Y.
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(1))
    singles = [r for r in records if r.packet_id in (10, 11)]
    assert singles[0].miss_flag and not singles[1].miss_flag


def test_label_samples_counts_drops():
    good = [rec(0, 0, MS), rec(1, 0, MS + 120_000)]
    broken_pair = [
        TraceRecord(1, 0, "PROBE", "f", 0, -1, -1, -1, False, False),
        rec(1, 0, MS, trial=1),
    ]
    ambiguous = [rec(0, 0, MS, miss=True, trial=2), rec(1, S, S + MS, miss=True, trial=2)]
    drops = DropCounts()
    samples = label_samples(Trace.from_records(good + broken_pair + ambiguous), CTX, drops)
    assert drops.missing_reply == 1
    assert drops.ambiguous_label == 1
    assert len(samples) == 1


def test_n_population_mean_near_zero_y_positive():
    cross = CrossTrafficModel(kind="pareto", mean_ns=90_000, variance_ns2=2_000_000_000)
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 8, trials=range(300))
    samples = label_samples(records, CTX)
    y_rtt = samples.values("delta_rtt", "Y")
    n_disp = samples.values("dispersion", "N")
    assert np.mean(y_rtt) > 1.0
    # N dispersion sits at the bottleneck gap, not at the install scale.
    assert abs(np.mean(n_disp)) < 1.0


def test_feature_csv_round_trip(tmp_path):
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(2))
    samples = label_samples(records, CTX)
    out = tmp_path / "samples.csv"
    samples.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "feature,value_ms,label,k,kind,link_bps,span_s"
    back = Samples.read_csv(out)
    assert back == samples


def test_samples_values_selects_one_population():
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(2))
    samples = label_samples(records, CTX)
    n, y = samples.values("dispersion", "N"), samples.values("dispersion", "Y")
    assert len(n) == 6 and len(y) == 2
    assert sorted([*n, *y]) == sorted(samples.value_ms[samples.feature == "dispersion"])


def test_feature_csv_round_trips_rows_of_several_contexts(tmp_path):
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), 0, trials=range(3))
    other = ScenarioContext(k=1, switch_kind="soft,ware", data_link_bps=10**9, time_span_ns=600 * S)
    samples = Samples.concat([label_samples(records, CTX), label_samples(records, other)])
    out = tmp_path / "samples.csv"
    samples.write_csv(out)
    back = Samples.read_csv(out)
    assert back == samples
    contexts = set(zip(back.k.tolist(), back.kind.tolist(), back.link_bps.tolist(), back.span_s.tolist()))
    assert contexts == {(3, "hardware", 10**8, 1.0), (1, "soft,ware", 10**9, 600.0)}
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == out.read_bytes()
