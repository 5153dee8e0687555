"""Feature extraction and ground-truth labeling."""

import numpy as np
import pytest

from sdnfp.distributions import CrossTrafficModel, constant
from sdnfp.features import (
    DropCounts,
    ScenarioContext,
    delta_rtt_labels,
    delta_rtt_ms,
    dispersion_ms,
    group_probes,
    label_samples,
    missing_reply,
    read_feature_csv,
    split_populations,
    write_feature_csv,
)
from sdnfp.netsim import ControllerSpec, FlowKey, SwitchSpec, uniform_path
from sdnfp.probes import Trace, TraceRecord, build_probe_train, run_train

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
    trace = run_train(build_probe_train(KEY), path, ControllerSpec(), 1, seed=0)
    first, second, _ = group_probes(trace)
    value = dispersion_ms(trace, first, second)[0]
    assert value == pytest.approx(5.12)


def test_dispersion_antisymmetric():
    first = rec(0, 0, 100_000_000)
    second = rec(1, 0, 100_120_000)
    assert pair_value(dispersion_ms, first, second) == -pair_value(dispersion_ms, second, first)


def test_dispersion_server_vantage():
    first = rec(0, 0, 100_000_000)
    second = rec(1, 0, 100_120_000)
    assert pair_value(dispersion_ms, first, second, vantage="server") == pytest.approx(0.12)
    with pytest.raises(ValueError):
        pair_value(dispersion_ms, first, second, vantage="switch")


def test_missing_reply_raises():
    # A reply that never came marks its pair, and extraction drops the pair.
    first = rec(0, 0, 100_000_000)
    broken = TraceRecord(0, 1, "PROBE", "f", 0, -1, -1, -1, False, False)
    assert pair_value(missing_reply, first, broken) is True
    assert pair_value(missing_reply, first, rec(1, 0, 100_120_000)) is False
    drops = DropCounts()
    assert label_samples(Trace.from_records([first, broken]), CTX, drops) == []
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
        trace = run_train(build_probe_train(KEY), path, ControllerSpec(), 1, seed=seed)
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
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 1, seed=0)
    samples = label_samples(records, CTX)
    disp = [s for s in samples if s.feature == "dispersion"]
    drtt = [s for s in samples if s.feature == "delta_rtt"]
    assert [s.label for s in disp] == ["Y", "N", "N", "N"]
    assert [s.label for s in drtt] == ["Y"]


def test_label_samples_prewarmed_all_n():
    path = uniform_path(4, 4, 100_000_000)
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 1, seed=0)
    samples = label_samples(records, CTX)
    assert {s.label for s in samples} == {"N"}


def test_label_samples_clear_mid_stream():
    # The second CLEAR re-arms the miss: the first subsequent probe is Y.
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 1, seed=0)
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
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 300, seed=8)
    samples = label_samples(records, CTX)
    y_rtt = [s.value_ms for s in samples if s.feature == "delta_rtt" and s.label == "Y"]
    n_disp = [s.value_ms for s in samples if s.feature == "dispersion" and s.label == "N"]
    assert np.mean(y_rtt) > 1.0
    # N dispersion sits at the bottleneck gap, not at the install scale.
    assert abs(np.mean(n_disp)) < 1.0


def test_feature_csv_round_trip(tmp_path):
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 2, seed=0)
    samples = label_samples(records, CTX)
    out = tmp_path / "samples.csv"
    write_feature_csv(out, samples)
    header = out.read_text().splitlines()[0]
    assert header == "feature,value_ms,label,k,kind,link_bps,span_s"
    back = read_feature_csv(out)
    assert back == samples


def test_split_populations():
    sw = SwitchSpec("hw1", "hardware", constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_train(build_probe_train(KEY), path, ControllerSpec(), 2, seed=0)
    samples = label_samples(records, CTX)
    n, y = split_populations(samples, "dispersion")
    assert len(n) == 6 and len(y) == 2
