"""Feature extraction and ground-truth labeling."""

from types import SimpleNamespace

import numpy as np
import pytest

from sdnfp.distributions import constant, pareto
from sdnfp.features import (
    MISSING_NS,
    DropCounts,
    Samples,
    delta_rtt_labels,
    delta_rtt_ms,
    dispersion_ms,
    group_probes,
    label_samples,
    missing_reply,
)
from sdnfp.netsim import FlowKey, SwitchSpec
from sdnfp.probes import Trace, build_probe_train, run_schedule
from sdnfp.scenario import Scenario

from paths import uniform_path

S = 1_000_000_000
MS = 1_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")
SCENARIO = Scenario(name="lab", seed=0, k=3, switch_kind="hardware", data_link_bps=100_000_000, time_span_ns=S)


def probes(send_ns, recv_ns, miss=None, trial=None, packet_id=None):
    """A trace of probes of flow "f", one per send time, packet ids 0, 1, ...
    by default.  Each request reaches the server 1 us before its reply reaches
    the client; a reply at MISSING_NS is missing at both."""
    n = len(send_ns)
    recv = np.asarray(recv_ns)
    server = np.where(recv == MISSING_NS, MISSING_NS, recv - 1000)
    return Trace(
        trial=np.zeros(n) if trial is None else trial,
        packet_id=np.arange(n) if packet_id is None else packet_id,
        kind=["PROBE"] * n, flow=["f"] * n, client_send_ns=send_ns,
        server_recv_ns=server, server_reply_send_ns=server, client_recv_ns=recv,
        miss_flag=np.zeros(n) if miss is None else miss, table_full=np.zeros(n),
    )


def pair_value(fn, trace, first=0, second=1):
    """fn over the one pair (first, second) of rows of a trace."""
    (value,) = fn(trace, [first], [second]).tolist()
    return value


def delta_rtt_label(trace, first, second):
    """The label of the pair (first, second) of rows, or None where it is ambiguous."""
    labels, ambiguous = delta_rtt_labels(trace, [first], [second])
    return None if ambiguous[0] else str(labels[0])


def test_dispersion_example_positive():
    trace = probes([0, 0], [100_000_000, 100_120_000])
    assert pair_value(dispersion_ms, trace) == pytest.approx(0.12)


def test_dispersion_example_reordered_negative():
    trace = probes([0, 0], [105_000_000, 104_200_000])
    assert pair_value(dispersion_ms, trace) == pytest.approx(-0.8)


def test_dispersion_miss_pair_from_simulation():
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    trace = run_schedule(build_probe_train(KEY), path, 0, trials=range(1))
    first, second, _ = group_probes(trace)
    value = dispersion_ms(trace, first, second)[0]
    assert value == pytest.approx(5.12)


def test_dispersion_antisymmetric():
    trace = probes([0, 0], [100_000_000, 100_120_000])
    assert pair_value(dispersion_ms, trace, 0, 1) == -pair_value(dispersion_ms, trace, 1, 0)


def test_missing_reply_raises():
    # A reply that never came marks its pair, and extraction drops the pair.
    trace = probes([0, 0, 0], [100_000_000, MISSING_NS, 100_120_000])
    assert pair_value(missing_reply, trace, 0, 1) is True
    assert pair_value(missing_reply, trace, 0, 2) is False
    drops = DropCounts()
    assert len(label_samples(probes([0, 0], [100_000_000, MISSING_NS]), SCENARIO, drops)) == 0
    assert drops.missing_reply == 1


def test_delta_rtt_zero_without_jitter():
    trace = probes([0, S], [10_000_000, S + 10_000_000])
    assert pair_value(delta_rtt_ms, trace) == 0.0


def test_delta_rtt_miss_penalty():
    trace = probes([0, S], [15_000_000, S + 10_000_000], miss=[True, False])
    assert pair_value(delta_rtt_ms, trace) == pytest.approx(5.0)
    assert delta_rtt_label(trace, 0, 1) == "Y"


def test_delta_rtt_seeded_replay():
    cross = pareto(90_000, 2_000_000_000)

    def run(seed):
        path = uniform_path(4, 4, 100_000_000, cross_traffic=cross)
        trace = run_schedule(build_probe_train(KEY), path, seed, trials=range(1))
        _, _, singles = group_probes(trace)
        return delta_rtt_ms(trace, singles[:1], singles[1:2])[0]

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_delta_rtt_label_taxonomy():
    # Rows: a flagged probe, an unflagged one, a flagged and an unflagged one
    # sent a second later.
    trace = probes([0, 0, S, S], [MS, MS, S + MS, S + MS], miss=[True, False, True, False])
    miss, hit, later_miss, later_hit = range(4)
    assert delta_rtt_label(trace, miss, later_hit) == "Y"
    assert delta_rtt_label(trace, hit, later_hit) == "N"
    assert delta_rtt_label(trace, miss, later_miss) is None
    assert delta_rtt_label(trace, hit, later_miss) is None


def test_label_samples_standard_train():
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(1))
    samples = label_samples(records, SCENARIO, DropCounts())
    assert samples.label[samples.feature == "dispersion"].tolist() == ["Y", "N", "N", "N"]
    assert samples.label[samples.feature == "delta_rtt"].tolist() == ["Y"]


def test_label_samples_prewarmed_all_n():
    path = uniform_path(4, 4, 100_000_000)
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(1))
    samples = label_samples(records, SCENARIO, DropCounts())
    assert set(samples.label.tolist()) == {"N"}


def test_label_samples_clear_mid_stream():
    # The second CLEAR re-arms the miss: the first subsequent probe is Y.
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(1))
    singles = records.miss_flag[np.isin(records.packet_id, (10, 11))].tolist()
    assert singles == [True, False]


def test_label_samples_counts_drops():
    # Trial 0 holds a good pair, trial 1 a pair with a missing reply, trial 2
    # two singles that both triggered an install.
    trace = probes(
        [0, 0, 0, 0, 0, S],
        [MS, MS + 120_000, MISSING_NS, MS, MS, S + MS],
        miss=[False, False, False, False, True, True],
        trial=[0, 0, 1, 1, 2, 2],
        packet_id=[0, 1, 0, 1, 0, 1],
    )
    drops = DropCounts()
    samples = label_samples(trace, SCENARIO, drops)
    assert drops.missing_reply == 1
    assert drops.ambiguous_label == 1
    assert len(samples) == 1


def test_n_population_mean_near_zero_y_positive():
    cross = pareto(90_000, 2_000_000_000)
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
    records = run_schedule(build_probe_train(KEY), path, 8, trials=range(300))
    samples = label_samples(records, SCENARIO, DropCounts())
    y_rtt = samples.values("delta_rtt", "Y")
    n_disp = samples.values("dispersion", "N")
    assert np.mean(y_rtt) > 1.0
    # N dispersion sits at the bottleneck gap, not at the install scale.
    assert abs(np.mean(n_disp)) < 1.0


def test_feature_csv_round_trip(tmp_path):
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(2))
    samples = label_samples(records, SCENARIO, DropCounts())
    out = tmp_path / "samples.csv"
    samples.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header == "feature,value_ms,label,k,kind,link_bps,span_s"
    back = Samples.read_csv(out)
    assert back == samples


def test_samples_values_selects_one_population():
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(2))
    samples = label_samples(records, SCENARIO, DropCounts())
    n, y = samples.values("dispersion", "N"), samples.values("dispersion", "Y")
    assert len(n) == 6 and len(y) == 2
    assert sorted([*n, *y]) == sorted(samples.value_ms[samples.feature == "dispersion"])


def test_feature_csv_round_trips_rows_of_several_contexts(tmp_path):
    sw = SwitchSpec(constant(5 * MS))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    records = run_schedule(build_probe_train(KEY), path, 0, trials=range(3))
    # No Scenario accepts a switch kind with a comma; this context's rows
    # carry one, so the CSV quotes a text field.
    other = SimpleNamespace(k=1, switch_kind="soft,ware", data_link_bps=10**9, time_span_ns=600 * S)
    samples = Samples.concat([label_samples(records, context, DropCounts()) for context in (SCENARIO, other)])
    out = tmp_path / "samples.csv"
    samples.write_csv(out)
    back = Samples.read_csv(out)
    assert back == samples
    contexts = set(zip(back.k.tolist(), back.kind.tolist(), back.link_bps.tolist(), back.span_s.tolist()))
    assert contexts == {(3, "hardware", 10**8, 1.0), (1, "soft,ware", 10**9, 600.0)}
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == out.read_bytes()
