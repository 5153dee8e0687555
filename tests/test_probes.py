"""Probe-train structure, trial labeling, passive pairing, trace persistence."""

import csv
import io

import numpy as np
import pytest

from sdnfp.distributions import constant, pareto
from sdnfp.netsim import FlowKey, SwitchSpec
from sdnfp.probes import (
    Trace,
    build_probe_train,
    extract_passive_pairs,
    greedy_pair_starts,
    idle_flow_probes,
    run_schedule,
)

from paths import uniform_path

S = 1_000_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")


def hw(install_ns=5_000_000):
    return SwitchSpec(constant(install_ns))


def default_path(k=1):
    return uniform_path(4, 4, 100_000_000, (hw(),) * k)


def test_train_structure():
    train = build_probe_train(KEY, mtu=1500)
    kinds = [p.kind for p in train]
    assert len(train) == 12
    assert kinds.count("CLEAR") == 2
    assert kinds.count("PROBE") == 10
    offsets = sorted(p.sent_at_ns for p in train)
    assert offsets == [x * S for x in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7)]


def test_train_single_flow():
    train = build_probe_train(KEY)
    assert {p.key for p in train} == {KEY}


def test_train_rejects_tiny_mtu():
    with pytest.raises(ValueError):
        build_probe_train(KEY, mtu=63)


def test_train_pair_spacing_override():
    train = build_probe_train(KEY, pair_spacing_ns=120_000)
    pair1 = [p for p in train if p.sent_at_ns in (S, S + 120_000)]
    assert len(pair1) == 2


def test_run_train_single_trial_labels():
    records = run_schedule(build_probe_train(KEY), default_path(), 1, trials=range(1))
    assert len(records) == 12
    flagged = records.packet_id[records.miss_flag].tolist()
    # First packet of the first pair, and the first tail single.
    assert flagged == [1, 10]
    assert (records.kind == "PROBE").sum() == 10


def test_run_train_450_trials_label_counts():
    records = run_schedule(build_probe_train(KEY), default_path(), 1, trials=range(450))
    pair_first = np.isin(records.packet_id, (1, 3, 5, 7))
    assert (pair_first & records.miss_flag).sum() == 450
    assert (pair_first & ~records.miss_flag).sum() == 1350
    singles = np.isin(records.packet_id, (10, 11))
    assert (singles & records.miss_flag).sum() == 450
    assert (singles & ~records.miss_flag).sum() == 450


def test_run_train_same_seed_identical():
    cross = pareto(90_000, 2_000_000_000)

    def run():
        path = uniform_path(4, 4, 100_000_000, (hw(),), cross_traffic=cross)
        return run_schedule(build_probe_train(KEY), path, 9, trials=range(3))

    assert run() == run()


def test_miss_flags_only_after_clears():
    records = run_schedule(build_probe_train(KEY), default_path(), 2, trials=range(4))
    for trial in range(4):
        flagged = sorted(records.packet_id[(records.trial == trial) & records.miss_flag].tolist())
        assert flagged == [1, 10]


def test_label_soundness_matches_install_events():
    path = default_path()
    records = run_schedule(build_probe_train(KEY), path, seed=3)
    assert records.miss_flag.sum() == 2  # one per CLEAR in the train


def test_idle_flow_probes_structure():
    sched = idle_flow_probes(KEY, 1500, gap_ns=S, lead_in_ns=10 * S)
    sends = [p.sent_at_ns for p in sched]
    assert sends == [10 * S, 10 * S, 20 * S, 21 * S]
    assert all(p.kind == "PROBE" for p in sched)


def passive_pairs(send_ns, window_ns, flows=None):
    """(first packet id, second packet id, send gap) of each passive pair of a
    trial of probes sent at send_ns, with packet ids 0, 1, ... and one flow
    unless `flows` names each probe's."""
    n = len(send_ns)
    send = np.asarray(send_ns)
    trace = Trace(
        trial=np.zeros(n), packet_id=np.arange(n), kind=["PROBE"] * n,
        flow=["f"] * n if flows is None else flows, client_send_ns=send,
        server_recv_ns=send + 1, server_reply_send_ns=send + 1, client_recv_ns=send + 2,
        miss_flag=np.zeros(n), table_full=np.zeros(n),
    )
    first, second = extract_passive_pairs(trace, window_ns)
    send = trace.client_send_ns
    return list(zip(trace.packet_id[first].tolist(), trace.packet_id[second].tolist(),
                    (send[second] - send[first]).tolist()))


def test_passive_pairs_basic_window():
    pairs = passive_pairs([0, S], window_ns=S)
    assert len(pairs) == 1
    assert pairs[0][2] == S


def test_passive_pairs_outside_window():
    assert passive_pairs([0, 11 * 60 * S], window_ns=10 * 60 * S) == []


def test_passive_pairs_greedy_non_overlap():
    pairs = passive_pairs([0, S, 2 * S], window_ns=int(1.5 * S))
    assert len(pairs) == 1
    assert pairs[0][:2] == (0, 1)


def test_passive_pairs_distinct_flows_never_mix():
    assert passive_pairs([0, 1000], window_ns=S, flows=["a", "b"]) == []


def test_passive_pairs_rank_flows_as_np_unique_does():
    # Flows first seen in an order other than their sorted one, over two
    # trials: the pairs must be those np.unique's flow codes give.
    flows = ["z", "b", "z", "a", "b", "a", "m", "m", "b", "z"] * 2
    n = len(flows)
    send = np.array([0, 5, 7, 9, 11, 20, 30, 31, 40, 41] * 2) * S
    trace = Trace(
        trial=np.repeat([0, 1], n // 2), packet_id=np.arange(n), kind=["PROBE"] * n,
        flow=flows, client_send_ns=send, server_recv_ns=send + 1,
        server_reply_send_ns=send + 1, client_recv_ns=send + 2,
        miss_flag=np.zeros(n), table_full=np.zeros(n),
    )
    codes = np.unique(trace.flow, return_inverse=True)[1].reshape(-1)
    order = np.lexsort((trace.packet_id, trace.client_send_ns, codes, trace.trial))
    gap = np.diff(send[order])
    same = (np.diff(trace.trial[order]) == 0) & (np.diff(codes[order]) == 0)
    starts = greedy_pair_starts(same & (gap > 0) & (gap <= 10 * S))
    first, second = extract_passive_pairs(trace, 10 * S)
    assert first.tolist() == order[starts].tolist() and len(first) > 2
    assert second.tolist() == order[starts + 1].tolist()


def test_passive_pairs_zero_gap_excluded():
    assert passive_pairs([0, 0], window_ns=S) == []


def test_passive_pairs_count_bound():
    pairs = passive_pairs([i * 100 for i in range(9)], window_ns=S)
    assert len(pairs) <= 9 // 2
    used = [p[0] for p in pairs] + [p[1] for p in pairs]
    assert len(used) == len(set(used))


def test_trace_csv_round_trip(tmp_path):
    records = run_schedule(build_probe_train(KEY), default_path(), 5, trials=range(2))
    out = tmp_path / "traces.csv"
    records.write_csv(out)
    header = out.read_text().splitlines()[0]
    assert header.startswith("trial,packet_id,kind,flow,client_send_ns")
    assert Trace.read_csv(out) == records


def test_trace_csv_rejects_wrong_header(tmp_path):
    out = tmp_path / "bad.csv"
    out.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        Trace.read_csv(out)


def test_trace_csv_round_trip_missing_replies_and_full_tables(tmp_path):
    # An external trace: lost replies (MISSING_NS), table-full flags, rows out
    # of order and a flow name that needs quoting.
    columns = {
        "trial": [3, 0, 0],
        "packet_id": [7, 1, 0],
        "kind": ["PROBE", "CLEAR", "PROBE"],
        "flow": ["a,b", "f", 'say "f"'],
        "client_send_ns": [5 * S, 0, S],
        "server_recv_ns": [-1, 10, 12],
        "server_reply_send_ns": [-1, 11, 13],
        "client_recv_ns": [-1, 20, -1],
        "miss_flag": [1, 0, 1],
        "table_full": [1, 1, 0],
    }
    trace = Trace(**columns)
    out = tmp_path / "traces.csv"
    trace.write_csv(out)
    with open(out, newline="", encoding="utf-8") as f:
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(Trace.columns())
        writer.writerows(zip(*columns.values()))
        assert f.read() == expected.getvalue()
    back = Trace.read_csv(out)
    assert back == trace
    for name, values in columns.items():
        assert getattr(back, name).tolist() == values, name
    assert int(back.table_full.sum()) == 2
