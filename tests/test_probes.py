"""Probe-train structure, trial labeling, passive pairing, trace persistence."""

import csv
import io

import pytest

from sdnfp.distributions import CrossTrafficModel, constant
from sdnfp.netsim import ControllerSpec, FlowKey, SwitchSpec, uniform_path
from sdnfp.probes import (
    Trace,
    TraceRecord,
    build_probe_train,
    extract_passive_pairs,
    idle_flow_probes,
    run_schedule,
)

S = 1_000_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")


def hw(install_ns=5_000_000, name="hw1"):
    return SwitchSpec(name, "hardware", constant(install_ns))


def default_path(k=1):
    switches = tuple(hw(name=f"hw{i}") for i in range(k))
    return uniform_path(4, 4, 100_000_000, switches)


def test_train_structure():
    train = build_probe_train(KEY, mtu=1500)
    kinds = [p.kind for p in train.packets]
    assert len(train.packets) == 12
    assert kinds.count("CLEAR") == 2
    assert kinds.count("PROBE") == 10
    offsets = sorted(p.sent_at_ns for p in train.packets)
    assert offsets == [x * S for x in (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7)]


def test_train_single_flow():
    train = build_probe_train(KEY)
    assert {p.key for p in train.packets} == {KEY}


def test_train_rejects_tiny_mtu():
    with pytest.raises(ValueError):
        build_probe_train(KEY, mtu=63)


def test_train_pair_spacing_override():
    train = build_probe_train(KEY, pair_spacing_ns=120_000)
    pair1 = [p for p in train.packets if p.sent_at_ns in (S, S + 120_000)]
    assert len(pair1) == 2


def test_run_train_single_trial_labels():
    records = run_schedule(build_probe_train(KEY), default_path(), ControllerSpec(), 1, trials=range(1))
    assert len(records) == 12
    flagged = [r.packet_id for r in records if r.miss_flag]
    # First packet of the first pair, and the first tail single.
    assert flagged == [1, 10]
    probes = [r for r in records if r.kind == "PROBE"]
    assert len(probes) == 10


def test_run_train_450_trials_label_counts():
    records = run_schedule(
        build_probe_train(KEY), default_path(), ControllerSpec(), 1, trials=range(450)
    )
    pair_first_ids = (1, 3, 5, 7)
    y_pairs = sum(1 for r in records if r.packet_id in pair_first_ids and r.miss_flag)
    n_pairs = sum(1 for r in records if r.packet_id in pair_first_ids and not r.miss_flag)
    assert y_pairs == 450
    assert n_pairs == 1350
    singles = [r for r in records if r.packet_id in (10, 11)]
    assert sum(1 for r in singles if r.miss_flag) == 450
    assert sum(1 for r in singles if not r.miss_flag) == 450


def test_run_train_same_seed_identical():
    cross = CrossTrafficModel(kind="pareto", mean_ns=90_000, variance_ns2=2_000_000_000)

    def run():
        path = uniform_path(4, 4, 100_000_000, (hw(),), cross_traffic=cross)
        return run_schedule(build_probe_train(KEY), path, ControllerSpec(), 9, trials=range(3))

    assert run() == run()


def test_miss_flags_only_after_clears():
    records = run_schedule(build_probe_train(KEY), default_path(), ControllerSpec(), 2, trials=range(4))
    for trial in range(4):
        flagged = sorted(r.packet_id for r in records if r.trial == trial and r.miss_flag)
        assert flagged == [1, 10]


def test_label_soundness_matches_install_events():
    path = default_path()
    records = run_schedule(build_probe_train(KEY), path, ControllerSpec(), seed=3)
    assert sum(r.miss_flag for r in records) == 2  # one per CLEAR in the train


def test_idle_flow_probes_structure():
    sched = idle_flow_probes(KEY, 1500, gap_ns=S, lead_in_ns=10 * S)
    sends = [p.sent_at_ns for p in sched.packets]
    assert sends == [10 * S, 10 * S, 20 * S, 21 * S]
    assert all(p.kind == "PROBE" for p in sched.packets)


def _rec(trial, pid, send_ns, flow="f"):
    return TraceRecord(trial, pid, "PROBE", flow, send_ns, send_ns + 1, send_ns + 1, send_ns + 2, False, False)


def passive_pairs(records, window_ns):
    """(first packet id, second packet id, send gap) of each passive pair."""
    trace = Trace.from_records(records)
    first, second = extract_passive_pairs(trace, window_ns)
    send = trace.client_send_ns
    return list(zip(trace.packet_id[first].tolist(), trace.packet_id[second].tolist(),
                    (send[second] - send[first]).tolist()))


def test_passive_pairs_basic_window():
    records = [_rec(0, 0, 0), _rec(0, 1, S)]
    pairs = passive_pairs(records, window_ns=S)
    assert len(pairs) == 1
    assert pairs[0][2] == S


def test_passive_pairs_outside_window():
    records = [_rec(0, 0, 0), _rec(0, 1, 11 * 60 * S)]
    assert passive_pairs(records, window_ns=10 * 60 * S) == []


def test_passive_pairs_greedy_non_overlap():
    records = [_rec(0, 0, 0), _rec(0, 1, S), _rec(0, 2, 2 * S)]
    pairs = passive_pairs(records, window_ns=int(1.5 * S))
    assert len(pairs) == 1
    assert pairs[0][:2] == (0, 1)


def test_passive_pairs_distinct_flows_never_mix():
    records = [_rec(0, 0, 0, "a"), _rec(0, 1, 1000, "b")]
    assert passive_pairs(records, window_ns=S) == []


def test_passive_pairs_zero_gap_excluded():
    records = [_rec(0, 0, 0), _rec(0, 1, 0)]
    assert passive_pairs(records, window_ns=S) == []


def test_passive_pairs_count_bound():
    records = [_rec(0, i, i * 100) for i in range(9)]
    pairs = passive_pairs(records, window_ns=S)
    assert len(pairs) <= 9 // 2
    used = [p[0] for p in pairs] + [p[1] for p in pairs]
    assert len(used) == len(set(used))


def test_trace_csv_round_trip(tmp_path):
    records = run_schedule(build_probe_train(KEY), default_path(), ControllerSpec(), 5, trials=range(2))
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
    rows = [
        TraceRecord(3, 7, "PROBE", "a,b", 5 * S, -1, -1, -1, True, True),
        TraceRecord(0, 1, "CLEAR", "f", 0, 10, 11, 20, False, True),
        TraceRecord(0, 0, "PROBE", 'say "f"', S, 12, 13, -1, True, False),
    ]
    trace = Trace.from_records(rows)
    out = tmp_path / "traces.csv"
    trace.write_csv(out)
    with open(out, newline="", encoding="utf-8") as f:
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(Trace.columns())
        writer.writerows(
            [*(getattr(r, n) for n in Trace.columns()[:-2]), int(r.miss_flag), int(r.table_full)]
            for r in rows
        )
        assert f.read() == expected.getvalue()
    back = Trace.read_csv(out)
    assert back == trace
    assert list(back) == rows
    assert int(back.table_full.sum()) == 2
