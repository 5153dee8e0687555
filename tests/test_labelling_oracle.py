"""Columnar labelling and passive pairing against a row-by-row oracle.

The oracle below is the record-at-a-time algorithm that the columnar code
replaced: group rows per trial (or per trial and flow), sort them, walk left
to right pairing greedily, then label each pair from its two rows; its
(feature, value, label) rows become one `Samples` table to compare against.
The oracle reads a trace as `Row`s, one per row of its columns.  Hypothesis
feeds both the same traces, in shuffled row order, with several trials and
flows, missing replies, every miss-flag combination and send gaps on both
sides of the pairing bounds.
"""

from collections import namedtuple

from hypothesis import given, strategies as st

from sdnfp.features import (
    DELTA_RTT,
    DISPERSION,
    MISSING_NS,
    DropCounts,
    Samples,
    label_samples,
    passive_samples,
)
from sdnfp.netsim import CLEAR, PROBE
from sdnfp.probes import PAIR_GAP_MAX_NS, Trace, extract_passive_pairs
from sdnfp.scenario import Scenario
from sdnfp.units import NS_PER_MS

S = 1_000_000_000
SCENARIO = Scenario(name="lab", seed=0, k=2, switch_kind="hardware", data_link_bps=100_000_000, time_span_ns=S)
GAPS = [0, 0, 1, 120_000, PAIR_GAP_MAX_NS, PAIR_GAP_MAX_NS + 1, S, 600 * S]
WINDOWS = [1, 120_000, PAIR_GAP_MAX_NS, S, 600 * S]


# -- the row-by-row oracle ---------------------------------------------------


Row = namedtuple("Row", Trace.columns())


def trace_of(rows) -> Trace:
    """The trace whose columns hold `rows`, in order."""
    return Trace(*zip(*rows))


def rows_of(trace: Trace) -> list[Row]:
    return [Row(*row) for row in zip(*(getattr(trace, n).tolist() for n in Trace.columns()))]


class _Missing(Exception):
    pass


class _Ambiguous(Exception):
    pass


def _require_reply(r):
    if r.client_recv_ns == MISSING_NS or r.server_recv_ns == MISSING_NS:
        raise _Missing


def _dispersion(first, second):
    _require_reply(first)
    _require_reply(second)
    return (second.client_recv_ns - first.client_recv_ns) / NS_PER_MS


def _delta_rtt(first, second):
    _require_reply(first)
    _require_reply(second)
    rtt1 = first.client_recv_ns - first.client_send_ns
    rtt2 = second.client_recv_ns - second.client_send_ns
    return (rtt1 - rtt2) / NS_PER_MS


def _delta_rtt_label(first, second):
    if first.miss_flag and not second.miss_flag:
        return "Y"
    if not first.miss_flag and not second.miss_flag:
        return "N"
    raise _Ambiguous


def _group_trial(records):
    probes = sorted(
        (r for r in records if r.kind == "PROBE"),
        key=lambda r: (r.client_send_ns, r.packet_id),
    )
    pairs, singles, i = [], [], 0
    while i < len(probes):
        if (
            i + 1 < len(probes)
            and probes[i + 1].client_send_ns - probes[i].client_send_ns <= PAIR_GAP_MAX_NS
        ):
            pairs.append((probes[i], probes[i + 1]))
            i += 2
        else:
            singles.append(probes[i])
            i += 1
    return pairs, singles


def _table(rows, scenario):
    """The Samples table of (feature, value, label) rows of one scenario."""
    features, values, labels = zip(*rows) if rows else ((), (), ())
    return Samples.in_context(features, values, labels, scenario)


def _rtt_sample(first, second, drops, rows):
    try:
        value = _delta_rtt(first, second)
        label = _delta_rtt_label(first, second)
    except _Missing:
        drops.missing_reply += 1
        return
    except _Ambiguous:
        drops.ambiguous_label += 1
        return
    rows.append((DELTA_RTT, value, label))


def oracle_label_samples(records, scenario, drops):
    by_trial = {}
    for rec in records:
        by_trial.setdefault(rec.trial, []).append(rec)
    rows = []
    for trial in sorted(by_trial):
        pairs, singles = _group_trial(by_trial[trial])
        for first, second in pairs:
            try:
                value = _dispersion(first, second)
            except _Missing:
                drops.missing_reply += 1
                continue
            label = "Y" if (first.miss_flag or second.miss_flag) else "N"
            rows.append((DISPERSION, value, label))
        for j in range(0, len(singles) - 1, 2):
            _rtt_sample(singles[j], singles[j + 1], drops, rows)
    return _table(rows, scenario)


def oracle_passive_pairs(records, window_ns):
    by_flow = {}
    for rec in records:
        by_flow.setdefault((rec.trial, rec.flow), []).append(rec)
    pairs = []
    for key in sorted(by_flow):
        rows = sorted(by_flow[key], key=lambda r: (r.client_send_ns, r.packet_id))
        i = 0
        while i + 1 < len(rows):
            gap = rows[i + 1].client_send_ns - rows[i].client_send_ns
            if 0 < gap <= window_ns:
                pairs.append((rows[i], rows[i + 1]))
                i += 2
            else:
                i += 1
    return pairs


def oracle_passive_samples(records, scenario, window_ns, drops):
    rows = []
    for first, second in oracle_passive_pairs(records, window_ns):
        _rtt_sample(first, second, drops, rows)
    return _table(rows, scenario)


# -- generated traces ----------------------------------------------------------


@st.composite
def traces(draw):
    """Rows of a few trials and flows, shuffled."""
    rows = []
    for trial in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True)):
        for flow in draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=2, unique=True)):
            send = draw(st.integers(0, 10 * S))
            for pid in range(draw(st.integers(1, 9))):
                send += draw(st.sampled_from(GAPS))
                rtt = draw(st.integers(0, 50_000_000))
                recv = send + rtt
                lost = draw(st.sampled_from([None, None, None, "client", "server"]))
                rows.append(
                    Row(
                        trial=trial,
                        packet_id=draw(st.sampled_from([pid, pid, pid, 0])),
                        kind=draw(st.sampled_from([PROBE, PROBE, PROBE, CLEAR])),
                        flow=flow,
                        client_send_ns=send,
                        server_recv_ns=MISSING_NS if lost == "server" else send + rtt // 2,
                        server_reply_send_ns=send + rtt // 2,
                        client_recv_ns=MISSING_NS if lost == "client" else recv,
                        miss_flag=draw(st.booleans()),
                        table_full=draw(st.booleans()),
                    )
                )
    return draw(st.permutations(rows))


@given(traces())
def test_label_samples_matches_row_by_row_oracle(rows):
    drops, expected_drops = DropCounts(), DropCounts()
    samples = label_samples(trace_of(rows), SCENARIO, drops)
    assert samples == oracle_label_samples(rows, SCENARIO, expected_drops)
    assert drops == expected_drops


@given(traces(), st.sampled_from(WINDOWS))
def test_passive_pairing_matches_row_by_row_oracle(rows, window_ns):
    trace = trace_of(rows)
    assert rows_of(trace) == rows
    first, second = extract_passive_pairs(trace, window_ns)
    table = rows_of(trace)
    pairs = [(table[i], table[j]) for i, j in zip(first.tolist(), second.tolist())]
    assert pairs == oracle_passive_pairs(rows, window_ns)

    drops, expected_drops = DropCounts(), DropCounts()
    samples = passive_samples(trace, SCENARIO, window_ns, drops)
    assert samples == oracle_passive_samples(rows, SCENARIO, window_ns, expected_drops)
    assert drops == expected_drops


def test_fixed_trace_with_every_case():
    # Two trials given out of order, an odd count of singles, gaps of exactly
    # the pair bound, one more and 0, a missing reply, and all four flag
    # combinations of an RTT-difference pair.
    def row(trial, pid, send, miss=False, recv=None):
        recv = send + 1_000_000 if recv is None else recv
        return Row(trial, pid, PROBE, "a", send, send + 500, send + 500, recv, miss, False)

    rows = [
        row(1, 0, 0, miss=True),
        row(1, 1, PAIR_GAP_MAX_NS),  # pair: gap exactly the bound
        row(1, 2, 2 * PAIR_GAP_MAX_NS + 1, miss=True),  # single: one more than the bound
        row(1, 3, 5 * S, miss=True),  # singles (2, 3): both flagged
        row(1, 4, 6 * S),  # a third single, left alone
        row(0, 0, S),
        row(0, 1, S),  # pair: gap 0
        row(0, 2, 3 * S, miss=True),
        row(0, 3, 4 * S),  # singles (2, 3): only the first flagged
        row(0, 4, 7 * S, recv=MISSING_NS),
        row(0, 5, 8 * S),  # singles (4, 5): missing reply
        row(0, 6, 9 * S),
        row(0, 7, 10 * S, miss=True),  # singles (6, 7): only the second flagged
        row(0, 8, 11 * S),
        row(0, 9, 12 * S),  # singles (8, 9): neither flagged
    ]
    for order in (rows, rows[::-1]):
        drops, expected_drops = DropCounts(), DropCounts()
        samples = label_samples(trace_of(order), SCENARIO, drops)
        assert samples == oracle_label_samples(order, SCENARIO, expected_drops)
        assert drops == expected_drops == DropCounts(missing_reply=1, ambiguous_label=2)
        assert list(zip(samples.feature.tolist(), samples.label.tolist())) == [
            (DISPERSION, "N"),
            (DELTA_RTT, "Y"),
            (DELTA_RTT, "N"),
            (DISPERSION, "Y"),
        ]
