"""Feature extraction: reply dispersion and RTT differences from a trace.

Extraction works on the columns of a `probes.Trace`, whether the trace comes
from the simulator or from a persisted CSV, and yields a `Samples` table, the
columns of samples.csv; it builds no per-packet or per-sample object.
`label_samples` reconstructs the train structure from the trace alone: within
each trial the probes, sorted by send time and packet id, form back-to-back
pairs (send gaps up to PAIR_GAP_MAX_NS) and singles; pairs feed the
dispersion feature and consecutive singles the RTT difference.
`passive_samples` pairs monitored same-flow packets sent within a window
instead.  Both pair rows with `probes.greedy_pair_starts`, and both take RTT
differences and their labels from one routine.

Labels always come from the simulator's ground-truth miss flags, never from
the classifier.  A pair is Y when either member triggered an install; an RTT
difference is Y when exactly the first member did and N when neither did.
Anything else (both flagged, or only the second) does not fit the two-sided
taxonomy and is excluded with a count, as is every sample with a missing
reply (MISSING_NS in a receive timestamp).  `Samples.values` selects one
feature's N or Y population, for the EER, the Welch test, the GPD fit and
the report's histograms alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netsim import PROBE
from .probes import PAIR_GAP_MAX_NS, Table, Trace, extract_passive_pairs, greedy_pair_starts
from .units import NS_PER_MS

DISPERSION = "dispersion"
DELTA_RTT = "delta_rtt"

MISSING_NS = -1  # sentinel for an absent timestamp in external traces


@dataclass(frozen=True)
class ScenarioContext:
    k: int
    switch_kind: str
    data_link_bps: int
    time_span_ns: int


@dataclass(frozen=True, eq=False)
class Samples(Table):
    """Labelled feature samples, one array per samples.csv column.

    `feature`, `label` and `kind` are object arrays of str, `value_ms` and
    `span_s` float64, `k` and `link_bps` int64.  The last four columns are
    the context of the scenario each sample came from.
    """

    feature: np.ndarray
    value_ms: np.ndarray
    label: np.ndarray
    k: np.ndarray
    kind: np.ndarray
    link_bps: np.ndarray
    span_s: np.ndarray

    DTYPES = (object, np.float64, object, np.int64, object, np.int64, np.float64)

    @classmethod
    def in_context(cls, feature, value_ms, label, context: ScenarioContext) -> "Samples":
        """Samples of one scenario; the context columns repeat `context`."""
        n = np.size(value_ms)
        return cls(
            feature, value_ms, label,
            np.full(n, context.k), np.full(n, context.switch_kind, object),
            np.full(n, context.data_link_bps), np.full(n, context.time_span_ns / 1e9),
        )

    def values(self, feature: str, label: str) -> np.ndarray:
        """value_ms of the samples of one feature and label, in row order."""
        return self.value_ms[(self.feature == feature) & (self.label == label)]


@dataclass
class DropCounts:
    missing_reply: int = 0
    ambiguous_label: int = 0

    def as_dict(self) -> dict:
        return {"missing_reply": self.missing_reply, "ambiguous_label": self.ambiguous_label}


def missing_reply(trace: Trace, first, second) -> np.ndarray:
    """Per pair of rows: does either member lack a reply timestamp?"""
    lost = (trace.client_recv_ns == MISSING_NS) | (trace.server_recv_ns == MISSING_NS)
    return lost[first] | lost[second]


def dispersion_ms(trace: Trace, first, second) -> np.ndarray:
    """Signed client-side reply gap in ms per pair of rows; negative means the
    replies arrived reordered."""
    recv = trace.client_recv_ns
    return (recv[second] - recv[first]) / NS_PER_MS


def delta_rtt_ms(trace: Trace, first, second) -> np.ndarray:
    """RTT(first) - RTT(second) in ms per pair of rows."""
    rtt = trace.client_recv_ns - trace.client_send_ns
    return (rtt[first] - rtt[second]) / NS_PER_MS


def pair_labels(trace: Trace, first, second) -> np.ndarray:
    """Y where either member of a pair triggered an install, else N."""
    return np.where(trace.miss_flag[first] | trace.miss_flag[second], "Y", "N")


def delta_rtt_labels(trace: Trace, first, second) -> tuple[np.ndarray, np.ndarray]:
    """(labels, ambiguous) per pair of rows.

    The label is Y when the first member triggered an install and N when it
    did not; it is ambiguous, fitting neither PDF, when the second did.
    """
    labels = np.where(trace.miss_flag[first], "Y", "N")
    return labels, trace.miss_flag[second]


def group_probes(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Back-to-back pairs and singles among a trace's probes.

    Returns the row indices of each pair's first and second member and of
    the singles, each ordered by trial, send time and packet id.  Within a
    trial, probes whose send gap is within PAIR_GAP_MAX_NS form a pair;
    everything else is a single.
    """
    probes = np.flatnonzero(trace.kind == PROBE)
    trial, send = trace.trial[probes], trace.client_send_ns[probes]
    order = np.lexsort((trace.packet_id[probes], send, trial))
    rows, trial, send = probes[order], trial[order], send[order]
    linked = (trial[1:] == trial[:-1]) & (send[1:] - send[:-1] <= PAIR_GAP_MAX_NS)
    starts = greedy_pair_starts(linked)
    paired = np.zeros(rows.size, bool)
    paired[starts] = paired[starts + 1] = True
    return rows[starts], rows[starts + 1], rows[~paired]


def _delta_rtt(trace: Trace, first, second, drops: DropCounts):
    """Kept-pair mask, values and labels of RTT-difference pairs; counts drops."""
    missing = missing_reply(trace, first, second)
    labels, ambiguous = delta_rtt_labels(trace, first, second)
    ambiguous &= ~missing
    drops.missing_reply += int(missing.sum())
    drops.ambiguous_label += int(ambiguous.sum())
    keep = ~(missing | ambiguous)
    return keep, delta_rtt_ms(trace, first[keep], second[keep]), labels[keep]


def label_samples(
    trace: Trace,
    context: ScenarioContext,
    drops: DropCounts | None = None,
) -> Samples:
    """Labeled dispersion and RTT-difference samples for a whole trace.

    Pairs feed the dispersion feature; consecutive singles of a trial feed
    the RTT difference (the train's two tail probes by default).  Samples
    come trial by trial, a trial's dispersion samples before its RTT
    differences, each in send order.  Samples with a missing reply or an
    ambiguous flag combination are dropped and counted.
    """
    if drops is None:
        drops = DropCounts()
    first, second, singles = group_probes(trace)
    missing = missing_reply(trace, first, second)
    drops.missing_reply += int(missing.sum())
    first, second = first[~missing], second[~missing]
    disp_values = dispersion_ms(trace, first, second)
    disp_labels = pair_labels(trace, first, second)

    single_trial = trace.trial[singles]
    starts = greedy_pair_starts(single_trial[1:] == single_trial[:-1])
    rtt_first = singles[starts]
    keep, rtt_values, rtt_labels = _delta_rtt(trace, rtt_first, singles[starts + 1], drops)

    # A stable sort by trial keeps each trial's dispersion samples before its
    # RTT differences, each in send order.
    trial = np.concatenate([trace.trial[first], trace.trial[rtt_first[keep]]])
    order = np.argsort(trial, kind="stable")
    features = np.where(order >= first.size, DELTA_RTT, DISPERSION)
    values = np.concatenate([disp_values, rtt_values])[order]
    labels = np.concatenate([disp_labels, rtt_labels])[order]
    return Samples.in_context(features, values, labels, context)


def passive_samples(
    trace: Trace,
    context: ScenarioContext,
    window_ns: int,
    drops: DropCounts | None = None,
) -> Samples:
    """RTT-difference samples of a passive adversary.

    Same-flow packets sent within window_ns of each other are paired by
    `probes.extract_passive_pairs`, and each pair is labelled as the train's
    tail singles are.
    """
    if drops is None:
        drops = DropCounts()
    first, second = extract_passive_pairs(trace, window_ns)
    _, values, labels = _delta_rtt(trace, first, second, drops)
    return Samples.in_context(np.full(values.size, DELTA_RTT), values, labels, context)
