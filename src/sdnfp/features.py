"""Feature extraction: reply dispersion and RTT differences from a trace.

Extraction works on the columns of a `probes.Trace`, whether the trace comes
from the simulator or from a persisted CSV, and builds no per-packet object.
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
reply (MISSING_NS in a receive timestamp).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .netsim import PROBE
from .probes import PAIR_GAP_MAX_NS, Trace, csv_text, extract_passive_pairs, greedy_pair_starts
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


@dataclass(frozen=True)
class FeatureSample:
    feature: str
    value_ms: float
    label: str
    context: ScenarioContext


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


def dispersion_ms(trace: Trace, first, second, vantage: str = "client") -> np.ndarray:
    """Signed reply gap in ms per pair of rows; negative means the replies
    arrived reordered.

    vantage='server' reads the simulator-only server-side arrival gap, kept
    for diagnostics.
    """
    if vantage == "client":
        recv = trace.client_recv_ns
    elif vantage == "server":
        recv = trace.server_recv_ns
    else:
        raise ValueError("vantage must be client or server")
    return (recv[second] - recv[first]) / NS_PER_MS


def delta_rtt_ms(trace: Trace, first, second) -> np.ndarray:
    """RTT(first) - RTT(second) in ms per pair of rows."""
    rtt = trace.client_recv_ns - trace.client_send_ns
    return (rtt[first] - rtt[second]) / NS_PER_MS


def pair_labels(trace: Trace, first, second) -> np.ndarray:
    """Y where either member of a pair triggered an install, else N."""
    return np.where((trace.miss_flag[first] | trace.miss_flag[second]) != 0, "Y", "N")


def delta_rtt_labels(trace: Trace, first, second) -> tuple[np.ndarray, np.ndarray]:
    """(labels, ambiguous) per pair of rows.

    The label is Y when the first member triggered an install and N when it
    did not; it is ambiguous, fitting neither PDF, when the second did.
    """
    labels = np.where(trace.miss_flag[first] != 0, "Y", "N")
    return labels, trace.miss_flag[second] != 0


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


def _samples(features, values, labels, context) -> list[FeatureSample]:
    return [
        FeatureSample(f, v, lab, context)
        for f, v, lab in zip(features, values.tolist(), labels.tolist())
    ]


def label_samples(
    trace: Trace,
    context: ScenarioContext,
    drops: DropCounts | None = None,
) -> list[FeatureSample]:
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
    n_disp = first.size
    features = [DELTA_RTT if i >= n_disp else DISPERSION for i in order.tolist()]
    values = np.concatenate([disp_values, rtt_values])[order]
    labels = np.concatenate([disp_labels, rtt_labels])[order]
    return _samples(features, values, labels, context)


def passive_samples(
    trace: Trace,
    context: ScenarioContext,
    window_ns: int,
    drops: DropCounts | None = None,
) -> list[FeatureSample]:
    """RTT-difference samples of a passive adversary.

    Same-flow packets sent within window_ns of each other are paired by
    `probes.extract_passive_pairs`, and each pair is labelled as the train's
    tail singles are.
    """
    if drops is None:
        drops = DropCounts()
    first, second = extract_passive_pairs(trace, window_ns)
    _, values, labels = _delta_rtt(trace, first, second, drops)
    return _samples([DELTA_RTT] * values.size, values, labels, context)


FEATURE_FIELDS = ("feature", "value_ms", "label", "k", "kind", "link_bps", "span_s")


def write_feature_csv(path, samples) -> None:
    """One line per sample; feature and label are this module's plain names,
    and each context's fields are formatted once."""
    lines = [",".join(FEATURE_FIELDS) + "\n"]
    context = tail = None
    for s in samples:
        if s.context is not context and s.context != context:
            context = s.context
            tail = (
                f"{context.k},{csv_text(context.switch_kind)},{context.data_link_bps},"
                f"{context.time_span_ns / 1e9!r}\n"
            )
        lines.append(f"{s.feature},{s.value_ms!r},{s.label},{tail}")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("".join(lines))


def read_feature_csv(path) -> list[FeatureSample]:
    samples = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != FEATURE_FIELDS:
            raise ValueError(f"feature file {path} does not carry the expected header")
        for row in reader:
            ctx = ScenarioContext(
                k=int(row["k"]),
                switch_kind=row["kind"],
                data_link_bps=int(row["link_bps"]),
                time_span_ns=int(float(row["span_s"]) * 1e9 + 0.5),
            )
            samples.append(
                FeatureSample(row["feature"], float(row["value_ms"]), row["label"], ctx)
            )
    return samples


def split_populations(samples, feature: str) -> tuple[list[float], list[float]]:
    """(values_N, values_Y) for one feature."""
    values_n = [s.value_ms for s in samples if s.feature == feature and s.label == "N"]
    values_y = [s.value_ms for s in samples if s.feature == feature and s.label == "Y"]
    return values_n, values_y
