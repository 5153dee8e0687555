"""Probe-train construction, execution against the simulator, the columnar
trace, and passive pairing.

The measurement train is fixed: a CLEAR packet at t=0, four MTU-sized packet
pairs at 1..4 s (members sent back-to-back), a second CLEAR at 5 s, and two
single probes at 6 s and 7 s.  The time-span studies stretch the gap between
the two singles past 1 s.  One second after a CLEAR is enough for every rule
install to finish, so within a trial the first pair and the first tail single
are the only packets that trigger installs.

Pair members share a send timestamp by default; the initial dispersion then
forms on the first link as its transmission time.  A config may instead space
them explicitly.

Execution.  `run_schedule` runs one schedule for a whole list of trial
numbers at once on the trial-batched engine (`netsim.simulate_trials`): the
trial is a numpy axis, and every packet x hop step advances all trials
together.  Trial t draws only from its own four streams, seeded from (seed,
group, t), so its rows are the same whichever trials run beside it; a
`netsim.TrialStreams` seeds each stream name for all trials in one
vectorised pass.  The `cross` and `drift` streams hold a single draw type in
a layout the schedule fixes, and are drawn as one block per trial; the
`control` stream (lookup and install delays on a table miss) and the
`defense` stream (delay-element holds) depend on per-trial state, and are
drawn per event, in packet order within the trial.  `run_schedule_reference`
runs one trial on the scalar reference model (`netsim.Simulation`), packet by
packet; the differential tests hold the engine to it row for row.

Traces.  A `Trace` is the send/receive log of every packet and its reply, kept
as columns: int64 arrays for the trial, the packet id, the four timestamps and
the two flags (0/1), and arrays of str for the packet kind and the flow.
`run_schedule` builds one straight from the engine's [packet, trial] arrays,
`write_trace_csv` writes it one formatted line per row and `read_trace_csv`
reads the same type back, so simulated and persisted traces go through the
same extraction code.  Iterating a trace yields `TraceRecord` rows, for tests
and inspection; the pipeline itself never builds per-packet objects.

Pairing.  `greedy_pair_starts` is the one greedy left-to-right pairing rule:
over rows sorted within their groups, a row pairs with its successor when the
link between them qualifies and the row was not already taken.  The train
layout (features.label_samples) and `extract_passive_pairs` differ only in
which links qualify.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .netsim import (
    CLEAR,
    PROBE,
    ControllerSpec,
    DriftModel,
    FlowKey,
    Packet,
    PathSpec,
    RngStreams,
    Simulation,
    TrialStreams,
    simulate_trials,
)
from .units import NS_PER_S

TRAIN_PAIR_OFFSETS_S = (1, 2, 3, 4)
TRAIN_SECOND_CLEAR_S = 5
TRAIN_FIRST_SINGLE_S = 6
MIN_PROBE_BYTES = 64

# Send gaps at or below this bound mark two probes as one back-to-back pair
# when reconstructing structure from a trace (pair spacing is at most a few
# transmission times; singles are seconds apart).
PAIR_GAP_MAX_NS = 10_000_000


@dataclass(frozen=True)
class ProbeSchedule:
    """Generic timed packet sequence on one flow."""

    packets: tuple[Packet, ...]
    flow: FlowKey

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple(self.packets))
        if any(p.key != self.flow for p in self.packets):
            raise ValueError("every packet of a schedule must belong to its flow")


def build_probe_train(
    flow: FlowKey, mtu: int = 1500, pair_spacing_ns: int = 0, single_gap_ns: int = NS_PER_S
) -> ProbeSchedule:
    """The measurement train (see the module docstring), tail singles single_gap_ns apart."""
    if mtu < MIN_PROBE_BYTES:
        raise ValueError(f"mtu must be >= {MIN_PROBE_BYTES}")
    packets = [Packet(0, flow, MIN_PROBE_BYTES, CLEAR, 0)]
    pid = 1
    for s in TRAIN_PAIR_OFFSETS_S:
        t = s * NS_PER_S
        packets.append(Packet(pid, flow, mtu, PROBE, t))
        packets.append(Packet(pid + 1, flow, mtu, PROBE, t + pair_spacing_ns))
        pid += 2
    packets.append(Packet(pid, flow, MIN_PROBE_BYTES, CLEAR, TRAIN_SECOND_CLEAR_S * NS_PER_S))
    t = TRAIN_FIRST_SINGLE_S * NS_PER_S
    packets.append(Packet(pid + 1, flow, mtu, PROBE, t))
    packets.append(Packet(pid + 2, flow, mtu, PROBE, t + single_gap_ns))
    return ProbeSchedule(packets=tuple(packets), flow=flow)


def idle_flow_probes(
    flow: FlowKey,
    mtu: int,
    gap_ns: int,
    lead_in_ns: int = 10 * NS_PER_S,
) -> ProbeSchedule:
    """One back-to-back pair and two spaced singles on a warm, long-idle flow.

    With rules pre-installed nothing here interacts with the controller, so
    the pair samples the no-install dispersion population and the singles the
    no-install RTT-difference population.  The pair and the singles sit more
    than any inactivity threshold apart, so under the countermeasure each
    burst is exactly the idle-flow traffic the delay element targets.
    """
    if mtu < MIN_PROBE_BYTES:
        raise ValueError(f"mtu must be >= {MIN_PROBE_BYTES}")
    t_singles = 2 * lead_in_ns
    return ProbeSchedule(
        packets=(
            Packet(0, flow, mtu, PROBE, lead_in_ns),
            Packet(1, flow, mtu, PROBE, lead_in_ns),
            Packet(2, flow, mtu, PROBE, t_singles),
            Packet(3, flow, mtu, PROBE, t_singles + gap_ns),
        ),
        flow=flow,
    )


TRACE_FIELDS = (
    "trial",
    "packet_id",
    "kind",
    "flow",
    "client_send_ns",
    "server_recv_ns",
    "server_reply_send_ns",
    "client_recv_ns",
    "miss_flag",
    "table_full",
)
_TEXT_FIELDS = ("kind", "flow")
_FLAG_FIELDS = ("miss_flag", "table_full")
_CSV_LINE = "%d,%d,%s,%s,%d,%d,%d,%d,%d,%d\n"
_WRITE_ROWS = 2048


@dataclass(frozen=True)
class TraceRecord:
    """One row of a trace: a packet's send/receive log line and its reply's."""

    trial: int
    packet_id: int
    kind: str
    flow: str
    client_send_ns: int
    server_recv_ns: int
    server_reply_send_ns: int
    client_recv_ns: int
    miss_flag: bool
    table_full: bool


@dataclass(frozen=True, eq=False)
class Trace:
    """Send/receive log of every packet and its reply, one array per field.

    Integer fields are int64 (the flags 0/1); `kind` and `flow` are object
    arrays of str, so rows of one flow share one string.  Every column has
    one entry per row.  Two traces are equal when their columns hold the same
    values.
    """

    trial: np.ndarray
    packet_id: np.ndarray
    kind: np.ndarray
    flow: np.ndarray
    client_send_ns: np.ndarray
    server_recv_ns: np.ndarray
    server_reply_send_ns: np.ndarray
    client_recv_ns: np.ndarray
    miss_flag: np.ndarray
    table_full: np.ndarray

    def __post_init__(self):
        for name in TRACE_FIELDS:
            if name in _TEXT_FIELDS:
                column = np.asarray(getattr(self, name), dtype=object)
            elif name in _FLAG_FIELDS:
                column = (np.asarray(getattr(self, name)) != 0).astype(np.int64)
            else:
                column = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, column.reshape(-1))
        if len({getattr(self, name).size for name in TRACE_FIELDS}) != 1:
            raise ValueError("every trace column must have one entry per row")

    def __len__(self) -> int:
        return self.trial.size

    def __iter__(self):
        for row in zip(*(getattr(self, name).tolist() for name in TRACE_FIELDS)):
            *head, miss, full = row
            yield TraceRecord(*head, bool(miss), bool(full))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in TRACE_FIELDS)

    __hash__ = None

    @classmethod
    def from_records(cls, records) -> "Trace":
        rows = [tuple(getattr(r, name) for name in TRACE_FIELDS) for r in records]
        if not rows:
            return cls(*([[]] * len(TRACE_FIELDS)))
        return cls(*zip(*rows))

    @classmethod
    def concat(cls, traces) -> "Trace":
        traces = list(traces)
        return cls(*(np.concatenate([getattr(t, n) for t in traces]) for n in TRACE_FIELDS))


def run_schedule(
    schedule: ProbeSchedule,
    path: PathSpec,
    controller: ControllerSpec,
    seed: int,
    *,
    trials=(0,),
    group: int = 0,
    warm: bool = False,
    drift: DriftModel | None = None,
    reply_bytes: int = 64,
    turnaround_ns: int = 0,
) -> Trace:
    """Run the schedule once per trial number, all trials together; log every packet.

    Trial t draws only from the streams RngStreams(seed, trial=t,
    group=group) would give it, so its rows do not depend on which other
    trials run beside it.  Rows come trial by trial, in the order of
    `trials`, packets in schedule order.
    """
    trials = np.asarray(list(trials), np.int64)
    out = simulate_trials(
        path,
        controller,
        schedule.packets,
        TrialStreams(seed, trials, group),
        warm=warm,
        drift=drift,
        reply_bytes=reply_bytes,
        turnaround_ns=turnaround_ns,
    )
    packets = schedule.packets
    n_trials = trials.size

    def per_packet(values, dtype=np.int64):
        return np.tile(np.array(values, dtype), n_trials)

    def trial_major(column):  # [packet, trial] -> rows trial by trial
        return column.T.reshape(-1)

    return Trace(
        trial=np.repeat(trials, len(packets)),
        packet_id=per_packet([p.id for p in packets]),
        kind=per_packet([p.kind for p in packets], object),
        flow=np.full(len(packets) * n_trials, schedule.flow.compact(), object),
        client_send_ns=per_packet([p.sent_at_ns for p in packets]),
        server_recv_ns=trial_major(out.server_recv_ns),
        server_reply_send_ns=trial_major(out.server_reply_send_ns),
        client_recv_ns=trial_major(out.client_recv_ns),
        miss_flag=trial_major(out.miss_flag),
        table_full=trial_major(out.table_full),
    )


def run_schedule_reference(
    schedule: ProbeSchedule,
    path: PathSpec,
    controller: ControllerSpec,
    seed: int,
    *,
    trial: int = 0,
    group: int = 0,
    warm: bool = False,
    drift: DriftModel | None = None,
    reply_bytes: int = 64,
    turnaround_ns: int = 0,
) -> Trace:
    """One trial of run_schedule on the scalar reference model, packet by packet.

    The differential tests hold run_schedule to this, row for row.
    """
    streams = RngStreams(seed, trial=trial, group=group)
    warm_keys = (schedule.flow,) if warm else ()
    sim = Simulation(
        path,
        controller,
        streams,
        warm_keys=warm_keys,
        drift=drift,
        reply_bytes=reply_bytes,
        turnaround_ns=turnaround_ns,
    )
    results = [sim.exchange(pkt) for pkt in schedule.packets]
    packets = schedule.packets
    return Trace(
        trial=[trial] * len(packets),
        packet_id=[p.id for p in packets],
        kind=[p.kind for p in packets],
        flow=[schedule.flow.compact()] * len(packets),
        client_send_ns=[p.sent_at_ns for p in packets],
        server_recv_ns=[r.server_recv_ns for r in results],
        server_reply_send_ns=[r.server_reply_send_ns for r in results],
        client_recv_ns=[r.client_recv_ns for r in results],
        miss_flag=[r.miss_flag for r in results],
        table_full=[r.table_full for r in results],
    )


def run_train(
    train: ProbeSchedule,
    path: PathSpec,
    controller: ControllerSpec,
    trials: int,
    seed: int,
    **kwargs,
) -> Trace:
    """Run the train `trials` times; trials are independent given the seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return run_schedule(train, path, controller, seed, trials=range(trials), **kwargs)


def greedy_pair_starts(linked: np.ndarray) -> np.ndarray:
    """Positions i at which greedy left-to-right pairing joins rows i and i+1.

    `linked[i]` says whether rows i and i+1 (sorted, and in one group) may form
    a pair.  Walking left to right, a row still free pairs with its successor
    when they are linked; so within each run of consecutive links the pairs
    start at the run's first link and every second link after it.
    """
    linked = np.asarray(linked, bool)
    pos = np.arange(linked.size)
    run_start = np.maximum.accumulate(np.where(linked, 0, pos + 1))
    return pos[linked & ((pos - run_start) % 2 == 0)]


def extract_passive_pairs(trace: Trace, window_ns: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy left-to-right pairing of same-flow packets sent within a window.

    Returns the row indices of each pair's first and second packet, ordered
    by trial, then flow, then send time.  No packet joins two pairs; pairs
    never straddle trials or flows.  A zero send gap (back-to-back pair
    members) is not a usable passive pair.
    """
    if window_ns <= 0:
        raise ValueError("window must be positive")
    flows = np.unique(trace.flow, return_inverse=True)[1].reshape(-1)
    order = np.lexsort((trace.packet_id, trace.client_send_ns, flows, trace.trial))
    trial, flow, send = trace.trial[order], flows[order], trace.client_send_ns[order]
    gap = send[1:] - send[:-1]
    same = (trial[1:] == trial[:-1]) & (flow[1:] == flow[:-1])
    starts = greedy_pair_starts(same & (gap > 0) & (gap <= window_ns))
    return order[starts], order[starts + 1]


def csv_text(text: str) -> str:
    """A text field as csv.writer quotes it (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(path, trace: Trace) -> None:
    """One `%`-formatted line per row, in blocks of _WRITE_ROWS rows so the
    text held at once stays small; text fields are quoted as csv.writer
    quotes them."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(TRACE_FIELDS) + "\n")
        for start in range(0, len(trace), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            columns = [getattr(trace, name)[rows].tolist() for name in TRACE_FIELDS]
            for j, name in enumerate(TRACE_FIELDS):
                if name in _TEXT_FIELDS:
                    quoted = {v: csv_text(v) for v in set(columns[j])}
                    columns[j] = [quoted[v] for v in columns[j]]
            f.write("".join([_CSV_LINE % row for row in zip(*columns)]))


def read_trace_csv(path) -> Trace:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_FIELDS:
            raise ValueError(f"trace file {path} does not carry the expected header")
        rows = [row for row in reader if row]
    if any(len(row) != len(TRACE_FIELDS) for row in rows):
        raise ValueError(f"trace file {path} has a row without {len(TRACE_FIELDS)} fields")
    if not rows:
        return Trace.from_records([])
    columns = dict(zip(TRACE_FIELDS, zip(*rows)))
    for name in TRACE_FIELDS:
        if name not in _TEXT_FIELDS:
            columns[name] = [int(v) for v in columns[name]]
    return Trace(**columns)
