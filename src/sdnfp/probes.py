"""Probe-train construction, execution against the simulator, the columnar
tables and their CSV format, and passive pairing.

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
vectorised pass.  Every stream is drawn as one block per trial: `cross` and
`drift` in a layout the schedule fixes, the `control` stream (lookup and
install delays on a table miss) and the `defense` stream (delay-element
holds), which depend on per-trial state, through a per-trial cursor in packet
order; only a `control` stream whose delay models mix draw types is drawn per
miss.  `run_schedule_reference` runs one trial on the scalar reference model
(`netsim.Simulation`), packet by packet; the differential tests hold the
engine to it row for row.

Tables.  Every CSV the package writes is a `Table`: a frozen dataclass with
one numpy array per CSV column, and one CSV format.  Traces, feature samples,
the report's histograms and summary, and EER sweep curves are its subclasses.
`Table.write_csv` writes a header and one `%`-formatted line per row, text
quoted as csv.writer quotes it; `Table.read_csv` checks the header and parses
the rest in one `np.loadtxt` call.  A `Trace` is the send/receive log of every
packet and its reply: int64 arrays for the trial, the packet id and the four
timestamps, bool arrays for the two flags, and arrays of str for the packet
kind and the flow.  `run_schedule` builds one straight from the engine's
[packet, trial] arrays, and a persisted trace reads back as the same type, so
simulated and persisted traces go through the same extraction code.  A table
has no per-row objects: it is built and read column by column.

Pairing.  `greedy_pair_starts` is the one greedy left-to-right pairing rule:
over rows sorted within their groups, a row pairs with its successor when the
link between them qualifies and the row was not already taken.  The train
layout (features.label_samples) and `extract_passive_pairs` differ only in
which links qualify.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from pathlib import Path

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
    TrialTraces,
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


_FORMATS = {np.int64: "%d", bool: "%d", np.float64: "%r", object: "%s"}
_WRITE_ROWS = 2048


def _quote(text: str) -> str:
    """A text field as csv.writer quotes it (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class Table:
    """Base of the columnar tables, each a frozen dataclass with one array per
    CSV column, in field order.

    A subclass lists each column's dtype in DTYPES: int64, bool (0/1 in the
    file), float64 (written as repr, so floats round-trip exactly) or object
    (arrays of str).  Every column has one entry per row; two tables are equal
    when their columns hold the same values.
    """

    DTYPES: tuple = ()

    @classmethod
    def columns(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def __post_init__(self):
        for name, dtype in zip(self.columns(), self.DTYPES):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype).reshape(-1))
        if len({getattr(self, name).size for name in self.columns()}) != 1:
            raise ValueError("every column must have one entry per row")

    def __len__(self) -> int:
        return getattr(self, self.columns()[0]).size

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self.columns())

    __hash__ = None

    @classmethod
    def concat(cls, tables):
        tables = list(tables)
        return cls(*(np.concatenate([getattr(t, n) for t in tables]) for n in cls.columns()))

    def write_csv(self, path) -> None:
        """A header line, then one `%`-line per row in blocks of _WRITE_ROWS rows,
        so little text is held at once; makes the file's directory if missing."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        names = self.columns()
        line = ",".join(_FORMATS[d] for d in self.DTYPES) + "\n"
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write(",".join(names) + "\n")
            for start in range(0, len(self), _WRITE_ROWS):
                columns = [getattr(self, n)[start : start + _WRITE_ROWS].tolist() for n in names]
                for j, dtype in enumerate(self.DTYPES):
                    if dtype is object:
                        quoted = {v: _quote(v) for v in set(columns[j])}
                        columns[j] = [quoted[v] for v in columns[j]]
                f.write("".join([line % row for row in zip(*columns)]))

    @classmethod
    def read_csv(cls, path):
        """The table a file of `write_csv`'s format holds; blank lines are
        skipped, and a wrong header or a row of the wrong width raises
        ValueError."""
        names = cls.columns()
        dtype = np.dtype(list(zip(names, cls.DTYPES)))
        with open(path, newline="", encoding="utf-8") as f:
            if f.readline().rstrip("\r\n") != ",".join(names):
                raise ValueError(f"{path} does not carry the header {','.join(names)}")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    rows = np.loadtxt(f, dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
        return cls(*(rows[n] for n in names))


@dataclass(frozen=True, eq=False)
class Trace(Table):
    """Send/receive log of every packet and its reply, one array per field.

    Timestamps, trial and packet id are int64, the two flags bool, and `kind`
    and `flow` object arrays of str, so rows of one flow share one string.
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

    DTYPES = (np.int64, np.int64, object, object, *[np.int64] * 4, bool, bool)


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
    return _schedule_trace(schedule, trials, out)


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
    out = TrialTraces(*(np.array([[getattr(r, f.name)] for r in results]) for f in fields(TrialTraces)))
    return _schedule_trace(schedule, np.array([trial]), out)


def _schedule_trace(schedule: ProbeSchedule, trials: np.ndarray, out: TrialTraces) -> Trace:
    """The rows of a schedule run once per trial, trial by trial, from the
    engine's [packet, trial] output arrays."""
    packets, n_trials = schedule.packets, trials.size

    def per_packet(values, dtype=np.int64):
        return np.tile(np.array(values, dtype), n_trials)

    return Trace(
        trial=np.repeat(trials, len(packets)),
        packet_id=per_packet([p.id for p in packets]),
        kind=per_packet([p.kind for p in packets], object),
        flow=np.full(len(packets) * n_trials, schedule.flow.compact(), object),
        client_send_ns=per_packet([p.sent_at_ns for p in packets]),
        **{f.name: getattr(out, f.name).T.reshape(-1) for f in fields(TrialTraces)},
    )


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
