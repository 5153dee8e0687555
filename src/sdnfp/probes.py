"""Probe-train construction, execution against the simulator, and passive pairing.

The measurement train is fixed: a CLEAR packet at t=0, four MTU-sized packet
pairs at 1..4 s (members sent back-to-back), a second CLEAR at 5 s, and two
single probes at 6 s and 7 s.  One second after a CLEAR is enough for every
rule install to finish, so within a trial the first pair and the first tail
single are the only packets that trigger installs.

Pair members share a send timestamp by default; the initial dispersion then
forms on the first link as its transmission time.  A config may instead space
them explicitly.

Execution.  `run_schedule` runs one schedule for a whole list of trial
numbers at once on the trial-batched engine (`netsim.simulate_trials`): the
trial is a numpy axis, and every packet x hop step advances all trials
together.  Trial t draws only from its own `RngStreams(seed, trial=t,
group)`, so its records are the same whichever trials run beside it.  The
`cross` and `drift` streams hold a single draw type in a layout the schedule
fixes, and are drawn as one block per trial; the `control` stream (lookup and
install delays on a table miss) and the `defense` stream (delay-element
holds) depend on per-trial state, and are drawn per event, in packet order
within the trial.  `run_schedule_reference` runs one trial on the scalar
reference model (`netsim.Simulation`), packet by packet; the differential
tests hold the engine to it record for record.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
    simulate_trials,
)
from .units import NS_PER_S

TRAIN_PAIR_OFFSETS_S = (1, 2, 3, 4)
TRAIN_SECOND_CLEAR_S = 5
TRAIN_SINGLE_OFFSETS_S = (6, 7)
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


@dataclass(frozen=True)
class ProbeTrain(ProbeSchedule):
    """The fixed measurement train; see the module docstring for its layout."""


def build_probe_train(flow: FlowKey, mtu: int = 1500, pair_spacing_ns: int = 0) -> ProbeTrain:
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
    pid += 1
    for s in TRAIN_SINGLE_OFFSETS_S:
        packets.append(Packet(pid, flow, mtu, PROBE, s * NS_PER_S))
        pid += 1
    return ProbeTrain(packets=tuple(packets), flow=flow)


def stretched_train(flow: FlowKey, mtu: int, single_gap_ns: int, pair_spacing_ns: int = 0) -> ProbeSchedule:
    """Train variant whose tail singles are single_gap_ns apart.

    Used for the time-span stability studies; the default 1 s gap reproduces
    the standard train exactly.
    """
    base = build_probe_train(flow, mtu, pair_spacing_ns)
    packets = list(base.packets)
    last = packets[-1]
    moved = Packet(
        last.id, last.key, last.size_bytes, last.kind,
        packets[-2].sent_at_ns + single_gap_ns,
    )
    packets[-1] = moved
    return ProbeSchedule(packets=tuple(packets), flow=flow)


def idle_flow_probes(
    flow: FlowKey,
    mtu: int,
    gap_ns: int,
    lead_in_ns: int = 10 * NS_PER_S,
    spacing_ns: int | None = None,
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
    if spacing_ns is None:
        spacing_ns = lead_in_ns
    t_singles = lead_in_ns + spacing_ns
    return ProbeSchedule(
        packets=(
            Packet(0, flow, mtu, PROBE, lead_in_ns),
            Packet(1, flow, mtu, PROBE, lead_in_ns),
            Packet(2, flow, mtu, PROBE, t_singles),
            Packet(3, flow, mtu, PROBE, t_singles + gap_ns),
        ),
        flow=flow,
    )


@dataclass(frozen=True)
class TraceRecord:
    """Send/receive log line for one probe and its reply."""

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
) -> list[TraceRecord]:
    """Run the schedule once per trial number, all trials together; log every packet.

    Trial t draws from RngStreams(seed, trial=t, group=group) only, so its
    records do not depend on which other trials run beside it.  Records come
    trial by trial, in the order of `trials`, packets in schedule order.
    """
    trials = list(trials)
    streams = [RngStreams(seed, trial=t, group=group) for t in trials]
    out = simulate_trials(
        path,
        controller,
        schedule.packets,
        streams,
        warm=warm,
        drift=drift,
        reply_bytes=reply_bytes,
        turnaround_ns=turnaround_ns,
    )
    columns = zip(
        out.server_recv_ns.T.tolist(),
        out.server_reply_send_ns.T.tolist(),
        out.client_recv_ns.T.tolist(),
        out.miss_flag.T.tolist(),
        out.table_full.T.tolist(),
    )
    flow = schedule.flow.compact()
    records = []
    for trial, (recv, reply, back, miss, full) in zip(trials, columns):
        for j, pkt in enumerate(schedule.packets):
            records.append(
                TraceRecord(
                    trial=trial,
                    packet_id=pkt.id,
                    kind=pkt.kind,
                    flow=flow,
                    client_send_ns=pkt.sent_at_ns,
                    server_recv_ns=recv[j],
                    server_reply_send_ns=reply[j],
                    client_recv_ns=back[j],
                    miss_flag=miss[j],
                    table_full=full[j],
                )
            )
    return records


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
) -> list[TraceRecord]:
    """One trial of run_schedule on the scalar reference model, packet by packet.

    The differential tests hold run_schedule to this, record for record.
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
    records = []
    for pkt in schedule.packets:
        res = sim.exchange(pkt)
        records.append(
            TraceRecord(
                trial=trial,
                packet_id=pkt.id,
                kind=pkt.kind,
                flow=schedule.flow.compact(),
                client_send_ns=pkt.sent_at_ns,
                server_recv_ns=res.server_recv_ns,
                server_reply_send_ns=res.server_reply_send_ns,
                client_recv_ns=res.client_recv_ns,
                miss_flag=res.miss_flag,
                table_full=res.table_full,
            )
        )
    return records


def run_train(
    train: ProbeTrain,
    path: PathSpec,
    controller: ControllerSpec,
    trials: int,
    seed: int,
    **kwargs,
) -> list[TraceRecord]:
    """Run the train `trials` times; trials are independent given the seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return run_schedule(train, path, controller, seed, trials=range(trials), **kwargs)


@dataclass(frozen=True)
class PassivePair:
    first: TraceRecord
    second: TraceRecord
    gap_ns: int


def extract_passive_pairs(records, window_ns: int) -> list[PassivePair]:
    """Greedy left-to-right pairing of same-flow packets sent within a window.

    No packet joins two pairs; pairs never straddle trials.  A zero send gap
    (back-to-back pair members) is not a usable passive pair.
    """
    if window_ns <= 0:
        raise ValueError("window must be positive")
    by_flow: dict[tuple[int, str], list[TraceRecord]] = {}
    for rec in records:
        by_flow.setdefault((rec.trial, rec.flow), []).append(rec)
    pairs: list[PassivePair] = []
    for key in sorted(by_flow):
        flow_records = sorted(by_flow[key], key=lambda r: (r.client_send_ns, r.packet_id))
        i = 0
        while i + 1 < len(flow_records):
            gap = flow_records[i + 1].client_send_ns - flow_records[i].client_send_ns
            if 0 < gap <= window_ns:
                pairs.append(PassivePair(flow_records[i], flow_records[i + 1], gap))
                i += 2
            else:
                i += 1
    return pairs


def write_trace_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.trial,
                    r.packet_id,
                    r.kind,
                    r.flow,
                    r.client_send_ns,
                    r.server_recv_ns,
                    r.server_reply_send_ns,
                    r.client_recv_ns,
                    int(r.miss_flag),
                    int(r.table_full),
                ]
            )


def read_trace_csv(path) -> list[TraceRecord]:
    records = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_FIELDS:
            raise ValueError(f"trace file {path} does not carry the expected header")
        for row in reader:
            records.append(
                TraceRecord(
                    trial=int(row["trial"]),
                    packet_id=int(row["packet_id"]),
                    kind=row["kind"],
                    flow=row["flow"],
                    client_send_ns=int(row["client_send_ns"]),
                    server_recv_ns=int(row["server_recv_ns"]),
                    server_reply_send_ns=int(row["server_reply_send_ns"]),
                    client_recv_ns=int(row["client_recv_ns"]),
                    miss_flag=bool(int(row["miss_flag"])),
                    table_full=bool(int(row["table_full"])),
                )
            )
    return records
