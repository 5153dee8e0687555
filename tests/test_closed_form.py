"""The engine against the paper's equations in the deterministic limit.

With constant cross traffic, a constant lookup and constant installs, and no
drift, every timestamp of a schedule follows from a few rules, which
`closed_form` applies packet by packet: a forward hop finishes at
max(ready, link busy) + surcharge + cross + S/B and arrives a base latency
later; a back-to-back pair leaves the bottleneck S/B apart (Eq. 1); a miss
costs the lookup plus the slowest install (Eq. 2), installs the flow at every
switch and opens an install window at the switch that missed, and a packet
that reaches that switch inside the window pays the same charge; a hit waits
for the flow's previous release; a CLEAR at the first switch deletes every
rule after the path's CLEAR delay; the reply leaves the path's turnaround
after the server arrival, and its reverse path is a plain sum at the path's
reply size.  It shares no code with the engine or with the scalar reference
model.
"""

import pytest

from sdnfp.distributions import constant
from sdnfp.netsim import CLEAR, LinkSpec, PathSpec, SwitchSpec
from sdnfp.probes import build_probe_train, idle_flow_probes, run_schedule
from sdnfp.scenario import DEFAULT_FLOW

MS = 1_000_000
S = 1_000_000_000
INSTALLS = (1_200_000, 4_500_000, 3_000_000)  # per switch: from k = 2 on, Eq. 2's max is not switch 0's
TURNAROUND = 30_000


def transmission_ns(size_bytes, link):
    """S/B in ns, rounded half up."""
    return (2 * size_bytes * 8 * S + link.capacity_bps) // (2 * link.capacity_bps)


def cross_ns(link):
    return link.cross_traffic.value_ns


def closed_form(packets, path, warm):
    """(server_recv, reply_send, client_recv, miss_flag, table_full) of each packet."""
    k = len(path.switches)
    charge = path.lookup_delay.value_ns + max(sw.install_delay.value_ns for sw in path.switches)
    keeps = [min(2, sw.table_capacity) for sw in path.switches]  # rules a switch holds: forward, reverse
    rules = list(keeps) if warm else [0] * k
    window = [(0, 0)] * k  # [start, end) of the install window at each switch
    busy = [0] * len(path.forward_links)
    release = 0  # no packet of the flow leaves a switch before the previous one was released
    clear_at = None
    rows = []
    for p in packets:
        t, miss, full = p.sent_at_ns, False, False
        for i, link in enumerate(path.forward_links):
            s, surcharge = i - 1, 0  # switch s sits in front of forward link i
            if 0 <= s < k:
                if clear_at is not None and t >= clear_at:
                    rules, window, clear_at = [0] * k, [(0, 0)] * k, None
                if p.kind == CLEAR:
                    if s == 0:
                        clear_at = t + path.clear_delay_ns
                elif rules[s] == 0:
                    rules = [max(r, keep) for r, keep in zip(rules, keeps)]
                    window[s] = (t, t + charge)
                    surcharge, release, miss = charge, t + charge, True
                    full = full or min(rules) < 2
                elif window[s][0] <= t < window[s][1]:
                    surcharge, release = charge, t + charge
                else:
                    t = release = max(t, release)
            busy[i] = max(t, busy[i]) + surcharge + cross_ns(link) + transmission_ns(p.size_bytes, link)
            t = busy[i] + link.base_latency_ns
        back = sum(cross_ns(l) + transmission_ns(path.reply_bytes, l) + l.base_latency_ns for l in path.reverse_links)
        rows.append((t, t + path.turnaround_ns, t + path.turnaround_ns + back, miss, full))
    return rows


@pytest.mark.parametrize("reply_bytes", [64, 200])
@pytest.mark.parametrize("bps", [100_000_000, 1_000_000_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_engine_traces_are_the_closed_form_in_the_deterministic_limit(k, bps, reply_bytes):
    forward = [LinkSpec(bps, 5_000, constant(20_000))] * (k + 1)
    reverse = [LinkSpec(bps, 5_000, constant(7_000)), LinkSpec(bps)]
    # Pair spacings of 0, under one transmission time, and 3 ms: inside the install window from k = 2 on.
    schedules = [build_probe_train(DEFAULT_FLOW, 1500, spacing) for spacing in (0, 50_000, 3 * MS)]
    schedules.append(idle_flow_probes(DEFAULT_FLOW, 1500, S))
    for capacity in (0, 1, 1024):
        switches = tuple(SwitchSpec(constant(INSTALLS[j]), capacity) for j in range(k))
        path = PathSpec(tuple(forward), tuple(reverse), switches, reply_bytes=reply_bytes,
                        turnaround_ns=TURNAROUND, lookup_delay=constant(100_000))
        for schedule in schedules:
            for warm in (False, True):
                trace = run_schedule(schedule, path, 11, trials=range(2), warm=warm)
                rows = list(zip(trace.server_recv_ns.tolist(), trace.server_reply_send_ns.tolist(),
                                trace.client_recv_ns.tolist(), trace.miss_flag.tolist(), trace.table_full.tolist()))
                assert rows == 2 * closed_form(schedule, path, warm)
