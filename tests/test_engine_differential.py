"""The trial-batched engine against the scalar reference model, row for row."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdnfp.defense import DEFAULT_WINDOW_NS, TABLE4_DELTA_RTT, TABLE4_DISPERSION, DelayElementConfig
from sdnfp.distributions import NO_DELAY, GPDParams, constant, gpd, lognormal, ns_from_floats, pareto
from sdnfp.features import group_probes, pair_labels
from sdnfp.netsim import (
    CLEAR,
    PROBE,
    DriftModel,
    FlowKey,
    LinkSpec,
    Packet,
    PathSpec,
    SwitchSpec,
)
from sdnfp.probes import (
    Trace,
    build_probe_train,
    idle_flow_probes,
    run_schedule,
    run_schedule_reference,
)
from sdnfp.scenario import DEFAULT_FLOW, builtin_scenarios

MS = 1_000_000
S = 1_000_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")

CROSS = st.sampled_from(
    [
        NO_DELAY,
        constant(50_000),
        pareto(90_000, 2_000_000_000),
        # Heavy jitter: reorders replies and lands packets inside install windows.
        pareto(3 * MS, 9 * MS**2),
    ]
)
LOOKUP = st.sampled_from([constant(100_000), pareto(200_000, 10**10), lognormal(150_000, 0.5)])
INSTALL = st.sampled_from([lognormal(4_500_000, 0.6), lognormal(800_000, 0.7), pareto(2 * MS, 10**12)])
GAPS = [0, 0, 100_000, 3 * MS, 50 * MS, S, 6 * S]
FIRST = gpd(GPDParams(shape=-0.3, scale=5.0, location=0.5))
FOLLOWUP = gpd(GPDParams(shape=-0.5, scale=1.0, location=0.2))
FITTED = DelayElementConfig(first_delay=FIRST, followup_delay=FOLLOWUP)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 3))
    bps = draw(st.sampled_from([100_000_000, 1_000_000_000]))

    def links(n):
        return tuple(
            LinkSpec(bps, draw(st.sampled_from([0, 20_000])), draw(CROSS)) for _ in range(n)
        )

    forward = links(draw(st.integers(k + 1, k + 2)))
    switches = tuple(
        SwitchSpec(draw(INSTALL), draw(st.sampled_from([0, 1, 1024]))) for _ in range(k)
    )
    element = None
    if draw(st.booleans()):
        t_th, window = draw(st.sampled_from([(5 * S, 100 * MS), (500 * MS, 1 * MS), (2 * S, 400 * MS)]))
        element = replace(draw(st.sampled_from([DelayElementConfig(), FITTED])), t_th_ns=t_th, window_ns=window)
    path = PathSpec(
        forward,
        links(draw(st.integers(1, 3))),
        switches,
        element,
        drift=draw(st.sampled_from([None, DriftModel(150_000.0), DriftModel(2e6, base_ns=0)])),
        reply_bytes=draw(st.sampled_from([64, 200])),
        turnaround_ns=draw(st.sampled_from([0, 50_000])),
        lookup_delay=draw(LOOKUP),
        clear_delay_ns=draw(st.sampled_from([0, 10 * MS, 1_500 * MS])),
    )

    mtu = draw(st.sampled_from([64, 1500]))
    spacing = draw(st.sampled_from([0, 120_000, 3 * MS]))
    layout = draw(st.sampled_from(["train", "stretched", "idle", "burst"]))
    if layout == "train":
        schedule = build_probe_train(KEY, mtu, spacing)
    elif layout == "stretched":
        schedule = build_probe_train(KEY, mtu, spacing, single_gap_ns=600 * S)
    elif layout == "idle":
        schedule = idle_flow_probes(KEY, mtu, draw(st.sampled_from([S, 600 * S])))
    else:
        # Free-form single-flow traffic: back-to-back bursts, CLEARs landing
        # mid-burst, and gaps on both sides of the inactivity threshold.
        steps = draw(st.lists(st.tuples(st.sampled_from(GAPS), st.booleans()), min_size=2, max_size=10))
        packets, t = [], 0
        for pid, (gap, clear) in enumerate(steps):
            t += gap
            packets.append(Packet(pid, KEY, 64 if clear else mtu, CLEAR if clear else PROBE, t))
        schedule = tuple(packets)
    kwargs = dict(
        seed=draw(st.integers(0, 2**32)),
        group=draw(st.integers(0, 1)),
        warm=draw(st.booleans()),
    )
    trials = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=8, unique=True))
    return schedule, path, trials, kwargs


def test_block_draws_equal_scalar_draws():
    # The premise of drawing the cross and drift streams as blocks.
    block, scalar = np.random.default_rng(3), np.random.default_rng(3)
    assert block.random(500).tolist() == [scalar.random() for _ in range(500)]
    assert block.standard_normal(500).tolist() == [scalar.standard_normal() for _ in range(500)]


@pytest.mark.parametrize(
    "model",
    [
        pareto(90_000, 2_000_000_000),
        pareto(3 * MS, 9 * MS**2),
        lognormal(4_500_000, 0.6),
        lognormal(800_000, 0.7),
        lognormal(150_000, 0.5),
        gpd(TABLE4_DELTA_RTT),
        gpd(TABLE4_DISPERSION),
        FIRST,
        FOLLOWUP,
        # |shape| < 1e-9: the quantile's log1p limit.
        gpd(GPDParams(5e-10, 2.0, 0.3)),
        gpd(GPDParams(-5e-10, 0.5, 0.0)),
        # |shape| just above it: (p - 1) / xi scales the power's last-ulp
        # difference by scale / |shape|, far beyond the hold's own ulps.
        gpd(GPDParams(-2e-9, 50.0, 0.3)),
    ],
    ids=[
        "pareto-90us", "pareto-3ms", "lognormal-4.5ms", "lognormal-800us", "lognormal-150us",
        "gpd-table4-rtt", "gpd-table4-dispersion", "gpd-first", "gpd-followup",
        "gpd-shape-zero-above", "gpd-shape-zero-below", "gpd-shape-near-zero",
    ],
)
def test_block_transform_equals_sample_ns(model):
    x = getattr(np.random.default_rng(11), model.draw_type)(50_000)
    scalar = np.random.default_rng(11)
    assert model.ns_from_draws(x).tolist() == [model.sample_ns(scalar) for _ in range(x.size)]


def test_block_transform_raises_beyond_int64():
    with pytest.raises(ValueError, match="int64"):
        pareto(10**12, 10**30).ns_from_draws(np.array([1.0 - 2.0**-53]))


def test_a_gpd_delay_needs_a_location_of_0_or_more():
    # A GPD's support starts at its location: below 0 a hold could be negative,
    # so the delay is refused as it is built, not mid-draw.
    with pytest.raises(ValueError, match=r"^location: a delay needs a location >= 0, got -0.383013$"):
        gpd(GPDParams(-0.411, 0.785, -0.383013))
    assert gpd(GPDParams(-0.411, 0.785, 0.0)).ns_from_draws(np.array([0.9, 0.0])).tolist() == [1168618, 0]


def test_rounding_guard_takes_the_scalar_formula_near_a_boundary_or_zero():
    values = np.array([1.0, 2.5 - 1e-9, 7.2, 4.5 + 1e-9, 1e-12, -1e-12, -3.0])
    assert ns_from_floats(values, lambda i: -1).tolist() == [1, -1, 7, -1, -1, -1, -1]
    with pytest.raises(ValueError, match="int64"):
        ns_from_floats(np.array([1.0, np.nan]), lambda i: 0)


def reference(schedule, path, trials, kwargs):
    return Trace.concat(run_schedule_reference(schedule, path, trial=trial, **kwargs) for trial in trials)


@given(cases())
def test_batched_engine_matches_scalar_reference(case):
    schedule, path, trials, kwargs = case
    batched = run_schedule(schedule, path, trials=trials, **kwargs)
    assert batched == reference(schedule, path, trials, kwargs)


def test_defended_builtins_match_scalar_reference():
    # The shipped calibration under the Table-4 element and a fitted one,
    # with enough trials for misses, holds and follow-up windows to vary.
    for name in ("k1-sw-100m", "k2-hw-100m", "k3-hw-1g"):
        for element in (DelayElementConfig(), FITTED):
            scenario = replace(builtin_scenarios()[name], defense=element)
            path = scenario.build_path()
            for schedule, warm, group in (
                (build_probe_train(DEFAULT_FLOW), False, 0),
                (idle_flow_probes(DEFAULT_FLOW, 1500, S), True, 1),
            ):
                kwargs = dict(seed=scenario.seed, group=group, warm=warm)
                trials = range(25)
                batched = run_schedule(schedule, path, trials=trials, **kwargs)
                assert batched == reference(schedule, path, trials, kwargs)


def test_pareto_control_delays_match_scalar_reference():
    # Pareto lookup and installs draw only random(), so `control` is drawn by
    # PCG64 over the trial axis like `cross` and `defense`, with no Generator.
    for name in ("k2-hw-100m", "k3-hw-1g"):
        scenario = replace(
            builtin_scenarios()[name],
            lookup_delay=pareto(200_000, 10**10),
            install_delay=pareto(2 * MS, 10**12),
            defense=DelayElementConfig(),
        )
        path = scenario.build_path()
        kwargs = dict(seed=scenario.seed, group=0, warm=False)
        trials = range(25)
        schedule = build_probe_train(DEFAULT_FLOW)
        batched = run_schedule(schedule, path, trials=trials, **kwargs)
        assert batched.miss_flag.any()
        assert batched == reference(schedule, path, trials, kwargs)


@given(cases())
def test_a_trials_rows_do_not_depend_on_the_trials_beside_it(case):
    schedule, path, trials, kwargs = case
    alone = Trace.concat(run_schedule(schedule, path, trials=[t], **kwargs) for t in trials)
    assert run_schedule(schedule, path, trials=trials, **kwargs) == alone


def pair_dispersions(scenario, installs):
    """(label, first member's RTT, dispersion) of each probe pair of the
    scenario's trains, times in ns, with switch i installing in installs[i]
    and the scenario's seed."""
    path = scenario.build_path()
    path = replace(path, switches=tuple(replace(sw, install_delay=d) for sw, d in zip(path.switches, installs)))
    train = build_probe_train(DEFAULT_FLOW, scenario.mtu_bytes, scenario.pair_spacing_ns, scenario.time_span_ns)
    trace = run_schedule(train, path, scenario.seed, trials=range(scenario.trains))
    first, second, _ = group_probes(trace)
    recv = trace.client_recv_ns
    return pair_labels(trace, first, second), recv[first] - trace.client_send_ns[first], recv[second] - recv[first]


@pytest.mark.parametrize("name", list(builtin_scenarios()))
def test_a_slower_install_lengthens_y_pairs_and_leaves_n_pairs_alone(name):
    # The miss charge is the lookup plus the slowest switch's install (Eq. 2),
    # and only a pair that triggered a miss pays it.
    scenario = builtin_scenarios()[name]
    install = scenario.build_path().switches[0].install_delay
    raised = replace(install, median_ns=install.median_ns * 4 // 3)
    fast = constant(100_000)  # below every draw of `install`: switch 0 is always the slowest
    k = scenario.k
    for before, after in [
        ([install] * k, [raised] * k),  # every switch slower
        ([install] + [fast] * (k - 1), [raised] + [fast] * (k - 1)),  # only the slowest switch slower
    ]:
        assert_only_y_pairs_lengthen(pair_dispersions(scenario, before), pair_dispersions(scenario, after))


@pytest.mark.parametrize("name", list(builtin_scenarios()))
def test_a_slower_lookup_lengthens_y_pairs_and_leaves_n_pairs_alone(name):
    # A miss pays the controller's lookup once, on top of the slowest install
    # (Eq. 2); a constant lookup draws nothing, so every other delay stays.
    scenario = builtin_scenarios()[name]
    assert scenario.lookup_delay == constant(100_000)
    installs = [scenario.build_path().switches[0].install_delay] * scenario.k
    slower = replace(scenario, lookup_delay=constant(200_000))
    assert_only_y_pairs_lengthen(pair_dispersions(scenario, installs), pair_dispersions(slower, installs))


def assert_only_y_pairs_lengthen(before, after):
    """Pair by pair: every N pair keeps its dispersion.  A Y pair's first member
    pays the raised charge, so its RTT rises; the pair then keeps its
    dispersion (its second member did not queue behind the charge) or
    lengthens by at least that rise (by exactly it when the second member
    queued behind the charge in both runs).  And one Y pair lengthens."""
    (labels, rtt_before, disp_before), (labels_after, rtt_after, disp_after) = before, after
    assert (labels_after == labels).all()
    n, y = labels == "N", labels == "Y"
    assert (disp_after[n] == disp_before[n]).all()
    rise, lengthening = (rtt_after - rtt_before)[y], (disp_after - disp_before)[y]
    assert (rise > 0).all()
    assert ((lengthening == 0) | (lengthening >= rise)).all()
    assert (lengthening > 0).any()


@given(cases())
def test_engine_timestamps_are_ordered_within_each_trial(case):
    # Without drift the last forward link is FIFO and replies only add delay.
    schedule, path, trials, kwargs = case
    trace = run_schedule(schedule, replace(path, drift=None), trials=trials, **kwargs)
    recv = trace.server_recv_ns.reshape(len(trials), -1)
    assert (np.diff(recv, axis=1) >= 0).all()
    assert (trace.client_recv_ns >= trace.server_recv_ns).all()
    assert (trace.server_recv_ns >= trace.client_send_ns).all()


# (lookup, install): installs that draw standard_normal(), a pair that draws random(), and a mix.
CHARGES = [
    (constant(100_000), lognormal(4_500_000, 0.6)),
    (pareto(200_000, 10**10), pareto(2 * MS, 10**12)),
    (pareto(200_000, 10**10), lognormal(4_500_000, 0.6)),
]


@pytest.mark.parametrize("lookup, install", CHARGES, ids=["standard_normal", "random", "mixed"])
def test_capacity_zero_misses_at_every_switch_match_scalar_reference(lookup, install):
    # No switch can hold a rule, so every probe misses at all three switches:
    # the control block must hold n_packets x k misses, and with mixed draw
    # types each row cycles through the lookup's method, then the installs'.
    link = LinkSpec(100_000_000)
    switches = (SwitchSpec(install, table_capacity=0),) * 3
    path = PathSpec((link,) * 4, (link,), switches, DelayElementConfig(), lookup_delay=lookup)
    schedule = build_probe_train(KEY)
    kwargs = dict(seed=7, group=0, warm=False)
    trials = range(4)
    batched = run_schedule(schedule, path, trials=trials, **kwargs)
    assert batched == reference(schedule, path, trials, kwargs)
    probes = batched.kind == PROBE
    assert batched.miss_flag[probes].all() and batched.table_full[probes].all()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("clears", [0, 1, 2])
@pytest.mark.parametrize("lookup, install", CHARGES, ids=["standard_normal", "random", "mixed"])
def test_the_control_block_holds_the_misses_a_trial_can_have(monkeypatch, lookup, install, clears, warm):
    # A probe 1 s after each CLEAR misses, and so does the first probe of a
    # cold schedule: every trial has exactly as many misses as the block holds,
    # once if it starts cold plus once per CLEAR, of one value per drawn model.
    import sdnfp.netsim as netsim

    sizes = {}
    block = netsim.TrialStreams.block

    def recorded(self, name, methods, n):
        sizes[name] = n
        return block(self, name, methods, n)

    monkeypatch.setattr(netsim.TrialStreams, "block", recorded)
    link = LinkSpec(100_000_000)
    path = PathSpec((link,) * 3, (link,), (SwitchSpec(install),) * 2, lookup_delay=lookup)
    sends = [(S, PROBE)]
    for c in range(clears):
        sends += [((2 * c + 2) * S, CLEAR), ((2 * c + 3) * S, PROBE)]
    schedule = tuple(Packet(pid, KEY, 64 if kind == CLEAR else 1500, kind, t) for pid, (t, kind) in enumerate(sends))
    kwargs = dict(seed=7, group=0, warm=warm)
    trials = range(5)
    batched = run_schedule(schedule, path, trials=trials, **kwargs)
    assert batched == reference(schedule, path, trials, kwargs)
    misses = (not warm) + clears
    assert batched.miss_flag.reshape(len(trials), -1).sum(axis=1).tolist() == [misses] * len(trials)
    d = sum(m.draw_type is not None for m in (lookup, *(sw.install_delay for sw in path.switches)))
    assert sizes.get("control", 0) == misses * d


def test_one_flow_per_schedule_is_the_batched_engines_rule():
    # The batched engine keeps one flow's rules per trial; the scalar model
    # runs any packets, and each row keeps the flow of its own packet.
    other = FlowKey("10.0.0.3", "10.0.1.2")
    schedule = (Packet(0, KEY, 1500, PROBE, S), Packet(1, other, 1500, PROBE, 2 * S))
    path = _constant_path()
    with pytest.raises(ValueError, match="the batched engine runs one flow per schedule"):
        run_schedule(schedule, path, 1)
    for warm in (False, True):
        trace = run_schedule_reference(schedule, path, 1, warm=warm)
        assert trace.flow.tolist() == [KEY.compact(), other.compact()]
        assert trace.miss_flag.tolist() == [not warm] * 2


def _constant_path(element=None, **controller):
    # One switch, no cross traffic: 1500 B take 120 us per link, a miss costs 3 ms.
    switch = SwitchSpec(constant(2_900_000))
    link = LinkSpec(100_000_000)
    return PathSpec((link, link), (link,), (switch,), element, lookup_delay=constant(100_000), **controller)


def _probes(*sends, clear_at=None):
    packets = [Packet(0, KEY, 64, CLEAR, 0)] if clear_at is None else []
    for pid, t in enumerate(sends, start=len(packets)):
        kind = CLEAR if t == clear_at else PROBE
        packets.append(Packet(pid, KEY, 64 if kind == CLEAR else 1500, kind, t))
    return tuple(packets)


def test_exact_boundaries_match_scalar_reference():
    cases = [
        # The third probe reaches the switch exactly when the install window
        # closes, and is held behind the second one, which paid the surcharge.
        (_constant_path(), _probes(S, S, S + 3 * MS), False),
        # A pending CLEAR comes due exactly when the probe reaches the switch.
        (_constant_path(clear_delay_ns=S + 120_000 - 5_120), _probes(S, S), True),
        # Deleting the rules deletes the flow's activity record: the miss after
        # the CLEAR opens a fresh follow-up window that holds the next probe.
        # The last probe comes exactly the inactivity threshold after it.
        (
            _constant_path(DelayElementConfig(), clear_delay_ns=0),
            _probes(S, 1_200 * MS, 1_300 * MS, 1_350 * MS, 6_350 * MS, clear_at=1_200 * MS),
            True,
        ),
        # The second probe reaches the switch exactly when the follow-up window
        # the first one opened closes (by a miss cold, by a hold warm), and
        # passes the element untouched.
        *[(_constant_path(DelayElementConfig()), _probes(S, S + DEFAULT_WINDOW_NS), warm) for warm in (False, True)],
        # At this send time numpy's sqrt and Python's `** 0.5` differ in the
        # last bit of the drift step; a walk this wide turns that bit into
        # hundreds of ns.
        (replace(_constant_path(), drift=DriftModel(1e17, base_ns=0)), _probes(554_749_700_444), False),
    ]
    for path, schedule, warm in cases:
        kwargs = dict(seed=5, group=0, warm=warm)
        trials = range(3)
        assert run_schedule(schedule, path, trials=trials, **kwargs) == reference(schedule, path, trials, kwargs)


def test_drift_walk_keeps_its_clock_on_an_out_of_order_schedule():
    # The walk steps only when a send time passes every earlier one, by the
    # time since the latest of them: the packets sent at 1 s and at 2 s + 5 ns
    # take no step, and the one at 3 s steps by 1 s.
    link = LinkSpec(100_000_000, 0, pareto(90_000, 2_000_000_000))
    path = PathSpec((link, link), (link,), (SwitchSpec(constant(5 * MS)),), drift=DriftModel(2e6, base_ns=0))
    sends = (2 * S, S, S, 3 * S, 2 * S + 5)
    schedule = tuple(Packet(pid, KEY, 1500, PROBE, t) for pid, t in enumerate(sends))
    kwargs = dict(seed=7, group=0, warm=False)
    trials = [0, 5, 9]
    assert run_schedule(schedule, path, trials=trials, **kwargs) == reference(schedule, path, trials, kwargs)
