"""The trial-batched engine against the scalar reference model, row for row."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdnfp.defense import FIRST as FIRST_PACKET
from sdnfp.defense import FOLLOWUP as FOLLOWUP_PACKET
from sdnfp.defense import DelayElementConfig, delay_for, delays_from_uniform
from sdnfp.distributions import NO_DELAY, constant, lognormal, ns_from_floats, pareto
from sdnfp.netsim import (
    CLEAR,
    PROBE,
    ControllerSpec,
    DriftModel,
    FlowKey,
    LinkSpec,
    Packet,
    PathSpec,
    SwitchSpec,
)
from sdnfp.probes import (
    ProbeSchedule,
    Trace,
    build_probe_train,
    idle_flow_probes,
    run_schedule,
    run_schedule_reference,
)
from sdnfp.scenario import DEFAULT_FLOW, builtin_scenarios
from sdnfp.stats import GPDParams

MS = 1_000_000
S = 1_000_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")

CROSS = st.sampled_from(
    [
        None,
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
FIRST = GPDParams(shape=-0.3, scale=5.0, location=0.5)
FOLLOWUP = GPDParams(shape=-0.5, scale=1.0, location=0.2)


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
        SwitchSpec(f"s{i}", "hardware", draw(INSTALL), draw(st.sampled_from([0, 1, 1024])))
        for i in range(draw(st.integers(k, len(forward) - 1)))
    )
    element = None
    if draw(st.booleans()):
        t_th, window = draw(st.sampled_from([(5 * S, 100 * MS), (500 * MS, 1 * MS), (2 * S, 400 * MS)]))
        per_k = draw(st.sampled_from([None, {k: (FIRST, FOLLOWUP)}, {k + 1: (FIRST, FOLLOWUP)}]))
        element = DelayElementConfig(t_th_ns=t_th, window_ns=window, per_k=per_k)
    path = PathSpec(forward, links(draw(st.integers(1, 3))), switches, k, element)
    controller = ControllerSpec(
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
        schedule = ProbeSchedule(packets=tuple(packets), flow=KEY)
    kwargs = dict(
        seed=draw(st.integers(0, 2**32)),
        group=draw(st.integers(0, 1)),
        warm=draw(st.booleans()),
        drift=draw(st.sampled_from([None, DriftModel(150_000.0), DriftModel(2e6, base_ns=0)])),
        reply_bytes=draw(st.sampled_from([64, 200])),
        turnaround_ns=draw(st.sampled_from([0, 50_000])),
    )
    trials = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=8, unique=True))
    return schedule, path, controller, trials, kwargs


def test_block_draws_equal_scalar_draws():
    # The premise of drawing the cross and drift streams as blocks.
    block, scalar = np.random.default_rng(3), np.random.default_rng(3)
    assert block.random(500).tolist() == [scalar.random() for _ in range(500)]
    assert block.standard_normal(500).tolist() == [scalar.standard_normal() for _ in range(500)]


def test_pareto_block_transform_equals_sample_ns():
    for model in (
        pareto(90_000, 2_000_000_000),
        pareto(3 * MS, 9 * MS**2),
    ):
        u = np.random.default_rng(11).random(50_000)
        scalar = np.random.default_rng(11)
        expected = [model.sample_ns(scalar) for _ in range(u.size)]
        assert model.ns_from_draws(u).tolist() == expected
    with pytest.raises(ValueError):
        pareto(10**12, 10**30).ns_from_draws(np.array([1.0 - 2.0**-53]))


def test_lognormal_block_transform_equals_sample_ns():
    for model in (lognormal(4_500_000, 0.6), lognormal(800_000, 0.7), lognormal(150_000, 0.5)):
        z = np.random.default_rng(11).standard_normal(50_000)
        scalar = np.random.default_rng(11)
        expected = [model.sample_ns(scalar) for _ in range(z.size)]
        assert model.ns_from_draws(z).tolist() == expected


@pytest.mark.parametrize(
    "element, k",
    [
        (DelayElementConfig(), None),  # the two Table-4 GPDs
        (DelayElementConfig(per_k={2: (FIRST, FOLLOWUP)}), 2),
        # |shape| < 1e-9: the quantile's log1p limit.
        (DelayElementConfig(first_delay=GPDParams(5e-10, 2.0, 0.3), followup_delay=GPDParams(-5e-10, 0.5, 0.0)), None),
    ],
    ids=["table4", "per_k", "shape_zero"],
)
def test_hold_block_transform_equals_delay_for(element, k):
    for position in (FIRST_PACKET, FOLLOWUP_PACKET):
        u = np.random.default_rng(11).random(50_000)
        scalar = np.random.default_rng(11)
        expected = [delay_for(position, element, scalar, k=k) for _ in range(u.size)]
        assert delays_from_uniform(position, element, u, k=k).tolist() == expected


def test_hold_block_transform_raises_on_a_negative_hold():
    element = DelayElementConfig(followup_delay=GPDParams(-0.411, 0.785, -0.383013))
    with pytest.raises(ValueError, match="negative duration"):
        delays_from_uniform(FOLLOWUP_PACKET, element, np.array([0.9, 0.0]))


def test_rounding_guard_takes_the_scalar_formula_near_a_boundary_or_zero():
    values = np.array([1.0, 2.5 - 1e-9, 7.2, 4.5 + 1e-9, 1e-12, -1e-12, -3.0])
    assert ns_from_floats(values, lambda i: -1).tolist() == [1, -1, 7, -1, -1, -1, -1]
    with pytest.raises(ValueError, match="int64"):
        ns_from_floats(np.array([1.0, np.nan]), lambda i: 0)


def reference(schedule, path, controller, trials, kwargs):
    return Trace.concat(
        run_schedule_reference(schedule, path, controller, trial=trial, **kwargs)
        for trial in trials
    )


@given(cases())
def test_batched_engine_matches_scalar_reference(case):
    schedule, path, controller, trials, kwargs = case
    batched = run_schedule(schedule, path, controller, trials=trials, **kwargs)
    assert batched == reference(schedule, path, controller, trials, kwargs)


def test_defended_builtins_match_scalar_reference():
    # The shipped calibration under the Table-4 element and a per-k variant,
    # with enough trials for misses, holds and follow-up windows to vary.
    per_k = {2: (FIRST, FOLLOWUP)}
    for name in ("k1-sw-100m", "k2-hw-100m", "k3-hw-1g"):
        for element in (DelayElementConfig(), DelayElementConfig(per_k=per_k)):
            scenario = replace(builtin_scenarios()[name], defense=element)
            path, controller = scenario.build_path(), scenario.build_controller()
            for schedule, warm, group in (
                (build_probe_train(DEFAULT_FLOW), False, 0),
                (idle_flow_probes(DEFAULT_FLOW, 1500, S), True, 1),
            ):
                kwargs = dict(seed=scenario.seed, group=group, warm=warm)
                trials = range(25)
                assert run_schedule(
                    schedule, path, controller, trials=trials, **kwargs
                ) == reference(schedule, path, controller, trials, kwargs)


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
        path, controller = scenario.build_path(), scenario.build_controller()
        kwargs = dict(seed=scenario.seed, group=0, warm=False)
        trials = range(25)
        schedule = build_probe_train(DEFAULT_FLOW)
        batched = run_schedule(schedule, path, controller, trials=trials, **kwargs)
        assert batched.miss_flag.any()
        assert batched == reference(schedule, path, controller, trials, kwargs)


@given(cases())
def test_engine_timestamps_are_ordered_within_each_trial(case):
    # Without drift the last forward link is FIFO and replies only add delay.
    schedule, path, controller, trials, kwargs = case
    trace = run_schedule(schedule, path, controller, trials=trials, **dict(kwargs, drift=None))
    recv = trace.server_recv_ns.reshape(len(trials), -1)
    assert (np.diff(recv, axis=1) >= 0).all()
    assert (trace.client_recv_ns >= trace.server_recv_ns).all()
    assert (trace.server_recv_ns >= trace.client_send_ns).all()


@pytest.mark.parametrize(
    "lookup, install",
    [(constant(100_000), lognormal(4_500_000, 0.6)), (pareto(200_000, 10**10), pareto(2 * MS, 10**12))],
    ids=["standard_normal", "random"],
)
def test_capacity_zero_misses_at_every_switch_match_scalar_reference(lookup, install):
    # No switch can hold a rule, so every probe misses at all three configured
    # switches: the control block must hold n_packets x k draws per model.
    link = LinkSpec(100_000_000)
    switches = tuple(SwitchSpec(f"s{i}", "hardware", install, table_capacity=0) for i in range(3))
    path = PathSpec((link,) * 4, (link,), switches, 3, DelayElementConfig())
    controller = ControllerSpec(lookup_delay=lookup)
    schedule = build_probe_train(KEY)
    kwargs = dict(seed=7, group=0, warm=False)
    trials = range(4)
    batched = run_schedule(schedule, path, controller, trials=trials, **kwargs)
    assert batched == reference(schedule, path, controller, trials, kwargs)
    probes = batched.kind == PROBE
    assert batched.miss_flag[probes].all() and batched.table_full[probes].all()


def _constant_path(element=None):
    # One switch, no cross traffic: 1500 B take 120 us per link, a miss costs 3 ms.
    switch = SwitchSpec("s0", "hardware", constant(2_900_000))
    link = LinkSpec(100_000_000)
    return PathSpec((link, link), (link,), (switch,), 1, element)


def _probes(*sends, clear_at=None):
    packets = [Packet(0, KEY, 64, CLEAR, 0)] if clear_at is None else []
    for pid, t in enumerate(sends, start=len(packets)):
        kind = CLEAR if t == clear_at else PROBE
        packets.append(Packet(pid, KEY, 64 if kind == CLEAR else 1500, kind, t))
    return ProbeSchedule(packets=tuple(packets), flow=KEY)


def test_exact_boundaries_match_scalar_reference():
    lookup = ControllerSpec(lookup_delay=constant(100_000))
    cases = [
        # The third probe reaches the switch exactly when the install window
        # closes, and is held behind the second one, which paid the surcharge.
        (_constant_path(), lookup, _probes(S, S, S + 3 * MS), False),
        # A pending CLEAR comes due exactly when the probe reaches the switch.
        (
            _constant_path(),
            ControllerSpec(lookup_delay=constant(100_000), clear_delay_ns=S + 120_000 - 5_120),
            _probes(S, S),
            True,
        ),
        # Deleting the rules deletes the flow's activity record: the miss after
        # the CLEAR opens a fresh follow-up window that holds the next probe.
        # The last probe comes exactly the inactivity threshold after it.
        (
            _constant_path(DelayElementConfig()),
            ControllerSpec(lookup_delay=constant(100_000), clear_delay_ns=0),
            _probes(S, 1_200 * MS, 1_300 * MS, 1_350 * MS, 6_350 * MS, clear_at=1_200 * MS),
            True,
        ),
    ]
    for path, controller, schedule, warm in cases:
        kwargs = dict(seed=5, group=0, warm=warm)
        trials = range(3)
        assert run_schedule(
            schedule, path, controller, trials=trials, **kwargs
        ) == reference(schedule, path, controller, trials, kwargs)
