"""Bucket selection, delay element semantics, and defense-level properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import genpareto

from sdnfp.defense import (
    FIRST,
    FOLLOWUP,
    DelayElementConfig,
    FlowActivity,
    TABLE4_DELTA_RTT,
    TABLE4_DISPERSION,
    apply_delay_element,
    delay_for,
    select_bucket,
)
from sdnfp.distributions import constant, lognormal, pareto
from sdnfp.netsim import (
    ControllerSpec,
    FlowKey,
    Packet,
    RngStreams,
    Simulation,
    SwitchSpec,
    uniform_path,
)
from sdnfp.scenario import ConfigError, scenario_from_config
from sdnfp.stats import GPDParams, fit_gpd, gpd_sample

S = 1_000_000_000
MS = 1_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")
CFG = DelayElementConfig()


def support_upper(params):
    """Upper end of a GPD's support, in ms: mu - sigma/xi for xi < 0, else inf."""
    return genpareto.support(params.shape, params.location, params.scale)[1]


def defended_path(install_ns=5 * MS, cfg=CFG, cross=None, warm=False):
    sw = SwitchSpec("hw1", "hardware", constant(install_ns))
    path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
    return apply_delay_element(path, cfg)


def test_first_ever_packet_delayed():
    activity = FlowActivity()
    decision = select_bucket(KEY, 0, activity, CFG)
    assert decision.bucket == "delayed" and decision.position == "first"


def test_followup_within_window_delayed():
    activity = FlowActivity()
    select_bucket(KEY, 0, activity, CFG)
    decision = select_bucket(KEY, 50 * MS, activity, CFG)
    assert decision.bucket == "delayed" and decision.position == "followup"


def test_steady_one_second_spacing_fast():
    activity = FlowActivity()
    select_bucket(KEY, 0, activity, CFG)
    for i in range(1, 10):
        decision = select_bucket(KEY, i * S, activity, CFG)
        assert decision.bucket == "fast"


def test_inactivity_reopens_window():
    activity = FlowActivity()
    select_bucket(KEY, 0, activity, CFG)
    decision = select_bucket(KEY, 6 * S, activity, CFG)  # idle > t_th = 5 s
    assert decision.position == "first"
    assert activity.get(KEY).window_until_ns == 6 * S + CFG.window_ns


def test_config_ordering_invariant():
    with pytest.raises(ValueError):
        DelayElementConfig(t_th_ns=50 * MS, window_ns=100 * MS)


def test_delay_for_within_support():
    rng = np.random.default_rng(0)
    for _ in range(500):
        first = delay_for("first", CFG, rng) / MS
        follow = delay_for("followup", CFG, rng) / MS
        assert TABLE4_DELTA_RTT.location <= first <= support_upper(TABLE4_DELTA_RTT)
        assert TABLE4_DISPERSION.location <= follow <= support_upper(TABLE4_DISPERSION)


def test_delay_for_reproducible():
    a = [delay_for("first", CFG, np.random.default_rng(5)) for _ in range(1)]
    b = [delay_for("first", CFG, np.random.default_rng(5)) for _ in range(1)]
    assert a == b


def test_delay_for_per_k_override():
    tight = GPDParams(shape=-0.5, scale=0.001, location=42.0)
    cfg = DelayElementConfig(per_k={2: (tight, tight)})
    rng = np.random.default_rng(0)
    sample_k2 = delay_for("first", cfg, rng, k=2) / MS
    sample_k3 = delay_for("first", cfg, rng, k=3) / MS
    assert sample_k2 == pytest.approx(42.0, abs=0.01)
    assert sample_k3 > 0.5  # falls back to the reference parameters


def test_apply_delay_element_requires_switch():
    path = uniform_path(2, 2, 100_000_000)
    with pytest.raises(ValueError):
        apply_delay_element(path, CFG)


def test_warm_active_flow_identical_timing():
    cross = pareto(90_000, 2_000_000_000)

    def run(defended):
        sw = SwitchSpec("hw1", "hardware", lognormal(4_500_000, 0.6))
        path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
        if defended:
            path = apply_delay_element(path, CFG)
        sim = Simulation(
            path, ControllerSpec(), RngStreams(99), warm_keys=(KEY,), warm_activity=(KEY,)
        )
        return [
            sim.exchange(Packet(i, KEY, 1500, sent_at_ns=i * 100 * MS)).client_recv_ns
            for i in range(2_000)
        ]

    assert run(False) == run(True)


def test_cold_flow_without_miss_still_delayed():
    # Rules pre-installed, activity cold: the element mimics an install.
    path = defended_path()
    sim = Simulation(path, ControllerSpec(), RngStreams(1), warm_keys=(KEY,))
    defended = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    plain_path = uniform_path(4, 4, 100_000_000, (SwitchSpec("hw1", "hardware", constant(5 * MS)),))
    plain = Simulation(plain_path, ControllerSpec(), RngStreams(1), warm_keys=(KEY,)).exchange(
        Packet(0, KEY, 1500, sent_at_ns=0)
    )
    assert not defended.miss_flag
    extra_ms = (defended.rtt_ns - plain.rtt_ns) / MS
    assert TABLE4_DELTA_RTT.location <= extra_ms <= support_upper(TABLE4_DELTA_RTT)


def test_miss_packet_pays_install_not_element():
    # The install-triggering packet goes to the controller and is not also
    # held by the element; with constant delays this is exact.
    path = defended_path(install_ns=5 * MS)
    sim = Simulation(path, ControllerSpec(), RngStreams(2))
    res = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    base = uniform_path(4, 4, 100_000_000)
    quiet = Simulation(base, ControllerSpec(), RngStreams(2)).exchange(
        Packet(0, KEY, 1500, sent_at_ns=0)
    )
    assert res.miss_flag
    assert res.rtt_ns == quiet.rtt_ns + 5 * MS


def test_in_flow_ordering_preserved():
    # A huge first delay followed by a small followup delay must not reorder.
    big = GPDParams(shape=-0.5, scale=0.002, location=15.0)
    small = GPDParams(shape=-0.5, scale=0.002, location=0.05)
    cfg = DelayElementConfig(first_delay=big, followup_delay=small)
    path = defended_path(cfg=cfg)
    sim = Simulation(path, ControllerSpec(), RngStreams(3), warm_keys=(KEY,))
    r1 = sim.exchange(Packet(0, KEY, 1500, sent_at_ns=0))
    r2 = sim.exchange(Packet(1, KEY, 1500, sent_at_ns=120_000))
    assert r2.server_recv_ns > r1.server_recv_ns
    assert r2.client_recv_ns > r1.client_recv_ns


def test_bounded_overhead():
    path = defended_path()
    sim = Simulation(path, ControllerSpec(), RngStreams(4), warm_keys=(KEY,))
    base = uniform_path(4, 4, 100_000_000)
    quiet = Simulation(base, ControllerSpec(), RngStreams(4)).exchange(
        Packet(0, KEY, 1500, sent_at_ns=0)
    )
    bound_ms = support_upper(TABLE4_DELTA_RTT)
    for i in range(50):
        res = sim.exchange(Packet(i, KEY, 1500, sent_at_ns=i * 10 * S))  # idle gaps
        extra = (res.rtt_ns - quiet.rtt_ns) / MS
        assert extra <= bound_ms + 1e-6


def test_element_from_fitted_params():
    rng = np.random.default_rng(5)
    y_population = gpd_sample(TABLE4_DELTA_RTT, rng, 2_000)
    fit, ks = fit_gpd(y_population)
    cfg = DelayElementConfig(first_delay=fit, followup_delay=TABLE4_DISPERSION)
    assert cfg.first_delay == fit
    sample = delay_for("first", cfg, np.random.default_rng(0)) / MS
    assert fit.location <= sample <= support_upper(fit)


class _Draw:
    """A generator stand-in whose random() returns one given value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


GPD_ENTRY = st.fixed_dictionaries(
    {
        "shape": st.floats(-2, 2) | st.floats(-1e-9, 1e-9),
        "scale_ms": st.floats(1e-3, 50),
        "location_ms": st.floats(-5, 5) | st.just(0.0),
    }
)


@given(
    st.lists(GPD_ENTRY, min_size=4, max_size=4),
    st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=10),
)
def test_every_accepted_delay_element_holds_for_non_negative_time(entries, draws):
    first, followup, first_k2, followup_k2 = entries
    defense = {
        "first_delay": first,
        "followup_delay": followup,
        "per_k": {2: {"first_delay": first_k2, "followup_delay": followup_k2}},
    }
    try:
        element = scenario_from_config({"name": "lab", "seed": 1, "defense": defense}).defense
    except ConfigError as exc:
        assert "location_ms" in str(exc) and min(e["location_ms"] for e in entries) < 0
        return
    for u in draws:
        for position in (FIRST, FOLLOWUP):
            for k in (1, 2):
                assert delay_for(position, element, _Draw(u), k=k) >= 0
