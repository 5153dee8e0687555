"""Bucket selection, delay element semantics, and defense-level properties."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import genpareto

from sdnfp.defense import (
    FIRST,
    FOLLOWUP,
    DelayElementConfig,
    TABLE4_DELTA_RTT,
    TABLE4_DISPERSION,
    delay_for,
    select_bucket,
)
from sdnfp.distributions import GPDParams, constant, gpd, lognormal, pareto
from sdnfp.netsim import (
    FlowKey,
    LinkSpec,
    Packet,
    PathSpec,
    SwitchSpec,
)
from sdnfp.probes import run_schedule
from sdnfp.scenario import ConfigError, scenario_from_config
from sdnfp.stats import fit_gpd

from gpd_sampler import gpd_sample
from paths import uniform_path

S = 1_000_000_000
MS = 1_000_000
KEY = FlowKey("10.0.0.2", "10.0.1.2")
CFG = DelayElementConfig()


def support_upper(params):
    """Upper end of a GPD's support, in ms: mu - sigma/xi for xi < 0, else inf."""
    return genpareto.support(params.shape, params.location, params.scale)[1]


def defended_path(install_ns=5 * MS, cfg=CFG):
    sw = SwitchSpec(constant(install_ns))
    path = uniform_path(4, 4, 100_000_000, (sw,))
    return replace(path, delay_element=cfg)


def test_first_ever_packet_delayed():
    activity = {}
    decision = select_bucket(KEY, 0, activity, CFG)
    assert decision.bucket == "delayed" and decision.position == "first"


def test_followup_within_window_delayed():
    activity = {}
    select_bucket(KEY, 0, activity, CFG)
    decision = select_bucket(KEY, 50 * MS, activity, CFG)
    assert decision.bucket == "delayed" and decision.position == "followup"


def test_steady_one_second_spacing_fast():
    activity = {}
    select_bucket(KEY, 0, activity, CFG)
    for i in range(1, 10):
        decision = select_bucket(KEY, i * S, activity, CFG)
        assert decision.bucket == "fast"


def test_inactivity_reopens_window():
    activity = {}
    select_bucket(KEY, 0, activity, CFG)
    decision = select_bucket(KEY, 6 * S, activity, CFG)  # idle > t_th = 5 s
    assert decision.position == "first"
    assert activity.get(KEY).window_until_ns == 6 * S + CFG.window_ns


def test_config_ordering_invariant():
    with pytest.raises(ValueError):
        DelayElementConfig(t_th_ns=50 * MS, window_ns=100 * MS)


@pytest.mark.parametrize("hold", [constant(MS), lognormal(MS, 0.5)])
def test_a_hold_that_is_not_a_gpd_is_refused(hold):
    # The engine draws the defense stream with random() alone.
    with pytest.raises(ValueError, match="gpd"):
        DelayElementConfig(followup_delay=hold)


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


def test_a_path_with_no_switch_refuses_the_delay_element():
    path = uniform_path(2, 2, 100_000_000)
    with pytest.raises(ValueError, match="needs at least one switch"):
        replace(path, delay_element=CFG)


def test_a_defended_path_built_with_no_switch_is_refused():
    link = LinkSpec(100_000_000)
    with pytest.raises(ValueError, match="needs at least one switch"):
        PathSpec((link, link), (link, link), (), CFG)


def run(path, *packets, seed, warm=False):
    """The packets as one trial of the engine; a Trace, one row per packet."""
    return run_schedule(packets, path, seed, warm=warm)


def rtt(trace):
    return trace.client_recv_ns - trace.client_send_ns


def test_warm_active_flow_identical_timing():
    # The defended flow's first packet opens its 100 ms follow-up window; each
    # later packet comes while the flow is active and from two windows after
    # it, so it passes the element untouched.  Sent one window after it, a
    # packet with a smaller first-link delay than the opener's lands inside
    # the window and is held.
    cross = pareto(90_000, 2_000_000_000)
    packets = [Packet(i, KEY, 1500, sent_at_ns=(i + 1) * 100 * MS if i else 0) for i in range(2_001)]

    def client_recv(defended):
        sw = SwitchSpec(lognormal(4_500_000, 0.6))
        path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
        if defended:
            path = replace(path, delay_element=CFG)
        return run(path, *packets, seed=99, warm=True).client_recv_ns[1:].tolist()

    assert client_recv(False) == client_recv(True)


def test_cold_flow_without_miss_still_delayed():
    # Rules pre-installed, activity cold: the element mimics an install.
    defended = run(defended_path(), Packet(0, KEY, 1500, sent_at_ns=0), seed=1, warm=True)
    plain_path = uniform_path(4, 4, 100_000_000, (SwitchSpec(constant(5 * MS)),))
    plain = run(plain_path, Packet(0, KEY, 1500, sent_at_ns=0), seed=1, warm=True)
    assert not defended.miss_flag[0]
    extra_ms = (rtt(defended)[0] - rtt(plain)[0]) / MS
    assert TABLE4_DELTA_RTT.location <= extra_ms <= support_upper(TABLE4_DELTA_RTT)


def test_miss_packet_pays_install_not_element():
    # The install-triggering packet goes to the controller and is not also
    # held by the element; with constant delays this is exact.
    res = run(defended_path(install_ns=5 * MS), Packet(0, KEY, 1500, sent_at_ns=0), seed=2)
    quiet = run(uniform_path(4, 4, 100_000_000), Packet(0, KEY, 1500, sent_at_ns=0), seed=2)
    assert res.miss_flag[0]
    assert rtt(res)[0] == rtt(quiet)[0] + 5 * MS


def test_in_flow_ordering_preserved():
    # A huge first delay followed by a small followup delay must not reorder.
    big = GPDParams(shape=-0.5, scale=0.002, location=15.0)
    small = GPDParams(shape=-0.5, scale=0.002, location=0.05)
    cfg = DelayElementConfig(first_delay=gpd(big), followup_delay=gpd(small))
    trace = run(
        defended_path(cfg=cfg),
        Packet(0, KEY, 1500, sent_at_ns=0),
        Packet(1, KEY, 1500, sent_at_ns=120_000),
        seed=3,
        warm=True,
    )
    assert trace.server_recv_ns[1] > trace.server_recv_ns[0]
    assert trace.client_recv_ns[1] > trace.client_recv_ns[0]


def test_bounded_overhead():
    packets = [Packet(i, KEY, 1500, sent_at_ns=i * 10 * S) for i in range(50)]  # idle gaps
    trace = run(defended_path(), *packets, seed=4, warm=True)
    quiet = run(uniform_path(4, 4, 100_000_000), Packet(0, KEY, 1500, sent_at_ns=0), seed=4)
    bound_ms = support_upper(TABLE4_DELTA_RTT)
    extra = (rtt(trace) - rtt(quiet)[0]) / MS
    assert (extra <= bound_ms + 1e-6).all()


def test_element_from_fitted_params():
    rng = np.random.default_rng(5)
    y_population = gpd_sample(TABLE4_DELTA_RTT, rng, 2_000)
    fit, ks = fit_gpd(y_population)
    cfg = DelayElementConfig(first_delay=gpd(fit), followup_delay=gpd(TABLE4_DISPERSION))
    assert cfg.first_delay.gpd == fit
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
    st.lists(GPD_ENTRY, min_size=2, max_size=2),
    st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=10),
)
def test_every_accepted_delay_element_holds_for_non_negative_time(entries, draws):
    first, followup = entries
    defense = {"first_delay": first, "followup_delay": followup}
    try:
        element = scenario_from_config({"name": "lab", "seed": 1, "defense": defense}).defense
    except ConfigError as exc:
        assert "location_ms" in str(exc) and min(e["location_ms"] for e in entries) < 0
        return
    for u in draws:
        for position in (FIRST, FOLLOWUP):
            assert delay_for(position, element, _Draw(u)) >= 0


@given(
    st.floats(-2, 2) | st.floats(-1e-9, 1e-9),
    st.floats(0, 5),
    st.lists(st.floats(1e-3, 50), min_size=2, max_size=2),
    # Below 0.999, so that a shape-2 hold stays within the int64 nanosecond range.
    st.lists(st.floats(0, 0.999), min_size=1, max_size=20),
)
def test_a_larger_gpd_scale_never_shortens_a_hold(shape, location_ms, scales_ms, draws):
    # The quantile is mu + sigma * g(u) with g(u) >= 0, and half-up rounding
    # keeps the order, so at fixed draws each hold grows or stays.  This is
    # the hold-level statement only: a longer first hold can shorten a
    # dispersion.
    u = np.array(draws)
    short, long = (gpd(GPDParams(shape, scale, location_ms)).ns_from_draws(u) for scale in sorted(scales_ms))
    assert np.all(short <= long)
