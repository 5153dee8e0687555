"""Library guards no pipeline input reaches: the layer above each one refuses
the same input first, or never passes it.  Each call is refused with its own
full message."""

import numpy as np
import pytest

from sdnfp.distributions import DelayModel, GPDParams, gpd_quantile
from sdnfp.netsim import FlowKey, Packet, TrialStreams, simulate_trials, spawn_state
from sdnfp.probes import Trace, extract_passive_pairs
from sdnfp.scenario import emit_report
from sdnfp.stats import Histogram, build_histogram
from sdnfp.units import ns_from_float

from paths import uniform_path

EMPTY_TRACE = Trace(*([] for _ in Trace.columns()))

GUARDS = {
    "gpd_quantile_u_of_1": (lambda: gpd_quantile(1.0, GPDParams(0.1, 1.0, 0.0)), "u must lie in [0, 1)"),
    "delay_kind_unknown": (lambda: DelayModel(kind="weibull"), "unknown delay kind 'weibull'"),
    "gpd_delay_without_params": (lambda: DelayModel(kind="gpd"), "gpd delay needs its GPDParams"),
    "packet_of_no_bytes": (lambda: Packet(0, FlowKey("a", "b"), 0), "size_bytes: must be positive"),
    "spawn_state_2d_trials": (
        lambda: spawn_state(1, 0, np.zeros((2, 2), np.int64), 0), "trials must be a 1-d array of integers"
    ),
    "simulate_no_packets": (
        lambda: simulate_trials(uniform_path(1, 1, 10**8), (), TrialStreams(1, range(2))),
        "need at least one packet and one trial",
    ),
    "table_columns_of_two_lengths": (
        lambda: Histogram([0.0, 0.1], [1], [1.0]), "every column must have one entry per row"
    ),
    "passive_window_of_0": (lambda: extract_passive_pairs(EMPTY_TRACE, 0), "window must be positive"),
    "report_of_no_run": (lambda: emit_report([], "unused"), "need at least one run"),
    "histogram_bin_width_0": (lambda: build_histogram(np.array([1.0]), 0.0), "bin width must be positive"),
    "negative_duration": (lambda: ns_from_float(-1.0), "negative duration"),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS)
def test_a_library_guard_refuses_its_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
