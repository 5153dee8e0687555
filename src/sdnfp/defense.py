"""Group-table countermeasure: per-flow activity, bucket selection, delay element.

Packets of active flows pass untouched.  A flow with no packets for more than
t_th (or one the switch has no record of, e.g. right after its rules were
deleted) is inactive: its first packet is delayed by a sample from the
rule-install-shaped distribution, and every packet arriving within the next
window W by a sample from the dispersion-shaped one.  Packets that miss the
flow table are the controller's business and bypass the element, but they do
open the follow-up window, so the probes queued right behind a real install
are parked by the element instead of waiting out the installation.

Emission preserves per-flow order: a parked packet is never released before
an earlier packet of its flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ns_from_floats
from .stats import _XI_ZERO, GPDParams, gpd_quantile
from .units import NS_PER_MS, NS_PER_S, ns_from_float

# Delay-element distributions measured on the reference testbed (ms).
TABLE4_DELTA_RTT = GPDParams(shape=-0.53, scale=10.58, location=0.57)
TABLE4_DISPERSION = GPDParams(shape=-0.60, scale=2.86, location=0.45)

DEFAULT_T_TH_NS = 5 * NS_PER_S
DEFAULT_WINDOW_NS = 100 * NS_PER_MS

FAST = "fast"
DELAYED = "delayed"
FIRST = "first"
FOLLOWUP = "followup"


@dataclass
class ActivityRecord:
    last_seen_ns: int
    window_until_ns: int


@dataclass(frozen=True)
class BucketDecision:
    bucket: str  # fast | delayed
    position: str | None  # first | followup when delayed


@dataclass(frozen=True)
class DelayElementConfig:
    t_th_ns: int = DEFAULT_T_TH_NS
    window_ns: int = DEFAULT_WINDOW_NS
    # Table 4's GPDs; fine-grained mode fits both to the install timing of the
    # scenario's own k (`sdnfp defend --first-delay --followup-delay`).
    first_delay: GPDParams = TABLE4_DELTA_RTT
    followup_delay: GPDParams = TABLE4_DISPERSION

    def __post_init__(self):
        if not self.t_th_ns > self.window_ns > 0:
            raise ValueError("need t_th > window > 0")

    def params_for(self, position: str) -> GPDParams:
        if position == FIRST:
            return self.first_delay
        if position == FOLLOWUP:
            return self.followup_delay
        raise ValueError(f"unknown delay position {position!r}")


def select_bucket(key, now_ns: int, activity: dict, cfg: DelayElementConfig) -> BucketDecision:
    """Route one packet: inactive flows and fresh-window follow-ups are delayed.

    `activity` maps each flow key to its ActivityRecord.  Updates last_seen,
    and opens the follow-up window on a fresh inactivity hit (including the
    first packet the switch ever sees for the flow).
    """
    rec = activity.get(key)
    if rec is None:
        activity[key] = ActivityRecord(now_ns, now_ns + cfg.window_ns)
        return BucketDecision(DELAYED, FIRST)
    inactive = (now_ns - rec.last_seen_ns) > cfg.t_th_ns
    in_window = now_ns < rec.window_until_ns
    rec.last_seen_ns = now_ns
    if inactive:
        rec.window_until_ns = now_ns + cfg.window_ns
        return BucketDecision(DELAYED, FIRST)
    if in_window:
        return BucketDecision(DELAYED, FOLLOWUP)
    return BucketDecision(FAST, None)


def _hold_ns(params: GPDParams, u: float) -> int:
    """The hold in ns that one random() draw `u` gives; raises on a negative hold."""
    return ns_from_float(float(gpd_quantile(u, params)) * NS_PER_MS)


def delay_for(position: str, cfg: DelayElementConfig, rng: np.random.Generator) -> int:
    """Sampled hold duration in ns for a packet in the delayed bucket."""
    return _hold_ns(cfg.params_for(position), rng.random())


def delays_from_uniform(position: str, cfg: DelayElementConfig, u: np.ndarray) -> np.ndarray:
    """Array form of delay_for for given random() draws, draw by draw.

    gpd_quantile's np.power may differ from the scalar one in the last ulp,
    and (p - 1) / xi scales that difference by scale / |shape|, so the
    rounding guard widens by it; a value the guard recomputes takes
    delay_for's own formula, `_hold_ns`.
    """
    params = cfg.params_for(position)
    ms = gpd_quantile(u, params)
    amplify = params.scale / abs(params.shape) if abs(params.shape) >= _XI_ZERO else 0.0
    err_ns = 64 * np.finfo(float).eps * NS_PER_MS * (
        abs(params.location) + np.abs(ms - params.location) + amplify
    )
    return ns_from_floats(ms * NS_PER_MS, lambda i: _hold_ns(params, float(u[i])), err_ns)
