"""Group-table countermeasure: per-flow activity, bucket selection, delay element.

Packets of active flows pass untouched.  A flow with no packets for more than
t_th (or one the switch has no record of, e.g. right after its rules were
deleted) is inactive: its first packet is held for a sample of the
rule-install-shaped gpd `DelayModel`, and every packet arriving within the
next window W for one of the dispersion-shaped one.  Packets that miss the
flow table are the controller's business and bypass the element, but they do
open the follow-up window, so the probes queued right behind a real install
are parked by the element instead of waiting out the installation.

Emission preserves per-flow order: a parked packet is never released before
an earlier packet of its flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DelayModel, GPDParams, gpd
from .units import NS_PER_MS, NS_PER_S

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
    first_delay: DelayModel = gpd(TABLE4_DELTA_RTT)
    followup_delay: DelayModel = gpd(TABLE4_DISPERSION)

    def __post_init__(self):
        if not self.t_th_ns > self.window_ns > 0:
            raise ValueError("need t_th > window > 0")
        # Unlike the cross block, the defense block cannot cycle a fixed order of
        # methods: which hold a parked packet takes depends on per-trial state.
        if self.first_delay.kind != "gpd" or self.followup_delay.kind != "gpd":
            raise ValueError("the holds must be gpd delays: the engine draws each with one random()")


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


def delay_for(position: str, cfg: DelayElementConfig, rng: np.random.Generator) -> int:
    """Sampled hold duration in ns for a packet in the delayed bucket."""
    return (cfg.first_delay if position == FIRST else cfg.followup_delay).sample_ns(rng)
