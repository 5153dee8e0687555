"""Equal-capacity paths for the tests: every link, forward and reverse, alike."""

from sdnfp.distributions import NO_DELAY
from sdnfp.netsim import LinkSpec, PathSpec


def uniform_path(n_forward, n_reverse, capacity_bps, switches=(), cross_traffic=NO_DELAY, base_latency_ns=0):
    link = LinkSpec(capacity_bps, base_latency_ns, cross_traffic)
    return PathSpec(forward_links=(link,) * n_forward, reverse_links=(link,) * n_reverse, switches=switches)
