"""Generalized Pareto samples for the tests, by inverse CDF: the quantile of
one random() draw per value, as the delay element draws its holds."""

from sdnfp.distributions import gpd_quantile


def gpd_sample(params, rng, size):
    return gpd_quantile(rng.random(size), params)
