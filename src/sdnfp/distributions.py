"""Delay distributions used by links, switches and the controller.

Every sampler returns integer nanoseconds (half-up rounding) so that a
(scenario, seed) pair replays to bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import NS_PER_MS, ns_from_float, parse_duration_ns, parse_variance_ns2


@dataclass(frozen=True)
class DelayModel:
    """Tagged distribution over non-negative durations.

    kinds:
      none      -- always 0
      constant  -- value_ns
      pareto    -- two-parameter Pareto solved from (mean_ns, variance_ns2)
      lognormal -- exp-normal with given median_ns and log-space sigma
    """

    kind: str = "none"
    value_ns: int = 0
    mean_ns: int = 0
    variance_ns2: int = 0
    median_ns: int = 0
    sigma_log: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "pareto", "lognormal"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.kind == "pareto":
            if self.mean_ns <= 0 or self.variance_ns2 <= 0:
                raise ValueError("pareto delay needs mean > 0 and variance > 0")
        if self.kind == "lognormal":
            if self.median_ns <= 0 or self.sigma_log <= 0:
                raise ValueError("lognormal delay needs median > 0 and sigma_log > 0")

    def pareto_shape_scale(self) -> tuple[float, float]:
        """Solve alpha, x_m of the Pareto from mean m and variance v.

        mean = alpha x_m / (alpha - 1) and var = m^2 / (alpha (alpha - 2))
        give alpha = 1 + sqrt(1 + m^2/v); finite variance needs alpha > 2,
        which this construction always satisfies.
        """
        m = float(self.mean_ns)
        v = float(self.variance_ns2)
        alpha = 1.0 + math.sqrt(1.0 + m * m / v)
        x_m = m * (alpha - 1.0) / alpha
        return alpha, x_m

    def sample_ns(self, rng: np.random.Generator) -> int:
        if self.kind == "none":
            return 0
        if self.kind == "constant":
            return self.value_ns
        if self.kind == "pareto":
            alpha, x_m = self.pareto_shape_scale()
            u = rng.random()
            return ns_from_float(x_m * (1.0 - u) ** (-1.0 / alpha))
        # lognormal
        z = rng.standard_normal()
        return ns_from_float(self.median_ns * math.exp(self.sigma_log * z))

    @property
    def draw_type(self) -> str | None:
        """The Generator method sample_ns calls once per sample, None if it draws nothing."""
        return _DRAWS.get(self.kind)

    def ns_from_draws(self, x: np.ndarray) -> np.ndarray:
        """Array form of sample_ns for given draws of its `draw_type` method, draw by draw.

        A kind that draws nothing ignores the values of `x` and takes its shape.
        """
        if self.kind == "pareto":
            return self.pareto_ns_from_uniform(x)
        if self.kind == "lognormal":
            return self.lognormal_ns_from_normal(x)
        return np.full(np.shape(x), self.sample_ns(None), np.int64)

    def pareto_ns_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Array form of the Pareto branch of sample_ns for given random() draws."""
        alpha, x_m = self.pareto_shape_scale()
        exponent = -1.0 / alpha
        return ns_from_floats(
            x_m * np.power(1.0 - u, exponent),
            lambda i: ns_from_float(x_m * (1.0 - float(u[i])) ** exponent),
        )

    def lognormal_ns_from_normal(self, z: np.ndarray) -> np.ndarray:
        """Array form of the lognormal branch of sample_ns for given standard_normal() draws."""
        return ns_from_floats(
            self.median_ns * np.exp(self.sigma_log * z),
            lambda i: ns_from_float(self.median_ns * math.exp(self.sigma_log * float(z[i]))),
        )


_DRAWS = {"pareto": "random", "lognormal": "standard_normal"}


def ns_from_floats(value_ns: np.ndarray, exact, err_ns=0.0) -> np.ndarray:
    """ns_from_float over an array of values an array formula computed.

    Bit-identical to the scalar formula value by value: np.power and np.exp
    may differ from their scalar forms in the last ulp, which can only change
    the half-up rounding of a value within a few ulps of a rounding boundary,
    so those entries, and every value below one tolerance of 0 (where the
    scalar formula may raise "negative duration"), are replaced by `exact(i)`,
    the scalar formula at index i.  `err_ns` widens the tolerance where the
    formula scales a last-ulp difference beyond the value's own ulps.
    """
    shifted = value_ns + 0.5
    if shifted.size and not shifted.max() < 2.0**62:
        raise ValueError("delay exceeds the int64 nanosecond range")
    ns = np.floor(shifted)
    frac = shifted - ns
    tol = np.maximum(np.maximum(1e-6, 64.0 * np.spacing(shifted)), err_ns)
    ns = ns.astype(np.int64)
    for i in zip(*np.nonzero((frac < tol) | (frac > 1.0 - tol) | (value_ns < tol))):
        ns[i] = exact(i)
    return ns


def constant(value_ns: int) -> DelayModel:
    return DelayModel(kind="constant", value_ns=value_ns)


def lognormal(median_ns: int, sigma_log: float) -> DelayModel:
    return DelayModel(kind="lognormal", median_ns=median_ns, sigma_log=sigma_log)


def pareto(mean_ns: int, variance_ns2: int) -> DelayModel:
    return DelayModel(kind="pareto", mean_ns=mean_ns, variance_ns2=variance_ns2)


NO_DELAY = DelayModel(kind="none")

# Cross-traffic generator defaults: Pareto, 20 ms mean, 4 ms^2 variance.
DEFAULT_CROSS_MEAN_NS = 20 * NS_PER_MS
DEFAULT_CROSS_VARIANCE_NS2 = 4 * NS_PER_MS**2


@dataclass(frozen=True)
class CrossTrafficModel:
    """Per-hop queuing delay induced by background load on a link.

    kind is one of pareto | constant | none; mean/variance default to the
    20 ms / 4 ms^2 Pareto used by the cross-traffic generator.
    """

    kind: str = "pareto"
    mean_ns: int = DEFAULT_CROSS_MEAN_NS
    variance_ns2: int = DEFAULT_CROSS_VARIANCE_NS2

    def __post_init__(self):
        if self.kind not in ("pareto", "constant", "none"):
            raise ValueError(f"unknown cross-traffic kind {self.kind!r}")

    def delay_model(self) -> DelayModel:
        if self.kind == "none":
            return NO_DELAY
        if self.kind == "constant":
            return constant(self.mean_ns)
        return pareto(self.mean_ns, self.variance_ns2)


def delay_model_from_config(cfg: dict) -> DelayModel:
    """Build a DelayModel from a config mapping with explicit units."""
    kind = cfg.get("kind")
    if kind == "none" or kind is None:
        return NO_DELAY
    if kind == "constant":
        return constant(parse_duration_ns(cfg["value"]))
    if kind == "pareto":
        return pareto(parse_duration_ns(cfg["mean"]), parse_variance_ns2(cfg["variance"]))
    if kind == "lognormal":
        return lognormal(parse_duration_ns(cfg["median"]), float(cfg["sigma_log"]))
    raise ValueError(f"unknown delay kind {kind!r}")


def cross_traffic_from_config(cfg: dict | None) -> CrossTrafficModel | None:
    if cfg is None:
        return None
    kind = cfg.get("kind", "pareto")
    if kind == "none":
        return CrossTrafficModel(kind="none", mean_ns=0, variance_ns2=0)
    mean_ns = parse_duration_ns(cfg["mean"]) if "mean" in cfg else DEFAULT_CROSS_MEAN_NS
    var_ns2 = (
        parse_variance_ns2(cfg["variance"]) if "variance" in cfg else DEFAULT_CROSS_VARIANCE_NS2
    )
    return CrossTrafficModel(kind=kind, mean_ns=mean_ns, variance_ns2=var_ns2)
