"""Delay distributions used by links, switches and the controller.

`DelayModel` is the one delay type: a link's cross-traffic jitter (of a kind
in `CROSS_TRAFFIC_KINDS`) and the controller's lookup and install delays.
Every sampler returns integer nanoseconds (half-up rounding) so that a
(scenario, seed) pair replays to bit-identical traces; `DelayModel._ns` holds
each kind's formula for one draw, which `ns_from_draws` falls back to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import DURATION, NS_PER_MS, VARIANCE, ns_from_float


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
            if not (self.median_ns > 0 and 0 < self.sigma_log < math.inf):
                raise ValueError("lognormal delay needs median > 0 and a finite sigma_log > 0")

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

    def _ns(self, x) -> int:
        """The sample one draw `x` of the kind's `draw_type` method gives."""
        if self.kind == "pareto":
            alpha, x_m = self.pareto_shape_scale()
            return ns_from_float(x_m * (1.0 - x) ** (-1.0 / alpha))
        if self.kind == "lognormal":
            return ns_from_float(self.median_ns * math.exp(self.sigma_log * x))
        return self.value_ns if self.kind == "constant" else 0

    def sample_ns(self, rng: np.random.Generator) -> int:
        return self._ns(getattr(rng, self.draw_type)() if self.draw_type else None)

    # Patched by bench/tracer.py, which counts its calls; nothing in the
    # package calls it.  ROADMAP item 1 re-spans the tracer and removes it.
    def delay_model(self) -> "DelayModel":
        return self

    @property
    def draw_type(self) -> str | None:
        """The Generator method sample_ns calls once per sample, None if it draws nothing."""
        return _DRAWS.get(self.kind)

    def ns_from_draws(self, x: np.ndarray) -> np.ndarray:
        """Array form of sample_ns for given draws of its `draw_type` method, draw by draw.

        A kind that draws nothing ignores the values of `x` and takes its shape.
        """
        exact = lambda i: self._ns(float(x[i]))
        if self.kind == "pareto":
            alpha, x_m = self.pareto_shape_scale()
            return ns_from_floats(x_m * np.power(1.0 - x, -1.0 / alpha), exact)
        if self.kind == "lognormal":
            return ns_from_floats(self.median_ns * np.exp(self.sigma_log * x), exact)
        return np.full(np.shape(x), self._ns(None), np.int64)


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


# Patched by bench/tracer.py under this name; ROADMAP item 1 removes it.
CrossTrafficModel = DelayModel

# Per kind, the config keys of a DelayModel: {kind: {key: (field, (parse, write))}}.
DELAY_KINDS = {
    "none": {},
    "constant": {"value": ("value_ns", DURATION)},
    "pareto": {"mean": ("mean_ns", DURATION), "variance": ("variance_ns2", VARIANCE)},
    "lognormal": {"median": ("median_ns", DURATION), "sigma_log": ("sigma_log", (float, float))},
}
# The kinds and keys of a link's cross-traffic model: a constant's mean is
# its value.  The cross stream is drawn with random() alone, so no lognormal.
CROSS_TRAFFIC_KINDS = {
    "none": {},
    "constant": {"mean": ("value_ns", DURATION)},
    "pareto": {"mean": ("mean_ns", DURATION), "variance": ("variance_ns2", VARIANCE)},
}
# What an omitted cross_traffic kind or key takes: the cross-traffic
# generator's 20 ms / 4 ms^2 Pareto, or a 20 ms constant.
CROSS_TRAFFIC_DEFAULTS = DelayModel(
    kind="pareto", value_ns=20 * NS_PER_MS, mean_ns=20 * NS_PER_MS, variance_ns2=4 * NS_PER_MS**2
)
