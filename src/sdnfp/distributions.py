"""Delay distributions used by links, switches, the controller and the delay element.

`DelayModel` is the one delay type: a link's cross-traffic jitter and the
controller's lookup and install delays, all three configured by the keys of
`DELAY_KINDS`, and the delay element's gpd holds, whose quantile stays
hand-written because the defended traces depend on its exact floating-point
path.  Every sampler returns integer nanoseconds (half-up rounding) so that a
(scenario, seed) pair replays to bit-identical traces; `DelayModel._ns` holds
each kind's formula for one draw, which `ns_from_draws` falls back to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import DURATION, NS_PER_MS, VARIANCE, ns_from_float

_XI_ZERO = 1e-9


@dataclass(frozen=True)
class GPDParams:
    """shape xi, scale sigma, location mu; delays carry these in ms."""

    shape: float
    scale: float
    location: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale: must be positive")


def gpd_quantile(u, params: GPDParams):
    """Inverse CDF: mu + sigma ((1-u)^(-xi) - 1)/xi, limit mu - sigma ln(1-u)."""
    xi, sigma, mu = params.shape, params.scale, params.location
    u = np.asarray(u, dtype=float)
    if np.any((u < 0) | (u >= 1)):
        raise ValueError("u must lie in [0, 1)")
    if abs(xi) < _XI_ZERO:
        out = mu - sigma * np.log1p(-u)
    else:
        out = mu + sigma * ((1.0 - u) ** (-xi) - 1.0) / xi
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DelayModel:
    """Tagged distribution over non-negative durations.

    kinds:
      none      -- always 0
      constant  -- value_ns
      pareto    -- two-parameter Pareto solved from (mean_ns, variance_ns2)
      lognormal -- exp-normal with given median_ns and log-space sigma
      gpd       -- Generalized Pareto of the parameters `gpd`, in ms
    """

    kind: str = "none"
    value_ns: int = 0
    mean_ns: int = 0
    variance_ns2: int = 0
    median_ns: int = 0
    sigma_log: float = 0.0
    gpd: GPDParams | None = None

    def __post_init__(self):
        if self.kind not in ("none", "constant", "pareto", "lognormal", "gpd"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.kind == "gpd" and self.gpd is None:
            raise ValueError("gpd delay needs its GPDParams")
        if self.kind == "gpd" and self.gpd.location < 0:  # the support starts there: a hold could be < 0
            raise ValueError(f"location: a delay needs a location >= 0, got {self.gpd.location}")
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
        if self.kind == "gpd":
            return ns_from_float(gpd_quantile(x, self.gpd) * NS_PER_MS)
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
        if self.kind == "gpd":
            # The quantile's np.power may differ from the scalar one in the last ulp,
            # and (p - 1) / xi scales that by scale / |shape|: the guard widens by it.
            g = self.gpd
            ms = gpd_quantile(x, g)
            amplify = g.scale / abs(g.shape) if abs(g.shape) >= _XI_ZERO else 0.0
            err_ns = 64 * np.finfo(float).eps * NS_PER_MS * (abs(g.location) + np.abs(ms - g.location) + amplify)
            return ns_from_floats(ms * NS_PER_MS, exact, err_ns)
        return np.full(np.shape(x), self._ns(None), np.int64)


_DRAWS = {"pareto": "random", "lognormal": "standard_normal", "gpd": "random"}


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


def gpd(params: GPDParams) -> DelayModel:
    return DelayModel(kind="gpd", gpd=params)


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
