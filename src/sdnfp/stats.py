"""Empirical PDFs, equal-error-rate evaluation, significance testing, and
Generalized Pareto fitting/sampling.

Histograms and EER sweep curves are `probes.Table`s, written as traces are.
Every routine takes any array-like of floats and boxes no value.

The fit is scipy's maximum-likelihood `genpareto.fit` with the location
pinned; the quantile and sampler stay hand-written, because the defended
traces depend on their exact floating-point path.

Classification convention (fixed): a measurement at or below the threshold t
is conjectured N (no rule installed), above it Y.  During the sweep,
FNR(t) = |{N > t}|/|N| and FMR(t) = |{Y <= t}|/|Y|; the EER is the value at
the crossing, linearly interpolated between adjacent sweep points when the
sign of FMR - FNR changes between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import genpareto, kstest
from scipy.stats import t as student_t

from .probes import Table


class EmptySamplesError(ValueError):
    pass


class DegenerateVarianceError(ValueError):
    pass


class FitFailedError(RuntimeError):
    pass


# -- histograms -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Histogram(Table):
    """The occupied bins [left, left + w) of an empirical PDF, in bin order."""

    bin_left_ms: np.ndarray
    count: np.ndarray
    relative_frequency: np.ndarray

    DTYPES = (np.float64, np.int64, np.float64)


def build_histogram(values_ms, bin_width_ms: float) -> Histogram:
    """Bins [i w, (i+1) w) of width w, counted by index i."""
    if bin_width_ms <= 0:
        raise ValueError("bin width must be positive")
    values = np.asarray(values_ms, dtype=float)
    if values.size == 0:
        raise EmptySamplesError("no samples to bin")
    indices, counts = np.unique(np.floor(values / bin_width_ms).astype(int), return_counts=True)
    return Histogram(indices * bin_width_ms, counts, counts / values.size)


# -- equal error rate --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Curve(Table):
    """The threshold sweep: FMR and FNR at each threshold, guard point first."""

    threshold_ms: np.ndarray
    fmr: np.ndarray
    fnr: np.ndarray

    DTYPES = (np.float64, np.float64, np.float64)


@dataclass
class EERResult:
    eer: float
    threshold_ms: float
    curve: Curve


def compute_eer(samples_n, samples_y) -> EERResult:
    """Threshold sweep over the union of sample values.

    Identical populations cross at exactly 0.5, disjoint ones at 0.  The
    crossing is found where FMR - FNR changes sign and both rates are
    interpolated linearly to that point.
    """
    n = np.sort(np.asarray(samples_n, dtype=float))
    y = np.sort(np.asarray(samples_y, dtype=float))
    if n.size == 0 or y.size == 0:
        raise EmptySamplesError("both populations must be non-empty")
    thresholds = np.unique(np.concatenate([n, y]))
    fnr = 1.0 - np.searchsorted(n, thresholds, side="right") / n.size
    fmr = np.searchsorted(y, thresholds, side="right") / y.size
    # Guard point below every value: all N rejected correctly, all Y missed.
    thresholds = np.concatenate([[thresholds[0] - 1.0], thresholds])
    fnr = np.concatenate([[1.0], fnr])
    fmr = np.concatenate([[0.0], fmr])
    diff = fmr - fnr
    exact = np.nonzero(diff == 0.0)[0]
    i = int(np.argmax(diff > 0))
    if exact.size:
        eer, threshold = fnr[exact[0]], thresholds[exact[0]]
    elif i == 0:
        # FMR exceeds FNR from the guard point on; report the first point.
        eer, threshold = (fnr[0] + fmr[0]) / 2, thresholds[0]
    else:
        s = -diff[i - 1] / (diff[i] - diff[i - 1])
        eer = fnr[i - 1] + s * (fnr[i] - fnr[i - 1])
        threshold = thresholds[i - 1] + s * (thresholds[i] - thresholds[i - 1])
    return EERResult(eer=float(eer), threshold_ms=float(threshold), curve=Curve(thresholds, fmr, fnr))


# -- Welch's t-test -----------------------------------------------------------


@dataclass
class WelchResult:
    t_statistic: float
    significant_at_1pct: bool
    p_value: float


def welch_t_test(samples_n, samples_y) -> WelchResult:
    """Two-sample unequal-variance t-test with Welch-Satterthwaite df."""
    a = np.asarray(samples_n, dtype=float)
    b = np.asarray(samples_y, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DegenerateVarianceError("need at least two samples per population")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 or vb == 0.0:
        raise DegenerateVarianceError("population variance is zero")
    sa = va / a.size
    sb = vb / b.size
    t_stat = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = 2.0 * float(student_t.sf(abs(t_stat), df))
    return WelchResult(t_statistic=float(t_stat), significant_at_1pct=p < 0.01, p_value=p)


# -- Generalized Pareto -------------------------------------------------------

_XI_ZERO = 1e-9


@dataclass(frozen=True)
class GPDParams:
    """shape xi, scale sigma, location mu; delays carry these in ms."""

    shape: float
    scale: float
    location: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


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


def gpd_sample(params: GPDParams, rng: np.random.Generator, size: int | None = None):
    u = rng.random() if size is None else rng.random(size)
    return gpd_quantile(u, params)


LOCATION_EPS_MS = 1e-6  # one nanosecond
MIN_FIT_SAMPLES = 50


def fit_gpd(samples) -> tuple[GPDParams, float]:
    """Fit a Generalized Pareto by maximum likelihood.

    The location is pinned one time-quantum below the smallest sample, and
    `scipy.stats.genpareto.fit` finds the shape and scale that maximize the
    exceedance likelihood.  Returns the parameters and the Kolmogorov-Smirnov
    D statistic of the fit (lower is better).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples")
    if not np.all(np.isfinite(x)):
        raise FitFailedError("samples must be finite")
    if x.max() == x.min():
        raise FitFailedError("constant samples leave the likelihood degenerate")
    mu = float(x.min()) - LOCATION_EPS_MS
    xi, _, sigma = genpareto.fit(x, floc=mu)
    if not (math.isfinite(xi) and math.isfinite(sigma) and sigma > 0):
        raise FitFailedError("no parameter pair with finite likelihood")
    params = GPDParams(shape=float(xi), scale=float(sigma), location=mu)
    ks = float(kstest(x, genpareto.cdf, args=(xi, mu, sigma)).statistic)
    return params, ks
