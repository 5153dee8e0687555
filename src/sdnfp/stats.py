"""Empirical PDFs, equal-error-rate evaluation, significance testing, and
Generalized Pareto fitting/sampling.

Histograms and EER sweep curves are `probes.Table`s, written as traces are.
Every routine takes any array-like of floats and boxes no value.

The fit maximizes the likelihood with the location pinned, by Grimshaw's
(1993) reduction to a one-variable profile search; the quantile and sampler
stay hand-written, because the defended traces depend on their exact
floating-point path.  Nothing here imports scipy's optimizer: the search is a
port of its bounded Brent.  Welch's p-value is scipy's `stdtr`.

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
from scipy.special import stdtr

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
    if exact.size:
        eer, threshold = fnr[exact[0]], thresholds[exact[0]]
    else:  # diff is -1 at the guard point and +1 at the last threshold
        i = int(np.argmax(diff > 0))
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
    # Welch-Satterthwaite df by the share r of sa: r or 1 - r is at least 1/2,
    # so the denominator cannot underflow to 0 as sa**2 can.
    r = sa / (sa + sb)
    df = 1.0 / (r**2 / (a.size - 1) + (1.0 - r) ** 2 / (b.size - 1))
    p = 2.0 * float(stdtr(df, -abs(t_stat)))  # what scipy's t.sf(|t|, df) evaluates
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
_LOG_T_MIN = -35.0  # |theta y_max| = 6e-16: xi(theta) is at its exponential limit
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _minimize_bounded(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Brent's (1973) bounded minimization of f on [lo, hi]: (x, f(x)).

    Step for step scipy's minimize_scalar(method="bounded"): the same
    floating-point operations in the same order, so it stops at the same x.
    """
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN * (b - a)  # best, second-best and previous second-best
    fx = fnfc = ffulc = f(xf)
    rat = e = 0.0
    for _ in range(499):  # scipy's cap of 500 evaluations, one per step after the first
        xm = 0.5 * (a + b)
        tol1 = math.sqrt(2.2e-16) * abs(xf) + xatol / 3.0
        if abs(xf - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # a parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < 2.0 * tol1 or b - x < 2.0 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        if fu <= fx:  # x is the new best: cut the bracket at xf, keeping x's side
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx


def fit_gpd(samples) -> tuple[GPDParams, float]:
    """Fit a Generalized Pareto by maximum likelihood, the location pinned.

    The location mu is one time-quantum below the smallest sample.  With
    y = x - mu and theta = xi/sigma, the likelihood is maximal over xi at
    xi(theta) = mean(log1p(theta y)), sigma = xi/theta (Grimshaw 1993,
    "Computing maximum likelihood estimates for the generalized Pareto
    distribution", Technometrics 35(2)), so Brent's bounded method searches
    log|theta| in (-1/max y, 0) and (0, Grimshaw's bound), ported from scipy
    step for step: importing scipy's optimizer costs more memory and time than
    the fit.  Below shape -1 the likelihood grows without bound as theta nears
    -1/max y; there is no maximum, and the fit fails.  Returns the parameters
    and the fit's Kolmogorov-Smirnov D.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples")
    if not np.all(np.isfinite(x)):
        raise FitFailedError("samples must be finite")
    if x.max() == x.min():
        raise FitFailedError("constant samples leave the likelihood degenerate")
    mu = float(x.min()) - LOCATION_EPS_MS
    y_max = float(x.max()) - mu
    z = (x - mu) / y_max  # t = theta * y_max keeps every log1p(t z) above -1 for t > -1

    def profile(log_abs_t, sign):
        """Negative profile log-likelihood per sample, less log(y_max)."""
        t = sign * math.exp(log_abs_t)
        xi = float(np.log1p(t * z).mean())
        return math.log(xi / t) + xi + 1.0

    upper = math.log(2.0 * (z.mean() - z.min()) / z.min() ** 2)  # Grimshaw's bound on theta y_max
    searches = [(_minimize_bounded(lambda v: profile(v, sign), _LOG_T_MIN, hi, xatol=1e-10), sign)
                for sign, hi in ((-1.0, 0.0), (1.0, upper))]
    (log_abs_t, _), sign = min(searches, key=lambda search: search[0][1])
    t = sign * math.exp(log_abs_t)
    log_terms = np.log1p(t * z)
    xi = float(log_terms.mean())
    sigma = xi * y_max / t
    if not (math.isfinite(xi) and math.isfinite(sigma) and sigma > 0):
        raise FitFailedError("no parameter pair with finite likelihood")
    if xi <= -1.0:
        raise FitFailedError(f"shape: no likelihood maximum above -1 (the search stopped at {xi:.3f})")
    cdf = np.sort(-np.expm1(-log_terms / xi))  # 1 - (1 + theta y)^(-1/xi) at each sample
    i = np.arange(cdf.size)
    ks = max(((i + 1) / cdf.size - cdf).max(), (cdf - i / cdf.size).max())
    return GPDParams(shape=xi, scale=sigma, location=mu), float(ks)
