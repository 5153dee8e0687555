"""Empirical PDFs, equal-error-rate evaluation, significance testing, and the
Generalized Pareto fit.

Histograms and EER sweep curves are `probes.Table`s, written as traces are.
Every routine takes any array-like of floats and boxes no value.

The fit maximizes the likelihood with the location pinned, by Grimshaw's
(1993) reduction to a one-variable profile search, and returns the
`distributions.GPDParams` whose quantile a delay-element hold samples.
Nothing here imports scipy at module level: the fit's search is a port of
scipy's bounded Brent, and Welch's 1% decision comes from a pure-Python
Student-t tail, with scipy's `stdtr` imported only for the p-value and for
the rare tail that lands too near 1% to decide.

Each routine checks the populations it takes and raises `SamplesError` for
one it cannot, naming a population of a two-sample statistic by its label,
N or Y; the caller adds the feature and the file.  The EER and Welch's test
take finite samples only, so the sweep's thresholds and Welch's t and df are
finite.

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

from .distributions import GPDParams
from .probes import Table


class SamplesError(ValueError):
    """A population a statistic cannot take: too few samples, a non-finite
    one, too little spread, or one the fit finds no likelihood maximum for."""


def _population(samples, least: int, statistic: str, label: str = "") -> np.ndarray:
    """`samples` as a float array of at least `least` finite values; else a
    SamplesError whose message starts with the population's label, if any."""
    x = np.asarray(samples, dtype=float)
    named = f"{label}: " if label else ""
    if x.size < least:
        raise SamplesError(f"{named}{statistic} needs {least} or more samples, got {x.size}")
    lo, hi = x.min(), x.max()  # NaN if any value is
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SamplesError(f"{named}a sample is {hi if math.isfinite(lo) else lo:g} ms; "
                           f"{statistic} needs finite samples")
    return x


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
    values = _population(values_ms, 1, "a histogram")
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


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.unique(np.concatenate([a, b])) of finite float arrays, as numpy 2.4
    sorts and dedups them (-0.0 and 0.0 are one value), without the
    masked-array check that makes np.unique import numpy.ma."""
    u = np.concatenate([a, b])
    u.sort()
    return u[np.concatenate([[True], u[1:] != u[:-1]])]


def compute_eer(samples_n, samples_y) -> EERResult:
    """Threshold sweep over the union of sample values.

    Identical populations cross at exactly 0.5, disjoint ones at 0.  The
    crossing is found where FMR - FNR changes sign and both rates are
    interpolated linearly to that point.  Each population needs a sample,
    and every sample must be finite.
    """
    n, y = (np.sort(_population(x, 1, "the EER", label)) for x, label in ((samples_n, "N"), (samples_y, "Y")))
    thresholds = _sorted_union(n, y)
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
    """Welch's t statistic, Welch-Satterthwaite df and 1% decision.

    `significant_at_1pct` comes from `_two_sided_t_tail` and equals
    `p_value < 0.01`.  `p_value` is scipy's 2 stdtr(df, -|t|), bit for bit
    `scipy.stats.t.sf`, and imports scipy when it is read.  t and df are
    finite: `welch_t_test` refuses the populations that would make them not.
    """

    t_statistic: float
    significant_at_1pct: bool
    df: float

    @property
    def p_value(self) -> float:
        return _scipy_p_value(self.t_statistic, self.df)


def _scipy_p_value(t: float, df: float) -> float:
    """2 stdtr(df, -|t|), what scipy's t.sf(|t|, df) evaluates; imports scipy."""
    from scipy.special import stdtr

    return 2.0 * float(stdtr(df, -abs(t)))


def welch_t_test(samples_n, samples_y) -> WelchResult:
    """Two-sample unequal-variance t-test with Welch-Satterthwaite df.

    Each population needs two or more finite samples whose variance over
    their count, the squared standard error, is finite and above 0; a
    SamplesError names the population that fails by its label, N or Y.
    """
    moments = []
    for label, samples in (("N", samples_n), ("Y", samples_y)):
        x = _population(samples, 2, "Welch's test", label)
        with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range is inf
            s = float(x.var(ddof=1)) / x.size
        if not 0.0 < s < math.inf:
            raise SamplesError(f"{label}: the samples' variance is {'0' if s == 0.0 else 'beyond the float range'} "
                               f"(min {x.min():g} ms, max {x.max():g} ms); Welch's test needs a finite spread")
        moments.append((float(x.mean()), s, x.size))
    (mean_a, sa, na), (mean_b, sb, nb) = moments
    t_stat = (mean_a - mean_b) / math.sqrt(sa + sb)
    # Welch-Satterthwaite df by the share r of sa: r or 1 - r is at least 1/2,
    # so the denominator cannot underflow to 0 as sa**2 can.
    r = sa / (sa + sb)
    df = 1.0 / (r**2 / (na - 1) + (1.0 - r) ** 2 / (nb - 1))
    return WelchResult(t_statistic=t_stat, significant_at_1pct=_significant_at_1pct(t_stat, df), df=df)


_ALPHA = 0.01
# Where the tail is within a relative _BAND of _ALPHA, scipy decides.  Against
# scipy's stdtr near the 1% critical t, the tail's worst relative error was
# 6.1e-13 for df below 1e3, 1.3e-9 below 1e6 and 3.2e-5 below _DF_MAX (4,000
# df from 1 to 1e10): lgamma(df/2) loses digits as df grows.
_BAND = 1e-3
_DF_MAX = 1e10  # Welch's df is at most n_a + n_b - 2: 80 GB of float64 samples
_FPMIN = 1e-300
_MAX_TERMS = 300  # under 80 were needed anywhere on that df range


def _two_sided_t_tail(t: float, df: float) -> float:
    """P(|T| > |t|) for Student's t with df degrees of freedom; NaN if unconverged.

    I_x(df/2, 1/2) at x = df/(df + t^2), the regularized incomplete beta, by
    its continued fraction and the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., 6.4).  The fraction converges fast for x below
    (a+1)/(a+b+2), that is for t^2 >= 3 df/(df + 2), the only t it is given.
    """
    a, b = 0.5 * df, 0.5
    s = t * t
    x = 1.0 / (1.0 + s / df)
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _FPMIN else _FPMIN)
    h = d
    for m in range(1, _MAX_TERMS):
        even = m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))
        for coefficient in (even, odd):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > _FPMIN else _FPMIN)
            c = 1.0 + coefficient / c
            c = c if abs(c) > _FPMIN else _FPMIN
            h *= d * c
        if abs(d * c - 1.0) < 2.2e-16:
            break
    else:
        return math.nan
    # x^a (1-x)^b / (a B(a, b)), with log x and log(1 - x) from log1p
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.exp(-log_beta - a * math.log1p(s / df) - b * math.log1p(df / s)) * h / a


def _significant_at_1pct(t: float, df: float) -> bool:
    """Is `_scipy_p_value(t, df)` below 1%?  scipy is asked only within the
    band around 1%, above _DF_MAX or where the tail has not converged."""
    if t * t < 3.0 * df / (df + 2.0):
        return False  # the tail is above 2 P(Z > sqrt 3) = 0.083, its limit as df grows
    if df <= _DF_MAX:
        p = _two_sided_t_tail(t, df)
        if abs(p - _ALPHA) > _BAND * _ALPHA:  # False for NaN
            return p < _ALPHA
    return _scipy_p_value(t, df) < _ALPHA


# -- Generalized Pareto fit -------------------------------------------------

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
    and the fit's Kolmogorov-Smirnov D.  The samples need spread after the
    location shift, and a SamplesError says what a population lacks.
    """
    x = _population(samples, MIN_FIT_SAMPLES, "the GPD fit")
    mu = float(x.min()) - LOCATION_EPS_MS
    if mu == x.min():
        raise SamplesError(f"no float lies 1 ns below the smallest sample, {x.min():g} ms "
                           "(samples must stay below about 1.7e10 ms)")
    z = x - mu  # y, scaled below
    y_max = float(z.max())
    if z.min() == y_max:  # equal samples, or a spread the shift rounds away
        raise SamplesError(f"the samples have no spread after the 1 ns location shift (min {x.min():g} ms, "
                           f"max {x.max():g} ms); the GPD fit needs spread")
    z /= y_max  # t = theta * y_max keeps every log1p(t z) above -1 for t > -1

    def profile(log_abs_t, sign):
        """Negative profile log-likelihood per sample, less log(y_max)."""
        t = sign * math.exp(log_abs_t)
        xi = float(np.log1p(t * z).mean())
        return math.log(xi / t) + xi + 1.0

    with np.errstate(over="ignore", divide="ignore"):  # z.min() ** 2 leaves the float range
        bound = 2.0 * (z.mean() - z.min()) / z.min() ** 2  # Grimshaw's bound on theta y_max
    if not math.isfinite(bound):
        raise SamplesError(f"the samples' range, {y_max:g} ms, overflows Grimshaw's bound "
                           "(ranges must stay below about 1e148 ms)")
    upper = math.log(bound)
    searches = [(_minimize_bounded(lambda v: profile(v, sign), _LOG_T_MIN, hi, xatol=1e-10), sign)
                for sign, hi in ((-1.0, 0.0), (1.0, upper))]
    (log_abs_t, _), sign = min(searches, key=lambda search: search[0][1])
    t = sign * math.exp(log_abs_t)
    log_terms = np.log1p(t * z)
    xi = float(log_terms.mean())
    sigma = xi * y_max / t
    if not (math.isfinite(xi) and math.isfinite(sigma) and sigma > 0):
        raise SamplesError("no parameter pair has a finite likelihood")
    if xi <= -1.0:
        raise SamplesError(f"no likelihood maximum at a shape above -1 (the search stopped at {xi:.3f})")
    cdf = np.sort(-np.expm1(-log_terms / xi))  # 1 - (1 + theta y)^(-1/xi) at each sample
    i = np.arange(cdf.size)
    ks = max(((i + 1) / cdf.size - cdf).max(), (cdf - i / cdf.size).max())
    return GPDParams(shape=xi, scale=sigma, location=mu), float(ks)
