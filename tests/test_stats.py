"""EER, histogram, Welch and Generalized Pareto machinery against oracles."""

import math

import numpy as np
import pytest
from scipy.stats import genpareto

from sdnfp.features import DELTA_RTT, DISPERSION
from sdnfp.scenario import builtin_scenarios, run_scenario
from sdnfp.stats import (
    DegenerateVarianceError,
    EmptySamplesError,
    FitFailedError,
    GPDParams,
    build_histogram,
    compute_eer,
    fit_gpd,
    gpd_quantile,
    gpd_sample,
    welch_t_test,
)

RTT_PARAMS = GPDParams(shape=-0.53, scale=10.58, location=0.57)
DISP_PARAMS = GPDParams(shape=-0.60, scale=2.86, location=0.45)


def scipy_gpd(params):
    """The same GPD as a frozen scipy distribution."""
    return genpareto(params.shape, loc=params.location, scale=params.scale)


# -- histograms ---------------------------------------------------------------


def test_histogram_basic_bins():
    h = build_histogram([0.05, 0.15], bin_width_ms=0.1)
    assert h.counts == {0: 1, 1: 1}
    assert h.total == 2


def test_histogram_negative_value_floor():
    h = build_histogram([-0.05], bin_width_ms=0.1)
    assert h.counts == {-1: 1}


def test_histogram_gpd_support_mass():
    rng = np.random.default_rng(0)
    samples = gpd_sample(RTT_PARAMS, rng, 10_000)
    h = build_histogram(samples, bin_width_ms=0.1)
    lefts = [h.bin_left_ms(i) for i in h.counts]
    # Support is [0.57, 0.57 + 10.58/0.53] = [0.57, 20.53].
    assert min(lefts) >= 0.5
    assert max(lefts) + 0.1 <= 20.6


def test_histogram_total_preserved():
    rng = np.random.default_rng(1)
    values = rng.normal(0, 5, 777)
    h = build_histogram(values, bin_width_ms=0.3)
    assert sum(h.counts.values()) == h.total == 777


def test_histogram_empty_rejected():
    with pytest.raises(EmptySamplesError):
        build_histogram([], 0.1)


def test_histogram_rows():
    h = build_histogram([0.05, 0.15, 0.17], bin_width_ms=0.1)
    rows = h.to_rows()
    assert rows[0] == (0.0, 1, pytest.approx(1 / 3))
    assert rows[1] == (pytest.approx(0.1), 2, pytest.approx(2 / 3))


# -- EER ----------------------------------------------------------------------


def eer_oracle(samples_n, samples_y, grid=20001):
    """Independent dense-sweep evaluation of the crossing."""
    n = np.asarray(samples_n)
    y = np.asarray(samples_y)
    lo = min(n.min(), y.min()) - 1.0
    hi = max(n.max(), y.max()) + 1.0
    ts = np.linspace(lo, hi, grid)
    fnr = (n[None, :] > ts[:, None]).mean(axis=1)
    fmr = (y[None, :] <= ts[:, None]).mean(axis=1)
    i = int(np.argmin(np.abs(fmr - fnr)))
    return (fnr[i] + fmr[i]) / 2, ts[i]


def test_eer_identical_populations_half():
    values = list(np.linspace(0, 1, 100))
    res = compute_eer(values, values)
    assert res.eer == 0.5


def test_eer_disjoint_zero():
    res = compute_eer([0.1, 0.5, 0.9], [2.1, 2.5, 3.0])
    assert res.eer == 0.0
    assert 0.9 <= res.threshold_ms <= 2.1


def test_eer_uniform_analytic_crossing():
    rng = np.random.default_rng(7)
    n = rng.uniform(0, 2, 100_000)
    y = rng.uniform(1, 3, 100_000)
    res = compute_eer(n, y)
    assert res.eer == pytest.approx(0.25, abs=0.01)
    assert res.threshold_ms == pytest.approx(1.5, abs=0.02)


def test_eer_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = rng.normal(0, 1, 400)
        y = rng.normal(1.0, 1.5, 300)
        res = compute_eer(n, y)
        oracle_eer, _ = eer_oracle(n, y)
        assert res.eer == pytest.approx(oracle_eer, abs=0.01)


def test_eer_label_swap_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = rng.normal(0, 1, 250)
        y = rng.normal(rng.uniform(0, 2), 1.2, 250)
        assert compute_eer(n, y).eer + compute_eer(y, n).eer == pytest.approx(1.0, abs=1e-6)


def test_eer_rank_invariance():
    rng = np.random.default_rng(13)
    n = rng.normal(0, 1, 300)
    y = rng.normal(0.8, 1.0, 300)
    base = compute_eer(n, y)

    def transform(v):
        return np.exp(v) + v**3  # strictly increasing

    mapped = compute_eer(transform(n), transform(y))
    assert mapped.eer == pytest.approx(base.eer, abs=1e-9)


def test_eer_threshold_minimizes_rate_gap():
    rng = np.random.default_rng(21)
    n = rng.normal(0, 1, 200)
    y = rng.normal(1.5, 1, 200)
    res = compute_eer(n, y)
    # At the reported threshold the two error rates actually meet.
    fnr_at = (n > res.threshold_ms).mean()
    fmr_at = (y <= res.threshold_ms).mean()
    sweep_best = min(abs(fmr - fnr) for _, fmr, fnr in res.curve)
    assert abs(fmr_at - fnr_at) <= sweep_best + 1 / 200 + 1e-12
    assert 0.0 <= res.eer <= 1.0


def test_eer_empty_rejected():
    with pytest.raises(EmptySamplesError):
        compute_eer([], [1.0])


def test_eer_sweep_counts_a_tie_with_the_threshold_as_n():
    # At t = 2.0 the Y sample equal to t is a false match, the N sample is not
    # a false non-match.
    curve = {t: (fmr, fnr) for t, fmr, fnr in compute_eer([2.0, 3.0], [1.0, 2.0]).curve}
    assert curve[2.0] == (1.0, 0.5)


# -- Welch --------------------------------------------------------------------


def test_welch_huge_effect_significant():
    rng = np.random.default_rng(2)
    res = welch_t_test(rng.normal(0, 1, 100), rng.normal(5, 1, 100))
    assert res.significant_at_1pct
    assert abs(res.t_statistic) > 10


def test_welch_formula_against_scipy():
    from scipy.stats import ttest_ind

    rng = np.random.default_rng(6)
    a = rng.normal(0, 1, 50)
    b = rng.normal(0.3, 2, 80)
    res = welch_t_test(a, b)
    ref = ttest_ind(a, b, equal_var=False)
    assert res.t_statistic == pytest.approx(ref.statistic)
    assert res.p_value == pytest.approx(ref.pvalue)


def test_welch_false_positive_rate_near_alpha():
    rng = np.random.default_rng(123)
    hits = 0
    reps = 400
    for _ in range(reps):
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000)
        if welch_t_test(a, b).significant_at_1pct:
            hits += 1
    assert 0.001 <= hits / reps <= 0.03


def test_welch_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DegenerateVarianceError):
        welch_t_test([1.0], [2.0, 3.0])


# -- GPD ----------------------------------------------------------------------


def test_gpd_quantile_edge():
    assert gpd_quantile(0.0, RTT_PARAMS) == RTT_PARAMS.location
    near_one = gpd_quantile(1 - 1e-12, RTT_PARAMS)
    assert near_one <= scipy_gpd(RTT_PARAMS).support()[1] + 1e-9


def test_gpd_sample_moments_rtt():
    rng = np.random.default_rng(17)
    x = gpd_sample(RTT_PARAMS, rng, 1_000_000)
    # mean = mu + sigma/(1 - xi) = 7.485 ms
    assert x.mean() == pytest.approx(scipy_gpd(RTT_PARAMS).mean(), rel=0.01)
    assert scipy_gpd(RTT_PARAMS).mean() == pytest.approx(7.485, abs=0.005)
    assert x.min() >= RTT_PARAMS.location
    assert x.max() <= scipy_gpd(RTT_PARAMS).support()[1]


def test_gpd_sample_moments_dispersion():
    rng = np.random.default_rng(18)
    x = gpd_sample(DISP_PARAMS, rng, 1_000_000)
    assert x.mean() == pytest.approx(2.2375, rel=0.01)
    assert x.max() <= 5.2167


def test_gpd_sample_cdf_consistency():
    rng = np.random.default_rng(19)
    x = np.sort(gpd_sample(RTT_PARAMS, rng, 1_000_000))
    cdf = scipy_gpd(RTT_PARAMS).cdf(x)
    ecdf = np.arange(1, x.size + 1) / x.size
    assert np.max(np.abs(ecdf - cdf)) < 0.005


def test_gpd_xi_zero_limit():
    params = GPDParams(shape=0.0, scale=2.0, location=1.0)
    # Exponential limit: quantile(u) = mu - sigma ln(1-u).
    assert gpd_quantile(0.5, params) == pytest.approx(1.0 + 2.0 * math.log(2))


U_GRID = np.concatenate([np.linspace(0.0, 0.999, 1000), [0.9999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]])


@pytest.mark.parametrize(
    "params, rtol",
    [
        (RTT_PARAMS, 1e-12),
        (DISP_PARAMS, 1e-12),
        (GPDParams(0.3, 2.0, 1.0), 1e-12),
        (GPDParams(0.0, 2.0, 1.0), 1e-12),
        # |xi| < 1e-9 takes the exponential limit, which drops a relative
        # |xi| ln(1/(1-u)) / 2 of x - mu: 7e-9 at u = 1 - 1e-12.
        (GPDParams(5e-10, 2.0, 1.0), 1e-8),
    ],
    ids=["table4-rtt", "table4-dispersion", "positive-shape", "zero-shape", "tiny-shape"],
)
def test_gpd_quantile_matches_scipy_ppf(params, rtol):
    expected = genpareto.ppf(U_GRID, params.shape, params.location, params.scale)
    np.testing.assert_allclose(gpd_quantile(U_GRID, params), expected, rtol=rtol, atol=0)


def test_fit_gpd_round_trip():
    rng = np.random.default_rng(42)
    x = gpd_sample(RTT_PARAMS, rng, 100_000)
    fit, ks = fit_gpd(x)
    assert fit.shape == pytest.approx(RTT_PARAMS.shape, abs=0.05)
    assert fit.scale == pytest.approx(RTT_PARAMS.scale, rel=0.05)
    assert ks < 0.01


def test_fit_gpd_location_below_min():
    rng = np.random.default_rng(43)
    x = gpd_sample(DISP_PARAMS, rng, 5_000)
    fit, _ = fit_gpd(x)
    assert fit.location < x.min()
    assert x.min() - fit.location == pytest.approx(1e-6, abs=1e-9)


def test_fit_gpd_constant_fails():
    with pytest.raises(FitFailedError):
        fit_gpd([3.0] * 100)


def test_fit_gpd_non_finite_fails():
    with pytest.raises(FitFailedError):
        fit_gpd(list(np.linspace(1.0, 2.0, 60)) + [math.inf])


# (shape, scale) at which the earlier hand-written grid-search fit stopped on
# criterion 3's sample and on the Y populations of k2-hw-100m; the
# maximum-likelihood fit must do at least as well there.
GRID_OPTIMA = {
    "criterion-3": (-0.5300398620345846, 10.5789042370005),
    DELTA_RTT: (-0.23324819445132003, 6.526915585362175),
    DISPERSION: (-0.23379637340144158, 6.766796022296573),
}


@pytest.fixture(scope="module")
def k2_populations():
    bundle = run_scenario(builtin_scenarios()["k2-hw-100m"])
    return {f: bundle.samples.values(f, "Y") for f in (DELTA_RTT, DISPERSION)}


@pytest.mark.parametrize("population", list(GRID_OPTIMA))
def test_fit_gpd_reaches_the_likelihood_maximum(population, k2_populations):
    if population == "criterion-3":
        x = gpd_sample(RTT_PARAMS, np.random.default_rng(42), 100_000)
    else:
        x = np.asarray(k2_populations[population])
    fit, _ = fit_gpd(x)
    shape, scale = GRID_OPTIMA[population]
    fitted = genpareto.nnlf((fit.shape, fit.location, fit.scale), x)
    assert math.isfinite(fitted)
    assert fitted <= genpareto.nnlf((shape, fit.location, scale), x)


def test_fit_gpd_needs_samples():
    with pytest.raises(ValueError):
        fit_gpd([1.0, 2.0, 3.0])


def test_fit_gpd_on_non_gpd_shape():
    # A lognormal-max population (the attack's install-delay shape) is not a
    # GPD; the fit still converges, with a KS distance that reflects the
    # mismatch (hump-shaped data against a density that is maximal at the
    # threshold).  Verified against scipy's MLE: this is the optimum.
    rng = np.random.default_rng(44)
    x = 0.1 + np.exp(np.log(4.5) + 0.6 * rng.standard_normal((2000, 3))).max(axis=1)
    _, ks = fit_gpd(x)
    assert 0.005 < ks < 0.25


def test_gpd_params_validation():
    with pytest.raises(ValueError):
        GPDParams(shape=-0.5, scale=0.0, location=0.0)
