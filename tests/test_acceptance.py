"""Acceptance gate: one test per criterion, full-scale, with PASS lines.

Criteria 4-6 and 8 share the expensive scenario runs through module-scoped
fixtures; every run uses the scenarios' shipped seeds, so each verdict is
deterministic.
"""

import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from sdnfp.defense import DelayElementConfig
from sdnfp.distributions import GPDParams, gpd
from sdnfp.features import DELTA_RTT, DISPERSION
from sdnfp.netsim import (
    FlowKey,
    LinkSpec,
    Packet,
    PathSpec,
    SwitchSpec,
)
from sdnfp.probes import run_schedule
from sdnfp.scenario import builtin_scenarios, drift_variant, run_scenario
from sdnfp.stats import compute_eer, fit_gpd

from gpd_sampler import gpd_sample
from paths import uniform_path

S = 1_000_000_000
HW_NAMES = ("k1-hw-100m", "k2-hw-100m", "k3-hw-100m")
SW_NAME = "k1-sw-100m"


def ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def undefended():
    bundles, seconds = {}, {}
    for name, scenario in builtin_scenarios().items():
        start = time.monotonic()
        bundles[name] = run_scenario(scenario)
        seconds[name] = time.monotonic() - start
    return bundles, seconds


@pytest.fixture(scope="module")
def defended(undefended):
    bundles = {}
    start = time.monotonic()
    for name, scenario in builtin_scenarios().items():
        defended_scenario = replace(scenario, name=f"{name}-defended", defense=DelayElementConfig())
        bundles[name] = run_scenario(defended_scenario)
    # Fine-grained mode: per-k parameters fitted to the k=2 attack populations.
    base = undefended[0]["k2-hw-100m"]
    y_rtt = base.samples.values(DELTA_RTT, "Y")
    y_disp = base.samples.values(DISPERSION, "Y")
    first_fit, _ = fit_gpd(y_rtt)
    followup_fit, _ = fit_gpd(y_disp)
    perk_cfg = DelayElementConfig(first_delay=gpd(first_fit), followup_delay=gpd(followup_fit))
    perk = run_scenario(
        replace(builtin_scenarios()["k2-hw-100m"], name="k2-hw-100m-perk", defense=perk_cfg)
    )
    elapsed = time.monotonic() - start
    return bundles, perk, elapsed


def test_criterion_1_dispersion_closed_form():
    from sdnfp.netsim import transmission_delay_ns

    start = time.monotonic()
    rng = np.random.default_rng(2024)
    key = FlowKey("a", "b")
    for _ in range(25):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        fwd = tuple(
            LinkSpec(int(rng.integers(5_000_000, 3_000_000_000)), int(rng.integers(0, 5_000_000)))
            for _ in range(n)
        )
        rev = tuple(LinkSpec(int(rng.integers(5_000_000, 3_000_000_000))) for _ in range(m))
        path = PathSpec(fwd, rev)
        size = int(rng.integers(100, 1501))
        pair = (Packet(0, key, size), Packet(1, key, size))
        first, second = run_schedule(pair, path, 0).client_recv_ns
        expected = transmission_delay_ns(size, min(fwd, key=lambda link: link.capacity_bps))
        assert abs((second - first) - expected) <= 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, f"pair dispersion == S/B_min on 25 random shapes in {elapsed:.2f}s")


def test_criterion_2_eer_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    res = compute_eer(rng.uniform(0, 2, 100_000), rng.uniform(1, 3, 100_000))
    assert res.eer == pytest.approx(0.25, abs=0.01)
    assert res.threshold_ms == pytest.approx(1.5, abs=0.02)
    identical = list(np.linspace(-1, 1, 1000))
    assert compute_eer(identical, identical).eer == 0.5
    assert compute_eer([0.0, 0.5, 0.9], [2.0, 2.5, 3.0]).eer == 0.0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(2, f"uniform crossing {res.eer:.4f} @ {res.threshold_ms:.3f} ms, "
          f"identical=0.5, disjoint=0 in {elapsed:.2f}s")


def test_criterion_3_gpd_round_trip():
    start = time.monotonic()
    params = GPDParams(shape=-0.53, scale=10.58, location=0.57)
    rng = np.random.default_rng(42)
    samples = gpd_sample(params, rng, 100_000)
    assert samples.mean() == pytest.approx(7.49, rel=0.01)
    assert samples.min() >= 0.57
    assert samples.max() <= 20.5306 + 1e-9
    fitted, ks = fit_gpd(samples)
    assert fitted.shape == pytest.approx(-0.53, abs=0.05)
    assert fitted.scale == pytest.approx(10.58, rel=0.05)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(3, f"refit shape {fitted.shape:.3f}, scale {fitted.scale:.3f}, "
          f"mean {samples.mean():.3f} ms, KS {ks:.4f} in {elapsed:.1f}s")


def test_criterion_4_attack_reproduction(undefended):
    bundles, seconds = undefended
    details = []
    for name in HW_NAMES:
        for feature in (DISPERSION, DELTA_RTT):
            eer = bundles[name].feature_results[feature].eer.eer
            assert eer <= 0.05, f"{name}/{feature} EER {eer:.2%} above 5%"
    for feature in (DISPERSION, DELTA_RTT):
        sw_eer = bundles[SW_NAME].feature_results[feature].eer.eer
        assert sw_eer <= 0.08, f"{SW_NAME}/{feature} EER {sw_eer:.2%} above 8%"
        hw_max = max(bundles[n].feature_results[feature].eer.eer for n in HW_NAMES)
        assert sw_eer > hw_max, "software switch must be harder to fingerprint"
        details.append(f"{feature}: hw<= {hw_max:.2%}, sw {sw_eer:.2%}")
    for name in ("k3-hw-1g", "k1-sw-1g"):
        for feature in (DISPERSION, DELTA_RTT):
            eer = bundles[name].feature_results[feature].eer.eer
            bound = 0.08 if "sw" in name else 0.05
            assert eer <= bound
    for name, secs in seconds.items():
        assert secs < 60.0, f"{name} took {secs:.1f}s"
    ok(4, "; ".join(details) + f"; slowest scenario {max(seconds.values()):.1f}s")


def test_criterion_5_time_span_degradation():
    registry = builtin_scenarios()
    details = []
    for name in HW_NAMES + (SW_NAME,):
        eers = {}
        disp = {}
        for span_s in (1, 600):
            scenario = drift_variant(registry[name], span_s * S)
            bundle = run_scenario(scenario)
            eers[span_s] = bundle.feature_results[DELTA_RTT].eer.eer
            disp[span_s] = bundle.feature_results[DISPERSION].eer.eer
        assert eers[600] > eers[1], f"{name}: 10-minute EER must exceed 1-second EER"
        assert abs(disp[600] - disp[1]) < 0.01, f"{name}: dispersion drifted"
        details.append(f"{name} {eers[1]:.2%}->{eers[600]:.2%}")
    ok(5, "; ".join(details))


def test_criterion_6_defense_effectiveness(undefended, defended):
    undef_bundles, _ = undefended
    def_bundles, perk, elapsed = defended
    for feature in (DISPERSION, DELTA_RTT):
        eer = def_bundles["k3-hw-100m"].feature_results[feature].eer.eer
        assert eer >= 0.30, f"k3-hw-100m/{feature} defended EER {eer:.2%} below 30%"
    for name in builtin_scenarios():
        for feature in (DISPERSION, DELTA_RTT):
            d = def_bundles[name].feature_results[feature].eer.eer
            u = undef_bundles[name].feature_results[feature].eer.eer
            assert abs(d - 0.5) < abs(u - 0.5), f"{name}/{feature} not closer to 0.5"
    for feature in (DISPERSION, DELTA_RTT):
        eer = perk.feature_results[feature].eer.eer
        assert eer >= 0.40, f"per-k k2/{feature} EER {eer:.2%} below 40%"
    assert elapsed < 120.0
    k3d = def_bundles["k3-hw-100m"].feature_results
    ok(6, f"k3 defended disp {k3d[DISPERSION].eer.eer:.2%} / "
          f"dRTT {k3d[DELTA_RTT].eer.eer:.2%}; per-k k2 "
          f"{perk.feature_results[DISPERSION].eer.eer:.2%} / "
          f"{perk.feature_results[DELTA_RTT].eer.eer:.2%}; defense runs {elapsed:.0f}s")


def test_criterion_7_zero_cost_when_active():
    from sdnfp.distributions import lognormal, pareto

    key = FlowKey("10.0.0.2", "10.0.1.2")
    cross = pareto(90_000, 2_000_000_000)
    # The first packet opens the defended flow's 100 ms follow-up window; the
    # 10,000 after it come 100 ms apart while the flow is active, from two
    # windows after it, so only a first-link delay 100 ms above their own
    # would hold one as a follow-up.
    packets = tuple(Packet(i, key, 1500, sent_at_ns=(i + 1) * 100_000_000 if i else 0) for i in range(10_001))

    def run(defended):
        sw = SwitchSpec(lognormal(4_500_000, 0.6))
        path = uniform_path(4, 4, 100_000_000, (sw,), cross_traffic=cross)
        if defended:
            path = replace(path, delay_element=DelayElementConfig())
        trace = run_schedule(packets, path, 99, warm=True)
        return trace.server_recv_ns[1:].tolist(), trace.client_recv_ns[1:].tolist()

    assert run(False) == run(True)
    ok(7, "10,000 warm-flow packets bit-exact under the delay element")


def test_criterion_8_statistical_significance(undefended):
    bundles, _ = undefended
    for name, bundle in bundles.items():
        for feature in (DISPERSION, DELTA_RTT):
            welch = bundle.feature_results[feature].welch
            assert welch.significant_at_1pct, f"{name}/{feature} not significant at 1%"
    ok(8, f"PDF_N vs PDF_Y significant at 1% on all {len(bundles)} shipped scenarios")


def test_criterion_9_determinism(tmp_path):
    scenario = builtin_scenarios()["k1-sw-100m"]
    digests = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        run_scenario(scenario, out_dir=out)
        digests.append(
            {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(out.iterdir())
            }
        )
    assert digests[0] == digests[1]
    ok(9, f"byte-identical re-run across {len(digests[0])} artifact files")
