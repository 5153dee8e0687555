"""Golden behaviour digests: the six built-in scenarios at their shipped seeds,
their 600 s drift variants and their Table-4 defended runs.

The traces and samples digests, the report's PDF_N/PDF_Y histograms and each
built-in's `eer --curve` sweep curves are read from the benchmark's golden
file, bench/golden.json, which records them for its workloads.  results.json
and the report's summary.csv, which that file records by value only, are
pinned by digest here.  Each of these bundles, and a per-k defended run,
re-runs byte for byte from its own scenario.json sidecar, whose summary fields
hold what the benchmark's golden file records.  The `sdnfp fit` JSONs of
k2-hw-100m and the fit of criterion 3's sample are pinned by value.
Generator streams are only promised stable per numpy version, so the digests
hold for the version they were recorded with and the test is skipped on any
other.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdnfp.cli import main
from sdnfp.defense import DelayElementConfig
from sdnfp.distributions import GPDParams, gpd
from sdnfp.scenario import BUILTINS, drift_variant, read_scenario_descriptor, run_scenario
from sdnfp.stats import fit_gpd
from sdnfp.units import NS_PER_S

from gpd_sampler import gpd_sample

GOLDEN_NUMPY = "2.4.6"
GOLDEN_OPS = json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())["ops"]

# results.json of each built-in, drift and defended run.  The two 600 s drift
# runs and the six Table-4 defended runs draw from the drift and defense
# streams, which the plain built-ins never touch.
RESULTS = {
    "k1-hw-100m": "5e446a6bdb712e413e8f7b8de2a0a7b6ca704560d2ca1c9abc6e4e240bc0a841",
    "k2-hw-100m": "e2e1704ec611ae7f2821889909f566784938202f7b186268c6be4c486912f1cd",
    "k3-hw-100m": "227df4a7ee2f2000167dd56a90ef171e93a604d266db7752e694358d60ebbbb1",
    "k1-sw-100m": "686c459fde806320b8f35cfb8664f9ee01e1666237785a38af2da513b801607f",
    "k3-hw-1g": "732f5de91bc6c98ffe77f57cba13c88d835eae9d678089063934cd1f7b08ee10",
    "k1-sw-1g": "4cc1381d6f7371c0462ae4251ae269b2c898e9ce0df4aa72ebe180f2afecf317",
    "k1-hw-100m-drift-600s": "a3302420a1964459b35591e6e8c4ea942a59b062a7be4dcb91d0c22ac946e99b",
    "k1-sw-100m-drift-600s": "b53d05f08d9b6841701f5c3afedbd1bddc0f2cebb1fd8e09f32c972862f3a5e2",
    "k1-hw-100m-defended": "ddfa2078df9bca184a248b49e75a9b729d5bdf7b24add2ccbfd0cbb4172ee94f",
    "k2-hw-100m-defended": "32b36915d8988d7116549faea1c1142c83f31360a9663f3cba9a3eaded9e28dc",
    "k3-hw-100m-defended": "9d2445301f539bc82dfaf1db8fef62bd991f540fa1d2cbdf96052943fa4cc9c3",
    "k1-sw-100m-defended": "8581811cc29d8afa4d191ba4ab81d0d8a1030b9b935e87a06b19080e00c25e2c",
    "k3-hw-1g-defended": "155731c446188f030bf69c9f4fee9ebdc92d6c758f529e635b225e95096a4cff",
    "k1-sw-1g-defended": "27bc6bb449d093c39f5e4b7ad6f02146fa4a6bdc73b92b1745dcdc49d9e67d5c",
}
BUILTIN_NAMES = sorted(BUILTINS)
VARIANTS = sorted(set(RESULTS) - set(BUILTIN_NAMES))

# summary.csv of `sdnfp report` over the six built-in bundles, in
# BUILTINS order.
GOLDEN_SUMMARY = "465bfced384c1c2c9aff86a5c867ddfa859aba5e7b5dc7b3a84c3ae79123e59c"


def recorded(op):
    """The digests the benchmark's golden file records for operation `op`, by relative path."""
    return GOLDEN_OPS[op]["digests"]


def bundle_digests(name):
    """Digest of each file of run `name`'s bundle that the tests pin."""
    defended = name.removesuffix("-defended")
    op = f"defense/defend {defended}" if defended != name else f"attack/simulate {name}"
    files = {rel.removeprefix(f"{name}/"): d for rel, d in recorded(op).items()}
    assert set(files) == {"traces.csv", "samples.csv"}, op
    return {**files, "results.json": RESULTS[name]}


def needs_golden_numpy():
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}")


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def builtin_bundles(tmp_path_factory):
    """The six built-in bundles, each simulated once for every test here."""
    needs_golden_numpy()
    out = tmp_path_factory.mktemp("builtins")
    for name, scenario in BUILTINS.items():
        run_scenario(scenario, out / name)
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_bundle_digests(name, builtin_bundles):
    for filename, expected in bundle_digests(name).items():
        assert digest(builtin_bundles / name / filename) == expected, filename


def test_report_digests(builtin_bundles, tmp_path):
    bundles = [str(builtin_bundles / name) for name in BUILTINS]
    assert main(["report", "--bundles", *bundles, "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "summary.csv") == GOLDEN_SUMMARY
    histograms = recorded("offline/report")
    assert len(histograms) == 4 * len(BUILTIN_NAMES)
    for filename, expected in histograms.items():
        assert digest(tmp_path / filename) == expected, filename


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_eer_curve_digests(name, builtin_bundles, tmp_path):
    samples = builtin_bundles / name / "samples.csv"
    assert main(["eer", "--samples", str(samples), "--out", str(tmp_path), "--curve"]) == 0
    curves = recorded(f"offline/eer {name}")
    assert sorted(curves) == ["curve_delta_rtt.csv", "curve_dispersion.csv"]
    for filename, expected in curves.items():
        assert digest(tmp_path / filename) == expected, filename


# `sdnfp fit` of each Y population of k2-hw-100m: the delay GPDs of the
# fitted per-k defense, compared value for value.
GOLDEN_FITS = {
    "delta_rtt": {
        "feature": "delta_rtt",
        "ks": 0.17493242289997904,
        "label": "Y",
        "location_ms": 1.606743,
        "n_samples": 450,
        "scale_ms": 6.531556024414752,
        "shape": -0.23363762408208952,
    },
    "dispersion": {
        "feature": "dispersion",
        "ks": 0.1653954341429897,
        "label": "Y",
        "location_ms": 1.9387860000000001,
        "n_samples": 450,
        "scale_ms": 6.775032292259144,
        "shape": -0.23417149122198758,
    },
}


@pytest.mark.parametrize("feature", sorted(GOLDEN_FITS))
def test_fit_json_values(feature, builtin_bundles, tmp_path):
    samples = builtin_bundles / "k2-hw-100m" / "samples.csv"
    out = tmp_path / "fit.json"
    assert main(["fit", "--samples", str(samples), "--feature", feature, "--label", "Y", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == GOLDEN_FITS[feature]


def test_fit_gpd_on_criterion_3s_sample():
    needs_golden_numpy()
    x = gpd_sample(GPDParams(shape=-0.53, scale=10.58, location=0.57), np.random.default_rng(42), 100_000)
    fit, ks = fit_gpd(x)
    assert (fit.shape, fit.scale, fit.location, ks) == (
        -0.5311844274324728, 10.599353136343975, 0.5701383237558306, 0.0023857011324339705
    )


PER_K = "k2-hw-100m-per-k"


def variant(name):
    """A VARIANTS run as the benchmark builds it: drift_variant at 600 s,
    or `sdnfp defend`'s reference delay element; or k2-hw-100m with fitted
    delay GPDs, as `sdnfp defend --first-delay --followup-delay` runs it."""
    if name.endswith("-drift-600s"):
        return drift_variant(BUILTINS[name.removesuffix("-drift-600s")], 600 * NS_PER_S)
    if name == PER_K:
        element = DelayElementConfig(
            first_delay=gpd(GPDParams(-0.3, 3.5, 0.2)), followup_delay=gpd(GPDParams(-0.2, 1.25, 0.05))
        )
        return replace(BUILTINS["k2-hw-100m"], name=name, defense=element)
    base = BUILTINS[name.removesuffix("-defended")]
    return replace(base, name=name, defense=DelayElementConfig())


@pytest.fixture(scope="module")
def bundle(builtin_bundles, tmp_path_factory):
    """The bundle directory of a run by name: a built-in, or a variant,
    simulated on first use."""
    out = tmp_path_factory.mktemp("variants")

    def simulated(name):
        if name in BUILTIN_NAMES:
            return builtin_bundles / name
        if not (out / name).exists():
            run_scenario(variant(name), out / name)
        return out / name

    return simulated


@pytest.mark.parametrize("name", VARIANTS)
def test_drift_and_defended_bundle_digests(name, bundle):
    for filename, expected in bundle_digests(name).items():
        assert digest(bundle(name) / filename) == expected, filename


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, *VARIANTS, PER_K])
def test_bundle_reruns_from_its_sidecar(name, bundle, tmp_path):
    original = bundle(name)
    scenario = BUILTINS[name] if name in BUILTIN_NAMES else variant(name)
    assert read_scenario_descriptor(original) == scenario
    assert main(["simulate", "--config", str(original / "scenario.json"), "--out", str(tmp_path)]) == 0
    for filename in ("traces.csv", "samples.csv", "results.json", "scenario.json"):
        assert (tmp_path / name / filename).read_bytes() == (original / filename).read_bytes(), filename


# (operation, run name, fields) of each scenario.json the benchmark's golden file records.
GOLDEN_SIDECARS = [
    (op, rel.split("/")[0], fields)
    for op, entry in sorted(GOLDEN_OPS.items())
    for rel, fields in entry["fields"].items()
    if rel.endswith("/scenario.json")
]


@pytest.mark.parametrize("op, name, fields", GOLDEN_SIDECARS, ids=[op for op, _, _ in GOLDEN_SIDECARS])
def test_sidecar_holds_the_golden_summary_fields(op, name, fields, bundle):
    # The benchmark compares only the recorded fields, each by value and type.
    sidecar = json.loads((bundle(name) / "scenario.json").read_text())
    assert {k: (type(sidecar.get(k)), sidecar.get(k)) for k in fields} == {
        k: (type(v), v) for k, v in fields.items()
    }
