"""Golden behaviour digests: the six built-in scenarios at their shipped seeds,
their 600 s drift variants and their Table-4 defended runs.

The traces and samples digests are those of the benchmark's golden outputs;
results.json is pinned by digest as well.  So are the report over the six
built-in bundles (summary.csv and every PDF_N/PDF_Y histogram) and each
built-in's `eer --curve` sweep curves.  Each of these bundles, and a per-k
defended run, re-runs byte for byte from its own scenario.json sidecar, whose
summary fields hold what the benchmark's golden file records.  Generator
streams are only promised stable per numpy version, so the digests hold for
the version they were recorded with and the test is skipped on any other.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdnfp.cli import main
from sdnfp.defense import DelayElementConfig
from sdnfp.scenario import builtin_scenarios, drift_variant, read_scenario_descriptor, run_scenario
from sdnfp.stats import GPDParams
from sdnfp.units import NS_PER_S

GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    "k1-hw-100m": {
        "traces.csv": "202fad00a2efd938bf8c27a726efb505803dd8ba414bb4ba97fae936a5bd6b50",
        "samples.csv": "24e0741690da0dbe4db92e87a980d0b632c883143094b52bcfab833d597885ac",
        "results.json": "5e446a6bdb712e413e8f7b8de2a0a7b6ca704560d2ca1c9abc6e4e240bc0a841",
    },
    "k2-hw-100m": {
        "traces.csv": "cd91590beab59b5b66f2f26554078ac94661ce81eb31fd051b4fc48c9564a9d5",
        "samples.csv": "3e4aa7aab5cb02d45d7e1df350092baee5d6ab6deb069b5c82236dd45b99994e",
        "results.json": "e2e1704ec611ae7f2821889909f566784938202f7b186268c6be4c486912f1cd",
    },
    "k3-hw-100m": {
        "traces.csv": "969b96e0e37ba026272985de75672cb8f77264b2d4f70181567a8d1e11fe6c52",
        "samples.csv": "d6807467d9897aaf9b27365592202ca91f8c3669b938335bbfdfe68dd54133b7",
        "results.json": "227df4a7ee2f2000167dd56a90ef171e93a604d266db7752e694358d60ebbbb1",
    },
    "k1-sw-100m": {
        "traces.csv": "ee03835daf2e6fd2ecb5bdfaa8916bb74dc51d4c2fb7a178c2a08767229215c1",
        "samples.csv": "c730403b6c569dd5cc6bdd73e47ecfc3931e41699c98a93fac5015b64abc32fb",
        "results.json": "686c459fde806320b8f35cfb8664f9ee01e1666237785a38af2da513b801607f",
    },
    "k3-hw-1g": {
        "traces.csv": "81fd6f981d67590da28a421f96f0698e999dce9bf13d2af3c1b686f3f7719846",
        "samples.csv": "b3f511aac7676a1b0ea6d98e5b00a5dadd3633e32731a2407c7e02abc1f11e25",
        "results.json": "732f5de91bc6c98ffe77f57cba13c88d835eae9d678089063934cd1f7b08ee10",
    },
    "k1-sw-1g": {
        "traces.csv": "7dd80b37f8436702e926530ae9643b8e559cf8fa995ac2171dcf2df3c22628b3",
        "samples.csv": "036e8d21886ffb21d6f7a1f5c5fd2dddf7fe86a815e1a88f0010502913bc4e85",
        "results.json": "4cc1381d6f7371c0462ae4251ae269b2c898e9ce0df4aa72ebe180f2afecf317",
    },
}

# summary.csv of `sdnfp report` over the six built-in bundles, in
# builtin_scenarios() order.
GOLDEN_SUMMARY = "465bfced384c1c2c9aff86a5c867ddfa859aba5e7b5dc7b3a84c3ae79123e59c"

# Per built-in: its report histograms, without the "<name>__" prefix, and the
# curves `sdnfp eer --curve` writes from its samples.csv.
GOLDEN_OUTPUTS = {
    "k1-hw-100m": {
        "delta_rtt__pdf_N.csv": "865215b1bc4c5aedef06473b0d51d17a32d4c21ea394394e51c81b3ade06a5f3",
        "delta_rtt__pdf_Y.csv": "37401cd0dc351d5a594a7fb17d80f7da2a1cfcd3b6b84498bf6d57fca0ef15b2",
        "dispersion__pdf_N.csv": "b39a68114e0837ccb5abeee4b7c00bcc74f40d650f57d372821a15465940e161",
        "dispersion__pdf_Y.csv": "40d70cdf53199a6c33b92a9076785ced52aaade7be7af2455d9ebca542720edc",
        "curve_delta_rtt.csv": "0e363bbab678d80f498c63f46bf29edf26e9de80f759df0f5d76a25980b71c1f",
        "curve_dispersion.csv": "126bfcb169524c47722515420a70a5c559f3b535c2c5f810abce5506981031ab",
    },
    "k2-hw-100m": {
        "delta_rtt__pdf_N.csv": "8e15ebbd28b180747c5decad939b5a4de310fc46c186d2cc709d975a5821a042",
        "delta_rtt__pdf_Y.csv": "775ffbe62781f5689286d1d2e9ee379d351303ce9356e931409b439dac48bbf2",
        "dispersion__pdf_N.csv": "4fd247d4c020910f99b5d4980cd20527974c1adf80632e0d6e3ebbb4623fd96b",
        "dispersion__pdf_Y.csv": "0f2db33d9363fdf0c5d28fd4e3e1c0782ca617eb2f04e527ad83e9e67ffc318e",
        "curve_delta_rtt.csv": "2aa6c5713328cf69666d7be16d51f263e8ea8dcbfe361233ae66b20e2f1c3b48",
        "curve_dispersion.csv": "212112a415b79139df40acab926ad44e3b02f334ec98a8202b62467d90b6c440",
    },
    "k3-hw-100m": {
        "delta_rtt__pdf_N.csv": "38116799180ab93ec5054fabee7c64b38b16923922f523d359ce70a7ca761b7b",
        "delta_rtt__pdf_Y.csv": "0a300eeae6881d2d9af74cba293bc4d36d232d06fc9630cb496c64ad3011ee27",
        "dispersion__pdf_N.csv": "3908c884e91663ae29ab24938691a198198e88be6b298b7896d7bb76cf043fe6",
        "dispersion__pdf_Y.csv": "021ae458651c1638534323b6787e3c404a9b767c18fe9cc984e04f2de6179fbf",
        "curve_delta_rtt.csv": "72050ed2b0a8e9fe5552c8c38980450209d22852c1a5cbc41ad9bc62c9d0f75f",
        "curve_dispersion.csv": "e2a02cccd524972cbb06c7045308642af9c3f054da18ef1bc22dd557e9780353",
    },
    "k1-sw-100m": {
        "delta_rtt__pdf_N.csv": "a6a187feb97003d88f19dc2dfe0a03484fab52135555ad7304c97a1a25557916",
        "delta_rtt__pdf_Y.csv": "183a53fc2f3cbe18b936d68b4dd5d07819070b5b05a59afc65f6d58b865f7443",
        "dispersion__pdf_N.csv": "ea8f837f9604df149566db5fd7511ed21e4aba5fab1a434f4656bb79b04bf3d9",
        "dispersion__pdf_Y.csv": "2a85f5be0552e4dbaa3644cc16a9ab6842c2fcb7a82fda1db0c69bc56c1dd6ee",
        "curve_delta_rtt.csv": "93b13859d30b2e8dc767802ce36ab257aa019e88c828e3ef42076270b3da46c7",
        "curve_dispersion.csv": "8f1b9418eaae22a065ffa4c74dfed30b9968d7d0b580db72417dd3f165456eae",
    },
    "k3-hw-1g": {
        "delta_rtt__pdf_N.csv": "6601a6f2281947dedd4bc9c45d4801f25a7ccfa088b49f3993f2f6a0f92b093d",
        "delta_rtt__pdf_Y.csv": "6dd10ad594738d83ec20be4654a271ef8cd6d1f0784b59f2dad266d2aee15254",
        "dispersion__pdf_N.csv": "ebba459162c548bf6f7014335fe081fcdd9edbdd29ddd121c4698b64c1aa320e",
        "dispersion__pdf_Y.csv": "5587d4c4026a1632cd2e3c8d608812dffda2e6b0819add855b57942ed8411d57",
        "curve_delta_rtt.csv": "91bc2004664511eb586780896a0c050a0dea3e52005e315aaf909466178fe0e5",
        "curve_dispersion.csv": "40d1b1347dd79455d1ab80f3738bdbe7f2960c7ac2a104718e1127145db93159",
    },
    "k1-sw-1g": {
        "delta_rtt__pdf_N.csv": "0cbe167b7fec10d7bcb6fbb6763484963a06c00b9c17326451ff103cfe9de603",
        "delta_rtt__pdf_Y.csv": "cbbbd62e650b9fefce51925f7e746398e87041e4176a49e36b5b2b633e0c85ce",
        "dispersion__pdf_N.csv": "1d17d9e32b559a406333760e80cd03e931bacc2a7e129133462a668499424688",
        "dispersion__pdf_Y.csv": "b8d31228f66dfd0e399e562ddd05c73d1e5c4fb37af0bf21aeade7985e990eed",
        "curve_delta_rtt.csv": "12f740ca86d6ecd73a31b8a60e190da92b0de55a554768b69864bc5224fceb08",
        "curve_dispersion.csv": "4c89d8365ac2c28ea3151ffa0c5167d242a247d0aeaf233891ee402cf70a8690",
    },
}


# The two 600 s drift runs and the six Table-4 defended runs draw from the
# drift and defense streams, which the plain built-ins never touch.
GOLDEN_VARIANTS = {
    "k1-hw-100m-drift-600s": {
        "traces.csv": "add0a2040fbb5d243df583ec1c7602b4a669882615e7d94452be536dfe6bd9a8",
        "samples.csv": "1dab35cf712d5363a8831130b9383820e4a6cb15bd97f22e5f0ae73692ba7b71",
        "results.json": "a3302420a1964459b35591e6e8c4ea942a59b062a7be4dcb91d0c22ac946e99b",
    },
    "k1-sw-100m-drift-600s": {
        "traces.csv": "e724cb73f1cd5a7e6c5b92eed67f480543f9e50aa45105f56f5a928ff63dd4c9",
        "samples.csv": "7750a083f120730116d7af81959c89d44b225baac653c86d01160f90839e0ff8",
        "results.json": "b53d05f08d9b6841701f5c3afedbd1bddc0f2cebb1fd8e09f32c972862f3a5e2",
    },
    "k1-hw-100m-defended": {
        "traces.csv": "0bdf5af5aba47b7c968426cab94fc91010674654f271fc15ce919d3be78aed5f",
        "samples.csv": "6445a3aa4c30a92c7d061988ce45df5d7f6e1e22c4c3537832d9f44c9be30896",
        "results.json": "ddfa2078df9bca184a248b49e75a9b729d5bdf7b24add2ccbfd0cbb4172ee94f",
    },
    "k2-hw-100m-defended": {
        "traces.csv": "c16d02a737b4fcb61478f87ab69053e6686080352ff5fd51775095cf9e703726",
        "samples.csv": "4c6463e046e50ce437c1333084770b479c05cccafcf3eb049494d7d5d02dd65d",
        "results.json": "32b36915d8988d7116549faea1c1142c83f31360a9663f3cba9a3eaded9e28dc",
    },
    "k3-hw-100m-defended": {
        "traces.csv": "b7435ec0dad47fb4e5fc2851e0ff714f71c9735192af224267ccba96242dd5fb",
        "samples.csv": "e997569ade80882b33f097f49694f1d1da3f0a5c22a5b2f03be122d08d03c6eb",
        "results.json": "9d2445301f539bc82dfaf1db8fef62bd991f540fa1d2cbdf96052943fa4cc9c3",
    },
    "k1-sw-100m-defended": {
        "traces.csv": "2ab792350e2255bcb333e6de179bbbaa62ba7c4aee86b92cade855f15c04a1b6",
        "samples.csv": "21b2903dfc9ab62f78263ea0205814e0bce955085c17d731fe5505ca26c8f640",
        "results.json": "8581811cc29d8afa4d191ba4ab81d0d8a1030b9b935e87a06b19080e00c25e2c",
    },
    "k3-hw-1g-defended": {
        "traces.csv": "e99030b4357944dc30b29616dbe83e2b0049cf215385c69220eb393579566c11",
        "samples.csv": "248215734dd01ef904742cfa95dd7fd9c4f9b0592613898bb1f290b6270451f6",
        "results.json": "155731c446188f030bf69c9f4fee9ebdc92d6c758f529e635b225e95096a4cff",
    },
    "k1-sw-1g-defended": {
        "traces.csv": "686689eb60507e85a63cdbce19e4f15f566e8bf15ad74102205d059e32dced03",
        "samples.csv": "d6efc98b875ef054b235b1566dd3dc885aa7bc113aa286f20c180393c0d59690",
        "results.json": "27bc6bb449d093c39f5e4b7ad6f02146fa4a6bdc73b92b1745dcdc49d9e67d5c",
    },
}


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
    for name, scenario in builtin_scenarios().items():
        run_scenario(scenario, out / name)
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_bundle_digests(name, builtin_bundles):
    for filename, expected in GOLDEN[name].items():
        assert digest(builtin_bundles / name / filename) == expected, filename


def test_report_digests(builtin_bundles, tmp_path):
    bundles = [str(builtin_bundles / name) for name in builtin_scenarios()]
    assert main(["report", "--bundles", *bundles, "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "summary.csv") == GOLDEN_SUMMARY
    for name, files in GOLDEN_OUTPUTS.items():
        for filename, expected in files.items():
            if "__pdf_" in filename:
                assert digest(tmp_path / f"{name}__{filename}") == expected, (name, filename)


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_eer_curve_digests(name, builtin_bundles, tmp_path):
    samples = builtin_bundles / name / "samples.csv"
    assert main(["eer", "--samples", str(samples), "--out", str(tmp_path), "--curve"]) == 0
    for filename, expected in GOLDEN_OUTPUTS[name].items():
        if filename.startswith("curve_"):
            assert digest(tmp_path / filename) == expected, filename


PER_K = "k2-hw-100m-per-k"


def variant(name):
    """A GOLDEN_VARIANTS run as the benchmark builds it: drift_variant at 600 s,
    or `sdnfp defend`'s reference delay element; or k2-hw-100m with a per-k
    delay element."""
    builtins = builtin_scenarios()
    if name.endswith("-drift-600s"):
        return drift_variant(builtins[name.removesuffix("-drift-600s")], 600 * NS_PER_S)
    if name == PER_K:
        pair = (GPDParams(-0.3, 3.5, 0.2), GPDParams(-0.2, 1.25, 0.05))
        return replace(builtins["k2-hw-100m"], name=name, defense=DelayElementConfig(per_k={2: pair}))
    base = builtins[name.removesuffix("-defended")]
    return replace(base, name=name, defense=DelayElementConfig())


@pytest.fixture(scope="module")
def bundle(builtin_bundles, tmp_path_factory):
    """The bundle directory of a run by name: a built-in, or a variant,
    simulated on first use."""
    out = tmp_path_factory.mktemp("variants")

    def simulated(name):
        if name in GOLDEN:
            return builtin_bundles / name
        if not (out / name).exists():
            run_scenario(variant(name), out / name)
        return out / name

    return simulated


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIANTS))
def test_drift_and_defended_bundle_digests(name, bundle):
    for filename, expected in GOLDEN_VARIANTS[name].items():
        assert digest(bundle(name) / filename) == expected, filename


@pytest.mark.parametrize("name", [*sorted(GOLDEN), *sorted(GOLDEN_VARIANTS), PER_K])
def test_bundle_reruns_from_its_sidecar(name, bundle, tmp_path):
    original = bundle(name)
    scenario = builtin_scenarios()[name] if name in GOLDEN else variant(name)
    assert read_scenario_descriptor(original) == scenario
    assert main(["simulate", "--config", str(original / "scenario.json"), "--out", str(tmp_path)]) == 0
    for filename in ("traces.csv", "samples.csv", "results.json", "scenario.json"):
        assert (tmp_path / name / filename).read_bytes() == (original / filename).read_bytes(), filename


# (operation, run name, fields) of each scenario.json the benchmark's golden file records.
GOLDEN_SIDECARS = [
    (op, rel.split("/")[0], fields)
    for op, recorded in sorted(
        json.loads((Path(__file__).parents[1] / "bench" / "golden.json").read_text())["ops"].items()
    )
    for rel, fields in recorded["fields"].items()
    if rel.endswith("/scenario.json")
]


@pytest.mark.parametrize("op, name, fields", GOLDEN_SIDECARS, ids=[op for op, _, _ in GOLDEN_SIDECARS])
def test_sidecar_holds_the_golden_summary_fields(op, name, fields, bundle):
    # The benchmark compares only the recorded fields, each by value and type.
    sidecar = json.loads((bundle(name) / "scenario.json").read_text())
    assert {k: (type(sidecar.get(k)), sidecar.get(k)) for k in fields} == {
        k: (type(v), v) for k, v in fields.items()
    }
