"""Golden behaviour digests: the six built-in scenarios at their shipped seeds,
their 600 s drift variants and their Table-4 defended runs.

The traces and samples digests are those of the benchmark's golden outputs;
results.json is pinned by digest as well.  Generator streams are only
promised stable per numpy version, so the digests hold for the version they
were recorded with and the test is skipped on any other.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sdnfp.defense import DelayElementConfig
from sdnfp.scenario import builtin_scenarios, drift_variant, run_scenario
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_bundle_digests(name, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}")
    run_scenario(builtin_scenarios()[name], tmp_path)
    for filename, digest in GOLDEN[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename


def variant(name):
    """A GOLDEN_VARIANTS run as the benchmark builds it: drift_variant at 600 s,
    or `sdnfp defend`'s reference delay element."""
    builtins = builtin_scenarios()
    if name.endswith("-drift-600s"):
        return drift_variant(builtins[name.removesuffix("-drift-600s")], 600 * NS_PER_S)
    base = builtins[name.removesuffix("-defended")]
    return replace(base, name=name, defense=DelayElementConfig())


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIANTS))
def test_drift_and_defended_bundle_digests(name, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}")
    run_scenario(variant(name), tmp_path)
    for filename, digest in GOLDEN_VARIANTS[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename
