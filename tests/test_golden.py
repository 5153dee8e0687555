"""Golden behaviour digests: the six built-in scenarios at their shipped seeds.

The traces and samples digests are those of the benchmark's golden outputs;
results.json is pinned by digest as well.  Generator streams are only
promised stable per numpy version, so the digests hold for the version they
were recorded with and the test is skipped on any other.
"""

import hashlib

import numpy as np
import pytest

from sdnfp.scenario import builtin_scenarios, run_scenario

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_bundle_digests(name, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests were recorded with numpy {GOLDEN_NUMPY}, this is {np.__version__}")
    run_scenario(builtin_scenarios()[name], tmp_path)
    for filename, digest in GOLDEN[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename
