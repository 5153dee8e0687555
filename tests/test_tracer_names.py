"""The benchmark's per-layer tracer patches package names by attribute; every
name it patches must still resolve, or `bench/run.py --trace 1` crashes."""

import importlib.util
from pathlib import Path

import sdnfp.cli as cli
import sdnfp.netsim as netsim
import sdnfp.scenario as scenario

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    originals = (cli.cmd_eer, cli.compute_eer, scenario.compute_eer, netsim.Simulation.exchange)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert cli.cmd_eer is not originals[0]
    finally:
        tracer.restore()
    assert (cli.cmd_eer, cli.compute_eer, scenario.compute_eer, netsim.Simulation.exchange) == originals
