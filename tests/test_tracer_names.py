"""The benchmark's per-layer tracer patches package names by attribute; every
name it patches must still resolve, or `bench/run.py --trace 1` crashes, and a
traced run must write what an untraced one writes."""

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


def run_pipeline(out):
    """simulate, extract, eer and report on k1-hw-100m; every file written, by path."""
    bundle = out / "runs" / "k1-hw-100m"
    for argv in (
        ["simulate", "--scenario", "k1-hw-100m", "--trains", "8", "--out", str(out / "runs")],
        ["extract", "--traces", str(bundle / "traces.csv"), "--out", str(out / "ex")],
        ["eer", "--samples", str(out / "ex" / "samples.csv"), "--out", str(out / "eer")],
        ["report", "--bundles", str(bundle), "--out", str(out / "rep")],
    ):
        assert cli.main(argv) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_traced_pipeline_writes_the_untraced_bytes(tmp_path):
    plain = run_pipeline(tmp_path / "plain")
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        traced = run_pipeline(tmp_path / "traced")
    finally:
        tracer.restore()
    assert traced == plain
    # simulate and extract each label the bundle's samples once.
    rows = len(plain["ex/samples.csv"].splitlines()) - 1
    assert tracer.counts()["features.samples"] == 2 * rows
