"""`src/sdnfp` is what the CLI runs.

One interpreter runs every CLI stage once under `sys.setprofile`: simulate
and defend on the six built-ins, the fitted per-k defend loop on k2-hw-100m,
simulate --config with a 600 s drift entry, extract (train and --passive),
eer --curve, fit on both features, and report.  Every
function and method defined in the package must have been called, unless
ALLOWED lists it with its reason; an allowed name that is called, or that no
longer exists, fails the test too, so the list only shrinks.  The same run
checks that no stage loads scipy: the fit's search and Welch's 1% decision
are the package's own.  It also checks what a stage process starts with:
OpenBLAS limited to one thread, no PyYAML before the first --config stage, no
process pool at --jobs 1, and never numpy.ma.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import sdnfp
import sdnfp.cli

PACKAGE = Path(sdnfp.__file__).resolve().parent
BUILTINS = ("k1-hw-100m", "k2-hw-100m", "k3-hw-100m", "k1-sw-100m", "k3-hw-1g", "k1-sw-1g")

ORACLE = (
    "scalar reference model: only run_schedule_reference runs it, for the differential tests; "
    "bench/tracer.py patches its names"
)

# module:qualname -> why no CLI stage calls it.
ALLOWED = {
    "netsim:FlowKey.reversed": ORACLE,
    "netsim:FlowTable.__init__": ORACLE,
    "netsim:FlowTable.__contains__": ORACLE,
    "netsim:FlowTable.install": ORACLE,
    "netsim:FlowTable.clear": ORACLE,
    "netsim:RngStreams.__init__": ORACLE,
    "netsim:RngStreams.__getattr__": ORACLE,
    "netsim:handle_table_miss": ORACLE,
    "netsim:_InstallWindow.__init__": ORACLE,
    "netsim:Simulation.__init__": ORACLE,
    "netsim:Simulation._wander_at": ORACLE,
    "netsim:Simulation._apply_pending_clear": ORACLE,
    "netsim:Simulation._switch_process": ORACLE,
    "netsim:Simulation.forward": ORACLE,
    "netsim:Simulation.reply_traversal": ORACLE,
    "netsim:Simulation.exchange": ORACLE,
    "probes:run_schedule_reference": ORACLE,
    "defense:select_bucket": ORACLE,
    "defense:delay_for": ORACLE,
    "distributions:DelayModel.sample_ns": ORACLE,
    "distributions:DelayModel.delay_model": "kept for bench/tracer.py, which patches it",
    "stats:_scipy_p_value": "Welch's 1% decision within the band around 1%; "
    "tests/test_stats.py::test_welch_decision_is_scipys_at_the_critical_t",
    "probes:Table.__eq__": "without it == would compare tables by identity",
    "stats:WelchResult.p_value": "the documented p-value; the CLI writes only the 1% decision",
    "scenario:drift_variant": "the benchmark's drift YAML reproduces it; tests/test_golden.py pins it",
}

DRIFT_YAML = """\
scenarios:
  - name: k1-hw-100m-drift-600s
    seed: 20401
    k: 1
    switch_kind: hardware
    data_link: 100 Mbps
    time_span: 600 s
    drift:
      sigma: 150000 ns
"""

# Modules a stage loads only when it uses them: PyYAML for --config, a
# process pool for --jobs above 1.  No stage uses numpy.ma, which np.unique
# imports on its first call without return_counts or indices.
ON_DEMAND = ("yaml", "concurrent.futures", "multiprocessing", "numpy.ma")

# Runs each argv of argv[2] through sdnfp.cli.main under a profile hook, and
# writes the exit codes, the scipy modules loaded after the import and after
# each stage, the ON_DEMAND modules loaded at the same points, OpenBLAS's
# thread setting after the import, and every package function called, to the
# JSON file argv[3].
SCRIPT = """\
import json, os, sys
package, stages, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
on_demand = %r
called = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def on_demand_modules():
    return [m for m in on_demand if m in sys.modules]

sys.setprofile(record)
import sdnfp.cli
loaded = [["import", scipy_modules()]]
on_demand_loaded = [on_demand_modules()]
openblas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
for argv in stages:
    loaded.append([sdnfp.cli.main(argv), scipy_modules()])
    on_demand_loaded.append(on_demand_modules())
sys.setprofile(None)
with open(out, "w") as f:
    json.dump({"stages": loaded, "on_demand": on_demand_loaded, "openblas_threads": openblas_threads,
               "called": sorted(called)}, f)
""" % (ON_DEMAND,)


def defined_functions() -> set[str]:
    """module:qualname of every function and method the package's source defines."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}:{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def run_every_stage(tmp_path):
    runs, defended, fits = tmp_path / "runs", tmp_path / "defended", tmp_path / "fit"
    bundle = runs / "k2-hw-100m"
    (tmp_path / "drift.yaml").write_text(DRIFT_YAML, encoding="utf-8")
    stages = [
        ["simulate", "--out", str(runs)],
        ["defend", "--out", str(defended)],
        ["simulate", "--config", str(tmp_path / "drift.yaml"), "--out", str(tmp_path / "drift")],
        ["extract", "--traces", str(bundle / "traces.csv"), "--out", str(tmp_path / "train")],
        ["extract", "--traces", str(bundle / "traces.csv"), "--passive", "--out", str(tmp_path / "passive")],
        ["eer", "--samples", str(bundle / "samples.csv"), "--curve", "--out", str(tmp_path / "eer")],
        ["fit", "--samples", str(bundle / "samples.csv"), "--feature", "delta_rtt", "--out", str(fits / "first.json")],
        ["fit", "--samples", str(bundle / "samples.csv"), "--feature", "dispersion", "--out",
         str(fits / "followup.json")],
        ["defend", "--scenario", "k2-hw-100m", "--first-delay", str(fits / "first.json"),
         "--followup-delay", str(fits / "followup.json"), "--out", str(tmp_path / "per-k")],
    ]
    report = ["--bundles", *(str(runs / n) for n in BUILTINS), *(str(defended / f"{n}-defended") for n in BUILTINS)]
    stages.append(["report", *report, "--out", str(tmp_path / "report")])
    out = tmp_path / "reached.json"
    # Without OPENBLAS_NUM_THREADS (sdnfp.cli set it in this process too), so the
    # stage process shows what its own import sets.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE) + os.sep, json.dumps(stages), str(out)],
        env=env, check=True, capture_output=True, text=True,
    )
    result = json.loads(out.read_text())
    called = {f"{Path(file).stem}:{qualname}" for file, qualname in result["called"]}
    return stages, result, called


def test_every_cli_stage_runs_without_scipy_and_reaches_all_but_the_allowed(tmp_path):
    stages, result, called = run_every_stage(tmp_path)
    # Every stage exits 0, and no stage (nor the import) loads any scipy module.
    assert result["stages"] == [["import", []]] + [[0, []]] * len(stages)
    # The import leaves OpenBLAS one thread and loads no ON_DEMAND module;
    # PyYAML loads from the first --config stage on, no stage (all at
    # --jobs 1) loads a process pool, and none loads numpy.ma.
    assert result["openblas_threads"] == "1"
    first_config = next(i for i, argv in enumerate(stages) if "--config" in argv)
    assert result["on_demand"] == [[]] * (1 + first_config) + [["yaml"]] * (len(stages) - first_config)
    defined = defined_functions()
    assert sorted(defined - called - set(ALLOWED)) == [], "defined but no CLI stage calls it"
    assert sorted(set(ALLOWED) - defined) == [], "allowed but no longer defined"
    assert sorted(set(ALLOWED) & called) == [], "allowed but a CLI stage calls it"


def test_the_cli_keeps_the_callers_openblas_thread_count(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    importlib.reload(sdnfp.cli)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
