"""Command-line pipeline: simulate, extract, eer, fit, defend, report.

Each stage reads and writes the documented CSV/JSON files, so stages can be
chained or run in isolation; every CSV is a `probes.Table` and every JSON
file goes through `scenario.write_json`.  `extract` reads traces.csv and
`report` samples.csv, each beside the scenario.json sidecar that every bundle
holds: a scenario config file with one entry, which gives `extract --passive`
its default window and `report` its bin width.  `eer` and `report` evaluate
each feature the samples hold, and `report` bins the N and Y populations each
evaluation took.  No stage reads results.json.  Beside an external trace,
write a sidecar such as `{"scenarios": [{"name": "lab", "seed": 1, "k": 2}]}`;
omitted keys take the same defaults as in a YAML scenario file.
Exit codes: 0 success, 2 configuration error or a sample population a
statistic cannot take (named by feature, label and source), 1 anything else.

A stage process loads only what it runs.  No stage makes a BLAS call, so
numpy's OpenBLAS starts no worker threads: this module sets
OPENBLAS_NUM_THREADS to 1 before numpy loads, unless the caller's environment
already sets it.  PyYAML loads only when `--config` names a scenario file, and
`concurrent.futures` (with `multiprocessing`) only when `--jobs` is above 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

# Set before numpy loads: no stage calls BLAS, so OpenBLAS needs no threads; a caller's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import features as features_mod
from .defense import DelayElementConfig
from .features import DELTA_RTT, FEATURES, Samples
from .probes import Trace
from .scenario import (
    BUILTINS,
    ConfigError,
    Scenario,
    emit_report,
    evaluate,
    load_gpd,
    load_scenarios,
    read_scenario_descriptor,
    run_scenario,
    write_json,
)
from .stats import SamplesError, fit_gpd
from .units import MAX_DURATION_NS, NS_PER_S

# Unused here since `scenario.evaluate` computes every EER and Welch test, but
# bench/tracer.py patches these two names on this module.
from .stats import compute_eer, welch_t_test  # noqa: F401

# The two CSV readers, under the names bench/tracer.py patches.
read_trace_csv = Trace.read_csv
read_feature_csv = Samples.read_csv


def _select_scenarios(args) -> list[Scenario]:
    if args.config:
        scenarios = load_scenarios(args.config)
    else:
        scenarios = list(BUILTINS.values())
    if args.scenario:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ConfigError(f"scenario: no scenario named {args.scenario!r}")
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    if getattr(args, "trains", None) is not None:
        scenarios = [replace(s, trains=args.trains) for s in scenarios]
    return scenarios


def _run_one(job):
    """Run and persist one scenario; its name and feature results."""
    scenario, out_dir = job
    return scenario.name, run_scenario(scenario, out_dir).feature_results


def _eer_line(feature: str, result) -> str:
    return f"{feature}: EER={result.eer.eer * 100.0:.2f}% threshold={result.eer.threshold_ms:.2f} ms"


def _run_and_print(scenarios: list[Scenario], args) -> int:
    """Run each scenario into --out/<name>, in --jobs worker processes, and
    print its EERs."""
    jobs = [(s, str(Path(args.out) / s.name)) for s in scenarios]
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            runs = list(pool.map(_run_one, jobs))
    else:
        runs = [_run_one(job) for job in jobs]
    for name, results in runs:
        for feature, result in sorted(results.items()):
            print(f"{name} {_eer_line(feature, result)}")
    return 0


def cmd_simulate(args) -> int:
    return _run_and_print(_select_scenarios(args), args)


def cmd_extract(args) -> int:
    if args.window_s is not None and not args.passive:
        raise ConfigError("window-s: only --passive pairs probes by a window; trains pair by their plan")
    trace = read_trace_csv(args.traces)
    scenario = read_scenario_descriptor(Path(args.traces).parent)
    drops = features_mod.DropCounts()
    if args.passive:
        window = scenario.passive_window_ns
        if args.window_s is not None:
            ns = args.window_s * NS_PER_S
            if not 0.5 < ns <= MAX_DURATION_NS:  # rounds into passive_window's bounds; NaN does not
                raise ConfigError(f"window-s: must be at least one nanosecond and at most {MAX_DURATION_NS} ns")
            window = round(ns)
        samples = features_mod.passive_samples(trace, scenario, window, drops)
    else:
        samples = features_mod.label_samples(trace, scenario, drops)
    out = Path(args.out)
    samples.write_csv(out / "samples.csv")
    write_json(out / "drops.json", asdict(drops))
    print(f"wrote {len(samples)} samples ({drops.missing_reply} missing, "
          f"{drops.ambiguous_label} ambiguous dropped)")
    return 0


def cmd_eer(args) -> int:
    out = Path(args.out)
    results = evaluate(read_feature_csv(args.samples), args.samples)
    for feature, result in results.items():
        print(_eer_line(feature, result))
        if args.curve:
            result.eer.curve.write_csv(out / f"curve_{feature}.csv")
    write_json(out / "eer.json", {feature: result.row() for feature, result in results.items()})
    return 0


def cmd_fit(args) -> int:
    samples = read_feature_csv(args.samples)
    values = samples.values(args.feature, args.label)
    try:
        params, ks = fit_gpd(values)
    except SamplesError as exc:
        raise ConfigError(f"samples: {args.feature}/{args.label} in {args.samples}: {exc}") from None
    payload = {
        "feature": args.feature,
        "label": args.label,
        "shape": params.shape,
        "scale_ms": params.scale,
        "location_ms": params.location,
        "ks": ks,
        "n_samples": len(values),
    }
    write_json(Path(args.out), payload)
    print(f"fit {args.feature}/{args.label}: shape={params.shape:.3f} "
          f"scale={params.scale:.3f} ms location={params.location:.3f} ms KS={ks:.4f}")
    return 0


def cmd_defend(args) -> int:
    scenarios = _select_scenarios(args)
    if args.first_delay or args.followup_delay:
        if not (args.first_delay and args.followup_delay):
            raise ConfigError("first-delay: fitted runs need both --first-delay and --followup-delay")
        first, followup = load_gpd(args.first_delay), load_gpd(args.followup_delay)
        element = DelayElementConfig(first_delay=first, followup_delay=followup)
    else:
        element = DelayElementConfig()  # reference parameters
    scenarios = [replace(s, name=f"{s.name}-defended", defense=element) for s in scenarios]
    return _run_and_print(scenarios, args)


def cmd_report(args) -> int:
    runs, dirs = [], {}
    for bundle_dir in map(Path, args.bundles):
        run = _load_bundle(bundle_dir)
        name = run[0].name
        if name in dirs:
            # Its histogram files would overwrite the first bundle's.
            raise ConfigError(f"bundles: {dirs[name]} and {bundle_dir} both hold scenario {name!r}")
        dirs[name] = bundle_dir
        runs.append(run)
    for path in emit_report(runs, Path(args.out)):
        print(f"wrote {path}")
    return 0


def _load_bundle(bundle_dir: Path):
    """(scenario, feature results) of a persisted bundle, for the report.

    `report` reads scenario.json and samples.csv, as `extract` reads
    scenario.json and traces.csv: the scenario's bin width bins each bundle
    as it was simulated, and the histograms bin the populations `evaluate`
    tested.
    """
    samples_path = bundle_dir / "samples.csv"
    if not samples_path.exists():
        raise ConfigError(f"bundles: {bundle_dir} lacks samples.csv")
    return read_scenario_descriptor(bundle_dir), evaluate(read_feature_csv(samples_path), samples_path)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: argparse takes about 1 ms to build it.

    Subcommands bind no function; `main` looks `cmd_<command>` up at call time.
    """
    parser = argparse.ArgumentParser(
        prog="sdnfp",
        description="Timing-fingerprinting lab for OpenFlow control-plane interactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="YAML scenario file (defaults to built-ins)")
        p.add_argument("--scenario", help="run only the named scenario")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--trains", type=int, help="override the probe-train count")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")

    p = sub.add_parser("simulate", help="run scenarios and persist traces/samples/results")
    add_run_flags(p)

    p = sub.add_parser("extract", help="turn a trace CSV into labeled feature samples")
    p.add_argument(
        "--traces", required=True,
        help="trace CSV; the scenario.json beside it is required and supplies the passive "
        'window (write one beside an external trace: {"scenarios": [{"name": "lab", "seed": 1, "k": 2}]})',
    )
    p.add_argument("--out", required=True)
    p.add_argument(
        "--passive", action="store_true",
        help="pair monitored same-flow packets instead of using the train layout",
    )
    p.add_argument(
        "--window-s", type=float, dest="window_s",
        help="passive pairing window in seconds, with --passive only (default: the sidecar's passive_window)",
    )

    p = sub.add_parser("eer", help="equal error rate from a feature sample CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", action="store_true", help="also write the sweep curves")

    p = sub.add_parser("fit", help="fit a Generalized Pareto to one feature population")
    p.add_argument("--samples", required=True)
    p.add_argument("--feature", default=DELTA_RTT, choices=FEATURES)
    p.add_argument("--label", default="Y", choices=["Y", "N"])
    p.add_argument("--out", required=True, help="output JSON file")

    p = sub.add_parser("defend", help="run scenarios with the delay element enabled")
    add_run_flags(p)
    p.add_argument("--first-delay", help="fitted GPD JSON for inactive-flow first packets")
    p.add_argument("--followup-delay", help="fitted GPD JSON for follow-up packets")

    p = sub.add_parser("report", help="summary table and histogram CSVs from bundle dirs")
    p.add_argument("--bundles", nargs="+", required=True, help="run_scenario output dirs")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
