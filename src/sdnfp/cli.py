"""Command-line pipeline: simulate, extract, eer, fit, defend, report.

Each stage reads and writes the documented CSV/JSON files, so stages can be
chained or run in isolation.  `extract` and `report` require the scenario.json
sidecar that every bundle holds (write one beside an external trace): it
describes the scenario and supplies `extract --passive`'s default window.
Exit codes: 0 success, 2 configuration error, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import features as features_mod
from .defense import DelayElementConfig
from .features import DELTA_RTT, DISPERSION, read_feature_csv
from .probes import Trace, read_trace_csv
from .scenario import (
    ConfigError,
    ResultBundle,
    Scenario,
    builtin_scenarios,
    emit_report,
    evaluate,
    load_scenarios,
    read_scenario_descriptor,
    run_scenario,
)
from .stats import GPDParams, fit_gpd

# Unused here since `scenario.evaluate` computes every EER and Welch test, but
# bench/tracer.py patches these two names on this module.
from .stats import compute_eer, welch_t_test  # noqa: F401


def _select_scenarios(args) -> list[Scenario]:
    if args.config:
        scenarios = load_scenarios(args.config)
    else:
        scenarios = list(builtin_scenarios().values())
    if args.scenario:
        scenarios = [s for s in scenarios if s.name == args.scenario]
        if not scenarios:
            raise ConfigError(f"scenario: no scenario named {args.scenario!r}")
    if args.seed is not None:
        scenarios = [s.with_overrides(seed=args.seed) for s in scenarios]
    if getattr(args, "trains", None) is not None:
        scenarios = [s.with_overrides(trains=args.trains) for s in scenarios]
    return scenarios


def _run_many(scenarios: list[Scenario], out: Path, jobs: int) -> list[ResultBundle]:
    if jobs > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            bundles = list(
                pool.map(_run_one, [(s, str(out / s.name)) for s in scenarios])
            )
    else:
        bundles = [_run_one((s, str(out / s.name))) for s in scenarios]
    return bundles


def _run_one(job) -> ResultBundle:
    scenario, out_dir = job
    return run_scenario(scenario, out_dir)


def cmd_simulate(args) -> int:
    scenarios = _select_scenarios(args)
    out = Path(args.out)
    bundles = _run_many(scenarios, out, args.jobs)
    for b in bundles:
        summary = b.summary_dict()
        for feature, row in sorted(summary["features"].items()):
            print(
                f"{b.scenario.name} {feature}: EER={row['eer_percent']:.2f}% "
                f"threshold={row['threshold_ms']:.2f} ms"
            )
    return 0


def cmd_extract(args) -> int:
    trace = read_trace_csv(args.traces)
    scenario = read_scenario_descriptor(Path(args.traces).parent)
    drops = features_mod.DropCounts()
    if args.passive:
        window = scenario.passive_window_ns if args.window_s is None else round(args.window_s * 1e9)
        samples = features_mod.passive_samples(trace, scenario.context(), window, drops)
    else:
        samples = features_mod.label_samples(trace, scenario.context(), drops)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    features_mod.write_feature_csv(out / "samples.csv", samples)
    (out / "drops.json").write_text(
        json.dumps(drops.as_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(samples)} samples ({drops.missing_reply} missing, "
          f"{drops.ambiguous_label} ambiguous dropped)")
    return 0


def cmd_eer(args) -> int:
    samples = read_feature_csv(args.samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = evaluate(samples, args.features)
    for feature, result in results.items():
        eer = result.eer
        print(f"{feature}: EER={eer.eer * 100.0:.2f}% threshold={eer.threshold_ms:.2f} ms")
        if args.curve:
            lines = ["threshold_ms,fmr,fnr"]
            for t, fmr, fnr in eer.curve:
                lines.append(f"{t!r},{fmr!r},{fnr!r}")
            (out / f"curve_{feature}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = {feature: result.row() for feature, result in results.items()}
    (out / "eer.json").write_text(
        json.dumps(rows, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return 0


def cmd_fit(args) -> int:
    samples = read_feature_csv(args.samples)
    values = [s.value_ms for s in samples if s.feature == args.feature and s.label == args.label]
    if not values:
        raise ConfigError(f"feature: no {args.feature}/{args.label} samples in {args.samples}")
    params, ks = fit_gpd(values)
    payload = {
        "feature": args.feature,
        "label": args.label,
        "shape": params.shape,
        "scale_ms": params.scale,
        "location_ms": params.location,
        "ks": ks,
        "n_samples": len(values),
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"fit {args.feature}/{args.label}: shape={params.shape:.3f} "
          f"scale={params.scale:.3f} ms location={params.location:.3f} ms KS={ks:.4f}")
    return 0


def _load_gpd(path: str) -> GPDParams:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return GPDParams(shape=data["shape"], scale=data["scale_ms"], location=data["location_ms"])


def cmd_defend(args) -> int:
    scenarios = _select_scenarios(args)
    if args.first_delay or args.followup_delay:
        if not (args.first_delay and args.followup_delay):
            raise ConfigError("first-delay: fitted runs need both --first-delay and --followup-delay")
        first, followup = _load_gpd(args.first_delay), _load_gpd(args.followup_delay)
        element = DelayElementConfig(first_delay=first, followup_delay=followup)
    else:
        element = DelayElementConfig()  # reference parameters
    scenarios = [
        s.with_overrides(name=f"{s.name}-defended", defense=element) for s in scenarios
    ]
    out = Path(args.out)
    bundles = _run_many(scenarios, out, args.jobs)
    for b in bundles:
        for feature, row in sorted(b.summary_dict()["features"].items()):
            print(
                f"{b.scenario.name} {feature}: EER={row['eer_percent']:.2f}% "
                f"threshold={row['threshold_ms']:.2f} ms"
            )
    return 0


def cmd_report(args) -> int:
    bundles = []
    for bundle_dir in args.bundles:
        bundles.append(_load_bundle(Path(bundle_dir)))
    written = emit_report(bundles, Path(args.out), fmt=args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def _load_bundle(bundle_dir: Path) -> ResultBundle:
    """Rebuild enough of a bundle from its persisted files for reporting.

    The scenario, histogram bin width included, comes from the bundle's
    scenario.json, so a report bins each bundle as it was simulated.
    """
    results_path = bundle_dir / "results.json"
    samples_path = bundle_dir / "samples.csv"
    if not all(p.exists() for p in (results_path, samples_path)):
        raise ConfigError(f"bundles: {bundle_dir} lacks results.json/samples.csv")
    meta = json.loads(results_path.read_text(encoding="utf-8"))
    samples = read_feature_csv(samples_path)
    return ResultBundle(
        scenario=read_scenario_descriptor(bundle_dir),
        records=Trace.from_records([]),
        samples=samples,
        drops=features_mod.DropCounts(),
        feature_results=evaluate(samples, meta["features"]),
        table_full_events=meta.get("table_full_events", 0),
    )


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="turn a trace CSV into labeled feature samples")
    p.add_argument(
        "--traces", required=True,
        help="trace CSV; the scenario.json beside it is required and supplies the passive window",
    )
    p.add_argument("--out", required=True)
    p.add_argument(
        "--passive", action="store_true",
        help="pair monitored same-flow packets instead of using the train layout",
    )
    p.add_argument(
        "--window-s", type=float, dest="window_s",
        help="passive pairing window in seconds (default: the sidecar's passive_window_s)",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("eer", help="equal error rate from a feature sample CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--features", nargs="+", default=[DISPERSION, DELTA_RTT],
        choices=[DISPERSION, DELTA_RTT],
    )
    p.add_argument("--curve", action="store_true", help="also write the sweep curves")
    p.set_defaults(func=cmd_eer)

    p = sub.add_parser("fit", help="fit a Generalized Pareto to one feature population")
    p.add_argument("--samples", required=True)
    p.add_argument("--feature", default=DELTA_RTT, choices=[DISPERSION, DELTA_RTT])
    p.add_argument("--label", default="Y", choices=["Y", "N"])
    p.add_argument("--out", required=True, help="output JSON file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("defend", help="run scenarios with the delay element enabled")
    add_run_flags(p)
    p.add_argument("--first-delay", help="fitted GPD JSON for inactive-flow first packets")
    p.add_argument("--followup-delay", help="fitted GPD JSON for follow-up packets")
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("report", help="summary table and histogram CSVs from bundle dirs")
    p.add_argument("--bundles", nargs="+", required=True, help="run_scenario output dirs")
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
