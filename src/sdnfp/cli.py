"""Command-line pipeline: simulate, extract, eer, fit, defend, report.

Each stage reads and writes the documented CSV/JSON files, so stages can be
chained or run in isolation.  Exit codes: 0 success, 2 configuration error,
1 anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import features as features_mod
from . import scenario as scenario_mod
from .defense import DelayElementConfig, element_from_fits
from .features import DELTA_RTT, DISPERSION, read_feature_csv, split_populations
from .probes import Trace, read_trace_csv
from .scenario import (
    ConfigError,
    ResultBundle,
    Scenario,
    builtin_scenarios,
    emit_report,
    load_scenarios,
    run_scenario,
)
from .stats import GPDParams, compute_eer, fit_gpd, welch_t_test


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
    sidecar = Path(args.traces).with_name("scenario.json")
    if args.k is not None:
        ctx = features_mod.ScenarioContext(
            k=args.k,
            switch_kind=args.kind,
            data_link_bps=args.link_bps,
            time_span_ns=round(args.span_s * 1e9),
        )
    elif sidecar.exists():
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        ctx = features_mod.ScenarioContext(
            k=meta["k"],
            switch_kind=meta["switch_kind"],
            data_link_bps=meta["data_link_bps"],
            time_span_ns=round(meta["time_span_s"] * 1e9),
        )
    else:
        raise ConfigError(
            "k: no scenario.json beside the trace; pass --k/--kind/--link-bps/--span-s"
        )
    drops = features_mod.DropCounts()
    if args.passive:
        samples = features_mod.passive_samples(trace, ctx, round(args.window_s * 1e9), drops)
    else:
        samples = features_mod.label_samples(trace, ctx, drops)
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
    results = {}
    for feature in args.features:
        values_n, values_y = split_populations(samples, feature)
        if not values_n or not values_y:
            raise ConfigError(f"features: no {feature} samples for one of the labels")
        eer = compute_eer(values_n, values_y)
        welch = welch_t_test(values_n, values_y)
        results[feature] = {
            "eer": eer.eer,
            "eer_percent": eer.eer * 100.0,
            "threshold_ms": eer.threshold_ms,
            "t_statistic": welch.t_statistic,
            "significant_at_1pct": welch.significant_at_1pct,
            "n_samples_N": len(values_n),
            "n_samples_Y": len(values_y),
        }
        print(f"{feature}: EER={eer.eer * 100.0:.2f}% threshold={eer.threshold_ms:.2f} ms")
        if args.curve:
            curve_path = out / f"curve_{feature}.csv"
            lines = ["threshold_ms,fmr,fnr"]
            for t, fmr, fnr in compute_eer(values_n, values_y).curve:
                lines.append(f"{t!r},{fmr!r},{fnr!r}")
            curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "eer.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n", encoding="utf-8"
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
        element = element_from_fits(_load_gpd(args.first_delay), _load_gpd(args.followup_delay))
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

    The scenario's histogram bin width and time span come from the bundle's
    scenario.json, so a report bins each bundle as it was simulated.
    """
    results_path = bundle_dir / "results.json"
    samples_path = bundle_dir / "samples.csv"
    scenario_path = bundle_dir / "scenario.json"
    if not all(p.exists() for p in (results_path, samples_path, scenario_path)):
        raise ConfigError(f"bundles: {bundle_dir} lacks results.json/samples.csv/scenario.json")
    meta = json.loads(results_path.read_text(encoding="utf-8"))
    described = json.loads(scenario_path.read_text(encoding="utf-8"))
    samples = read_feature_csv(samples_path)
    feature_results = {}
    for feature, row in meta["features"].items():
        values_n, values_y = split_populations(samples, feature)
        feature_results[feature] = scenario_mod.FeatureResult(
            eer=compute_eer(values_n, values_y),
            welch=welch_t_test(values_n, values_y),
            n_count=len(values_n),
            y_count=len(values_y),
        )
    scenario = Scenario(
        name=meta["scenario"],
        seed=meta["seed"],
        trains=meta["trains"],
        k=meta["k"],
        switch_kind=meta["switch_kind"],
        data_link_bps=meta["data_link_bps"],
        time_span_ns=round(described["time_span_s"] * 1e9),
        bin_width_ms=described["bin_width_ms"],
    )
    return ResultBundle(
        scenario=scenario,
        records=Trace.from_records([]),
        samples=samples,
        drops=features_mod.DropCounts(),
        feature_results=feature_results,
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
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, help="configured switch count (else scenario.json sidecar)")
    p.add_argument("--kind", default="hardware")
    p.add_argument("--link-bps", type=int, default=100_000_000, dest="link_bps")
    p.add_argument("--span-s", type=float, default=1.0, dest="span_s")
    p.add_argument(
        "--passive", action="store_true",
        help="pair monitored same-flow packets instead of using the train layout",
    )
    p.add_argument(
        "--window-s", type=float, default=1.0, dest="window_s",
        help="passive pairing window in seconds (presets: 1, 600)",
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
