"""Scenario definitions, the end-to-end pipeline, and report emission.

A scenario fixes the path shape, the delay calibration, the probe plan and a
seed; running it is fully deterministic.  Each run exercises two probe plans:

  * `trains` standard measurement trains (dispersion pairs with and without
    rule installs, plus the install-triggering tail singles), and
  * `trains` idle-twin probes on a warm flow that has been quiet longer than
    any inactivity threshold, giving the no-install RTT-difference population
    (and, under the countermeasure, exactly the traffic the delay element is
    meant to disguise).

The two plans' traces stay columnar (`probes.Trace`) from the engine to disk:
`run_scenario` joins them into one trace, counts table-full events as a
column sum, labels the joined trace with `features.label_samples` and, when
asked, writes traces.csv, samples.csv, results.json and scenario.json with
`write_bundle`.  `read_scenario_descriptor` is the one reader of that
scenario.json sidecar, for the CLI stages that start from persisted files.

Shipped install-delay calibration: rule installation takes single-digit
milliseconds on hardware switches and sub-millisecond on the software switch.
The paper-of-record for this artifact publishes only aggregate thresholds, so
the lognormal medians here (4.5 ms hardware, 0.8 ms software) are calibration
choices that land the pipeline in the published regime; they are knobs, not
ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from . import probes as probes_mod
from .defense import DelayElementConfig, apply_delay_element
from .distributions import (
    CrossTrafficModel,
    DelayModel,
    cross_traffic_from_config,
    delay_model_from_config,
    lognormal,
    constant,
)
from .features import (
    DELTA_RTT,
    DISPERSION,
    DropCounts,
    FeatureSample,
    ScenarioContext,
    label_samples,
    split_populations,
    write_feature_csv,
)
from .netsim import (
    HARDWARE,
    SOFTWARE,
    ControllerSpec,
    DriftModel,
    FlowKey,
    PathSpec,
    SwitchSpec,
    uniform_path,
)
from .probes import (
    Trace,
    build_probe_train,
    idle_flow_probes,
    run_schedule,
    write_trace_csv,
)
from .stats import EERResult, GPDParams, WelchResult, build_histogram, compute_eer, welch_t_test
from .units import (
    NS_PER_MS,
    NS_PER_S,
    UnitError,
    parse_duration_ns,
    parse_rate_bps,
    parse_size_bytes,
)


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


DEFAULT_FLOW = FlowKey(src="10.0.0.2", dst="10.0.1.2")

HW_INSTALL = lognormal(int(4.5 * NS_PER_MS), 0.6)
SW_INSTALL = lognormal(int(0.8 * NS_PER_MS), 0.7)
DEFAULT_LOOKUP = constant(int(0.1 * NS_PER_MS))
DEFAULT_CROSS = CrossTrafficModel(
    kind="pareto", mean_ns=90_000, variance_ns2=2_000_000_000
)  # 0.09 ms mean, 0.002 ms^2 variance: LAN-grade jitter for the desk-scale lab
DEFAULT_DRIFT_SIGMA_NS = 150_000  # 0.15 ms per sqrt-second when drift is enabled


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    trains: int = 450
    k: int = 3
    switch_kind: str = HARDWARE
    data_link_bps: int = 100_000_000
    links_forward: int = 4
    links_reverse: int = 4
    base_latency_ns: int = 0
    cross_traffic: CrossTrafficModel | None = DEFAULT_CROSS
    install_delay: DelayModel | None = None  # None picks the kind's default
    lookup_delay: DelayModel = DEFAULT_LOOKUP
    mtu_bytes: int = 1500
    reply_bytes: int = 64
    pair_spacing_ns: int = 0
    clear_delay_ns: int = 10 * NS_PER_MS
    turnaround_ns: int = 0
    table_capacity: int = 1024
    time_span_ns: int = NS_PER_S
    passive_window_ns: int = NS_PER_S
    bin_width_ms: float = 0.1
    feature_set: tuple[str, ...] = (DISPERSION, DELTA_RTT)
    defense: DelayElementConfig | None = None
    drift: DriftModel | None = None
    idle_lead_ns: int = 10 * NS_PER_S

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.trains < 1:
            raise ConfigError("trains: must be >= 1")
        if not 1 <= self.k <= min(3, self.links_forward - 1):
            raise ConfigError(
                f"k: {self.k} configured switches do not fit a "
                f"{self.links_forward}-link forward path"
            )
        if self.switch_kind not in (HARDWARE, SOFTWARE):
            raise ConfigError(f"switch_kind: must be hardware or software, got {self.switch_kind!r}")
        if self.mtu_bytes < probes_mod.MIN_PROBE_BYTES:
            raise ConfigError(f"mtu: must be >= {probes_mod.MIN_PROBE_BYTES} bytes")
        if self.time_span_ns < NS_PER_S:
            raise ConfigError("time_span: must be >= 1 s (the train's guard spacing)")
        if not self.feature_set:
            raise ConfigError("features: need at least one of dispersion, delta_rtt")
        for f in self.feature_set:
            if f not in (DISPERSION, DELTA_RTT):
                raise ConfigError(f"features: unknown feature {f!r}")
        if self.defense is not None and self.idle_lead_ns <= self.defense.t_th_ns:
            raise ConfigError("idle_lead: must exceed the defense inactivity threshold")

    def effective_install_delay(self) -> DelayModel:
        if self.install_delay is not None:
            return self.install_delay
        return HW_INSTALL if self.switch_kind == HARDWARE else SW_INSTALL

    def build_path(self) -> PathSpec:
        install = self.effective_install_delay()
        switches = tuple(
            SwitchSpec(
                id=f"{self.switch_kind[:2]}{i + 1}",
                kind=self.switch_kind,
                install_delay=install,
                table_capacity=self.table_capacity,
            )
            for i in range(self.k)
        )
        path = uniform_path(
            n_forward=self.links_forward,
            n_reverse=self.links_reverse,
            capacity_bps=self.data_link_bps,
            switches=switches,
            cross_traffic=self.cross_traffic,
            base_latency_ns=self.base_latency_ns,
        )
        if self.defense is not None:
            path = apply_delay_element(path, self.defense)
        return path

    def build_controller(self) -> ControllerSpec:
        return ControllerSpec(lookup_delay=self.lookup_delay, clear_delay_ns=self.clear_delay_ns)

    def context(self) -> ScenarioContext:
        return ScenarioContext(
            k=self.k,
            switch_kind=self.switch_kind,
            data_link_bps=self.data_link_bps,
            time_span_ns=self.time_span_ns,
        )

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


def builtin_scenarios() -> dict[str, Scenario]:
    """The shipped attack matrix: k=1..3 hardware and the software switch,
    on 100 Mbps and 1 Gbps data links."""
    gbps = 1_000_000_000
    scenarios = [
        Scenario(name="k1-hw-100m", seed=20401, k=1),
        Scenario(name="k2-hw-100m", seed=20402, k=2),
        Scenario(name="k3-hw-100m", seed=20403, k=3),
        Scenario(name="k1-sw-100m", seed=20404, k=1, switch_kind=SOFTWARE),
        Scenario(name="k3-hw-1g", seed=20405, k=3, data_link_bps=gbps),
        Scenario(name="k1-sw-1g", seed=20406, k=1, switch_kind=SOFTWARE, data_link_bps=gbps),
    ]
    return {s.name: s for s in scenarios}


def drift_variant(scenario: Scenario, time_span_ns: int, sigma_ns: float = DEFAULT_DRIFT_SIGMA_NS) -> Scenario:
    """Enable slow path-latency wander and set the RTT-difference span."""
    span_tag = f"{time_span_ns // NS_PER_S}s"
    return scenario.with_overrides(
        name=f"{scenario.name}-drift-{span_tag}",
        time_span_ns=time_span_ns,
        drift=DriftModel(sigma_ns_per_sqrt_s=sigma_ns),
    )


# -- pipeline ---------------------------------------------------------------


@dataclass
class FeatureResult:
    eer: EERResult
    welch: WelchResult
    n_count: int
    y_count: int

    def row(self) -> dict:
        """The feature's entry in results.json and in `sdnfp eer`'s eer.json."""
        return {
            "eer": self.eer.eer,
            "eer_percent": self.eer.eer * 100.0,
            "threshold_ms": self.eer.threshold_ms,
            "t_statistic": self.welch.t_statistic,
            "significant_at_1pct": self.welch.significant_at_1pct,
            "n_samples_N": self.n_count,
            "n_samples_Y": self.y_count,
        }


def evaluate(samples, features) -> dict[str, FeatureResult]:
    """EER and Welch test of each feature's N and Y populations."""
    results = {}
    for feature in features:
        values_n, values_y = split_populations(samples, feature)
        if not values_n or not values_y:
            raise ConfigError(f"features: no {feature} samples for one label")
        results[feature] = FeatureResult(
            eer=compute_eer(values_n, values_y),
            welch=welch_t_test(values_n, values_y),
            n_count=len(values_n),
            y_count=len(values_y),
        )
    return results


@dataclass
class ResultBundle:
    scenario: Scenario
    records: Trace
    samples: list[FeatureSample]
    drops: DropCounts
    feature_results: dict[str, FeatureResult]
    table_full_events: int

    def summary_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "trains": self.scenario.trains,
            "k": self.scenario.k,
            "switch_kind": self.scenario.switch_kind,
            "data_link_bps": self.scenario.data_link_bps,
            "time_span_s": self.scenario.time_span_ns / NS_PER_S,
            "defended": self.scenario.defense is not None,
            "drops": self.drops.as_dict(),
            "table_full_events": self.table_full_events,
            "features": {name: fr.row() for name, fr in self.feature_results.items()},
        }


def run_scenario(scenario: Scenario, out_dir: Path | str | None = None) -> ResultBundle:
    """Simulate, extract, and evaluate one scenario; optionally persist."""
    scenario.validate()
    controller = scenario.build_controller()
    flow = DEFAULT_FLOW

    train = build_probe_train(
        flow, scenario.mtu_bytes, scenario.pair_spacing_ns, scenario.time_span_ns
    )
    idle = idle_flow_probes(
        flow, scenario.mtu_bytes, scenario.time_span_ns, scenario.idle_lead_ns
    )

    path = scenario.build_path()
    common = dict(
        drift=scenario.drift,
        reply_bytes=scenario.reply_bytes,
        turnaround_ns=scenario.turnaround_ns,
    )
    records = Trace.concat(
        [
            run_schedule(
                train, path, controller, scenario.seed,
                trials=range(scenario.trains), group=0, **common,
            ),
            run_schedule(
                idle, path, controller, scenario.seed,
                trials=range(scenario.trains, 2 * scenario.trains), group=1, warm=True, **common,
            ),
        ]
    )
    table_full = int(records.table_full.sum())

    drops = DropCounts()
    samples = label_samples(records, scenario.context(), drops)
    bundle = ResultBundle(
        scenario=scenario,
        records=records,
        samples=samples,
        drops=drops,
        feature_results=evaluate(samples, scenario.feature_set),
        table_full_events=table_full,
    )
    if out_dir is not None:
        write_bundle(bundle, Path(out_dir))
    return bundle


def write_bundle(bundle: ResultBundle, out_dir: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "traces": out_dir / "traces.csv",
        "samples": out_dir / "samples.csv",
        "results": out_dir / "results.json",
        "scenario": out_dir / "scenario.json",
    }
    write_trace_csv(paths["traces"], bundle.records)
    write_feature_csv(paths["samples"], bundle.samples)
    _write_json(paths["results"], bundle.summary_dict())
    _write_json(paths["scenario"], scenario_descriptor(bundle.scenario))
    return paths


def scenario_descriptor(s: Scenario) -> dict:
    """Sidecar so persisted traces stay self-describing."""
    return {
        "name": s.name,
        "seed": s.seed,
        "trains": s.trains,
        "k": s.k,
        "switch_kind": s.switch_kind,
        "data_link_bps": s.data_link_bps,
        "time_span_s": s.time_span_ns / NS_PER_S,
        "defended": s.defense is not None,
        "bin_width_ms": s.bin_width_ms,
        "passive_window_s": s.passive_window_ns / NS_PER_S,
    }


def read_scenario_descriptor(bundle_dir: Path | str) -> Scenario:
    """The scenario a bundle's scenario.json sidecar describes.

    Reads the ten fields `scenario_descriptor` writes; every other field keeps
    its default.  The sidecar does not record a delay element's parameters, so
    a defended bundle reads back with the reference `DelayElementConfig()`.  A
    missing or unreadable file, or a missing or malformed field, raises
    ConfigError naming the file and the field.
    """
    path = Path(bundle_dir) / "scenario.json"
    try:
        described = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"scenario: cannot read {path}: {exc}") from exc
    if not isinstance(described, dict):
        raise ConfigError(f"scenario: {path} must hold a JSON object")

    def field(key: str, parse):
        if key not in described:
            raise ConfigError(f"{key}: missing from {path}")
        try:
            return parse(described[key])
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"{key}: invalid value {described[key]!r} in {path}") from exc

    return Scenario(
        name=field("name", str),
        seed=field("seed", int),
        trains=field("trains", int),
        k=field("k", int),
        switch_kind=field("switch_kind", str),
        data_link_bps=field("data_link_bps", int),
        time_span_ns=round(field("time_span_s", float) * NS_PER_S),
        defense=field("defended", {False: None, True: DelayElementConfig()}.__getitem__),
        bin_width_ms=field("bin_width_ms", float),
        passive_window_ns=round(field("passive_window_s", float) * NS_PER_S),
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# -- report -----------------------------------------------------------------


def emit_report(bundles: list[ResultBundle], out_dir: Path | str, fmt: str = "csv") -> list[Path]:
    """Summary table plus plot-ready PDF_N / PDF_Y histogram CSVs."""
    if not bundles:
        raise ValueError("need at least one bundle")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    rows = []
    for bundle in bundles:
        for feature in sorted(bundle.feature_results):
            fr = bundle.feature_results[feature]
            rows.append(
                {
                    "scenario": bundle.scenario.name,
                    "feature": feature,
                    "eer_percent": fr.eer.eer * 100.0,
                    "threshold_ms": fr.eer.threshold_ms,
                    "significant_at_1pct": fr.welch.significant_at_1pct,
                    "n_samples_N": fr.n_count,
                    "n_samples_Y": fr.y_count,
                }
            )
    summary = out_dir / f"summary.{fmt}"
    if fmt == "json":
        _write_json(summary, rows)
    else:
        lines = ["scenario,feature,eer_percent,threshold_ms,significant_at_1pct,n_samples_N,n_samples_Y"]
        for r in rows:
            lines.append(
                f"{r['scenario']},{r['feature']},{r['eer_percent']!r},"
                f"{r['threshold_ms']!r},{int(r['significant_at_1pct'])},"
                f"{r['n_samples_N']},{r['n_samples_Y']}"
            )
        summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(summary)

    for bundle in bundles:
        for feature in sorted(bundle.feature_results):
            for label in ("N", "Y"):
                values = [
                    s.value_ms
                    for s in bundle.samples
                    if s.feature == feature and s.label == label
                ]
                if not values:
                    continue
                hist = build_histogram(values, bundle.scenario.bin_width_ms)
                path = out_dir / f"{bundle.scenario.name}__{feature}__pdf_{label}.csv"
                lines = ["bin_left_ms,count,relative_frequency"]
                for left, count, freq in hist.to_rows():
                    lines.append(f"{left!r},{count},{freq!r}")
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(path)
    return written


# -- config loading -----------------------------------------------------------


def _cfg_get(cfg: dict, key: str, parser, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{key}: required field is missing")
        return default
    try:
        return parser(cfg[key])
    except UnitError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{key}: invalid value {cfg[key]!r} ({exc})") from exc


def _gpd_from_config(cfg: dict) -> GPDParams:
    return GPDParams(
        shape=float(cfg["shape"]),
        scale=float(cfg["scale_ms"]),
        location=float(cfg["location_ms"]),
    )


def _defense_from_config(cfg: dict) -> DelayElementConfig:
    per_k = None
    if "per_k" in cfg:
        per_k = {
            int(k): (_gpd_from_config(v["first_delay"]), _gpd_from_config(v["followup_delay"]))
            for k, v in cfg["per_k"].items()
        }
    kwargs = {}
    if "t_th" in cfg:
        kwargs["t_th_ns"] = parse_duration_ns(cfg["t_th"])
    if "window" in cfg:
        kwargs["window_ns"] = parse_duration_ns(cfg["window"])
    if "first_delay" in cfg:
        kwargs["first_delay"] = _gpd_from_config(cfg["first_delay"])
    if "followup_delay" in cfg:
        kwargs["followup_delay"] = _gpd_from_config(cfg["followup_delay"])
    return DelayElementConfig(per_k=per_k, **kwargs)


def _drift_from_config(cfg: dict) -> DriftModel:
    kwargs = {"sigma_ns_per_sqrt_s": float(parse_duration_ns(cfg["sigma"]))}
    if "base" in cfg:
        kwargs["base_ns"] = parse_duration_ns(cfg["base"])
    return DriftModel(**kwargs)


def scenario_from_config(cfg: dict) -> Scenario:
    if not isinstance(cfg, dict):
        raise ConfigError("scenario: each entry must be a mapping")
    name = _cfg_get(cfg, "name", str, required=True)
    base = builtin_scenarios().get(name)
    kwargs = {"name": name}
    kwargs["seed"] = _cfg_get(cfg, "seed", int, required=base is None,
                              default=None if base is None else base.seed)
    kwargs["trains"] = _cfg_get(cfg, "trains", int, default=base.trains if base else 450)
    kwargs["k"] = _cfg_get(cfg, "k", int, default=base.k if base else 3)
    kwargs["switch_kind"] = _cfg_get(
        cfg, "switch_kind", str, default=base.switch_kind if base else HARDWARE
    )
    kwargs["data_link_bps"] = _cfg_get(
        cfg, "data_link", parse_rate_bps, default=base.data_link_bps if base else 100_000_000
    )
    kwargs["links_forward"] = _cfg_get(cfg, "links_forward", int, default=4)
    kwargs["links_reverse"] = _cfg_get(cfg, "links_reverse", int, default=4)
    kwargs["base_latency_ns"] = _cfg_get(cfg, "base_latency", parse_duration_ns, default=0)
    if "cross_traffic" in cfg:
        kwargs["cross_traffic"] = _cfg_get(cfg, "cross_traffic", cross_traffic_from_config)
    if "install_delay" in cfg:
        kwargs["install_delay"] = _cfg_get(cfg, "install_delay", delay_model_from_config)
    if "lookup_delay" in cfg:
        kwargs["lookup_delay"] = _cfg_get(cfg, "lookup_delay", delay_model_from_config)
    kwargs["mtu_bytes"] = _cfg_get(cfg, "mtu", parse_size_bytes, default=1500)
    kwargs["reply_bytes"] = _cfg_get(cfg, "reply_size", parse_size_bytes, default=64)
    kwargs["pair_spacing_ns"] = _cfg_get(cfg, "pair_spacing", parse_duration_ns, default=0)
    kwargs["time_span_ns"] = _cfg_get(cfg, "time_span", parse_duration_ns, default=NS_PER_S)
    kwargs["passive_window_ns"] = _cfg_get(
        cfg, "passive_window", parse_duration_ns, default=NS_PER_S
    )
    kwargs["bin_width_ms"] = _cfg_get(
        cfg, "bin_width", lambda v: parse_duration_ns(v) / NS_PER_MS, default=0.1
    )
    kwargs["table_capacity"] = _cfg_get(cfg, "table_capacity", int, default=1024)
    kwargs["clear_delay_ns"] = _cfg_get(
        cfg, "clear_delay", parse_duration_ns, default=10 * NS_PER_MS
    )
    kwargs["turnaround_ns"] = _cfg_get(cfg, "turnaround", parse_duration_ns, default=0)
    kwargs["idle_lead_ns"] = _cfg_get(cfg, "idle_lead", parse_duration_ns, default=10 * NS_PER_S)
    if "defense" in cfg and cfg["defense"] is not None:
        kwargs["defense"] = _cfg_get(cfg, "defense", _defense_from_config)
    if "drift" in cfg and cfg["drift"] is not None:
        kwargs["drift"] = _cfg_get(cfg, "drift", _drift_from_config)
    if "features" in cfg:
        kwargs["feature_set"] = tuple(cfg["features"])
    scenario = Scenario(**kwargs)
    scenario.validate()
    return scenario


def load_scenarios(path: Path | str) -> list[Scenario]:
    """Read a YAML scenario file: {scenarios: [ {...}, ... ]}."""
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict) or "scenarios" not in raw:
        raise ConfigError("config: top level must be a mapping with a 'scenarios' list")
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("scenarios: must be a non-empty list")
    return [scenario_from_config(entry) for entry in raw["scenarios"]]
