"""Scenario definitions, the end-to-end pipeline, and report emission.

A scenario fixes the path shape, the delay calibration, the probe plan and a
seed; running it is fully deterministic.  Each run exercises two probe plans:

  * `trains` standard measurement trains (dispersion pairs with and without
    rule installs, plus the install-triggering tail singles), and
  * `trains` idle-twin probes on a warm flow that has been quiet longer than
    any inactivity threshold, giving the no-install RTT-difference population
    (and, under the countermeasure, exactly the traffic the delay element is
    meant to disguise).

The two plans' traces and their samples stay columnar (`probes.Trace`,
`features.Samples`) from the engine to disk: `run_scenario` joins the traces
into one, labels the joined trace with `features.label_samples` and, when
asked, writes traces.csv, samples.csv (both in the tables' one CSV format),
results.json and scenario.json (both with `write_json`, the one JSON writer)
with `write_bundle`.  `emit_report` writes the report's summary and PDF_N/PDF_Y
histograms as tables too.

There is one scenario schema: `_CONFIG_FIELDS` and the per-kind key tables
give each config key a (parse, write) pair, so `scenario_to_config` inverts
`scenario_from_config`.  scenario.json is a config file with the bundle's
scenario as its one entry; `read_scenario_descriptor` reads it, for the CLI
stages that start from persisted files, with the parser `load_scenarios` runs.

Shipped install-delay calibration: rule installation takes single-digit
milliseconds on hardware switches and sub-millisecond on the software switch.
The paper-of-record for this artifact publishes only aggregate thresholds, so
the lognormal medians here (4.5 ms hardware, 0.8 ms software) are calibration
choices that land the pipeline in the published regime; they are knobs, not
ground truth.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import probes as probes_mod
from .defense import DelayElementConfig, apply_delay_element
from .distributions import (
    CROSS_TRAFFIC_DEFAULTS,
    CROSS_TRAFFIC_KINDS,
    DELAY_KINDS,
    NO_DELAY,
    DelayModel,
    constant,
    lognormal,
    pareto,
)
from .features import (
    DELTA_RTT,
    DISPERSION,
    DropCounts,
    Samples,
    ScenarioContext,
    label_samples,
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
from .probes import Table, Trace, build_probe_train, idle_flow_probes, run_schedule
from .stats import EERResult, GPDParams, WelchResult, build_histogram, compute_eer, welch_t_test
from .units import DURATION, NS_PER_MS, NS_PER_S, RATE, SIZE, parse_duration_ns


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


# The one trace writer under the name the benchmark's tracer patches.
write_trace_csv = Trace.write_csv


DEFAULT_FLOW = FlowKey(src="10.0.0.2", dst="10.0.1.2")

HW_INSTALL = lognormal(int(4.5 * NS_PER_MS), 0.6)
SW_INSTALL = lognormal(int(0.8 * NS_PER_MS), 0.7)
DEFAULT_LOOKUP = constant(int(0.1 * NS_PER_MS))
# 0.09 ms mean, 0.002 ms^2 variance: LAN-grade jitter for the desk-scale lab.
DEFAULT_CROSS = pareto(90_000, 2_000_000_000)
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
    cross_traffic: DelayModel | None = DEFAULT_CROSS
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
        if self.links_reverse < 1:
            raise ConfigError("links_reverse: must be >= 1")
        if self.switch_kind not in (HARDWARE, SOFTWARE):
            raise ConfigError(f"switch_kind: must be hardware or software, got {self.switch_kind!r}")
        if self.table_capacity < 0:
            raise ConfigError("table_capacity: must be >= 0")
        install = self.install_delay
        if install is not None and (install.kind == "none" or install.kind == "constant" and install.value_ns <= 0):
            raise ConfigError("install_delay: samples must be positive")
        if self.mtu_bytes < probes_mod.MIN_PROBE_BYTES:
            raise ConfigError(f"mtu: must be >= {probes_mod.MIN_PROBE_BYTES} bytes")
        if self.pair_spacing_ns > probes_mod.PAIR_GAP_MAX_NS:
            raise ConfigError(f"pair_spacing: must be <= {probes_mod.PAIR_GAP_MAX_NS} ns, a pair's widest gap")
        if self.time_span_ns < NS_PER_S:
            raise ConfigError("time_span: must be >= 1 s (the train's guard spacing)")
        if self.passive_window_ns <= 0:
            raise ConfigError("passive_window: must be positive")
        if not self.bin_width_ms > 0:
            raise ConfigError("bin_width: must be positive")
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
    return replace(
        scenario,
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
        values_n, values_y = samples.values(feature, "N"), samples.values(feature, "Y")
        if not values_n.size or not values_y.size:
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
    samples: Samples
    drops: DropCounts
    feature_results: dict[str, FeatureResult]

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
            "drops": asdict(self.drops),
            "table_full_events": int(self.records.table_full.sum()),
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

    drops = DropCounts()
    samples = label_samples(records, scenario.context(), drops)
    bundle = ResultBundle(
        scenario=scenario,
        records=records,
        samples=samples,
        drops=drops,
        feature_results=evaluate(samples, scenario.feature_set),
    )
    if out_dir is not None:
        write_bundle(bundle, Path(out_dir))
    return bundle


def write_bundle(bundle: ResultBundle, out_dir: Path) -> None:
    write_trace_csv(bundle.records, out_dir / "traces.csv")
    bundle.samples.write_csv(out_dir / "samples.csv")
    write_json(out_dir / "results.json", bundle.summary_dict())
    write_json(out_dir / "scenario.json", scenario_descriptor(bundle.scenario))


def scenario_descriptor(s: Scenario) -> dict:
    """The scenario.json sidecar, so persisted traces stay self-describing: a
    config file whose one entry is `s`, beside summary fields nothing reads."""
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
        "scenarios": [scenario_to_config(s)],
    }


def read_scenario_descriptor(bundle_dir: Path | str) -> Scenario:
    """The scenario of a bundle's scenario.json sidecar, read as a config file
    with one entry, as `load_scenarios` reads its entries.  A missing or
    unreadable file, or an entry that is malformed or fails
    `Scenario.validate`, raises ConfigError naming the file."""
    path = Path(bundle_dir) / "scenario.json"
    raw = _read_json_object(path, "scenario")
    try:
        scenarios = _scenarios(raw)
        if len(scenarios) > 1:
            raise ConfigError("scenarios: a sidecar holds one entry")
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {path}") from None
    return scenarios[0]


def _read_json_object(path: Path, what: str) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what}: {path} must hold a JSON object")
    return data


def write_json(path: Path, obj) -> None:
    """Sorted keys, indent 2, final newline; makes the file's directory if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# -- report -----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Summary(Table):
    """The report's summary table: one row per run and feature."""

    scenario: np.ndarray
    feature: np.ndarray
    eer_percent: np.ndarray
    threshold_ms: np.ndarray
    significant_at_1pct: np.ndarray
    n_samples_N: np.ndarray
    n_samples_Y: np.ndarray

    DTYPES = (object, object, np.float64, np.float64, bool, np.int64, np.int64)


def emit_report(runs, out_dir: Path | str, fmt: str = "csv") -> list[Path]:
    """Summary table plus plot-ready PDF_N / PDF_Y histogram CSVs.

    `runs` holds one (scenario, samples, feature results) triple per run;
    each run's histograms take its scenario's bin width.
    """
    if not runs:
        raise ValueError("need at least one run")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {fmt!r}")
    out_dir = Path(out_dir)
    rows = [
        {"scenario": scenario.name, "feature": feature, **results[feature].row()}
        for scenario, _, results in runs
        for feature in sorted(results)
    ]
    columns = Summary.columns()
    summary = out_dir / f"summary.{fmt}"
    if fmt == "json":
        write_json(summary, [{c: row[c] for c in columns} for row in rows])
    else:
        Summary(*([row[c] for row in rows] for c in columns)).write_csv(summary)
    written = [summary]
    for scenario, samples, results in runs:
        for feature in sorted(results):
            for label in ("N", "Y"):
                values = samples.values(feature, label)
                if values.size:
                    path = out_dir / f"{scenario.name}__{feature}__pdf_{label}.csv"
                    build_histogram(values, scenario.bin_width_ms).write_csv(path)
                    written.append(path)
    return written


# -- config loading -----------------------------------------------------------


def _whole(value) -> int:
    """An integer config value as given: a float, a bool or a string is an
    error, never truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("must be an integer")
    return value


def _switch_count(k) -> int:
    """A per_k key: an int in YAML, its decimal text in a JSON sidecar."""
    return int(k) if isinstance(k, str) and k.isdecimal() else _whole(k)


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _field(mapping: dict, key: str, parse, source):
    """`parse(mapping[key])`; a missing or malformed value raises ConfigError
    naming the key and `source`, where the mapping was read from, as does a
    ConfigError of `parse`'s own."""
    if key not in mapping:
        raise ConfigError(f"{key}: missing from {source}")
    try:
        return _parse((parse, None), mapping[key], key)
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {source}") from None


def _gpd_from_config(cfg: dict, source) -> GPDParams:
    """The delay GPD a {shape, scale_ms, location_ms} mapping holds: a delay
    of a scenario's defense entry, or a file `sdnfp fit` wrote.

    A GPD's support starts at its location, so a negative location could
    draw a negative hold; it is rejected here, before anything runs, although
    `sdnfp fit` writes one for a population that reaches below 0.
    """
    _as_mapping(cfg, source)
    shape, scale, location = (
        _field(cfg, key, _finite, source) for key in ("shape", "scale_ms", "location_ms")
    )
    if not location >= 0:
        raise ConfigError(f"location_ms: a delay needs a location >= 0, got {location} in {source}")
    try:
        return GPDParams(shape, scale, location)
    except ValueError as exc:
        raise ConfigError(f"scale_ms: {exc} in {source}") from exc


def load_gpd(path: Path | str) -> GPDParams:
    """The GPD of a fitted-GPD JSON file, as `sdnfp fit` writes it."""
    return _gpd_from_config(_read_json_object(Path(path), "gpd"), path)


class _Nested(NamedTuple):
    """The (parse, write) pair of a config value that holds keys of its own:
    `parse` also takes the value's dotted key, to name the keys inside it."""

    parse: Callable
    write: Callable


def _parse(codec, value, key: str):
    """`value` read by `codec`, a (parse, write) pair or a `_Nested` one; an
    error other than a ConfigError becomes one naming `key`, the value's
    dotted config key."""
    try:
        return codec.parse(value, key) if isinstance(codec, _Nested) else codec[0](value)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{key}: invalid value {value!r} ({exc})") from exc


def _as_mapping(cfg, key: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{key}: must be a mapping, got {cfg!r}")
    return cfg


def _fields(cfg, keys: dict, key: str) -> dict:
    """{field: value} of a config mapping by `keys`, {config key: (field,
    codec)}; `key` is the mapping's dotted name, '' for a scenario entry."""
    fields = {}
    for name, value in _as_mapping(cfg, key).items():
        dotted = f"{key}.{name}" if key else name
        if name not in keys:
            raise ConfigError(f"{dotted}: unknown key")
        field, codec = keys[name]
        fields[field] = _parse(codec, value, dotted)
    return fields


def _config(obj, keys: dict) -> dict:
    """The config mapping `_fields` reads back as `obj`'s fields."""
    return {name: codec[1](getattr(obj, field)) for name, (field, codec) in keys.items()}


def _mapping(cls, keys: dict) -> _Nested:
    """Codec of a mapping with fixed `keys` that builds a `cls`."""
    return _Nested(lambda cfg, key: cls(**_fields(cfg, keys, key)), lambda obj: _config(obj, keys))


def _kinds(kinds: dict, default: DelayModel) -> _Nested:
    """Codec of a mapping that builds a DelayModel, whose `kind` key picks its
    other keys from `kinds`; an omitted kind or key takes its field's value
    in `default`."""
    keys = {kind: {"kind": ("kind", _STR), **kinds[kind]} for kind in kinds}

    def parse(cfg, key):
        kind = _as_mapping(cfg, key).get("kind", default.kind)
        if kind not in keys:
            raise ConfigError(f"{key}.kind: unknown kind {kind!r}")
        omitted = {field: getattr(default, field) for field, _ in keys[kind].values()}
        return DelayModel(**{**omitted, **_fields(cfg, keys[kind], key)})

    return _Nested(parse, lambda obj: _config(obj, keys[obj.kind]))


def _optional(codec: _Nested) -> _Nested:
    """`codec`, with null for None."""
    return _Nested(
        lambda cfg, key: None if cfg is None else codec.parse(cfg, key),
        lambda obj: None if obj is None else codec.write(obj),
    )


def _feature_list(value) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise TypeError("must be a list")
    return tuple(value)


_INT, _STR = (_whole, int), (str, str)
# A bin width (ms) and a drift sigma are floats of whole nanoseconds once parsed;
# written as whole nanoseconds, an int sigma writes the text its float does.
_BIN_WIDTH = (lambda v: parse_duration_ns(v) / NS_PER_MS, lambda ms: f"{round(ms * NS_PER_MS)} ns")
_SIGMA = (lambda v: float(parse_duration_ns(v)), "{:.0f} ns".format)
_GPD = _Nested(
    _gpd_from_config,
    lambda p: {"shape": p.shape, "scale_ms": p.scale, "location_ms": p.location},
)
_DELAYS = ("first_delay", "followup_delay")
# A per_k entry: the (first, follow-up) delays of one configured-switch count.
_DelayPair = namedtuple("_DelayPair", _DELAYS)
_PAIR = _mapping(_DelayPair, {d: (d, _GPD) for d in _DELAYS})
_PER_K = _Nested(
    lambda cfg, key: {
        _parse((_switch_count, None), k, f"{key}.{k}"): _parse(_PAIR, pair, f"{key}.{k}")
        for k, pair in _as_mapping(cfg, key).items()
    },
    lambda per_k: {str(k): _PAIR.write(_DelayPair(*pair)) for k, pair in per_k.items()},
)
_DEFENSE = _mapping(DelayElementConfig, {
    "t_th": ("t_th_ns", DURATION),
    "window": ("window_ns", DURATION),
    **{d: (d, _GPD) for d in _DELAYS},
    "per_k": ("per_k", _optional(_PER_K)),
})
_DRIFT = _mapping(DriftModel, {"sigma": ("sigma_ns_per_sqrt_s", _SIGMA), "base": ("base_ns", DURATION)})

# Scenario entry key -> (Scenario field, codec of the key's value).
_CONFIG_FIELDS = {
    "seed": ("seed", _INT),
    "trains": ("trains", _INT),
    "k": ("k", _INT),
    "switch_kind": ("switch_kind", _STR),
    "data_link": ("data_link_bps", RATE),
    "links_forward": ("links_forward", _INT),
    "links_reverse": ("links_reverse", _INT),
    "base_latency": ("base_latency_ns", DURATION),
    "cross_traffic": ("cross_traffic", _optional(_kinds(CROSS_TRAFFIC_KINDS, CROSS_TRAFFIC_DEFAULTS))),
    "install_delay": ("install_delay", _optional(_kinds(DELAY_KINDS, NO_DELAY))),
    "lookup_delay": ("lookup_delay", _kinds(DELAY_KINDS, NO_DELAY)),
    "mtu": ("mtu_bytes", SIZE),
    "reply_size": ("reply_bytes", SIZE),
    "pair_spacing": ("pair_spacing_ns", DURATION),
    "time_span": ("time_span_ns", DURATION),
    "passive_window": ("passive_window_ns", DURATION),
    "bin_width": ("bin_width_ms", _BIN_WIDTH),
    "table_capacity": ("table_capacity", _INT),
    "clear_delay": ("clear_delay_ns", DURATION),
    "turnaround": ("turnaround_ns", DURATION),
    "idle_lead": ("idle_lead_ns", DURATION),
    "defense": ("defense", _optional(_DEFENSE)),
    "drift": ("drift", _optional(_DRIFT)),
    "features": ("feature_set", (_feature_list, list)),
}


def scenario_from_config(cfg: dict) -> Scenario:
    """The scenario of one config entry.  A built-in's name starts from that
    built-in, any other name from `Scenario`'s defaults and needs a seed; each
    key given replaces one field, and a key `_CONFIG_FIELDS` does not know is
    an error."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario: each entry must be a mapping")
    name = _field(cfg, "name", str, "the scenario entry")
    source = f"scenario {name!r}"
    base = builtin_scenarios().get(name)
    if base is None:
        base = Scenario(name=name, seed=_field(cfg, "seed", _whole, source))
    try:
        fields = _fields({key: v for key, v in cfg.items() if key != "name"}, _CONFIG_FIELDS, "")
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {source}") from None
    scenario = replace(base, **fields)
    scenario.validate()
    return scenario


def scenario_to_config(s: Scenario) -> dict:
    """The config entry `scenario_from_config` reads back as `s`."""
    return {"name": s.name, **_config(s, _CONFIG_FIELDS)}


def _scenarios(raw) -> list[Scenario]:
    """The scenarios of a config file's content: {scenarios: [ {...}, ... ]}."""
    if not isinstance(raw, dict) or "scenarios" not in raw:
        raise ConfigError("config: top level must be a mapping with a 'scenarios' list")
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("scenarios: must be a non-empty list")
    return [scenario_from_config(entry) for entry in raw["scenarios"]]


# libyaml's parser where PyYAML was built with it: the same mapping, several
# times faster than the pure-Python SafeLoader.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenarios(path: Path | str) -> list[Scenario]:
    """Read a YAML scenario file: {scenarios: [ {...}, ... ]}."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from exc
    return _scenarios(raw)
