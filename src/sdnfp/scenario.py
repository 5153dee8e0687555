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
with `write_bundle`.  results.json is an output only: no stage reads it back.
`evaluate` keeps each feature's N and Y populations in its `FeatureResult`,
and `emit_report` bins those as the PDF_N/PDF_Y tables beside its summary.

There is one scenario schema: `_CONFIG_FIELDS` and `DELAY_KINDS` give each
config key a (parse, write) pair, so `scenario_to_config` inverts
`scenario_from_config`.  scenario.json is a config file with the bundle's
scenario as its one entry; `read_scenario_descriptor` reads it, for the CLI
stages that start from persisted files (`extract` and `report`), with the
parser `load_scenarios` runs.

A `Scenario` checks only the rules no spec it builds knows.  The path's specs
and the probe plans keep their own, and a spec's rule is reported under its
config key (`_SPEC_KEYS`), as a gpd hold's is (`_gpd_from_config`).  The
built-in matrix, `BUILTINS`, is built and checked once, at import.

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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .defense import DelayElementConfig
from .distributions import (
    DELAY_KINDS,
    DelayModel,
    GPDParams,
    constant,
    gpd,
    lognormal,
    pareto,
)
from .features import FEATURES, DropCounts, Samples, label_samples
from .netsim import (
    DEFAULT_CLEAR_DELAY_NS, DEFAULT_REPLY_BYTES, DEFAULT_TABLE_CAPACITY,
    DriftModel, FlowKey, LinkSpec, Packet, PathSpec, SwitchSpec,
)
from .probes import (
    DEFAULT_IDLE_LEAD_NS, DEFAULT_MTU_BYTES, PAIR_GAP_MAX_NS, Table, Trace, build_probe_train, idle_flow_probes,
    run_schedule,
)
from .stats import EERResult, SamplesError, WelchResult, build_histogram, compute_eer, welch_t_test
from .units import DURATION, NS_PER_MS, NS_PER_S, RATE, SIZE, parse_duration_ns


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the offending field."""


# The one trace writer under the name the benchmark's tracer patches.
write_trace_csv = Trace.write_csv


DEFAULT_FLOW = FlowKey(src="10.0.0.2", dst="10.0.1.2")

HARDWARE = "hardware"
SOFTWARE = "software"

HW_INSTALL = lognormal(int(4.5 * NS_PER_MS), 0.6)
SW_INSTALL = lognormal(int(0.8 * NS_PER_MS), 0.7)
DEFAULT_LOOKUP = constant(int(0.1 * NS_PER_MS))
# 0.09 ms mean, 0.002 ms^2 variance: LAN-grade jitter for the desk-scale lab.
DEFAULT_CROSS = pareto(90_000, 2_000_000_000)
DEFAULT_DRIFT_SIGMA_NS = 150_000  # 0.15 ms per sqrt-second when drift is enabled


@dataclass(frozen=True)
class Scenario:
    """One scenario: path shape, delay calibration, probe plan and seed.

    A default the simulator or the probe builders also apply (reply size,
    MTU, CLEAR delay, table capacity, idle lead-in) is the constant of the
    module that applies it.  Labelling reads the scenario itself: each
    sample's row carries its k, switch_kind, data_link_bps and time span.

    Construction checks the name, seed, trains, k <= 3, switch kind, pair
    spacing, time span, passive window, bin width and idle lead, which no
    spec knows, then builds the path and both probe plans, whose specs check
    the rest.  A ConfigError starts with the config key of the value at
    fault, a spec's included (`links_reverse` where `PathSpec` says
    `reverse_links`).
    """

    name: str
    seed: int
    trains: int = 450
    k: int = 3
    switch_kind: str = HARDWARE
    data_link_bps: int = 100_000_000
    links_forward: int = 4
    links_reverse: int = 4
    base_latency_ns: int = 0
    cross_traffic: DelayModel = DEFAULT_CROSS
    install_delay: DelayModel | None = None  # None picks the kind's default
    lookup_delay: DelayModel = DEFAULT_LOOKUP
    mtu_bytes: int = DEFAULT_MTU_BYTES
    reply_bytes: int = DEFAULT_REPLY_BYTES
    pair_spacing_ns: int = 0
    clear_delay_ns: int = DEFAULT_CLEAR_DELAY_NS
    turnaround_ns: int = 0
    table_capacity: int = DEFAULT_TABLE_CAPACITY
    time_span_ns: int = NS_PER_S
    passive_window_ns: int = NS_PER_S
    bin_width_ms: float = 0.1
    defense: DelayElementConfig | None = None
    drift: DriftModel | None = None
    idle_lead_ns: int = DEFAULT_IDLE_LEAD_NS

    def __post_init__(self):
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:  # the bundle's directory
            raise ConfigError(f"name: {self.name!r} must name one directory (not empty, . or .., no / or \\)")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.trains < 1:
            raise ConfigError("trains: must be >= 1")
        if not 1 <= self.k <= 3:
            raise ConfigError(f"k: must be 1, 2 or 3 configured switches, got {self.k}")
        if self.switch_kind not in (HARDWARE, SOFTWARE):
            raise ConfigError(f"switch_kind: must be hardware or software, got {self.switch_kind!r}")
        if self.pair_spacing_ns > PAIR_GAP_MAX_NS:
            raise ConfigError(f"pair_spacing: must be <= {PAIR_GAP_MAX_NS} ns, a pair's widest gap")
        if self.time_span_ns < NS_PER_S:
            raise ConfigError("time_span: must be >= 1 s (the train's guard spacing)")
        if self.passive_window_ns <= 0:
            raise ConfigError("passive_window: must be positive")
        if not self.bin_width_ms > 0:
            raise ConfigError("bin_width: must be positive")
        if self.defense is not None and self.idle_lead_ns <= self.defense.t_th_ns:
            raise ConfigError("idle_lead: must exceed the defense inactivity threshold")
        try:
            self.build_path()
            self.schedules()
        except ValueError as exc:  # a spec's error starts with its field
            field, _, rule = str(exc).partition(": ")
            raise ConfigError(f"{_SPEC_KEYS.get(field, field)}: {rule}") from None

    def build_path(self) -> PathSpec:
        """The uniform path of k switches, with the delay element, when
        defended, at the outermost one, and the scenario's controller delays,
        drift, reply size and server turnaround.  The install delay defaults
        to the switch kind's; every link carries the scenario's cross traffic."""
        install = self.install_delay or (HW_INSTALL if self.switch_kind == HARDWARE else SW_INSTALL)
        link = LinkSpec(self.data_link_bps, self.base_latency_ns, self.cross_traffic)
        return PathSpec(
            forward_links=(link,) * self.links_forward, reverse_links=(link,) * self.links_reverse,
            switches=(SwitchSpec(install, self.table_capacity),) * self.k,
            delay_element=self.defense, drift=self.drift,
            reply_bytes=self.reply_bytes, turnaround_ns=self.turnaround_ns,
            lookup_delay=self.lookup_delay, clear_delay_ns=self.clear_delay_ns,
        )

    def schedules(self) -> tuple[tuple[Packet, ...], tuple[Packet, ...]]:
        """The two probe plans, the measurement train and the idle twins."""
        return (
            build_probe_train(DEFAULT_FLOW, self.mtu_bytes, self.pair_spacing_ns, self.time_span_ns),
            idle_flow_probes(DEFAULT_FLOW, self.mtu_bytes, self.time_span_ns, self.idle_lead_ns),
        )


# The shipped attack matrix: k=1..3 hardware and the software switch, on 100 Mbps and 1 Gbps links.
BUILTINS = MappingProxyType({s.name: s for s in (
    Scenario(name="k1-hw-100m", seed=20401, k=1),
    Scenario(name="k2-hw-100m", seed=20402, k=2),
    Scenario(name="k3-hw-100m", seed=20403, k=3),
    Scenario(name="k1-sw-100m", seed=20404, k=1, switch_kind=SOFTWARE),
    Scenario(name="k3-hw-1g", seed=20405, k=3, data_link_bps=1_000_000_000),
    Scenario(name="k1-sw-1g", seed=20406, k=1, switch_kind=SOFTWARE, data_link_bps=1_000_000_000),
)})


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
    """A feature's EER and Welch test, and the N and Y populations they took."""

    eer: EERResult
    welch: WelchResult
    n: np.ndarray
    y: np.ndarray

    def row(self) -> dict:
        """The feature's entry in results.json and in `sdnfp eer`'s eer.json."""
        return {
            "eer": self.eer.eer,
            "eer_percent": self.eer.eer * 100.0,
            "threshold_ms": self.eer.threshold_ms,
            "t_statistic": self.welch.t_statistic,
            "significant_at_1pct": self.welch.significant_at_1pct,
            "n_samples_N": self.n.size,
            "n_samples_Y": self.y.size,
        }


def evaluate(samples) -> dict[str, FeatureResult]:
    """EER and Welch test of the N and Y populations of each feature the
    samples hold, in the order of FEATURES (passive samples hold delta_rtt
    alone).  A population Welch's test refuses (see `welch_t_test`) raises
    ConfigError naming its feature and label, and so do another feature or
    label and no sample at all."""
    results, known = {}, 0
    for feature in FEATURES:
        values_n, values_y = samples.values(feature, "N"), samples.values(feature, "Y")
        known += values_n.size + values_y.size
        if not values_n.size and not values_y.size:
            continue
        try:  # Welch's test first: its rules include the EER's, so its message names a population
            welch = welch_t_test(values_n, values_y)
            eer = compute_eer(values_n, values_y)
        except SamplesError as exc:
            raise ConfigError(f"samples: {feature}/{exc}") from None
        results[feature] = FeatureResult(eer, welch, values_n, values_y)
    if known < len(samples):
        raise ConfigError(f"samples: {len(samples) - known} samples are of a feature other than "
                          f"{' or '.join(FEATURES)}, or of a label other than N or Y")
    if not results:
        raise ConfigError(f"samples: there is no {' or '.join(FEATURES)} sample")
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
    train, idle = scenario.schedules()
    path = scenario.build_path()
    records = Trace.concat(
        [
            run_schedule(
                train, path, scenario.seed,
                trials=range(scenario.trains), group=0,
            ),
            run_schedule(
                idle, path, scenario.seed,
                trials=range(scenario.trains, 2 * scenario.trains), group=1, warm=True,
            ),
        ]
    )

    drops = DropCounts()
    samples = label_samples(records, scenario, drops)
    bundle = ResultBundle(
        scenario=scenario,
        records=records,
        samples=samples,
        drops=drops,
        feature_results=evaluate(samples),
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
    unreadable file, or an entry that is malformed or that `Scenario`
    rejects, raises ConfigError naming the file."""
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
    """Sorted keys, indent 2, final newline; makes the file's directory if
    missing.  A NaN or infinite float raises ValueError: JSON has neither."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


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


def emit_report(runs, out_dir: Path | str) -> list[Path]:
    """summary.csv plus plot-ready PDF_N / PDF_Y histogram CSVs.

    `runs` holds one (scenario, feature results) pair per run, as `evaluate`
    returns them.  Each histogram bins the population its feature's EER and
    Welch test took, at its scenario's bin width.
    """
    if not runs:
        raise ValueError("need at least one run")
    out_dir = Path(out_dir)
    summary, rows = out_dir / "summary.csv", []
    written = [summary]
    for scenario, results in runs:
        for feature, result in sorted(results.items()):
            rows.append({"scenario": scenario.name, "feature": feature, **result.row()})
            for label, values in (("N", result.n), ("Y", result.y)):
                path = out_dir / f"{scenario.name}__{feature}__pdf_{label}.csv"
                build_histogram(values, scenario.bin_width_ms).write_csv(path)
                written.append(path)
    Summary(*([row[c] for row in rows] for c in Summary.columns())).write_csv(summary)
    return written


# -- config loading -----------------------------------------------------------


def _whole(value) -> int:
    """An integer config value as given: a float, a bool or a string is an
    error, never truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("must be an integer")
    return value


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


# GPDParams field -> config key of a gpd hold.
_GPD_KEYS = {"shape": "shape", "scale": "scale_ms", "location": "location_ms"}


def _gpd_from_config(cfg: dict, source) -> DelayModel:
    """The gpd delay a {shape, scale_ms, location_ms} mapping holds: a hold
    of a scenario's defense entry, or a file `sdnfp fit` wrote.

    `DelayModel` refuses a location below 0 (which `sdnfp fit` writes for a
    population that reaches below 0) and `GPDParams` a scale that is not
    positive; the ConfigError names the key and `source`.
    """
    _as_mapping(cfg, source)
    shape, scale, location = (_field(cfg, key, _finite, source) for key in _GPD_KEYS.values())
    try:
        return gpd(GPDParams(shape, scale, location))
    except ValueError as exc:  # starts with the field at fault
        field, _, rule = str(exc).partition(": ")
        raise ConfigError(f"{_GPD_KEYS[field]}: {rule} in {source}") from None


def load_gpd(path: Path | str) -> DelayModel:
    """The gpd delay of a fitted-GPD JSON file, as `sdnfp fit` writes it."""
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


def _kinds(kinds: dict) -> _Nested:
    """Codec of a mapping that builds a DelayModel, whose `kind` key picks its
    other keys from `kinds`; an omitted kind is none, and an omitted key takes
    its field's default."""
    keys = {kind: {"kind": ("kind", _STR), **kinds[kind]} for kind in kinds}

    def parse(cfg, key):
        kind = _as_mapping(cfg, key).get("kind", "none")
        if kind not in keys:
            raise ConfigError(f"{key}.kind: unknown kind {kind!r}")
        return DelayModel(**_fields(cfg, keys[kind], key))

    return _Nested(parse, lambda obj: _config(obj, keys[obj.kind]))


def _optional(codec: _Nested) -> _Nested:
    """`codec`, with null for None."""
    return _Nested(
        lambda cfg, key: None if cfg is None else codec.parse(cfg, key),
        lambda obj: None if obj is None else codec.write(obj),
    )


_INT, _STR = (_whole, int), (str, str)
# A bin width (ms) and a drift sigma are floats of whole nanoseconds once parsed;
# written as whole nanoseconds, an int sigma writes the text its float does.
_BIN_WIDTH = (lambda v: parse_duration_ns(v) / NS_PER_MS, lambda ms: f"{round(ms * NS_PER_MS)} ns")
_SIGMA = (lambda v: float(parse_duration_ns(v)), "{:.0f} ns".format)
_DELAY = _kinds(DELAY_KINDS)
_GPD = _Nested(_gpd_from_config, lambda d: {key: getattr(d.gpd, field) for field, key in _GPD_KEYS.items()})
_DEFENSE_KEYS = {
    "t_th": ("t_th_ns", DURATION),
    "window": ("window_ns", DURATION),
    "first_delay": ("first_delay", _GPD),
    "followup_delay": ("followup_delay", _GPD),
}
_DRIFT_KEYS = {"sigma": ("sigma_ns_per_sqrt_s", _SIGMA), "base": ("base_ns", DURATION)}

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
    "cross_traffic": ("cross_traffic", _DELAY),
    "install_delay": ("install_delay", _optional(_DELAY)),
    "lookup_delay": ("lookup_delay", _DELAY),
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
    "defense": ("defense", _optional(_mapping(DelayElementConfig, _DEFENSE_KEYS))),
    "drift": ("drift", _optional(_mapping(DriftModel, _DRIFT_KEYS))),
}

# A path or probe-plan spec's field -> the config key `Scenario` reports its
# rule under; a field not listed is its own key (cross_traffic, mtu, ...).
_SPEC_KEYS = {"capacity_bps": "data_link", "base_latency_ns": "base_latency", "forward_links": "links_forward",
              "reverse_links": "links_reverse", "switches": "k", "reply_bytes": "reply_size",
              "turnaround_ns": "turnaround", "clear_delay_ns": "clear_delay"}


def scenario_from_config(cfg: dict) -> Scenario:
    """The scenario of one config entry.  A built-in's name starts from that
    built-in, any other name from `Scenario`'s defaults and needs a seed; each
    key given replaces one field, and a key `_CONFIG_FIELDS` does not know is
    an error.  An error, `Scenario`'s own checks included, names the entry."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario: each entry must be a mapping")
    name = _field(cfg, "name", str, "the scenario entry")
    source = f"scenario {name!r}"
    base = BUILTINS.get(name)
    if base is None:
        base = Scenario(name=name, seed=_field(cfg, "seed", _whole, source))
    try:  # Scenario's own checks run in replace
        return replace(base, **_fields({key: v for key, v in cfg.items() if key != "name"}, _CONFIG_FIELDS, ""))
    except ConfigError as exc:
        raise ConfigError(f"{exc} in {source}") from None


def scenario_to_config(s: Scenario) -> dict:
    """The config entry `scenario_from_config` reads back as `s`."""
    return {"name": s.name, **_config(s, _CONFIG_FIELDS)}


def _scenarios(raw) -> list[Scenario]:
    """The scenarios of a config file's content: {scenarios: [ {...}, ... ]}."""
    if not isinstance(raw, dict) or "scenarios" not in raw:
        raise ConfigError("config: top level must be a mapping with a 'scenarios' list")
    if not isinstance(raw["scenarios"], list) or not raw["scenarios"]:
        raise ConfigError("scenarios: must be a non-empty list")
    scenarios = [scenario_from_config(entry) for entry in raw["scenarios"]]
    names = [s.name for s in scenarios]
    for name in names:  # a name is its bundle's directory: twins would write one
        if names.count(name) > 1:
            raise ConfigError(f"scenarios: more than one entry is named {name!r}; names must differ")
    return scenarios


def load_scenarios(path: Path | str) -> list[Scenario]:
    """Read a YAML scenario file: {scenarios: [ {...}, ... ]}.

    PyYAML is imported here, so only `--config` runs load it.  The parser is
    libyaml's where PyYAML was built with it: the same mapping, several times
    faster than the pure-Python SafeLoader.
    """
    import yaml

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=loader)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from exc
    return _scenarios(raw)
