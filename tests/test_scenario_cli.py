"""Scenario orchestration, config loading, report emission, CLI stages."""

import csv
import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import sdnfp.cli as cli
from sdnfp.cli import main
from sdnfp.defense import DelayElementConfig
from sdnfp.features import Samples
from sdnfp.distributions import NO_DELAY, constant, lognormal, pareto
from sdnfp.netsim import DriftModel, LinkSpec, PathSpec, SwitchSpec
from sdnfp.probes import PAIR_GAP_MAX_NS, build_probe_train, run_schedule, run_schedule_reference
from sdnfp.scenario import (
    _CONFIG_FIELDS,
    _DEFENSE_KEYS,
    _DRIFT_KEYS,
    BUILTINS,
    DEFAULT_FLOW,
    ConfigError,
    Scenario,
    emit_report,
    load_scenarios,
    read_scenario_descriptor,
    run_scenario,
    scenario_from_config,
    scenario_to_config,
    write_json,
)
from sdnfp.stats import build_histogram
from sdnfp.units import MAX_DURATION_NS, UnitError, parse_duration_ns

TRAINS = 60  # reduced for unit-test speed; acceptance runs the full counts


def small(name="k3-hw-100m", **overrides):
    base = BUILTINS[name]
    return replace(base, trains=TRAINS, **overrides)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_scenario_bundle_shape():
    bundle = run_scenario(small())
    assert set(bundle.feature_results) == {"dispersion", "delta_rtt"}
    for fr in bundle.feature_results.values():
        assert 0.0 <= fr.eer.eer <= 1.0
        assert fr.eer.threshold_ms > 0
        assert fr.welch.significant_at_1pct
    disp = bundle.feature_results["dispersion"]
    assert disp.y.size == TRAINS
    assert disp.n.size == 3 * TRAINS + TRAINS  # train pairs + idle pairs
    drtt = bundle.feature_results["delta_rtt"]
    assert drtt.y.size == TRAINS and drtt.n.size == TRAINS


def test_run_scenario_deterministic_repeat():
    a = run_scenario(small())
    b = run_scenario(small())
    assert a.records == b.records
    assert a.samples == b.samples


def test_run_scenario_seed_changes_output():
    a = run_scenario(small())
    b = run_scenario(small(seed=1))
    assert a.records != b.records


def test_defended_scenario_table5_shape():
    bundle = run_scenario(small(defense=DelayElementConfig()))
    undefended = run_scenario(small())
    for feature in ("dispersion", "delta_rtt"):
        d = bundle.feature_results[feature].eer.eer
        u = undefended.feature_results[feature].eer.eer
        assert abs(d - 0.5) < abs(u - 0.5)


def test_zero_trains_config_error():
    with pytest.raises(ConfigError):
        run_scenario(replace(small(), trains=0))


def test_validation_k_fits_path():
    message = "k: switch j needs egress link j+1, so 3 switches need 4 or more forward links, got 3"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        small(k=3, links_forward=3)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("data_link_bps", 0, "data_link: must be positive"),
        ("base_latency_ns", -1, "base_latency: must be >= 0"),
        ("links_forward", 0, "links_forward: a path needs 1 or more links each way"),
        ("mtu_bytes", 63, "mtu: must be >= 64 bytes"),
        # These three once passed construction: a reply of 0 B failed mid-run
        # naming no field, and a negative turnaround or CLEAR delay ran.
        ("reply_bytes", 0, "reply_size: must be positive"),
        ("turnaround_ns", -1, "turnaround: must be >= 0"),
        ("clear_delay_ns", -1, "clear_delay: must be >= 0"),
    ],
)
def test_a_spec_rule_is_reported_under_its_config_key(field, value, message):
    # A Python-built scenario meets the path's and the probe plans' own rules
    # as it is built, not mid-run, and under the key a config file would use.
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        small(**{field: value})


def test_validation_caps_k_at_three_switches():
    # Ten forward links would fit four switches: the cap refuses k=4, not the path.
    with pytest.raises(ConfigError, match=r"^k: must be 1, 2 or 3 configured switches, got 4$"):
        small(k=4, links_forward=10)


def test_build_path_carries_every_field_the_scenario_sets():
    # The built-ins leave most of these at the spec defaults, so a field that
    # build_path forgot would still run them unchanged.
    cross, install, lookup = pareto(50_000, 10**9), constant(700_000), constant(250_000)
    scenario = Scenario(
        name="lab", seed=1, k=2, switch_kind="software", install_delay=install, table_capacity=7,
        links_forward=5, links_reverse=2, data_link_bps=1_000_000_000, base_latency_ns=20_000,
        cross_traffic=cross, defense=DelayElementConfig(), drift=DriftModel(200_000), reply_bytes=200,
        turnaround_ns=30_000, lookup_delay=lookup, clear_delay_ns=3_000_000,
    )
    link = LinkSpec(1_000_000_000, 20_000, cross)
    path = PathSpec(
        forward_links=(link,) * 5,
        reverse_links=(link,) * 2,
        switches=(SwitchSpec(install, 7),) * 2,
        delay_element=DelayElementConfig(),
        drift=DriftModel(200_000),
        reply_bytes=200,
        turnaround_ns=30_000,
        lookup_delay=lookup,
        clear_delay_ns=3_000_000,
    )
    assert scenario.build_path() == path
    default = Scenario(name="lab", seed=1).build_path()
    assert all(getattr(path, f.name) != getattr(default, f.name) for f in fields(PathSpec))


def test_write_bundle_files(tmp_path):
    bundle = run_scenario(small(), out_dir=tmp_path / "run")
    for name in ("traces.csv", "samples.csv", "results.json", "scenario.json"):
        assert (tmp_path / "run" / name).exists()
    results = json.loads((tmp_path / "run" / "results.json").read_text())
    assert results["scenario"] == "k3-hw-100m"
    assert "dispersion" in results["features"]


def test_bundle_files_byte_identical(tmp_path):
    run_scenario(small(), out_dir=tmp_path / "a")
    run_scenario(small(), out_dir=tmp_path / "b")
    for name in ("traces.csv", "samples.csv", "results.json"):
        assert file_digest(tmp_path / "a" / name) == file_digest(tmp_path / "b" / name)


def report_runs(*bundles):
    """emit_report's (scenario, feature results) pair of each bundle."""
    return [(b.scenario, b.feature_results) for b in bundles]


def test_emit_report(tmp_path):
    runs = report_runs(run_scenario(small()), run_scenario(small("k1-sw-100m")))
    written = emit_report(runs, tmp_path)
    summary = tmp_path / "summary.csv"
    assert summary in written
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("scenario,feature,eer_percent")
    assert len(lines) == 1 + 2 * 2  # two scenarios, two features each
    hist = tmp_path / "k3-hw-100m__dispersion__pdf_N.csv"
    assert hist.exists()
    rows = hist.read_text().splitlines()
    occupied = len(rows) - 1
    assert occupied >= 1
    total = sum(int(r.split(",")[1]) for r in rows[1:])
    assert total == 4 * TRAINS


def test_emit_report_deterministic(tmp_path):
    runs = report_runs(run_scenario(small()))
    emit_report(runs, tmp_path / "r1")
    emit_report(runs, tmp_path / "r2")
    assert file_digest(tmp_path / "r1" / "summary.csv") == file_digest(tmp_path / "r2" / "summary.csv")


def test_scenario_from_config_units():
    cfg = {
        "name": "custom",
        "seed": 3,
        "trains": 10,
        "k": 2,
        "switch_kind": "hardware",
        "data_link": "1 Gbps",
        "install_delay": {"kind": "lognormal", "median": "4.5 ms", "sigma_log": 0.6},
        "cross_traffic": {"kind": "pareto", "mean": "0.09 ms", "variance": "0.002 ms^2"},
        "time_span": "1 s",
    }
    s = scenario_from_config(cfg)
    assert s.data_link_bps == 1_000_000_000
    assert s.install_delay.median_ns == 4_500_000


def test_scenario_config_missing_unit_is_config_error():
    cfg = {"name": "c", "seed": 1, "data_link": "100"}
    with pytest.raises(ConfigError) as err:
        scenario_from_config(cfg)
    assert "data_link" in str(err.value)


def test_scenario_config_requires_seed_for_new_names():
    with pytest.raises(ConfigError) as err:
        scenario_from_config({"name": "fresh"})
    assert "seed" in str(err.value)


def test_load_scenarios_yaml(tmp_path):
    cfg = tmp_path / "scenarios.yaml"
    cfg.write_text(
        "scenarios:\n"
        "  - name: tiny\n"
        "    seed: 9\n"
        "    trains: 5\n"
        "    k: 1\n"
        "    data_link: 100 Mbps\n"
    )
    scenarios = load_scenarios(cfg)
    assert scenarios[0].name == "tiny"
    assert scenarios[0].trains == 5


def test_load_scenarios_rejects_negative_seed(tmp_path):
    cfg = tmp_path / "scenarios.yaml"
    cfg.write_text("scenarios:\n  - name: tiny\n    seed: -1\n    k: 1\n")
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        load_scenarios(cfg)


def test_load_scenarios_bad_yaml(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("scenarios: {not a list}\n")
    with pytest.raises(ConfigError):
        load_scenarios(cfg)


DRIFT_YAML = (
    "scenarios:\n"
    "  - name: k1-hw-100m\n    trains: 4\n    time_span: 600 s\n"
    "    drift: {sigma: 150000 ns, base: 0 ns}\n"
    "  - name: lab\n    seed: 7\n    trains: 5\n    k: 2\n    data_link: 1 Gbps\n"
    "    install_delay: {kind: lognormal, median: 1.5 ms, sigma_log: 0.4}\n"
    "    defense: {first_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5}}\n"
)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)],
                         ids=["python", "libyaml"])
def test_load_scenarios_reads_the_same_with_either_yaml_parser(tmp_path, monkeypatch, loader):
    cfg = tmp_path / "drift.yaml"
    cfg.write_text(DRIFT_YAML)
    # load_scenarios takes libyaml's CSafeLoader wherever PyYAML has one.
    monkeypatch.setattr(yaml, "CSafeLoader", loader, raising=False)
    assert load_scenarios(cfg) == [scenario_from_config(e) for e in yaml.safe_load(DRIFT_YAML)["scenarios"]]
    cfg.write_text("scenarios:\n  - name: [k1\n")
    with pytest.raises(ConfigError, match=f"config: invalid YAML in {cfg}"):
        load_scenarios(cfg)


def test_cli_names_a_malformed_yaml_file(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("scenarios:\n  - name: k1-hw-100m\n    trains: {4\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert f"config: invalid YAML in {cfg}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# Config entries `simulate --config` refuses before it runs anything: each
# row's entry, as a YAML flow mapping, and the full error it prints.
CONFIG_ERRORS = {
    # A count is an integer as given: a float was truncated (4.7 trains ran 4),
    # a bool or a digit string converted.
    "trains_float": ("{name: k1-hw-100m, trains: 4.7}",
                     "trains: invalid value 4.7 (must be an integer) in scenario 'k1-hw-100m'"),
    "k_float": ("{name: k1-hw-100m, trains: 4, k: 2.0}",
                "k: invalid value 2.0 (must be an integer) in scenario 'k1-hw-100m'"),
    "links_forward_bool": ("{name: k1-hw-100m, trains: 4, links_forward: true}",
                           "links_forward: invalid value True (must be an integer) in scenario 'k1-hw-100m'"),
    "links_reverse_string": ("{name: k1-hw-100m, trains: 4, links_reverse: '4'}",
                             "links_reverse: invalid value '4' (must be an integer) in scenario 'k1-hw-100m'"),
    "table_capacity_string": ("{name: k1-hw-100m, trains: 4, table_capacity: '1024'}",
                              "table_capacity: invalid value '1024' (must be an integer) in scenario 'k1-hw-100m'"),
    "seed_float": ("{name: k1-hw-100m, trains: 4, seed: 5.5}",
                   "seed: invalid value 5.5 (must be an integer) in scenario 'k1-hw-100m'"),
    "seed_float_of_a_new_name": ("{name: fresh, trains: 4, seed: 5.5}",
                                 "seed: invalid value 5.5 (must be an integer) in scenario 'fresh'"),
    # Non-finite delay parameters.
    "sigma_log_nan": (
        "{name: k2-hw-100m, trains: 4, install_delay: {kind: lognormal, median: 1 ms, sigma_log: .nan}}",
        "install_delay: invalid value {'kind': 'lognormal', 'median': '1 ms', 'sigma_log': nan} (lognormal "
        "delay needs median > 0 and a finite sigma_log > 0) in scenario 'k2-hw-100m'",
    ),
    "sigma_log_inf": (
        "{name: k2-hw-100m, trains: 4, lookup_delay: {kind: lognormal, median: 1 ms, sigma_log: .inf}}",
        "lookup_delay: invalid value {'kind': 'lognormal', 'median': '1 ms', 'sigma_log': inf} (lognormal "
        "delay needs median > 0 and a finite sigma_log > 0) in scenario 'k2-hw-100m'",
    ),
    "gpd_shape_nan": (
        "{name: k2-hw-100m, trains: 4, defense: {first_delay: {shape: .nan, scale_ms: 0.8, location_ms: 0.5}}}",
        "shape: invalid value nan (must be finite) in defense.first_delay in scenario 'k2-hw-100m'",
    ),
    "gpd_scale_inf": (
        "{name: k2-hw-100m, trains: 4, defense: {followup_delay: {shape: -0.4, scale_ms: .inf, location_ms: 0.5}}}",
        "scale_ms: invalid value inf (must be finite) in defense.followup_delay in scenario 'k2-hw-100m'",
    ),
    # Each of these passed validation and then failed mid-run naming no key,
    # or, for a pair spacing wider than a pair's send gap, ran and read each
    # pair as two singles.
    "links_reverse_zero": ("{name: k2-hw-100m, trains: 4, links_reverse: 0}",
                           "links_reverse: a path needs 1 or more links each way in scenario 'k2-hw-100m'"),
    "links_forward_zero": ("{name: k1-hw-100m, trains: 4, links_forward: 0}",
                           "links_forward: a path needs 1 or more links each way in scenario 'k1-hw-100m'"),
    "k_beyond_links_forward": (
        "{name: k3-hw-100m, trains: 4, links_forward: 3}",
        "k: switch j needs egress link j+1, so 3 switches need 4 or more forward links, got 3 "
        "in scenario 'k3-hw-100m'",
    ),
    "mtu_below_a_clear": ("{name: k2-hw-100m, trains: 4, mtu: 63 B}",
                          "mtu: must be >= 64 bytes in scenario 'k2-hw-100m'"),
    "table_capacity_negative": ("{name: k2-hw-100m, trains: 4, table_capacity: -1}",
                                "table_capacity: must be >= 0 in scenario 'k2-hw-100m'"),
    "install_delay_none": ("{name: k2-hw-100m, trains: 4, install_delay: {kind: none}}",
                           "install_delay: samples must be positive in scenario 'k2-hw-100m'"),
    "install_delay_zero": ("{name: k2-hw-100m, trains: 4, install_delay: {kind: constant, value: 0 ns}}",
                           "install_delay: samples must be positive in scenario 'k2-hw-100m'"),
    "cross_traffic_zero_mean": (
        "{name: k2-hw-100m, trains: 4, cross_traffic: {kind: pareto, mean: 0 ns, variance: 1 ms^2}}",
        "cross_traffic: invalid value {'kind': 'pareto', 'mean': '0 ns', 'variance': '1 ms^2'} (pareto delay "
        "needs mean > 0 and variance > 0) in scenario 'k2-hw-100m'",
    ),
    "pair_spacing": ("{name: k2-hw-100m, trains: 4, pair_spacing: 20 ms}",
                     "pair_spacing: must be <= 10000000 ns, a pair's widest gap in scenario 'k2-hw-100m'"),
    # The engine's int64 now + clear_delay wrapped negative, so the CLEAR
    # applied at once and the engine parted from the reference model; the
    # time span overflowed a C long and exited 1 naming no key.
    "clear_delay_past_the_int64_timeline": (
        "{name: k2-hw-100m, trains: 4, clear_delay: 9223372036 s}",
        "clear_delay: invalid value '9223372036 s' (duration must be at most 9007199254740992 ns (2**53, about "
        "104 days)) in scenario 'k2-hw-100m'",
    ),
    "time_span_past_the_int64_timeline": (
        "{name: k2-hw-100m, trains: 4, time_span: 10000000000 s}",
        "time_span: invalid value '10000000000 s' (duration must be at most 9007199254740992 ns (2**53, about "
        "104 days)) in scenario 'k2-hw-100m'",
    ),
    # A hold's support starts at its location: a negative one could draw a negative delay.
    "first_delay_negative_location": (
        "{name: k2-hw-100m, trains: 4, defense: {first_delay: {shape: -0.4, scale_ms: 0.8, location_ms: -0.38}}}",
        "location_ms: a delay needs a location >= 0, got -0.38 in defense.first_delay in scenario 'k2-hw-100m'",
    ),
    "followup_delay_negative_location": (
        "{name: k2-hw-100m, trains: 4, defense: {followup_delay: {shape: -0.4, scale_ms: 0.8, location_ms: -0.38}}}",
        "location_ms: a delay needs a location >= 0, got -0.38 in defense.followup_delay in scenario 'k2-hw-100m'",
    ),
    "passive_window_zero": ("{name: shut, seed: 5, trains: 4, passive_window: 0 s}",
                            "passive_window: must be positive in scenario 'shut'"),
    "bin_width_zero": ("{name: flat, seed: 5, trains: 4, bin_width: 0 ms}",
                       "bin_width: must be positive in scenario 'flat'"),
    # Scenario's own checks name the entry, here the second of two.
    "second_entry_links_reverse_zero": (
        "{name: k1-hw-100m, trains: 4}\n  - {name: k2-hw-100m, links_reverse: 0}",
        "links_reverse: a path needs 1 or more links each way in scenario 'k2-hw-100m'",
    ),
    # Scenario's own rules, which no spec knows.
    "switch_kind_unknown": ("{name: k1-hw-100m, trains: 4, switch_kind: virtual}",
                            "switch_kind: must be hardware or software, got 'virtual' in scenario 'k1-hw-100m'"),
    "time_span_below_the_guard_spacing": (
        "{name: k1-hw-100m, trains: 4, time_span: 999 ms}",
        "time_span: must be >= 1 s (the train's guard spacing) in scenario 'k1-hw-100m'",
    ),
    "idle_lead_within_t_th": ("{name: k1-hw-100m, trains: 4, idle_lead: 5 s, defense: {t_th: 5 s}}",
                              "idle_lead: must exceed the defense inactivity threshold in scenario 'k1-hw-100m'"),
    # Quantities: each states its unit, and a duration, rate or size its range.
    "duration_bare_number": (
        "{name: k1-hw-100m, trains: 4, time_span: 5}",
        "time_span: invalid value 5 (duration must be a string with an explicit unit, got 5) "
        "in scenario 'k1-hw-100m'",
    ),
    "duration_unparseable": (
        "{name: k1-hw-100m, trains: 4, base_latency: soon}",
        "base_latency: invalid value 'soon' (cannot parse duration 'soon'; expected e.g. '0.12 ms') "
        "in scenario 'k1-hw-100m'",
    ),
    "duration_negative": (
        "{name: k1-hw-100m, trains: 4, base_latency: -1 ms}",
        "base_latency: invalid value '-1 ms' (duration must be non-negative) in scenario 'k1-hw-100m'",
    ),
    "rate_zero": ("{name: k1-hw-100m, trains: 4, data_link: 0 Mbps}",
                  "data_link: invalid value '0 Mbps' (rate must be positive) in scenario 'k1-hw-100m'"),
    "size_zero": ("{name: k1-hw-100m, trains: 4, reply_size: 0 B}",
                  "reply_size: invalid value '0 B' (size must be positive) in scenario 'k1-hw-100m'"),
    # Unknown keys, at the top and nested.
    "unknown_scenario_key": ("{name: k1-hw-100m, trainz: 4}", "trainz: unknown key in scenario 'k1-hw-100m'"),
    "unknown_cross_traffic_key": ("{name: k1-hw-100m, trains: 4, cross_traffic: {kind: pareto, maen: 1 ms}}",
                                  "cross_traffic.maen: unknown key in scenario 'k1-hw-100m'"),
    "unknown_install_delay_key": ("{name: k1-hw-100m, trains: 4, install_delay: {kind: constant, valeu: 1 ms}}",
                                  "install_delay.valeu: unknown key in scenario 'k1-hw-100m'"),
    "unknown_lookup_delay_key": ("{name: k1-hw-100m, trains: 4, lookup_delay: {kind: constant, value: 1 ms, sigma: 2}}",
                                 "lookup_delay.sigma: unknown key in scenario 'k1-hw-100m'"),
    "unknown_drift_key": ("{name: k1-hw-100m, trains: 4, drift: {sigma: 1 ms, bse: 1 ms}}",
                          "drift.bse: unknown key in scenario 'k1-hw-100m'"),
    "unknown_defense_key": ("{name: k1-hw-100m, trains: 4, defense: {windw: 1 ms}}",
                            "defense.windw: unknown key in scenario 'k1-hw-100m'"),
    # A scenario runs one k, so a defense keeps no per-k table.
    "per_k": ("{name: k1-hw-100m, trains: 4, defense: {per_k: null}}",
              "defense.per_k: unknown key in scenario 'k1-hw-100m'"),
    # Each kind knows only its own keys, and an omitted kind is none, which has none.
    "install_delay_key_of_another_kind": (
        "{name: k1-hw-100m, trains: 4, install_delay: {kind: constant, value: 1 ms, mean: 2 ms}}",
        "install_delay.mean: unknown key in scenario 'k1-hw-100m'",
    ),
    "cross_traffic_key_of_another_kind": (
        "{name: k1-hw-100m, trains: 4, cross_traffic: {kind: constant, variance: 1 ms^2}}",
        "cross_traffic.variance: unknown key in scenario 'k1-hw-100m'",
    ),
    "cross_traffic_key_of_an_omitted_kind": ("{name: k1-hw-100m, trains: 4, cross_traffic: {median: 1 ms}}",
                                             "cross_traffic.median: unknown key in scenario 'k1-hw-100m'"),
    # Cross traffic takes the keys of every other delay: a constant's value is
    # `value`, an omitted key takes its field's default, and null is no mapping.
    "cross_traffic_mean_of_an_omitted_kind": ("{name: k1-hw-100m, trains: 4, cross_traffic: {mean: 1 ms}}",
                                              "cross_traffic.mean: unknown key in scenario 'k1-hw-100m'"),
    "cross_traffic_constant_mean": ("{name: k1-hw-100m, trains: 4, cross_traffic: {kind: constant, mean: 1 ms}}",
                                    "cross_traffic.mean: unknown key in scenario 'k1-hw-100m'"),
    "cross_traffic_pareto_without_variance": (
        "{name: k1-hw-100m, trains: 4, cross_traffic: {kind: pareto, mean: 1 ms}}",
        "cross_traffic: invalid value {'kind': 'pareto', 'mean': '1 ms'} (pareto delay needs mean > 0 and "
        "variance > 0) in scenario 'k1-hw-100m'",
    ),
    "cross_traffic_null": ("{name: k1-hw-100m, trains: 4, cross_traffic: null}",
                           "cross_traffic: must be a mapping, got None in scenario 'k1-hw-100m'"),
    # Values of the wrong type.
    "install_delay_not_a_mapping": ("{name: k1-hw-100m, trains: 4, install_delay: 5 ms}",
                                    "install_delay: must be a mapping, got '5 ms' in scenario 'k1-hw-100m'"),
    "lookup_delay_not_a_mapping": ("{name: k1-hw-100m, trains: 4, lookup_delay: [1, 2]}",
                                   "lookup_delay: must be a mapping, got [1, 2] in scenario 'k1-hw-100m'"),
    "cross_traffic_not_a_mapping": ("{name: k1-hw-100m, trains: 4, cross_traffic: 7 ms}",
                                    "cross_traffic: must be a mapping, got '7 ms' in scenario 'k1-hw-100m'"),
    "first_delay_not_a_mapping": ("{name: k1-hw-100m, trains: 4, defense: {first_delay: 5}}",
                                  "defense.first_delay: must be a mapping, got 5 in scenario 'k1-hw-100m'"),
    "entry_not_a_mapping": ("k1-hw-100m", "scenario: each entry must be a mapping"),
    "install_delay_unknown_kind": ("{name: k1-hw-100m, trains: 4, install_delay: {kind: weibull}}",
                                   "install_delay.kind: unknown kind 'weibull' in scenario 'k1-hw-100m'"),
}


@pytest.mark.parametrize("entry, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_cli_names_the_key_of_a_config_value_it_cannot_run(tmp_path, capsys, entry, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"scenarios:\n  - {entry}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_cli_runs_a_lognormal_cross_traffic(tmp_path, capsys):
    # Every delay kind a config accepts runs on a link: a lognormal cross
    # traffic exited 2, since the cross stream drew random() alone.
    cfg = tmp_path / "lognormal.yaml"
    cross = {"kind": "lognormal", "median": "1 ms", "sigma_log": 0.5}
    cfg.write_text(yaml.safe_dump({"scenarios": [{"name": "k2-hw-100m", "trains": 4, "cross_traffic": cross}]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    assert capsys.readouterr().err == ""
    bundle = read_scenario_descriptor(tmp_path / "runs" / "k2-hw-100m")
    assert bundle.cross_traffic == lognormal(1_000_000, 0.5)


def test_cli_names_a_config_file_it_cannot_read(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == (
        f"config error: config: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not (tmp_path / "runs").exists()


def test_pair_spacing_up_to_the_pair_gap_keeps_the_pairs():
    bundle = run_scenario(small("k2-hw-100m", pair_spacing_ns=PAIR_GAP_MAX_NS))
    assert bundle.feature_results["dispersion"].y.size == TRAINS
    assert bundle.feature_results["delta_rtt"].n.size == bundle.feature_results["delta_rtt"].y.size == TRAINS


@pytest.mark.parametrize("key", ["cross_traffic", "lookup_delay"])
@pytest.mark.parametrize(
    "given, written",
    [
        ({}, {"kind": "none"}),
        ({"kind": "constant"}, {"kind": "constant", "value": "0 ns"}),
        ({"kind": "pareto", "mean": "1 ms", "variance": "4 ms^2"},
         {"kind": "pareto", "mean": "1000000 ns", "variance": "4000000000000 ns^2"}),
    ],
    ids=["empty", "constant", "pareto"],
)
def test_an_omitted_delay_kind_is_none_and_an_omitted_key_its_fields_default(key, given, written):
    # The round-trip property compares two parses, so it cannot see a changed default.
    scenario = scenario_from_config({"name": "lab", "seed": 5, key: given})
    assert scenario_to_config(scenario)[key] == written


def test_cross_traffic_of_kind_none_adds_no_delay():
    path = scenario_from_config({"name": "k1-hw-100m", "cross_traffic": {"kind": "none"}}).build_path()
    assert {link.cross_traffic for link in (*path.forward_links, *path.reverse_links)} == {NO_DELAY}


def test_the_longest_duration_is_two_to_the_53_nanoseconds():
    assert parse_duration_ns(f"{MAX_DURATION_NS} ns") == MAX_DURATION_NS == 2**53
    with pytest.raises(UnitError, match=f"duration must be at most {2**53} ns"):
        parse_duration_ns(f"{MAX_DURATION_NS + 1} ns")


def test_the_longest_clear_delay_runs_the_same_on_engine_and_reference():
    # The CLEAR comes due at now + clear_delay, which stays inside int64.
    s = scenario_from_config({"name": "k2-hw-100m", "clear_delay": f"{MAX_DURATION_NS} ns"})
    args = (build_probe_train(DEFAULT_FLOW), s.build_path(), s.seed)
    assert run_schedule(*args, trials=range(1)) == run_schedule_reference(*args)


def test_cli_rejects_a_fitted_gpd_file_with_a_nan_shape(tmp_path, capsys):
    fitted = tmp_path / "nan.json"
    fitted.write_text('{"shape": NaN, "scale_ms": 0.8, "location_ms": 0.5}')
    defend = ["defend", "--scenario", "k2-hw-100m", "--trains", "4", "--out", str(tmp_path / "defended"),
              "--first-delay", str(fitted), "--followup-delay", str(fitted)]
    assert main(defend) == 2
    assert f"shape: invalid value nan (must be finite) in {fitted}" in capsys.readouterr().err
    assert not (tmp_path / "defended").exists()


# -- CLI ----------------------------------------------------------------------


def test_cli_simulate_extract_eer_fit_defend_report_chain(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        ["simulate", "--scenario", "k3-hw-100m", "--trains", str(TRAINS), "--out", str(out)]
    )
    assert code == 0
    run_dir = out / "k3-hw-100m"
    assert (run_dir / "traces.csv").exists()

    code = main(
        ["extract", "--traces", str(run_dir / "traces.csv"), "--out", str(tmp_path / "feat")]
    )
    assert code == 0
    samples_csv = tmp_path / "feat" / "samples.csv"
    assert samples_csv.exists()

    code = main(["eer", "--samples", str(samples_csv), "--out", str(tmp_path / "eer"), "--curve"])
    assert code == 0
    eer_json = json.loads((tmp_path / "eer" / "eer.json").read_text())
    assert eer_json["dispersion"]["significant_at_1pct"] is True
    assert (tmp_path / "eer" / "curve_dispersion.csv").exists()

    code = main(
        [
            "fit",
            "--samples", str(samples_csv),
            "--feature", "delta_rtt",
            "--label", "Y",
            "--out", str(tmp_path / "fit" / "first.json"),
        ]
    )
    assert code == 0
    fit = json.loads((tmp_path / "fit" / "first.json").read_text())
    assert fit["scale_ms"] > 0

    code = main(
        [
            "fit",
            "--samples", str(samples_csv),
            "--feature", "dispersion",
            "--label", "Y",
            "--out", str(tmp_path / "fit" / "follow.json"),
        ]
    )
    assert code == 0

    code = main(
        [
            "defend",
            "--scenario", "k3-hw-100m",
            "--trains", str(TRAINS),
            "--first-delay", str(tmp_path / "fit" / "first.json"),
            "--followup-delay", str(tmp_path / "fit" / "follow.json"),
            "--out", str(tmp_path / "defended"),
        ]
    )
    assert code == 0
    defended_dir = tmp_path / "defended" / "k3-hw-100m-defended"
    assert (defended_dir / "results.json").exists()

    code = main(
        [
            "report",
            "--bundles", str(run_dir), str(defended_dir),
            "--out", str(tmp_path / "report"),
        ]
    )
    assert code == 0
    assert (tmp_path / "report" / "summary.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_refuses_two_entries_of_one_name(tmp_path, capsys, jobs):
    # Both would run into runs/lab, the second run's bundle overwriting the first's.
    cfg = tmp_path / "twins.yaml"
    cfg.write_text("scenarios:\n  - {name: lab, seed: 1, trains: 4}\n  - {name: lab, seed: 2, trains: 4}\n")
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    assert "config error: scenarios: more than one entry is named 'lab'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b"])
def test_cli_refuses_a_name_that_is_not_one_directory(tmp_path, capsys, name):
    # The name is the bundle directory under --out: ../escaped would write beside it.
    cfg = tmp_path / "lab.yaml"
    cfg.write_text(yaml.safe_dump({"scenarios": [{"name": name, "seed": 1, "trains": 4}]}))
    out = tmp_path / "x" / "inner"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: name: {name!r} must name one directory" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_unknown_scenario_exit_2(tmp_path):
    assert main(["simulate", "--scenario", "nope", "--out", str(tmp_path)]) == 2


def test_cli_zero_trains_exit_2(tmp_path):
    code = main(["simulate", "--scenario", "k3-hw-100m", "--trains", "0", "--out", str(tmp_path)])
    assert code == 2


def test_cli_negative_seed_exit_2(tmp_path, capsys):
    code = main(["simulate", "--scenario", "k1-hw-100m", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert "seed: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("feature", ["dispersion", "delta_rtt"])
def test_cli_eer_and_report_name_a_feature_missing_a_label(tmp_path, capsys, feature):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(small("k1-hw-100m"), bundle_dir)
    samples = bundle_dir / "samples.csv"
    lines = samples.read_text().splitlines(keepends=True)
    samples.write_text("".join(line for line in lines if not line.startswith(f"{feature},") or ",Y," not in line))
    capsys.readouterr()
    # Both stages name the file the population came from, as `fit` does.
    missing = f"config error: samples: {feature}/Y: Welch's test needs 2 or more samples, got 0 in {samples}\n"
    assert main(["eer", "--samples", str(samples), "--out", str(tmp_path / "eer")]) == 2
    assert capsys.readouterr().err == missing
    assert main(["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]) == 2
    assert capsys.readouterr().err == missing


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_simulate_names_the_scenario_of_a_population_it_refuses(tmp_path, capsys, jobs):
    # Of two entries, the one without link jitter has constant N dispersions;
    # the error named the population but not the entry it came from.
    cfg = tmp_path / "two.yaml"
    cfg.write_text("scenarios:\n  - {name: k1-hw-100m, trains: 6}\n"
                   "  - {name: k2-hw-100m, trains: 4, cross_traffic: {kind: none}}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs"), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == (
        "config error: samples: dispersion/N: the samples' variance is 0 (min 0.12 ms, max 0.12 ms); "
        "Welch's test needs a finite spread in scenario 'k2-hw-100m'\n"
    )


def test_cli_names_the_feature_and_label_of_a_constant_population(tmp_path, capsys):
    # Without link jitter every N-pair dispersion is the same, and Welch's
    # test has no variance to divide by.
    cfg = tmp_path / "no-jitter.yaml"
    cfg.write_text("scenarios:\n  - name: k2-hw-100m\n    trains: 4\n    cross_traffic: {kind: none}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "config error: samples: dispersion/N: the samples' variance is 0 (min 0.12 ms, max 0.12 ms)" in err


@pytest.mark.parametrize(
    "values_n, variance",
    [
        # 0 and 1e-200 ms differ, but their variance underflows to 0: Welch's
        # test refused it and the stage exited 1 naming no population.
        ([0.0, 1e-200], "0 (min 0 ms, max 1e-200 ms)"),
        # The sum of the samples overflows: eer printed an EER line and then
        # exited 1 on a NaN t that JSON cannot write.
        ([1e308, 1e308, 0.0], "beyond the float range (min 0 ms, max 1e+308 ms)"),
    ],
    ids=["underflow", "overflow"],
)
@pytest.mark.parametrize("stage", ["eer", "report"])
def test_cli_names_a_population_whose_variance_underflows(tmp_path, capsys, stage, values_n, variance):
    samples, values = tmp_path / "samples.csv", [*values_n, 1.0, 2.0]
    n = len(values)
    labels = ["N"] * len(values_n) + ["Y", "Y"]
    Samples(["dispersion"] * n, values, labels, [1] * n, ["hardware"] * n, [10**8] * n, [1.0] * n).write_csv(samples)
    (tmp_path / "scenario.json").write_text('{"scenarios": [{"name": "lab", "seed": 1}]}')
    argv = {"eer": ["eer", "--samples", str(samples)], "report": ["report", "--bundles", str(tmp_path)]}
    capsys.readouterr()
    assert main([*argv[stage], "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"config error: samples: dispersion/N: the samples' variance is {variance}; "
                                       f"Welch's test needs a finite spread in {samples}\n")
    assert not (tmp_path / "out").exists()


def test_cli_names_a_population_of_one_sample(tmp_path, capsys):
    # One train gives one install-triggering pair: one sample has no spread,
    # but it is the count that Welch's test cannot take.
    out = tmp_path / "runs"
    assert main(["simulate", "--scenario", "k1-hw-100m", "--trains", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: samples: dispersion/Y: Welch's test needs 2 or more samples, got 1" in err
    assert not out.exists()


def test_cli_eer_evaluates_the_features_the_samples_hold(tmp_path, capsys):
    # A passive adversary's samples hold RTT differences alone.
    bundle_dir = tmp_path / "runs" / "k2-hw-100m"
    run_scenario(small("k2-hw-100m"), bundle_dir)
    passive = tmp_path / "passive"
    assert main(["extract", "--traces", str(bundle_dir / "traces.csv"), "--passive", "--out", str(passive)]) == 0
    capsys.readouterr()
    assert main(["eer", "--samples", str(passive / "samples.csv"), "--out", str(tmp_path / "eer")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("delta_rtt: EER=")
    assert list(json.loads((tmp_path / "eer" / "eer.json").read_text())) == ["delta_rtt"]


OTHER = "samples are of a feature other than dispersion or delta_rtt, or of a label other than N or Y"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "there is no dispersion or delta_rtt sample"),
        ([("rtt", "N"), ("rtt", "Y")] * 3, f"6 {OTHER}"),
        # A feature the samples hold is evaluated, but a typo beside it is not dropped.
        ([("dispersion", "N"), ("dispersion", "Y")] * 3 + [("delta-rtt", "Y")] * 2, f"2 {OTHER}"),
        ([("dispersion", "N"), ("dispersion", "Y")] * 3 + [("dispersion", "y")], f"1 {OTHER}"),
    ],
    ids=["header_only", "unknown_feature", "unknown_feature_beside_a_known_one", "unknown_label"],
)
def test_cli_eer_names_samples_it_cannot_evaluate(tmp_path, capsys, rows, message):
    samples = tmp_path / "samples.csv"
    n = len(rows)
    features, labels = [f for f, _ in rows], [label for _, label in rows]
    Samples(features, np.arange(n, dtype=float), labels, [1] * n, ["hardware"] * n, [10**8] * n,
            [1.0] * n).write_csv(samples)
    out = tmp_path / "eer"
    capsys.readouterr()
    assert main(["eer", "--samples", str(samples), "--out", str(out)]) == 2
    assert f"config error: samples: {message}" in capsys.readouterr().err
    assert not out.exists()


def bundle_with_one_sample_set_to(tmp_path, name, feature, label, value):
    """A persisted bundle of `name` whose first feature/label row of
    samples.csv holds `value`; its directory."""
    bundle_dir = tmp_path / "runs" / name
    run_scenario(small(name), bundle_dir)
    samples = bundle_dir / "samples.csv"
    lines = samples.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith(f"{feature},") and f",{label}," in line)
    _, _, rest = lines[row].split(",", 2)
    lines[row] = f"{feature},{value},{rest}"
    samples.write_text("".join(lines))
    return bundle_dir


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("stage", ["eer", "report"])
def test_cli_names_the_feature_and_label_of_a_non_finite_sample(tmp_path, capsys, stage, value):
    # One dispersion/N row of a persisted samples.csv holds a value no EER,
    # Welch test or histogram can take, and results JSON cannot write.
    bundle_dir = bundle_with_one_sample_set_to(tmp_path, "k1-hw-100m", "dispersion", "N", value)
    samples = bundle_dir / "samples.csv"
    out = tmp_path / stage
    argv = ["eer", "--samples", str(samples)] if stage == "eer" else ["report", "--bundles", str(bundle_dir)]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: samples: dispersion/N: a sample is {value} ms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_fit_names_the_feature_and_label_of_a_non_finite_sample(tmp_path, capsys, value):
    # fit_gpd's own check exited 1 with "samples must be finite", naming neither.
    samples = bundle_with_one_sample_set_to(tmp_path, "k2-hw-100m", "delta_rtt", "Y", value) / "samples.csv"
    out = tmp_path / "fit.json"
    capsys.readouterr()
    argv = ["fit", "--samples", str(samples), "--feature", "delta_rtt", "--label", "Y"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: samples: delta_rtt/Y in {samples}: a sample is {value} ms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "feature, label, values, message",
    [
        ("dispersion", "N", np.linspace(0.1, 0.4, 29), "the GPD fit needs 50 or more samples, got 29"),
        ("delta_rtt", "Y", np.full(60, 2.5),
         "the samples have no spread after the 1 ns location shift (min 2.5 ms, max 2.5 ms)"),
        # 1e-200 ms is lost in the 1 ns shift: the fit exited 1 with "math domain error".
        ("delta_rtt", "Y", np.repeat([0.0, 1e-200], 30),
         "the samples have no spread after the 1 ns location shift (min 0 ms, max 1e-200 ms)"),
        # The fit exited 1 although its message began "samples:".
        ("delta_rtt", "Y", np.append(0.0, np.full(59, 1e300)), "the samples' range, 1e+300 ms, overflows Grimshaw's"),
    ],
    ids=["too_few", "constant", "spread_lost_in_the_shift", "range_too_wide"],
)
def test_cli_fit_names_a_population_it_cannot_fit(tmp_path, capsys, feature, label, values, message):
    # fit_gpd's own checks exited 1 naming neither the population nor the file.
    samples = tmp_path / "samples.csv"
    n = values.size
    Samples([feature] * n, values, [label] * n, [1] * n, ["hardware"] * n, [10**8] * n, [1.0] * n).write_csv(samples)
    out = tmp_path / "fit.json"
    capsys.readouterr()
    assert main(["fit", "--samples", str(samples), "--feature", feature, "--label", label, "--out", str(out)]) == 2
    assert f"config error: samples: {feature}/{label} in {samples}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_refuses_two_bundles_of_one_scenario(tmp_path, capsys):
    # Both bundles' histograms would go to k2-hw-100m__<feature>__pdf_<label>.csv,
    # the second overwriting the first, and summary.csv would hold twin rows.
    first, second = tmp_path / "a" / "k2-hw-100m", tmp_path / "b" / "k2-hw-100m"
    for bundle_dir in (first, second):
        run_scenario(small("k2-hw-100m"), bundle_dir)
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["report", "--bundles", str(first), str(second), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: bundles: {first} and {second} both hold scenario 'k2-hw-100m'" in err
    assert not out.exists()


def test_write_json_refuses_nan_and_infinity(tmp_path):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "x.json", {"t_statistic": value})


def test_cli_missing_trace_file_exit_1(tmp_path):
    code = main(["extract", "--traces", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == 1


def test_cli_seed_override_changes_bytes(tmp_path):
    main(["simulate", "--scenario", "k1-hw-100m", "--trains", "10", "--out", str(tmp_path / "a")])
    main(
        [
            "simulate", "--scenario", "k1-hw-100m", "--trains", "10",
            "--seed", "777", "--out", str(tmp_path / "b"),
        ]
    )
    a = (tmp_path / "a" / "k1-hw-100m" / "traces.csv").read_bytes()
    b = (tmp_path / "b" / "k1-hw-100m" / "traces.csv").read_bytes()
    assert a != b


def test_cli_report_reads_bin_width_from_bundle(tmp_path):
    bundle_dir = tmp_path / "runs" / "wide"
    scenario = replace(small("k1-hw-100m", bin_width_ns=500_000), name="wide")
    bundle = run_scenario(scenario, bundle_dir)
    code = main(["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")])
    assert code == 0
    rows = (tmp_path / "rep" / "wide__delta_rtt__pdf_Y.csv").read_text().splitlines()[1:]
    values = bundle.samples.values("delta_rtt", "Y")

    def expected(width):
        h = build_histogram(values, width)
        rows = zip(h.bin_left_ms.tolist(), h.count.tolist(), h.relative_frequency.tolist())
        return [f"{left!r},{count},{freq!r}" for left, count, freq in rows]

    assert rows == expected(0.5)
    assert rows != expected(0.1)


def test_cli_extract_keeps_a_fractional_time_span(tmp_path):
    # 4.1 s * 1e9 is 4099999999.9999995 in floating point: truncating it
    # would label the extracted samples with a 4.099999999 s span.
    cfg = tmp_path / "span.yaml"
    cfg.write_text(
        "scenarios:\n  - name: span41\n    seed: 5\n    trains: 4\n    time_span: 4.1 s\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    bundle = tmp_path / "runs" / "span41"
    assert main(["extract", "--traces", str(bundle / "traces.csv"), "--out", str(tmp_path / "ex")]) == 0
    assert (tmp_path / "ex" / "samples.csv").read_bytes() == (bundle / "samples.csv").read_bytes()


def test_cli_extract_passive_window_defaults_to_the_sidecar(tmp_path):
    cfg = tmp_path / "window.yaml"
    cfg.write_text(
        "scenarios:\n  - name: wide\n    seed: 5\n    trains: 4\n    passive_window: 600 s\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    traces = str(tmp_path / "runs" / "wide" / "traces.csv")

    def passive(name, *window):
        out = tmp_path / name
        assert main(["extract", "--traces", traces, "--out", str(out), "--passive", *window]) == 0
        return (out / "samples.csv").read_bytes()

    sidecar = passive("sidecar")
    assert sidecar == passive("600", "--window-s", "600")
    assert sidecar != passive("1", "--window-s", "1")


def edit_sidecar_entry(bundle_dir, **entry):
    """Rewrite the bundle's scenario.json with its one entry's keys updated
    from `entry`, a None value deleting its key."""
    sidecar = bundle_dir / "scenario.json"
    described = json.loads(sidecar.read_text())
    edited = dict(described["scenarios"][0], **entry)
    described["scenarios"] = [{k: v for k, v in edited.items() if v is not None}]
    sidecar.write_text(json.dumps(described))
    return sidecar


def test_cli_extract_and_report_need_a_complete_sidecar(tmp_path, capsys):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    extract = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]
    report = ["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]
    sidecar = edit_sidecar_entry(bundle_dir, name=None)
    capsys.readouterr()
    for argv in (extract, report):
        assert main(argv) == 2
        assert f"name: missing from the scenario entry in {sidecar}" in capsys.readouterr().err
    edit_sidecar_entry(bundle_dir, name="k1-hw-100m", defense="no")
    with pytest.raises(ConfigError, match="defense: must be a mapping, got 'no' in scenario 'k1-hw-100m' in"):
        read_scenario_descriptor(bundle_dir)
    sidecar.unlink()
    for argv in (extract, report):
        assert main(argv) == 2
        assert f"cannot read {sidecar}" in capsys.readouterr().err


def test_cli_rejects_a_sidecar_without_a_scenarios_list(tmp_path, capsys):
    # The ten summary fields alone, as scenario.json held before it held a config entry.
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    sidecar = bundle_dir / "scenario.json"
    summary = {k: v for k, v in json.loads(sidecar.read_text()).items() if k != "scenarios"}
    sidecar.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]) == 2
    assert f"'scenarios' list in {sidecar}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ('[{"name": "lab", "seed": 1}]', "scenario: {sidecar} must hold a JSON object"),
        ('{"scenarios": [{"name": "lab", "seed": 1}, {"name": "lab2", "seed": 2}]}',
         "scenarios: a sidecar holds one entry in {sidecar}"),
    ],
    ids=["json_list", "two_entries"],
)
def test_cli_rejects_a_sidecar_that_is_not_one_scenario(tmp_path, capsys, content, message):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    sidecar = bundle_dir / "scenario.json"
    sidecar.write_text(content)
    capsys.readouterr()
    for argv in (["extract", "--traces", str(bundle_dir / "traces.csv")], ["report", "--bundles", str(bundle_dir)]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(sidecar=sidecar)}\n"
        assert not (tmp_path / "out").exists()


def test_a_hand_written_sidecar_takes_the_defaults_of_omitted_keys(tmp_path):
    (tmp_path / "scenario.json").write_text('{"scenarios": [{"name": "lab", "seed": 1, "k": 2}]}')
    assert read_scenario_descriptor(tmp_path) == Scenario(name="lab", seed=1, k=2)


@pytest.mark.parametrize("defense", [None, DelayElementConfig()], ids=["undefended", "defended"])
def test_read_scenario_descriptor_round_trips_the_sidecar(tmp_path, defense):
    scenario = Scenario(
        name="described", seed=9, trains=2, k=2, switch_kind="software",
        data_link_bps=1_000_000_000, time_span_ns=4_100_000_000, defense=defense,
        bin_width_ns=500_000, passive_window_ns=600_000_000_000,
    )
    run_scenario(scenario, tmp_path)
    assert read_scenario_descriptor(tmp_path) == scenario


def test_scenario_from_config_keeps_the_defaults_of_omitted_keys():
    assert scenario_from_config({"name": "fresh", "seed": 5}) == Scenario(name="fresh", seed=5)
    for name, builtin in BUILTINS.items():
        assert scenario_from_config({"name": name}) == builtin
    assert scenario_from_config({"name": "k2-hw-100m", "mtu": "1000 B"}) == replace(
        BUILTINS["k2-hw-100m"], mtu_bytes=1000
    )


def test_the_builtin_matrix_is_read_only():
    """Every stage that names a built-in reads the one matrix built at import."""
    with pytest.raises(TypeError, match="does not support item assignment"):
        BUILTINS["k1-hw-100m"] = replace(BUILTINS["k1-hw-100m"], seed=1)
    assert BUILTINS["k1-hw-100m"].seed == 20401


@pytest.mark.parametrize(
    "cls, keys",
    [(Scenario, _CONFIG_FIELDS), (DelayElementConfig, _DEFENSE_KEYS), (DriftModel, _DRIFT_KEYS)],
    ids=["scenario", "defense", "drift"],
)
def test_every_field_is_written_by_exactly_one_config_key(cls, keys):
    # So a sidecar loses nothing, and a field no config key states fails here.
    written = Counter(field for field, _ in keys.values())
    assert written == Counter(f.name for f in fields(cls) if f.name != "name")


def quantity(unit, low, high):
    """'<n> <unit>' for n in [low, high], whole or with a fraction."""
    return st.builds("{}{} {}".format, st.integers(low, high), st.sampled_from(["", ".5", ".125"]), st.just(unit))


DURATIONS = quantity("ns", 0, 10**9) | quantity("us", 0, 10**6) | quantity("ms", 0, 10**4)
POSITIVE = quantity("us", 1, 10**6)
VARIANCES = quantity("ns^2", 1, 10**12) | quantity("ms^2", 1, 100)
CONSTANTS = st.fixed_dictionaries({"kind": st.just("constant"), "value": DURATIONS})
PARETOS = st.fixed_dictionaries({"kind": st.just("pareto"), "mean": POSITIVE, "variance": VARIANCES})
# Delays whose samples are all positive, as an install delay's must be.
POSITIVE_DELAYS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": POSITIVE}),
    PARETOS,
    st.fixed_dictionaries({"kind": st.just("lognormal"), "median": POSITIVE, "sigma_log": st.floats(0.01, 2.0)}),
)
QUIET = st.just({}) | st.fixed_dictionaries({"kind": st.just("none")})  # kind none
DELAYS = st.one_of(QUIET, CONSTANTS, POSITIVE_DELAYS)
GPDS = st.fixed_dictionaries(
    {"shape": st.floats(-0.9, 0.9), "scale_ms": st.floats(0.01, 20.0), "location_ms": st.floats(0.0, 5.0)}
)
DEFENSES = st.fixed_dictionaries(
    {},
    optional={
        "t_th": quantity("s", 1, 5),
        "window": quantity("ms", 1, 999),
        "first_delay": GPDS,
        "followup_delay": GPDS,
    },
)
ENTRIES = st.fixed_dictionaries(
    {"name": st.sampled_from([*BUILTINS, "lab"]), "seed": st.integers(0, 2**32)},
    optional={
        "trains": st.integers(1, 500),
        "k": st.integers(1, 3),
        "switch_kind": st.sampled_from(["hardware", "software"]),
        "data_link": quantity("Mbps", 1, 10_000),
        "links_forward": st.integers(4, 6),
        "links_reverse": st.integers(1, 6),
        "base_latency": DURATIONS,
        "cross_traffic": DELAYS,
        "install_delay": st.none() | POSITIVE_DELAYS,
        "lookup_delay": DELAYS,
        "mtu": quantity("B", 64, 9000),
        "reply_size": quantity("B", 1, 1500),
        "pair_spacing": quantity("ns", 0, 10**7 - 1) | quantity("us", 0, 9999),  # pairs: <= 10 ms
        "time_span": quantity("s", 1, 600),
        "passive_window": quantity("ms", 1, 10**6),
        "bin_width": quantity("us", 1, 10**4),
        "table_capacity": st.integers(1, 4096),
        "clear_delay": DURATIONS,
        "turnaround": DURATIONS,
        "idle_lead": quantity("s", 6, 60),
        "defense": st.none() | DEFENSES,
        "drift": st.none() | st.fixed_dictionaries({"sigma": DURATIONS}, optional={"base": DURATIONS}),
    },
)


@given(ENTRIES)
def test_scenario_to_config_inverts_scenario_from_config(cfg):
    # Drawn as entries, not scenarios: each quantity is stated as a config
    # states it, in several units and with fractions.  Sidecars are read as
    # JSON, and as YAML by `simulate --config`.
    scenario = scenario_from_config(cfg)
    text = json.dumps(scenario_to_config(scenario))
    assert scenario_from_config(json.loads(text)) == scenario
    assert scenario_from_config(yaml.safe_load(text)) == scenario


def test_non_positive_passive_window_exit_2(tmp_path, capsys):
    # --window-s overrides the sidecar's passive_window and takes its bounds:
    # 1e300 s overflowed to an infinite window and exited 1 naming no flag.
    bundle_dir = tmp_path / "bundle"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    for window in ("0", "-1", "1e-12", "nan", "1e300", "9007199.254741"):
        argv = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex"),
                "--passive", "--window-s", window]
        assert main(argv) == 2, window
        assert "window-s:" in capsys.readouterr().err
    assert not (tmp_path / "ex").exists()


def test_cli_extract_refuses_a_window_without_passive(tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    argv = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex"), "--window-s", "1"]
    assert main(argv) == 2
    assert "window-s: only --passive" in capsys.readouterr().err
    assert not (tmp_path / "ex").exists()


def test_cli_defend_names_the_gpd_file_and_key_it_cannot_read(tmp_path, capsys):
    fitted = {"feature": "delta_rtt", "label": "Y", "shape": -0.5, "scale_ms": 2.0, "location_ms": 0.5}
    first, followup = tmp_path / "first.json", tmp_path / "followup.json"
    first.write_text(json.dumps(fitted))
    followup.write_text(json.dumps({k: v for k, v in fitted.items() if k != "scale_ms"}))
    defend = ["defend", "--scenario", "k1-hw-100m", "--trains", "4", "--out", str(tmp_path / "runs"),
              "--first-delay", str(first), "--followup-delay", str(followup)]
    assert main(defend) == 2
    assert f"scale_ms: missing from {followup}" in capsys.readouterr().err
    followup.write_text(json.dumps(dict(fitted, scale_ms=-1.0)))
    assert main(defend) == 2
    assert f"scale_ms: must be positive in {followup}" in capsys.readouterr().err
    followup.unlink()
    assert main(defend) == 2
    assert f"cannot read {followup}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag", ["--first-delay", "--followup-delay"])
def test_cli_defend_needs_both_fitted_holds(tmp_path, capsys, flag):
    fitted = tmp_path / "fit.json"
    fitted.write_text(json.dumps({"shape": -0.5, "scale_ms": 2.0, "location_ms": 0.5}))
    defend = ["defend", "--scenario", "k1-hw-100m", "--trains", "4", "--out", str(tmp_path / "runs"), flag, str(fitted)]
    assert main(defend) == 2
    assert capsys.readouterr().err == (
        "config error: first-delay: fitted runs need both --first-delay and --followup-delay\n"
    )
    assert not (tmp_path / "runs").exists()


def test_cli_defend_rejects_a_fitted_gpd_with_a_negative_location(tmp_path, capsys):
    # Replies can reorder, so the N dispersion population, and the location
    # `sdnfp fit` pins below its minimum, reach below 0.
    runs = tmp_path / "runs"
    assert main(["simulate", "--scenario", "k2-hw-100m", "--out", str(runs)]) == 0
    fitted = tmp_path / "n.json"
    assert main(["fit", "--samples", str(runs / "k2-hw-100m" / "samples.csv"),
                 "--feature", "dispersion", "--label", "N", "--out", str(fitted)]) == 0
    location = json.loads(fitted.read_text())["location_ms"]
    assert location < 0
    capsys.readouterr()
    defend = ["defend", "--scenario", "k2-hw-100m", "--out", str(tmp_path / "defended"),
              "--first-delay", str(fitted), "--followup-delay", str(fitted)]
    assert main(defend) == 2
    assert f"location_ms: a delay needs a location >= 0, got {location} in {fitted}" in capsys.readouterr().err
    assert not (tmp_path / "defended").exists()


@pytest.mark.parametrize(
    "key, value, passive, message",
    [
        ("passive_window_s", 0, True, "passive_window: must be positive"),
        ("bin_width_ms", 0.0, False, "bin_width: must be positive"),
    ],
)
def test_cli_rejects_a_sidecar_that_fails_validation(tmp_path, capsys, key, value, passive, message):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    # A summary field's name is its entry key and its unit.
    entry_key, unit = key.rsplit("_", 1)
    sidecar = edit_sidecar_entry(bundle_dir, **{entry_key: f"{value} {unit}"})
    extract = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]
    report = ["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]
    capsys.readouterr()
    for argv in (extract + ["--passive"] if passive else extract, report):
        assert main(argv) == 2
        assert f"{message} in scenario 'k1-hw-100m' in {sidecar}" in capsys.readouterr().err


def test_scenario_from_config_names_an_unknown_key():
    with pytest.raises(ConfigError, match="^seeds: unknown key"):
        scenario_from_config({"name": "fresh", "seed": 5, "seeds": 6})
    # The samples say which features a run has: no entry chooses them.
    with pytest.raises(ConfigError, match="^features: unknown key"):
        scenario_from_config({"name": "k1-hw-100m", "features": ["dispersion"]})


def test_cli_parallel_jobs_write_the_serial_bytes(tmp_path):
    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        assert main(["simulate", "--trains", "8", "--jobs", str(jobs), "--out", str(out)]) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    serial = run(1)
    assert len(serial) == 4 * len(BUILTINS)
    assert run(2) == serial


def test_a_null_install_delay_is_the_switch_kinds_default(tmp_path):
    cfg = tmp_path / "typed.yaml"
    cfg.write_text("scenarios:\n  - name: k1-hw-100m\n    trains: 4\n    install_delay: null\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    builtin = replace(BUILTINS["k1-hw-100m"], trains=4)
    assert read_scenario_descriptor(tmp_path / "runs" / "k1-hw-100m") == builtin


def test_cli_report_reads_no_results_json(tmp_path):
    # The report takes the bin width from scenario.json and the samples from
    # samples.csv: without results.json it writes the same bytes.
    bundle_dir = tmp_path / "runs" / "k3-hw-1g"
    run_scenario(small("k3-hw-1g"), bundle_dir)

    def report(name):
        out = tmp_path / name
        assert main(["report", "--bundles", str(bundle_dir), "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    with_results = report("with")
    (bundle_dir / "results.json").unlink()
    assert report("without") == with_results
    assert len(with_results) == 5  # the summary and four histograms


def test_cli_report_names_a_bundle_without_samples(tmp_path, capsys):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(BUILTINS["k1-hw-100m"], trains=4), bundle_dir)
    (bundle_dir / "samples.csv").unlink()
    out = tmp_path / "rep"
    capsys.readouterr()
    assert main(["report", "--bundles", str(bundle_dir), "--out", str(out)]) == 2
    assert f"config error: bundles: {bundle_dir} lacks samples.csv" in capsys.readouterr().err
    assert not out.exists()


def test_report_summary_quotes_a_scenario_name_with_a_comma(tmp_path):
    cfg = tmp_path / "comma.yaml"
    cfg.write_text('scenarios:\n  - name: "lab,run1"\n    seed: 5\n    trains: 4\n')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    bundle = str(tmp_path / "runs" / "lab,run1")
    assert main(["report", "--bundles", bundle, "--out", str(tmp_path / "rep")]) == 0
    with open(tmp_path / "rep" / "summary.csv", newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert len(reader.fieldnames) == 7
    assert [(r["scenario"], r["feature"]) for r in rows] == [
        ("lab,run1", "delta_rtt"),
        ("lab,run1", "dispersion"),
    ]
    assert all(len(r) == 7 and None not in r for r in rows)


def test_cli_dispatches_by_name_on_every_call(tmp_path, monkeypatch):
    # The parser is built once per process; each call must still run the
    # cmd_<command> the module holds at that moment, as a tracer patches it.
    args = ["eer", "--samples", str(tmp_path / "missing.csv"), "--out", str(tmp_path)]
    assert main(args) == 1
    seen = []
    monkeypatch.setattr(cli, "cmd_eer", lambda a: seen.append(a.samples) or 0)
    assert main(args) == 0
    assert seen == [str(tmp_path / "missing.csv")]


def test_defend_builds_generators_only_for_normal_draws(tmp_path, monkeypatch):
    # Only `control` (lognormal installs) draws standard_normal(): one
    # Generator per train.  `cross` and `defense` draw random() by PCG64 over
    # the trial axis, and the warm idle twins never miss.
    built = []
    generator = np.random.Generator

    def counted(*args, **kwargs):
        built.append(1)
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counted)
    out = tmp_path / "runs"
    assert main(["defend", "--scenario", "k2-hw-100m", "--trains", "8", "--out", str(out)]) == 0
    assert len(built) == 8
