"""Scenario orchestration, config loading, report emission, CLI stages."""

import csv
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import sdnfp.cli as cli
from sdnfp.cli import main
from sdnfp.defense import DelayElementConfig
from sdnfp.probes import PAIR_GAP_MAX_NS, build_probe_train, run_schedule, run_schedule_reference
from sdnfp.scenario import (
    DEFAULT_FLOW,
    ConfigError,
    Scenario,
    builtin_scenarios,
    emit_report,
    load_scenarios,
    read_scenario_descriptor,
    run_scenario,
    scenario_from_config,
    scenario_to_config,
)
from sdnfp.stats import build_histogram

TRAINS = 60  # reduced for unit-test speed; acceptance runs the full counts


def small(name="k3-hw-100m", **overrides):
    base = builtin_scenarios()[name]
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
    assert disp.y_count == TRAINS
    assert disp.n_count == 3 * TRAINS + TRAINS  # train pairs + idle pairs
    drtt = bundle.feature_results["delta_rtt"]
    assert drtt.y_count == TRAINS and drtt.n_count == TRAINS


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
    with pytest.raises(ConfigError):
        small(k=3, links_forward=3).validate()


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
    """emit_report's (scenario, samples, feature results) triple of each bundle."""
    return [(b.scenario, b.samples, b.feature_results) for b in bundles]


def test_emit_report(tmp_path):
    runs = report_runs(run_scenario(small()), run_scenario(small("k1-sw-100m")))
    written = emit_report(runs, tmp_path, fmt="csv")
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
    emit_report(runs, tmp_path / "r1", fmt="csv")
    emit_report(runs, tmp_path / "r2", fmt="csv")
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
    "    features: [dispersion]\n"
)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)],
                         ids=["python", "libyaml"])
def test_load_scenarios_reads_the_same_with_either_yaml_parser(tmp_path, monkeypatch, loader):
    cfg = tmp_path / "drift.yaml"
    cfg.write_text(DRIFT_YAML)
    monkeypatch.setattr("sdnfp.scenario._YAML_LOADER", loader)
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


@pytest.mark.parametrize(
    "name, entry, key, value",
    [
        ("k1-hw-100m", "trains: 4.7", "trains", 4.7),
        ("k1-hw-100m", "k: 2.0", "k", 2.0),
        ("k1-hw-100m", "links_forward: true", "links_forward", True),
        ("k1-hw-100m", "links_reverse: '4'", "links_reverse", "4"),
        ("k1-hw-100m", "table_capacity: '1024'", "table_capacity", "1024"),
        ("k1-hw-100m", "seed: 5.5", "seed", 5.5),
        ("fresh", "seed: 5.5", "seed", 5.5),
        (
            "k2-hw-100m",
            "defense: {per_k: {2.7: {first_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5},"
            " followup_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5}}}}",
            "defense.per_k.2.7",
            2.7,
        ),
    ],
    ids=[
        "trains", "k", "links_forward", "links_reverse", "table_capacity", "seed", "seed_of_a_new_name",
        "per_k",
    ],
)
def test_cli_rejects_a_count_that_is_not_an_integer(tmp_path, capsys, name, entry, key, value):
    # A float was truncated (4.7 trains ran 4), a bool or a digit string converted.
    cfg = tmp_path / "counts.yaml"
    extra = "" if key == "trains" else "\n    trains: 4"
    cfg.write_text(f"scenarios:\n  - name: {name}\n    {entry}{extra}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert f"{key}: invalid value {value!r} (must be an integer) in scenario '{name}'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ("install_delay: {kind: lognormal, median: 1 ms, sigma_log: .nan}", "install_delay: invalid value"),
        ("lookup_delay: {kind: lognormal, median: 1 ms, sigma_log: .inf}", "lookup_delay: invalid value"),
        (
            "defense: {first_delay: {shape: .nan, scale_ms: 0.8, location_ms: 0.5}}",
            "shape: invalid value nan (must be finite) in defense.first_delay",
        ),
        (
            "defense: {followup_delay: {shape: -0.4, scale_ms: .inf, location_ms: 0.5}}",
            "scale_ms: invalid value inf (must be finite) in defense.followup_delay",
        ),
        (
            "defense: {per_k: {2: {first_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5},"
            " followup_delay: {shape: -.inf, scale_ms: 0.8, location_ms: 0.5}}}}",
            "shape: invalid value -inf (must be finite) in defense.per_k.2.followup_delay",
        ),
    ],
    ids=["sigma_log_nan", "sigma_log_inf", "gpd_shape_nan", "gpd_scale_inf", "per_k_shape"],
)
def test_cli_rejects_a_non_finite_delay_parameter(tmp_path, capsys, entry, message):
    cfg = tmp_path / "nan.yaml"
    cfg.write_text(f"scenarios:\n  - name: k2-hw-100m\n    trains: 4\n    {entry}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert message in err and "in scenario 'k2-hw-100m'" in err
    if "sigma_log" in entry:
        assert "finite sigma_log" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ("links_reverse: 0", "links_reverse: must be >= 1"),
        ("table_capacity: -1", "table_capacity: must be >= 0"),
        ("install_delay: {kind: none}", "install_delay: samples must be positive"),
        ("install_delay: {kind: constant, value: 0 ns}", "install_delay: samples must be positive"),
        ("cross_traffic: {kind: pareto, mean: 0 ns}", "cross_traffic: invalid value"),
        ("pair_spacing: 20 ms", "pair_spacing: must be <= 10000000 ns"),
    ],
    ids=["links_reverse", "table_capacity", "install_delay_none", "install_delay_zero", "cross_traffic_mean",
         "pair_spacing"],
)
def test_cli_names_the_key_of_a_value_the_run_cannot_take(tmp_path, capsys, entry, message):
    # Each of these passed validation and then failed mid-run naming no key,
    # or, for a pair spacing wider than a pair's send gap, ran and read each
    # pair as two singles.
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"scenarios:\n  - name: k2-hw-100m\n    trains: 4\n    {entry}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_pair_spacing_up_to_the_pair_gap_keeps_the_pairs():
    bundle = run_scenario(small("k2-hw-100m", pair_spacing_ns=PAIR_GAP_MAX_NS))
    assert bundle.feature_results["dispersion"].y_count == TRAINS
    assert bundle.feature_results["delta_rtt"].n_count == bundle.feature_results["delta_rtt"].y_count == TRAINS


@pytest.mark.parametrize(
    "given, written",
    [
        ({}, {"kind": "pareto", "mean": "20000000 ns", "variance": "4000000000000 ns^2"}),
        ({"kind": "constant"}, {"kind": "constant", "mean": "20000000 ns"}),
        ({"kind": "pareto", "mean": "1 ms"}, {"kind": "pareto", "mean": "1000000 ns", "variance": "4000000000000 ns^2"}),
        ({"kind": "none"}, {"kind": "none"}),
    ],
    ids=["empty", "constant", "pareto_mean", "none"],
)
def test_cross_traffic_keys_default_to_20_ms_and_4_ms2(given, written):
    # The round-trip property compares two parses, so it cannot see a changed default.
    scenario = scenario_from_config({"name": "lab", "seed": 5, "cross_traffic": given})
    assert scenario_to_config(scenario)["cross_traffic"] == written


def test_cross_traffic_of_kind_none_adds_no_delay():
    traces = []
    for cross in ({"kind": "none"}, None):
        s = scenario_from_config({"name": "k1-hw-100m", "cross_traffic": cross})
        args = (build_probe_train(DEFAULT_FLOW), s.build_path(), s.build_controller(), s.seed)
        traces.append((run_schedule(*args, trials=range(4)), run_schedule_reference(*args)))
    assert traces[0] == traces[1]


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
            "--format", "csv",
        ]
    )
    assert code == 0
    assert (tmp_path / "report" / "summary.csv").exists()


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
    assert main(["eer", "--samples", str(samples), "--out", str(tmp_path / "eer")]) == 2
    assert f"features: no {feature} samples" in capsys.readouterr().err
    assert main(["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]) == 2
    assert f"features: no {feature} samples" in capsys.readouterr().err


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


def test_cli_report_json(tmp_path):
    out = tmp_path / "runs"
    main(["simulate", "--scenario", "k1-hw-100m", "--trains", str(TRAINS), "--out", str(out)])
    code = main(
        [
            "report",
            "--bundles", str(out / "k1-hw-100m"),
            "--out", str(tmp_path / "rep"),
            "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert rows[0]["scenario"] == "k1-hw-100m"


def test_cli_report_reads_bin_width_from_bundle(tmp_path):
    bundle_dir = tmp_path / "runs" / "wide"
    scenario = replace(small("k1-hw-100m", bin_width_ms=0.5), name="wide")
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
    run_scenario(replace(builtin_scenarios()["k1-hw-100m"], trains=4), bundle_dir)
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
    run_scenario(replace(builtin_scenarios()["k1-hw-100m"], trains=4), bundle_dir)
    sidecar = bundle_dir / "scenario.json"
    summary = {k: v for k, v in json.loads(sidecar.read_text()).items() if k != "scenarios"}
    sidecar.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]) == 2
    assert f"'scenarios' list in {sidecar}" in capsys.readouterr().err


def test_a_hand_written_sidecar_takes_the_defaults_of_omitted_keys(tmp_path):
    (tmp_path / "scenario.json").write_text('{"scenarios": [{"name": "lab", "seed": 1, "k": 2}]}')
    assert read_scenario_descriptor(tmp_path) == Scenario(name="lab", seed=1, k=2)


@pytest.mark.parametrize("defense", [None, DelayElementConfig()], ids=["undefended", "defended"])
def test_read_scenario_descriptor_round_trips_the_sidecar(tmp_path, defense):
    scenario = Scenario(
        name="described", seed=9, trains=2, k=2, switch_kind="software",
        data_link_bps=1_000_000_000, time_span_ns=4_100_000_000, defense=defense,
        bin_width_ms=0.5, passive_window_ns=600_000_000_000,
    )
    run_scenario(scenario, tmp_path)
    assert read_scenario_descriptor(tmp_path) == scenario


def test_scenario_from_config_keeps_the_defaults_of_omitted_keys():
    assert scenario_from_config({"name": "fresh", "seed": 5}) == Scenario(name="fresh", seed=5)
    for name, builtin in builtin_scenarios().items():
        assert scenario_from_config({"name": name}) == builtin
    assert scenario_from_config({"name": "k2-hw-100m", "mtu": "1000 B"}) == replace(
        builtin_scenarios()["k2-hw-100m"], mtu_bytes=1000
    )


def quantity(unit, low, high):
    """'<n> <unit>' for n in [low, high], whole or with a fraction."""
    return st.builds("{}{} {}".format, st.integers(low, high), st.sampled_from(["", ".5", ".125"]), st.just(unit))


DURATIONS = quantity("ns", 0, 10**9) | quantity("us", 0, 10**6) | quantity("ms", 0, 10**4)
POSITIVE = quantity("us", 1, 10**6)
VARIANCES = quantity("ns^2", 1, 10**12) | quantity("ms^2", 1, 100)
# Delays whose samples are all positive, as an install delay's must be.
POSITIVE_DELAYS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("pareto"), "mean": POSITIVE, "variance": VARIANCES}),
    st.fixed_dictionaries({"kind": st.just("lognormal"), "median": POSITIVE, "sigma_log": st.floats(0.01, 2.0)}),
)
DELAYS = st.one_of(
    st.just({}),  # kind none
    st.fixed_dictionaries({"kind": st.just("none")}),
    st.fixed_dictionaries({"kind": st.just("constant"), "value": DURATIONS}),
    POSITIVE_DELAYS,
)
CROSS_TRAFFIC = st.one_of(
    st.fixed_dictionaries({}, optional={"kind": st.just("pareto"), "mean": POSITIVE, "variance": VARIANCES}),
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"mean": DURATIONS}),
    st.fixed_dictionaries({"kind": st.just("none")}),
)
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
        "per_k": st.none() | st.dictionaries(
            st.integers(1, 3), st.fixed_dictionaries({"first_delay": GPDS, "followup_delay": GPDS}), max_size=3
        ),
    },
)
ENTRIES = st.fixed_dictionaries(
    {"name": st.sampled_from([*builtin_scenarios(), "lab"]), "seed": st.integers(0, 2**32)},
    optional={
        "trains": st.integers(1, 500),
        "k": st.integers(1, 3),
        "switch_kind": st.sampled_from(["hardware", "software"]),
        "data_link": quantity("Mbps", 1, 10_000),
        "links_forward": st.integers(4, 6),
        "links_reverse": st.integers(1, 6),
        "base_latency": DURATIONS,
        "cross_traffic": st.none() | CROSS_TRAFFIC,
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
        "features": st.lists(st.sampled_from(["dispersion", "delta_rtt"]), min_size=1, max_size=2),
    },
)


@given(ENTRIES)
def test_scenario_to_config_inverts_scenario_from_config(cfg):
    # Drawn as entries, not scenarios: a bin width or a drift sigma is a
    # whole number of nanoseconds only once parsed.  Sidecars are read as
    # JSON, and as YAML by `simulate --config`.
    scenario = scenario_from_config(cfg)
    text = json.dumps(scenario_to_config(scenario))
    assert scenario_from_config(json.loads(text)) == scenario
    assert scenario_from_config(yaml.safe_load(text)) == scenario


def test_non_positive_passive_window_exit_2(tmp_path, capsys):
    cfg = tmp_path / "window.yaml"
    cfg.write_text("scenarios:\n  - name: shut\n    seed: 5\n    trains: 4\n    passive_window: 0 s\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert "passive_window: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    bundle_dir = tmp_path / "bundle"
    run_scenario(replace(builtin_scenarios()["k1-hw-100m"], trains=4), bundle_dir)
    for window in ("0", "-1", "1e-12", "nan"):
        argv = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex"),
                "--passive", "--window-s", window]
        assert main(argv) == 2, window
        assert "window-s:" in capsys.readouterr().err


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
    assert f"scale_ms: scale must be positive in {followup}" in capsys.readouterr().err
    followup.unlink()
    assert main(defend) == 2
    assert f"cannot read {followup}" in capsys.readouterr().err
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
    "defense, key",
    [
        ("{first_delay: {shape: -0.4, scale_ms: 0.8, location_ms: -0.38}}", "defense.first_delay"),
        (
            "{per_k: {2: {first_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5},"
            " followup_delay: {shape: -0.4, scale_ms: 0.8, location_ms: -0.38}}}}",
            "defense.per_k.2.followup_delay",
        ),
    ],
    ids=["first_delay", "per_k"],
)
def test_cli_names_the_defense_key_with_a_negative_location(tmp_path, capsys, defense, key):
    cfg = tmp_path / "negative.yaml"
    cfg.write_text(f"scenarios:\n  - name: k2-hw-100m\n    trains: 4\n    defense: {defense}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert f"location_ms: a delay needs a location >= 0, got -0.38 in {key}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_non_positive_bin_width_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bins.yaml"
    cfg.write_text("scenarios:\n  - name: flat\n    seed: 5\n    trains: 4\n    bin_width: 0 ms\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert "bin_width: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "key, value, passive, message",
    [
        ("passive_window_s", 0, True, "passive_window: must be positive"),
        ("bin_width_ms", 0.0, False, "bin_width: must be positive"),
    ],
)
def test_cli_rejects_a_sidecar_that_fails_validation(tmp_path, capsys, key, value, passive, message):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(builtin_scenarios()["k1-hw-100m"], trains=4), bundle_dir)
    # A summary field's name is its entry key and its unit.
    entry_key, unit = key.rsplit("_", 1)
    sidecar = edit_sidecar_entry(bundle_dir, **{entry_key: f"{value} {unit}"})
    extract = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]
    report = ["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]
    capsys.readouterr()
    for argv in (extract + ["--passive"] if passive else extract, report):
        assert main(argv) == 2
        assert f"{message} in {sidecar}" in capsys.readouterr().err


def test_cli_rejects_an_unknown_scenario_key(tmp_path, capsys):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text("scenarios:\n  - name: k1-hw-100m\n    trainz: 4\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert "trainz: unknown key in scenario 'k1-hw-100m'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    with pytest.raises(ConfigError, match="^seeds: unknown key"):
        scenario_from_config({"name": "fresh", "seed": 5, "seeds": 6})


def test_cli_parallel_jobs_write_the_serial_bytes(tmp_path):
    def run(jobs):
        out = tmp_path / f"jobs{jobs}"
        assert main(["simulate", "--trains", "8", "--jobs", str(jobs), "--out", str(out)]) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    serial = run(1)
    assert len(serial) == 4 * len(builtin_scenarios())
    assert run(2) == serial


@pytest.mark.parametrize(
    "entry, key",
    [
        ("cross_traffic: {kind: pareto, maen: 1 ms}", "cross_traffic.maen"),
        ("install_delay: {kind: constant, valeu: 1 ms}", "install_delay.valeu"),
        ("lookup_delay: {kind: constant, value: 1 ms, sigma: 2}", "lookup_delay.sigma"),
        ("drift: {sigma: 1 ms, bse: 1 ms}", "drift.bse"),
        ("defense: {windw: 1 ms}", "defense.windw"),
        (
            "defense: {per_k: {2: {first_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5},"
            " followup_delay: {shape: -0.5, scale_ms: 2, location_ms: 0.5}, firts_delay: 1}}}",
            "defense.per_k.2.firts_delay",
        ),
        # Each kind knows only its own keys.
        ("install_delay: {kind: constant, value: 1 ms, mean: 2 ms}", "install_delay.mean"),
        ("cross_traffic: {kind: constant, variance: 1 ms^2}", "cross_traffic.variance"),
        # A delay's keys are not cross-traffic keys.
        ("cross_traffic: {kind: constant, value: 1 ms}", "cross_traffic.value"),
        ("cross_traffic: {median: 1 ms}", "cross_traffic.median"),
    ],
    ids=[
        "cross_traffic", "install_delay", "lookup_delay", "drift", "defense", "per_k",
        "install_delay_of_another_kind", "cross_traffic_of_another_kind", "cross_traffic_value",
        "cross_traffic_median",
    ],
)
def test_cli_rejects_an_unknown_nested_key(tmp_path, capsys, entry, key):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(f"scenarios:\n  - name: k1-hw-100m\n    trains: 4\n    {entry}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
    assert f"{key}: unknown key in scenario 'k1-hw-100m'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ("install_delay: null", None),
        ("install_delay: 5 ms", "install_delay: must be a mapping, got '5 ms'"),
        ("lookup_delay: [1, 2]", "lookup_delay: must be a mapping, got [1, 2]"),
        ("cross_traffic: 7 ms", "cross_traffic: must be a mapping, got '7 ms'"),
        ("defense: {per_k: 5}", "defense.per_k: must be a mapping, got 5"),
        ("features: dispersion", "features: invalid value 'dispersion' (must be a list)"),
    ],
    ids=["install_delay_null", "install_delay", "lookup_delay", "cross_traffic", "per_k", "features"],
)
def test_cli_names_the_key_of_a_value_of_the_wrong_type(tmp_path, capsys, entry, message):
    cfg = tmp_path / "typed.yaml"
    cfg.write_text(f"scenarios:\n  - name: k1-hw-100m\n    trains: 4\n    {entry}\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    if message is None:  # null is the switch kind's default install delay
        assert code == 0
        builtin = replace(builtin_scenarios()["k1-hw-100m"], trains=4)
        assert read_scenario_descriptor(tmp_path / "runs" / "k1-hw-100m") == builtin
    else:
        assert code == 2
        assert f"{message} in scenario 'k1-hw-100m'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def test_cli_report_names_a_results_json_it_cannot_use(tmp_path, capsys):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(replace(builtin_scenarios()["k1-hw-100m"], trains=4), bundle_dir)
    results = bundle_dir / "results.json"
    text = results.read_text()
    featureless = {k: v for k, v in json.loads(text).items() if k != "features"}
    report = ["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]
    capsys.readouterr()
    for broken, message in (
        (text[: len(text) // 2], f"results: cannot read {results}"),
        ("[1, 2]", f"results: {results} must hold a JSON object"),
        (json.dumps(featureless), f"features: missing from {results}"),
    ):
        results.write_text(broken)
        assert main(report) == 2, broken
        assert message in capsys.readouterr().err


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
