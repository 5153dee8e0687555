"""Scenario orchestration, config loading, report emission, CLI stages."""

import hashlib
import json

import pytest

from sdnfp.cli import main
from sdnfp.defense import DelayElementConfig
from sdnfp.scenario import (
    ConfigError,
    Scenario,
    builtin_scenarios,
    emit_report,
    load_scenarios,
    read_scenario_descriptor,
    run_scenario,
    scenario_from_config,
)
from sdnfp.stats import build_histogram

TRAINS = 60  # reduced for unit-test speed; acceptance runs the full counts


def small(name="k3-hw-100m", **overrides):
    base = builtin_scenarios()[name]
    return base.with_overrides(trains=TRAINS, **overrides)


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
        run_scenario(small().with_overrides(trains=0))


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


def test_emit_report(tmp_path):
    bundles = [run_scenario(small()), run_scenario(small("k1-sw-100m"))]
    written = emit_report(bundles, tmp_path, fmt="csv")
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
    bundles = [run_scenario(small())]
    emit_report(bundles, tmp_path / "r1", fmt="csv")
    emit_report(bundles, tmp_path / "r2", fmt="csv")
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
    scenario = small("k1-hw-100m", bin_width_ms=0.5).with_overrides(name="wide")
    bundle = run_scenario(scenario, bundle_dir)
    code = main(["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")])
    assert code == 0
    rows = (tmp_path / "rep" / "wide__delta_rtt__pdf_Y.csv").read_text().splitlines()[1:]
    values = [s.value_ms for s in bundle.samples if s.feature == "delta_rtt" and s.label == "Y"]

    def expected(width):
        return [f"{left!r},{count},{freq!r}" for left, count, freq in build_histogram(values, width).to_rows()]

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


def test_cli_extract_and_report_need_a_complete_sidecar(tmp_path, capsys):
    bundle_dir = tmp_path / "runs" / "k1-hw-100m"
    run_scenario(builtin_scenarios()["k1-hw-100m"].with_overrides(trains=4), bundle_dir)
    extract = ["extract", "--traces", str(bundle_dir / "traces.csv"), "--out", str(tmp_path / "ex")]
    report = ["report", "--bundles", str(bundle_dir), "--out", str(tmp_path / "rep")]
    sidecar = bundle_dir / "scenario.json"
    described = json.loads(sidecar.read_text())
    del described["k"]
    sidecar.write_text(json.dumps(described))
    capsys.readouterr()
    for argv in (extract, report):
        assert main(argv) == 2
        assert f"k: missing from {sidecar}" in capsys.readouterr().err
    sidecar.write_text(json.dumps(dict(described, k=1, defended="no")))
    with pytest.raises(ConfigError, match="defended: invalid value 'no' in"):
        read_scenario_descriptor(bundle_dir)
    sidecar.unlink()
    for argv in (extract, report):
        assert main(argv) == 2
        assert f"cannot read {sidecar}" in capsys.readouterr().err


@pytest.mark.parametrize("defense", [None, DelayElementConfig()], ids=["undefended", "defended"])
def test_read_scenario_descriptor_round_trips_the_sidecar(tmp_path, defense):
    scenario = Scenario(
        name="described", seed=9, trains=2, k=2, switch_kind="software",
        data_link_bps=1_000_000_000, time_span_ns=4_100_000_000, defense=defense,
        bin_width_ms=0.5, passive_window_ns=600_000_000_000,
    )
    run_scenario(scenario, tmp_path)
    assert read_scenario_descriptor(tmp_path) == scenario
