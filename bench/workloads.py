"""The three benchmark workloads: their inputs, operations and output checks.

Every operation is one call of the public entry point `sdnfp.cli.main(argv)`.
A workload builds its inputs in `setup` and then, once per pass, a fresh list
of `Op`s whose checks read what the operation wrote.  Checks that hold at every
seed (criterion 3/4/6 bounds and self-consistency) run always; the golden
digests and field values recorded at the shipped seeds run at seed 0 only.

Nothing here imports `sdnfp` at module level, so the import cost stays inside
the measured set-up time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from golden import compare, parse_summary

HW, SW = "hardware", "software"

# The built-in scenario matrix at its shipped seeds: (name, seed, switch kind).
BUILTINS = (
    ("k1-hw-100m", 20401, HW),
    ("k2-hw-100m", 20402, HW),
    ("k3-hw-100m", 20403, HW),
    ("k1-sw-100m", 20404, SW),
    ("k3-hw-1g", 20405, HW),
    ("k1-sw-1g", 20406, SW),
)
KIND = {name: kind for name, _, kind in BUILTINS}
SHIPPED_SEED = {name: seed for name, seed, _ in BUILTINS}
HW_100M = ("k1-hw-100m", "k2-hw-100m", "k3-hw-100m")
# Scenarios re-run at a 600 s span with path drift; the YAML entries reproduce
# sdnfp.scenario.drift_variant(builtin, 600 s) byte for byte.
DRIFT_BASES = ("k1-hw-100m", "k1-sw-100m")
DRIFT_SUFFIX = "-drift-600s"
FEATURES = ("delta_rtt", "dispersion")

# --seed n moves every shipped seed by n * SEED_STRIDE, so the six scenarios
# never share a seed; seed 0 is the shipped matrix.
SEED_STRIDE = 1000
GPD_SAMPLE_SEED = 42  # criterion 3's sample seed
GPD_SAMPLES = 100_000
GPD_TRUE = (-0.53, 10.58, 0.57)  # Table-4 delta_rtt GPD (shape, scale ms, location ms)

# Acceptance bounds (tests/test_acceptance.py), unchanged.
EER_BOUND = {HW: 0.05, SW: 0.08}  # criterion 4
K3_DEFENDED_MIN = 0.30  # criterion 6
PERK_MIN = 0.40  # criterion 6, fine-grained k=2 mode
GPD_SHAPE_ABS = 0.05  # criterion 3
GPD_SCALE_REL = 0.05  # criterion 3


def scenario_seed(shipped: int, seed: int) -> int:
    return shipped + SEED_STRIDE * seed


@dataclass
class Context:
    seed: int
    inputs: Path
    golden: object | None = None  # golden.Golden, used at seed 0 only
    findings: list[str] = field(default_factory=list)

    @property
    def shipped(self) -> bool:
        return self.seed == 0


@dataclass
class Op:
    key: str  # stable identifier, also the golden entry name
    argv: list[str]
    out: Path  # directory the operation writes into
    check: Callable[[], list[str]]
    golden: bool = True  # compare against the recorded golden outputs
    reference: str = "python"  # run.Reference loop matching the bottleneck


def _results(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _eers(results: dict) -> dict[str, float]:
    return {f: row["eer"] for f, row in results["features"].items()}


def _bound_problems(name: str, eers: dict[str, float], bound: float) -> list[str]:
    return [
        f"{name}/{f}: EER {e:.4f} above the criterion-4 bound {bound}"
        for f, e in sorted(eers.items())
        if e > bound
    ]


def _closer_problems(name, defended: dict, undefended: dict) -> list[str]:
    return [
        f"{name}/{f}: defended EER {defended[f]:.4f} not closer to 0.5 than "
        f"undefended {undefended[f]:.4f}"
        for f in FEATURES
        if not abs(defended[f] - 0.5) < abs(undefended[f] - 0.5)
    ]


def _same_values(where: str, expected: dict, actual: dict, keys: tuple[str, ...]) -> list[str]:
    """The bundle's per-feature values, compared as golden fields are."""
    return compare({f: {k: expected[f][k] for k in keys} for f in FEATURES}, actual, where)


def drift_yaml(seed: int) -> str:
    lines = ["scenarios:"]
    for name, shipped, kind in BUILTINS:
        if name not in DRIFT_BASES:
            continue
        lines += [
            f"  - name: {name}{DRIFT_SUFFIX}",
            f"    seed: {scenario_seed(shipped, seed)}",
            f"    k: {name[1]}",
            f"    switch_kind: {kind}",
            "    data_link: 100 Mbps",
            "    time_span: 600 s",
            "    drift:",
            "      sigma: 150000 ns",
        ]
    return "\n".join(lines) + "\n"


def gpd_feature_csv(path: Path, seed: int) -> None:
    """100k delta_rtt/Y rows drawn from GPD_TRUE by inverse CDF, in the
    feature CSV layout `sdnfp fit` reads."""
    import numpy as np

    shape, scale, loc = GPD_TRUE
    u = np.random.default_rng(GPD_SAMPLE_SEED + seed).random(GPD_SAMPLES)
    values = loc + scale * ((1.0 - u) ** (-shape) - 1.0) / shape
    rows = [f"delta_rtt,{v!r},Y,2,hardware,100000000,1.0" for v in values.tolist()]
    path.write_text(
        "feature,value_ms,label,k,kind,link_bps,span_s\n" + "\n".join(rows) + "\n",
        encoding="utf-8",
    )


class Attack:
    """Undefended simulation: the six built-ins plus two 600 s drift runs."""

    name = "attack"

    def setup(self, ctx: Context, run_cli) -> None:
        ctx.inputs.mkdir(parents=True, exist_ok=True)
        (ctx.inputs / "drift.yaml").write_text(drift_yaml(ctx.seed), encoding="utf-8")

    def ops(self, ctx: Context, out: Path) -> list[Op]:
        ops = []
        for name, shipped, kind in BUILTINS:
            op_out = out / name
            ops.append(
                Op(
                    key=f"attack/simulate {name}",
                    argv=["simulate", "--scenario", name,
                          "--seed", str(scenario_seed(shipped, ctx.seed)),
                          "--out", str(op_out), "--jobs", "1"],
                    out=op_out,
                    check=self._check_builtin(out, name),
                )
            )
        for base in DRIFT_BASES:
            name = base + DRIFT_SUFFIX
            op_out = out / name
            ops.append(
                Op(
                    key=f"attack/simulate {name}",
                    argv=["simulate", "--config", str(ctx.inputs / "drift.yaml"),
                          "--scenario", name, "--out", str(op_out), "--jobs", "1"],
                    out=op_out,
                    check=self._check_drift(out, base),
                )
            )
        return ops

    @staticmethod
    def _check_builtin(out: Path, name: str):
        def check():
            eers = _eers(_results(out / name / name / "results.json"))
            problems = _bound_problems(name, eers, EER_BOUND[KIND[name]])
            if name == "k1-sw-100m":  # criterion 4: software harder than hardware
                for f in FEATURES:
                    hw_max = max(_eers(_results(out / n / n / "results.json"))[f] for n in HW_100M)
                    if not eers[f] > hw_max:
                        problems.append(f"{name}/{f}: EER {eers[f]:.4f} not above hardware {hw_max:.4f}")
            return problems

        return check

    @staticmethod
    def _check_drift(out: Path, base: str):
        """Criterion 4's bound on dispersion, which drift leaves alone, and
        criterion 5's direction: delta_rtt worse at 600 s than at 1 s."""

        def check():
            name = base + DRIFT_SUFFIX
            eers = _eers(_results(out / name / name / "results.json"))
            one_s = _eers(_results(out / base / base / "results.json"))
            problems = _bound_problems(name, {"dispersion": eers["dispersion"]}, EER_BOUND[KIND[base]])
            if not eers["delta_rtt"] > one_s["delta_rtt"]:
                problems.append(
                    f"{name}: delta_rtt EER {eers['delta_rtt']:.4f} not above the 1 s "
                    f"span's {one_s['delta_rtt']:.4f}"
                )
            return problems

        return check


class Defense:
    """Table-4 delay element on the six built-ins, then the fitted k=2 loop."""

    name = "defense"
    PERK_BASE = "k2-hw-100m"

    def setup(self, ctx: Context, run_cli) -> None:
        """Nothing to build: every operation simulates from its seed."""

    def ops(self, ctx: Context, out: Path) -> list[Op]:
        ops = []
        for name, shipped, kind in BUILTINS:
            op_out = out / f"defend-{name}"
            ops.append(
                Op(
                    key=f"defense/defend {name}",
                    argv=["defend", "--scenario", name,
                          "--seed", str(scenario_seed(shipped, ctx.seed)),
                          "--out", str(op_out), "--jobs", "1"],
                    out=op_out,
                    check=self._check_defended(ctx, op_out, name),
                )
            )
        base = self.PERK_BASE
        seed = str(scenario_seed(SHIPPED_SEED[base], ctx.seed))
        base_out = out / f"simulate-{base}"
        bundle = base_out / base
        fits = out / "fits"
        first, followup = fits / "first.json", fits / "followup.json"
        perk_out = out / f"perk-{base}"
        ops += [
            Op(
                key=f"defense/simulate {base}",
                argv=["simulate", "--scenario", base, "--seed", seed,
                      "--out", str(base_out), "--jobs", "1"],
                out=base_out,
                check=self._check_base(out, base),
            ),
            Op(
                key="defense/fit delta_rtt",
                argv=["fit", "--samples", str(bundle / "samples.csv"),
                      "--feature", "delta_rtt", "--label", "Y", "--out", str(first)],
                out=fits,
                check=self._check_fit(bundle, first, "delta_rtt"),
                golden=False,
            ),
            Op(
                key="defense/fit dispersion",
                argv=["fit", "--samples", str(bundle / "samples.csv"),
                      "--feature", "dispersion", "--label", "Y", "--out", str(followup)],
                out=fits,
                check=self._check_fit(bundle, followup, "dispersion"),
                golden=False,
            ),
            Op(
                key=f"defense/defend per-k {base}",
                argv=["defend", "--scenario", base, "--seed", seed,
                      "--first-delay", str(first), "--followup-delay", str(followup),
                      "--out", str(perk_out), "--jobs", "1"],
                out=perk_out,
                check=self._check_perk(ctx, bundle, perk_out / f"{base}-defended"),
                golden=False,
            ),
        ]
        return ops

    @staticmethod
    def _check_defended(ctx: Context, op_out: Path, name: str):
        def check():
            eers = _eers(_results(op_out / f"{name}-defended" / "results.json"))
            problems = []
            if name == "k3-hw-100m":
                problems += [
                    f"{name}/{f}: defended EER {e:.4f} below {K3_DEFENDED_MIN}"
                    for f, e in sorted(eers.items())
                    if e < K3_DEFENDED_MIN
                ]
            if ctx.golden is not None:  # undefended EERs at the shipped seeds
                problems += _closer_problems(name, eers, ctx.golden.undefended_eers(name))
            return problems

        return check

    @staticmethod
    def _check_base(out: Path, base: str):
        def check():
            eers = _eers(_results(out / f"simulate-{base}" / base / "results.json"))
            defended = _eers(_results(out / f"defend-{base}" / f"{base}-defended" / "results.json"))
            return _bound_problems(base, eers, EER_BOUND[KIND[base]]) + _closer_problems(
                base, defended, eers
            )

        return check

    @staticmethod
    def _check_fit(bundle: Path, path: Path, feature: str):
        def check():
            fit = json.loads(path.read_text(encoding="utf-8"))
            n_y = _results(bundle / "results.json")["features"][feature]["n_samples_Y"]
            problems = []
            if (fit["feature"], fit["label"], fit["n_samples"]) != (feature, "Y", n_y):
                problems.append(f"fit {feature}: header {fit['feature']}/{fit['label']}/{fit['n_samples']}")
            if not (math.isfinite(fit["shape"]) and fit["scale_ms"] > 0 and 0 <= fit["ks"] <= 1):
                problems.append(f"fit {feature}: invalid parameters {fit}")
            return problems

        return check

    @staticmethod
    def _check_perk(ctx: Context, bundle: Path, perk: Path):
        """Criterion 6, fine-grained mode.  The >= 40% gate is enforced at the
        shipped seed; elsewhere a miss is recorded as a finding (the shipped
        dispersion value sits one 1/450 step above the gate)."""

        def check():
            eers = _eers(_results(perk / "results.json"))
            undefended = _eers(_results(bundle / "results.json"))
            problems = _closer_problems("per-k k2", eers, undefended)
            for f in FEATURES:
                if eers[f] < PERK_MIN:
                    msg = f"per-k k2/{f}: EER {eers[f]:.4f} below the {PERK_MIN} gate"
                    if ctx.shipped:
                        problems.append(msg)
                    elif msg not in ctx.findings:
                        ctx.findings.append(msg)
            return problems

        return check


class Offline:
    """Analysis stages on persisted bundles; no simulation in the timed part."""

    name = "offline"

    def setup(self, ctx: Context, run_cli) -> None:
        bundles = ctx.inputs / "bundles"
        for name, shipped, _ in BUILTINS:
            rc = run_cli(["simulate", "--scenario", name,
                          "--seed", str(scenario_seed(shipped, ctx.seed)),
                          "--out", str(bundles), "--jobs", "1"])
            if rc != 0:
                raise RuntimeError(f"set-up simulate {name} exited {rc}")
        gpd_feature_csv(ctx.inputs / "gpd100k.csv", ctx.seed)

    def ops(self, ctx: Context, out: Path) -> list[Op]:
        bundles = ctx.inputs / "bundles"
        ops = []
        for name, _, _ in BUILTINS:
            op_out = out / f"extract-{name}"
            ops.append(
                Op(
                    key=f"offline/extract {name}",
                    argv=["extract", "--traces", str(bundles / name / "traces.csv"),
                          "--out", str(op_out)],
                    out=op_out,
                    check=self._check_extract(bundles / name, op_out),
                )
            )
        for name, _, _ in BUILTINS:
            op_out = out / f"passive-{name}"
            ops.append(
                Op(
                    key=f"offline/extract passive {name}",
                    argv=["extract", "--traces", str(bundles / name / "traces.csv"),
                          "--passive", "--window-s", "1", "--out", str(op_out)],
                    out=op_out,
                    check=self._check_passive(op_out),
                )
            )
        for name, _, _ in BUILTINS:
            op_out = out / f"eer-{name}"
            ops.append(
                Op(
                    key=f"offline/eer {name}",
                    argv=["eer", "--samples", str(bundles / name / "samples.csv"),
                          "--out", str(op_out), "--curve"],
                    out=op_out,
                    check=self._check_eer(bundles / name, op_out, name),
                )
            )
        fit_out = out / "fit"
        ops.append(
            Op(
                key="offline/fit gpd100k",
                argv=["fit", "--samples", str(ctx.inputs / "gpd100k.csv"),
                      "--feature", "delta_rtt", "--label", "Y",
                      "--out", str(fit_out / "gpd.json")],
                out=fit_out,
                check=self._check_fit(fit_out / "gpd.json"),
                golden=False,
                reference="numpy",  # vectorised over 41 x 100k values
            )
        )
        report_out = out / "report"
        ops.append(
            Op(
                key="offline/report",
                argv=["report", "--bundles", *(str(bundles / n) for n, _, _ in BUILTINS),
                      "--out", str(report_out)],
                out=report_out,
                check=self._check_report(bundles, report_out),
            )
        )
        return ops

    @staticmethod
    def _check_extract(bundle: Path, op_out: Path):
        def check():
            if (op_out / "samples.csv").read_bytes() != (bundle / "samples.csv").read_bytes():
                return [f"{op_out.name}: samples.csv differs from the bundle's"]
            return []

        return check

    @staticmethod
    def _check_passive(op_out: Path):
        def check():
            with open(op_out / "samples.csv", newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            if not rows or any(r["feature"] != "delta_rtt" for r in rows):
                return [f"{op_out.name}: expected delta_rtt samples, got {len(rows)} rows"]
            return []

        return check

    @staticmethod
    def _check_eer(bundle: Path, op_out: Path, name: str):
        def check():
            actual = json.loads((op_out / "eer.json").read_text(encoding="utf-8"))
            expected = _results(bundle / "results.json")["features"]
            problems = _same_values(f"{name} eer.json", expected, actual,
                                    ("eer_percent", "threshold_ms", "t_statistic"))
            problems += _bound_problems(name, {f: r["eer"] for f, r in actual.items()},
                                        EER_BOUND[KIND[name]])
            return problems

        return check

    @staticmethod
    def _check_fit(path: Path):
        def check():
            fit = json.loads(path.read_text(encoding="utf-8"))
            shape, scale, _ = GPD_TRUE
            problems = []
            if fit["n_samples"] != GPD_SAMPLES:
                problems.append(f"gpd fit: n_samples {fit['n_samples']}")
            if not abs(fit["shape"] - shape) <= GPD_SHAPE_ABS:
                problems.append(f"gpd fit: shape {fit['shape']:.4f} outside {shape}±{GPD_SHAPE_ABS}")
            if not abs(fit["scale_ms"] - scale) <= GPD_SCALE_REL * scale:
                problems.append(f"gpd fit: scale {fit['scale_ms']:.4f} outside {scale}±5%")
            return problems

        return check

    @staticmethod
    def _check_report(bundles: Path, report_out: Path):
        def check():
            rows = parse_summary(report_out / "summary.csv")
            problems = []
            for name, _, _ in BUILTINS:
                actual = {r["feature"]: r for r in rows if r["scenario"] == name}
                expected = _results(bundles / name / "results.json")["features"]
                problems += _same_values(f"{name} summary", expected, actual,
                                         ("eer_percent", "threshold_ms"))
            return problems

        return check


WORKLOADS = {w.name: w for w in (Attack(), Defense(), Offline())}
