"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import argparse
import contextlib
import copy
import io
import json
import shutil
import sys

import pytest

import run
from golden import Golden
from tracer import Tracer
from workloads import WORKLOADS, Context

sys.path.insert(0, str(run.SRC))

REFERENCE = run.Reference()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(passes, trace: int) -> dict:
    args = argparse.Namespace(workload="attack", trace=trace)
    ctx = Context(seed=0, inputs=run.ROOT)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(args, passes, ctx, setups=[1.0, 1.2, 1.1], import_s=0.9)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _record():
    return {"op": "op", "host_s": 1.0, "ref": "python", "ref_s": 0.001, "ref_n": 3, "host_ref": 1000.0,
            "problems": []}


def _op(workload: str, key: str, ctx, out):
    return next(op for op in WORKLOADS[workload].ops(ctx, out) if op.key == key)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printer_emits_every_metric_with_its_unit(trace, section):
    passes = [{"records": [_record()], "tracer": None}, {"records": [_record()], "tracer": Tracer() if trace else None}]
    metrics = _result(passes, trace)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[section]}


def test_wrong_digest_and_corrupted_trace_raise_fail_ratio(tmp_path):
    golden = Golden.load()
    assert golden.version_mismatch() is None, "golden.json was recorded on other versions"
    ctx = Context(seed=0, inputs=tmp_path / "in", golden=golden)
    simulate = _op("attack", "attack/simulate k1-hw-100m", ctx, tmp_path / "pass")
    records = [run.run_op(simulate, ctx, {}, REFERENCE)]
    assert records[0]["problems"] == []

    tampered = copy.deepcopy(golden.data)
    tampered["ops"][simulate.key]["digests"]["k1-hw-100m/traces.csv"] = "0" * 64
    ctx.golden = Golden(tampered)
    records.append(run.run_op(simulate, ctx, {}, REFERENCE))
    assert any("digest" in p for p in records[1]["problems"])

    bundle = ctx.inputs / "bundles" / "k1-hw-100m"
    shutil.copytree(simulate.out / "k1-hw-100m", bundle)
    lines = (bundle / "traces.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[3].split(",")
    fields[7] = str(int(fields[7]) + 1_000_000)  # one reply arrives 1 ms later
    lines[3] = ",".join(fields)
    (bundle / "traces.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    ctx.golden = golden
    extract = _op("offline", "offline/extract k1-hw-100m", ctx, tmp_path / "pass")
    records.append(run.run_op(extract, ctx, {}, REFERENCE))
    assert records[2]["problems"]

    result = _result([{"records": records, "tracer": None}], trace=0)
    assert result["failed"] == 2 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 / 3)


def test_traced_runs_repeat_exact_counts_and_bytes(tmp_path):
    ctx = Context(seed=0, inputs=tmp_path / "in")
    first_digests = {}
    op = _op("attack", "attack/simulate k1-hw-100m", ctx, tmp_path / "pass")
    assert run.run_op(op, ctx, first_digests, REFERENCE)["problems"] == []  # untraced reference bytes
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            record = run.run_op(op, ctx, first_digests, REFERENCE)
        finally:
            tracer.restore()
        assert record["problems"] == []  # same bytes as the untraced run
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert counts[0]["netsim.exchange"] == 7200
    assert counts[0]["netsim.table_miss"] == 900
    assert counts[0]["probes.run_schedule"] == 900
    assert "defense.select_bucket" not in counts[0]
