#!/usr/bin/env python3
"""Benchmark of the sdnfp pipeline through its public entry point, sdnfp.cli.main.

    python3 bench/run.py --workload attack --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all              # every workload, one table
    python3 bench/run.py --record-golden             # rewrite bench/golden.json

One run imports the package from the checkout's `src/`, builds the workload's
inputs from --seed, then repeats passes over the workload's operations until
--seconds have elapsed, checking every operation's outputs.  A fixed reference
loop is timed right before, right after and every 50 ms during each operation;
host_ref is the operation time in units of that loop, which follows the host's
speed phases (see README.md).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer with 1).
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from golden import Golden, observe  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

# host_s is printed but not gated: raw seconds spread 14-46% between runs on a
# 2-vCPU VM, above the largest bound (0.25) a BENCHMARK.json metric may have.
E2E = (
    ("host_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
SETUP_REPEATS = 3  # this process's set-up plus two in fresh interpreters
PY_REF_ITERS = 1_200
BRACKET = 8  # reference loops right before and right after each operation
SAMPLE_S = 0.05


class _Link:
    __slots__ = ("busy",)

    def __init__(self):
        self.busy = 0


def _hop(link, ready, delay):
    start = max(ready, link.busy)
    link.busy = start + delay
    return link.busy


class Reference:
    """Two fixed reference loops of about a millisecond each; neither calls sdnfp.

    `python` is interpreter-bound (calls, attributes, dicts, small tuples), the
    same kind of work as the per-packet engine.  `numpy` is a vectorised log1p
    over 1.6 MB, the same kind of work as the 100k-sample GPD fit.  On this
    host the two slow down independently, so each operation is divided by the
    loop that matches its bottleneck.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._outer = (np.array([0.1, 0.2]), np.linspace(0.0, 1.0, 100_000))

    def python(self) -> float:
        t0 = time.perf_counter()
        links = [_Link() for _ in range(4)]
        seen = {}
        t = 0
        for i in range(PY_REF_ITERS):
            t = _hop(links[i & 3], t, (i * 7919) % 1000)
            seen[i & 255] = (t, i)
        return time.perf_counter() - t0

    def numpy(self) -> float:
        t0 = time.perf_counter()
        self._np.log1p(self._np.multiply.outer(*self._outer)).sum()
        return time.perf_counter() - t0


class HostSampler:
    """Runs a reference loop every SAMPLE_S seconds while an operation runs.

    Phases of host speed are shorter than one operation, so loops timed only
    before and after it miss them.  The handler's own time is kept apart and
    taken off the operation's time.
    """

    def __init__(self, loop):
        self.loop = loop
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def cli_main(argv) -> int:
    from sdnfp.cli import main

    return main(argv)


def run_quiet(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli_main(argv)


def run_op(op, ctx, first_digests: dict, reference: Reference) -> dict:
    """Time one operation against its reference loop, then check its outputs."""
    loop = getattr(reference, op.reference)
    gc.collect()  # start every operation from the same collector state
    before = statistics.fmean(loop() for _ in range(BRACKET))
    out, err = io.StringIO(), io.StringIO()
    problems = []
    with redirect_stdout(out), redirect_stderr(err), HostSampler(loop) as sampler:
        t0 = time.perf_counter()
        try:
            rc = cli_main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = None
            problems.append(f"raised {exc!r}")
        host_s = time.perf_counter() - t0 - sampler.spent
    after = statistics.fmean(loop() for _ in range(BRACKET))
    refs = [before, *sampler.samples, after]
    if rc != 0:
        problems.append(f"exit code {rc}: {err.getvalue().strip()}")
    else:
        try:
            obs = observe(op.out)
            previous = first_digests.setdefault(op.key, obs["digests"])
            if previous != obs["digests"]:
                problems.append("artifacts differ from the first pass")
            if ctx.golden is not None and op.golden:
                problems += ctx.golden.check(op.key, obs)
            problems += op.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return {
        "op": op.key,
        "host_s": host_s,
        "ref": op.reference,
        "ref_s": statistics.fmean(refs),
        "ref_n": len(refs),
        "host_ref": host_s / statistics.fmean(refs),
        "problems": problems,
    }


def setup(workload, seed: int, work: Path, golden) -> tuple[Context, float]:
    """Import the package from the checkout and build the workload's inputs."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sdnfp.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if Path(sdnfp.cli.__file__).resolve().parent != SRC / "sdnfp":
        raise SystemExit(f"imported sdnfp from {sdnfp.cli.__file__}, not from {SRC}")
    ctx = Context(seed=seed, inputs=work / "inputs", golden=golden)
    workload.setup(ctx, run_quiet)
    return ctx, import_s


def load_golden(seed: int):
    if seed != 0:
        return None, "golden: seed is not 0, checking acceptance bounds instead of digests"
    golden = Golden.load()
    mismatch = golden.version_mismatch()
    if mismatch:
        return None, f"golden: VERSION MISMATCH, digests not compared ({mismatch})"
    return golden, "golden: digests and values compared"


def child_setup_seconds(args) -> list[float]:
    """Set up again in fresh interpreters; the import only costs once per process."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        golden, golden_note = (None, "") if args.setup_only else load_golden(args.seed)
        ctx, import_s = setup(workload, args.seed, work / "in", golden)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        print(golden_note)
        passes = run_passes(workload, ctx, work, args.seconds, args.trace)
        setups = [setup_s] + child_setup_seconds(args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return report(args, passes, ctx, setups, import_s)


def run_passes(workload, ctx, work: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` have elapsed.  With tracing, odd passes are
    traced and even ones not, so the overhead is measured in the same run."""
    first_digests: dict = {}
    reference = Reference()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass-{len(passes)}"
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            records = [run_op(op, ctx, first_digests, reference) for op in workload.ops(ctx, out)]
        finally:
            if tracer:
                tracer.restore()
        shutil.rmtree(out, ignore_errors=True)
        passes.append({"records": records, "tracer": tracer})
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes


def pass_totals(p: dict) -> tuple[float, float]:
    return sum(r["host_s"] for r in p["records"]), sum(r["host_ref"] for r in p["records"])


def report(args, passes, ctx, setups, import_s) -> int:
    records = [r for p in passes for r in p["records"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    for i, p in enumerate(passes):
        for r in p["records"]:
            status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
            print(
                f"pass {i}{' traced' if p['tracer'] else ''} | {r['op']} | host_s {r['host_s']:.4f} | "
                f"{r['ref']} ref_ms {r['ref_s'] * 1e3:.4f} x{r['ref_n']} | "
                f"host_ref {r['host_ref']:.2f} | {status}"
            )
    for finding in ctx.findings:
        print(f"finding: {finding}")
    plain = [pass_totals(p) for p in passes if not p["tracer"]]
    host_s = statistics.median(s for s, _ in plain)
    host_ref = statistics.median(r for _, r in plain)
    correct = failed == 0
    if args.trace:
        traced = [p["tracer"] for p in passes if p["tracer"]]
        if any(t.counts() != traced[0].counts() for t in traced):
            print("trace: exact counts differ between traced passes")
            correct = False
        traced_ref = statistics.median(pass_totals(p)[1] for p in passes if p["tracer"])
        metrics = layer_metrics(
            [(p["tracer"], pass_totals(p)[0]) for p in passes if p["tracer"]],
            import_s,
            traced_ref / host_ref - 1.0,
        )
        units = dict(PER_LAYER)
    else:
        metrics = {
            "host_ref": host_ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = dict(E2E)
        print(f"setup_s runs: {' '.join(f'{s:.3f}' for s in setups)}; import_s {import_s:.3f}")
        print(f"{args.workload} host_s = {host_s} s")
        print(f"{args.workload} fail_ratio = {failed / attempted} ratio ({failed}/{attempted} operations)")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's summary lines."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith(("finding:", f"{name} "))))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def record_golden() -> int:
    """One pass of every workload at seed 0, storing outputs as the golden."""
    golden = Golden.recorder()
    for name, workload in WORKLOADS.items():
        work = WORK / f"record-{name}"
        try:
            ctx, _ = setup(workload, 0, work / "in", golden)
            passes = run_passes(workload, ctx, work, 0, False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        problems = [p for r in passes[0]["records"] for p in r["problems"]]
        if problems:
            print(f"{name}: not recorded, checks failed: {problems}", file=sys.stderr)
            return 1
    golden.save()
    print(f"wrote {len(golden.data['ops'])} golden entries with {golden.data['versions']}")
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0, help="0 runs the shipped seeds")
    p.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdnfp" / "__init__.py").is_file():
        print(f"no sdnfp sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
