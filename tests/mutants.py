"""Mutation check: every mutant below breaks one rule of the model, and some test must fail.

Run from the repository root, outside tier-1 (pytest does not collect this file):

    python tests/mutants.py                     # each mutant against all of tier-1
    python tests/mutants.py tests/test_netsim.py tests/test_engine_differential.py

For each mutant it copies src/ to a temporary directory, replaces the mutant's
old text in its module there with the new text, and runs pytest on the given
test paths (tier-1 when none are given) with the copy first on PYTHONPATH.  The
old text must occur exactly once in the module: a refactor that moves or
rewrites the code stops the run here instead of letting a mutant that no
longer applies pass as killed.  Each line of the report reads killed or
survived, with the number of tests that failed.  The exit status is 1 when a
mutant survives.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdnfp"

# (module in src/sdnfp, exact old text, new text, the rule it breaks)
MUTANTS = (
    ("netsim.py", "lookup + np.max(installs, axis=0)", "lookup + np.min(installs, axis=0)",
     "engine, Eq. 2: a miss pays the fastest switch's install, not the slowest"),
    ("distributions.py", "ns[i] = exact(i)", "ns[i] = ns[i]",
     "ns_from_floats keeps the array formula's value near a rounding boundary and near 0"),
    ("stats.py", "_BAND = 1e-3", "_BAND = 0",
     "Welch's 1% decision never defers to scipy at the critical t"),
    ("netsim.py", "done = self.clear_pending & (now >= self.clear_at)",
     "done = self.clear_pending & (now > self.clear_at)",
     "engine: a pending CLEAR that comes due as a probe arrives misses it"),
    ("netsim.py", "(now - self.last_seen > cfg.t_th_ns)", "(now - self.last_seen >= cfg.t_th_ns)",
     "engine: a flow idle for exactly t_th counts as inactive"),
    ("features.py", "<= PAIR_GAP_MAX_NS)", "< PAIR_GAP_MAX_NS)",
     "probes sent exactly PAIR_GAP_MAX_NS apart are not a pair"),
    ("netsim.py", "delayed = first | (now < self.window_until)", "delayed = first | (now <= self.window_until)",
     "engine: a packet arriving as the follow-up window closes is held"),
    ("netsim.py", "max_install = max(max_install,", "max_install = min(max_install,",
     "reference model, Eq. 2: the miss charge takes no install at all"),
    ("netsim.py", "arrival_ns < window.end_ns", "arrival_ns <= window.end_ns",
     "reference model: a packet arriving as the install window closes pays the surcharge"),
    ("defense.py", "(now_ns - rec.last_seen_ns) > cfg.t_th_ns", "(now_ns - rec.last_seen_ns) >= cfg.t_th_ns",
     "reference model: a flow idle for exactly t_th counts as inactive"),
    ("stats.py", '_population(x, 1, "the EER", label)', "np.asarray(x, dtype=float)",
     "compute_eer: a NaN or infinite sample is swept, not refused"),
    ("stats.py", 'fnr = 1.0 - np.searchsorted(n, thresholds, side="right")',
     'fnr = 1.0 - np.searchsorted(n, thresholds, side="left")',
     "EER: an N sample equal to the threshold counts as above it"),
    ("netsim.py", "self.max_misses = self.n_packets * k if", "self.max_misses = self.n_packets if",
     "engine, a zero-capacity switch: the control block holds one miss per packet, not one per packet and switch"),
    ("netsim.py", "trials.astype(np.uint64),", "np.arange(trials.size, dtype=np.uint64),",
     "engine: a trial is seeded by its position in the batch, not by its number"),
    ("netsim.py", "return lookup + np.max(installs, axis=0)", "return np.max(installs, axis=0)",
     "engine, Eq. 2: a miss pays the slowest install without the lookup"),
    ("netsim.py", "reply_send = server_recv + path.turnaround_ns", "reply_send = server_recv",
     "engine: the reply leaves the server without the path's turnaround"),
    ("netsim.py", "cycled = [methods[i % len(methods)] for i in range(n)]",
     "cycled = [(methods[1:] + methods[:1])[i % len(methods)] for i in range(n)]",
     "TrialStreams.block, mixed methods: a row draws the installs before the lookup"),
    ("netsim.py", "self.clear_at = now + self.path.clear_delay_ns", "self.clear_at = now",
     "engine: a CLEAR deletes the rules at once, without the path's CLEAR delay"),
    ("scenario.py", "SwitchSpec(install, self.table_capacity)", "SwitchSpec(install)",
     "build_path: the switches keep the default table capacity"),
    ("scenario.py", "self.data_link_bps, self.base_latency_ns,", "self.data_link_bps, 0,",
     "build_path: the links keep no base latency"),
    ("scenario.py", "reply_bytes=self.reply_bytes,", "",
     "build_path: the reply keeps the default size"),
    ("scenario.py", "turnaround_ns=self.turnaround_ns,", "",
     "build_path: the server turns the reply around at once"),
    ("scenario.py", "clear_delay_ns=self.clear_delay_ns,", "",
     "build_path: a CLEAR keeps the default delay"),
    ("netsim.py", "in_install = (self.win_start[s] <= now) & (now < self.win_start[s] + self.win_penalty[s])",
     "in_install = np.zeros(now.shape, bool)",
     "engine: a packet that arrives during an install is neither charged nor parked"),
    ("netsim.py", "surcharge[idx] = charge", "surcharge[idx] = 0",
     "engine: the packet that triggers a miss does not pay its charge"),
    ("netsim.py", "surcharge[slow] = self.win_penalty[s][slow]",
     "surcharge[slow] = self.win_start[s][slow] + self.win_penalty[s][slow] - now[slow]",
     "engine: a packet that arrives during an install pays only what is left of it"),
    ("distributions.py", "out = mu + sigma * (", "out = mu - sigma * (",
     "gpd_quantile: the quantiles lie below the location, not above it"),
    ("netsim.py", "np.maximum.accumulate([0, *(p.sent_at_ns for p in packets)])",
     "np.array([0, *(p.sent_at_ns for p in packets)])",
     "engine: the drift walk's clock follows every send time, backwards too"),
    ("netsim.py", "((dt[advances] / 1e9).astype(object) ** 0.5).astype(float)", "(dt[advances] / 1e9) ** 0.5",
     "engine: a drift step is numpy's sqrt, not the reference model's pow"),
    ("netsim.py", "sw.table_capacity < 2", "sw.table_capacity < 1",
     "engine: a miss at a capacity-1 switch, which keeps the forward rule only, fills no table"),
    ("netsim.py", "miss = ~self.installed | self.no_rules[s]", "miss = ~self.installed",
     "engine: a zero-capacity switch misses only until the flow's first install"),
    ("netsim.py", "self.installed[done] = False", "pass",
     "engine: a CLEAR leaves the flow's rules installed"),
    ("distributions.py", "ns_from_floats(ms * NS_PER_MS, exact, err_ns)", "ns_from_floats(ms * NS_PER_MS, exact)",
     "gpd hold guard without its widening: a near-zero shape's amplified last-ulp difference rounds unchecked"),
    ("scenario.py", "        if not values_n.size and not values_y.size:\n            continue\n", "",
     "evaluate: a feature the samples lack is evaluated, and refused for want of samples"),
    ("units.py", "if most is not None and result > most:", "if False:",
     "a duration past 2**53 ns parses, and can wrap the engine's int64 timeline"),
    ("stats.py", 'x = _population(samples, 2, "Welch\'s test", label)',
     'x = _population(samples, 1, "Welch\'s test", label)',
     "welch_t_test: a population of one sample passes the count and fails on its variance, not for its size"),
    ("netsim.py", "methods = tuple(models[j].draw_type for j in drawn)", 'methods = ("random",)',
     "engine: the cross stream draws random() for every link, a lognormal's standard_normal() too"),
    ("stats.py", "if not 0.0 < s < math.inf:", "if x.min() == x.max():",
     "welch_t_test: a population whose variance underflows or overflows passes when its samples differ"),
    ("cli.py", "if not 0.5 < ns <= MAX_DURATION_NS:", "if not 0.5 < ns:",
     "extract: --window-s has no upper bound, so 1e300 s overflows to an infinite window"),
    ("stats.py", "if z.min() == y_max:", "if False:",
     "fit_gpd: a spread the 1 ns location shift rounds away reaches Grimshaw's bound, which is 0"),
    ("distributions.py", "self.gpd.location < 0", "self.gpd.location <= 0",
     "DelayModel: a gpd hold whose support starts at 0 is refused"),
    ("scenario.py", '"switches": "k", "reply_bytes"', '"reply_bytes"',
     "Scenario: too few forward links for k is reported under PathSpec's field, switches, not the key k"),
    ("stats.py", '_population(x, 1, "the EER", label)', '_population(x, 0, "the EER", label)',
     "compute_eer: an empty population passes its count"),
    ("netsim.py", "else (not warm) + n_clears", "else n_clears",
     "engine: the control block holds no miss for a cold start"),
    ("netsim.py", "n_clears = sum(p.kind == CLEAR for p in packets)", "n_clears = 0",
     "engine: the control block holds no miss for the probes after a CLEAR"),
    ("scenario.py", '(("N", result.n), ("Y", result.y))', '(("N", result.y), ("Y", result.y))',
     "emit_report: the Y population is binned under both labels"),
    ("scenario.py", '"n_samples_Y": self.y.size', '"n_samples_Y": self.n.size',
     "FeatureResult.row: n_samples_Y reports the size of the N population"),
    ("units.py", "if result < least:", "if False:",
     "a rate or a size of 0 parses, where each must be positive"),
    ("probes.py", "return (bits != bits[:1]).any(axis=0)", "return (bits[:2] != bits[:1]).any(axis=0)",
     "write_csv: a cell the first two trials of a run share is written as shared, whatever the later trials hold"),
    ("probes.py", "sizes[1:] != sizes[:-1]", "sizes[1:] > sizes[:-1]",
     "write_csv: a run of trials continues past a change to shorter trials"),
)


def mutated(module: str, old: str, new: str) -> str:
    """The module's source with the mutant applied."""
    text = (PACKAGE / module).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{module}: {old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def failed_tests(src: Path, paths: list[str]) -> int:
    """Tests that fail (or error) with `src` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *paths],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
    summary = run.stdout.strip().splitlines()[-1]
    return sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


def main(paths: list[str]) -> int:
    sources = [mutated(module, old, new) for module, old, new, _ in MUTANTS]  # all apply, or none runs
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        for (module, _, _, why), source in zip(MUTANTS, sources):
            shutil.copytree(PACKAGE, src / "sdnfp", ignore=shutil.ignore_patterns("__pycache__"))
            (src / "sdnfp" / module).write_text(source, encoding="utf-8")
            failed = failed_tests(src, paths)
            shutil.rmtree(src)
            survivors += failed == 0
            print(f"{'killed' if failed else 'SURVIVED':8} {failed:3d} failed  {module}: {why}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
