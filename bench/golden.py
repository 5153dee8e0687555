"""Golden outputs of the workloads at the shipped seeds, and their comparison.

`golden.json` holds, per operation, the sha256 of every CSV it writes (traces,
samples, curves, histograms) and the parsed value of every JSON file and of the
report summary.  Values are compared field by field, so files may gain fields:
EER and threshold must match exactly, a Welch t statistic to a relative 1e-9.
The outputs of `fit` and of the fitted per-k `defend` run are not recorded;
their bytes follow the fit implementation, and the workloads check them against
the acceptance gates instead.

Generator streams are only promised stable per numpy version, so the file
records the Python, numpy and scipy versions it was taken with.  On any other
versions the digests are not compared, and the run says so.

Re-record with `python3 bench/run.py --record-golden`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
T_STAT_REL = 1e-9


def versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def parse_summary(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(f)]


def observe(out_dir: Path) -> dict:
    """Digest of every file under out_dir, plus parsed JSON and report summaries."""
    digests, fields = {}, {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        digests[rel] = sha256(path)
        if path.suffix == ".json":
            fields[rel] = json.loads(path.read_text(encoding="utf-8"))
        elif path.name.startswith("summary."):
            fields[rel] = parse_summary(path)
    return {"digests": digests, "fields": fields}


def compare(expected, actual, where: str) -> list[str]:
    """Every expected field present and equal; floats exact except Welch t."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}.{key}: missing")
            else:
                problems += compare(value, actual[key], f"{where}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} entries"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare(e, a, f"{where}[{i}]")
        return problems
    if where.endswith(".t_statistic"):
        if isinstance(actual, (int, float)) and math.isclose(actual, expected, rel_tol=T_STAT_REL):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where}: {actual!r} != expected {expected!r}"]


class Golden:
    """Recorded outputs; in record mode `check` stores instead of comparing."""

    def __init__(self, data: dict, record: bool = False):
        self.data = data
        self.record = record

    @classmethod
    def load(cls) -> "Golden":
        return cls(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))

    @classmethod
    def recorder(cls) -> "Golden":
        return cls({"versions": versions(), "seed": 0, "ops": {}}, record=True)

    def version_mismatch(self) -> str | None:
        running = versions()
        if running == self.data["versions"]:
            return None
        return f"golden recorded with {self.data['versions']}, running {running}"

    def check(self, key: str, obs: dict) -> list[str]:
        if self.record:
            self.data["ops"][key] = {
                "digests": {r: d for r, d in obs["digests"].items() if r not in obs["fields"]},
                "fields": obs["fields"],
            }
            return []
        expected = self.data["ops"].get(key)
        if expected is None:
            return [f"{key}: no golden entry"]
        problems = [
            f"{key}: {rel} digest {obs['digests'].get(rel, 'missing')[:12]} != golden {digest[:12]}"
            for rel, digest in expected["digests"].items()
            if obs["digests"].get(rel) != digest
        ]
        for rel, value in expected["fields"].items():
            if rel not in obs["fields"]:
                problems.append(f"{key}: {rel} missing")
            else:
                problems += compare(value, obs["fields"][rel], f"{key}: {rel}")
        return problems

    def undefended_eers(self, name: str) -> dict[str, float]:
        results = self.data["ops"][f"attack/simulate {name}"]["fields"][f"{name}/results.json"]
        return {f: row["eer"] for f, row in results["features"].items()}

    def save(self) -> None:
        GOLDEN_PATH.write_text(json.dumps(self.data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
