"""Every mutant in the kill list still applies to the source as it is.

`tests/mutants.py` runs outside tier-1, one tier-1 run per mutant.  A
refactor that rewrites a mutant's old text would stop that run before any
mutant runs; this check fails at once instead, and also fails on a mutant
whose new source does not compile, which every test would "kill".
"""

import importlib.util
from pathlib import Path

import pytest

MUTANTS_PATH = Path(__file__).resolve().parent / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("kill_list", MUTANTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KILL_LIST = load_mutants()


@pytest.mark.parametrize(
    ("module", "old", "new"),
    [mutant[:3] for mutant in KILL_LIST.MUTANTS],
    ids=[f"{i:02d}-{mutant[0]}" for i, mutant in enumerate(KILL_LIST.MUTANTS)],
)
def test_mutant_old_text_occurs_once_and_the_mutant_compiles(module, old, new):
    source = KILL_LIST.mutated(module, old, new)  # SystemExit unless old occurs exactly once
    compile(source, module, "exec")
