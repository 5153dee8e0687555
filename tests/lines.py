"""Line check: every statement in a function of src/sdnfp runs under tier-1,
or UNRUN below says why it need not.

Run from the repository root, outside tier-1 (pytest does not collect this file):

    python tests/lines.py                       # all of tier-1
    python tests/lines.py tests/test_netsim.py  # only the given test paths

It runs pytest in this process with a `sys.settrace` recorder loaded as a
plugin: while the session runs, every line a frame of a src/sdnfp module
executes is recorded.  A statement ran when any line it spans ran; a
statement with no bytecode (a docstring, `global`, `nonlocal`) is not
counted.  Each statement that never ran and that UNRUN does not list is
printed as `module:line: text`, and so is each UNRUN entry that no unrun
statement matches any more, so the list only shrinks.  The exit status is 1
when anything is printed, and also when pytest fails.  Tier-1's subprocess
runs (tests/test_reachability.py) are not traced; tracing about doubles
tier-1's time.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdnfp"

# (module in src/sdnfp, the statement's first line, stripped) -> why tier-1 need not run it.
UNRUN = {
    ("distributions.py", "return self"):
        "DelayModel.delay_model: kept as the name bench/tracer.py counts calls of",
    ("stats.py", "return math.nan"):
        "_two_sided_t_tail: the Lentz fraction not converging; no case needs more than 80 of its 300 terms",
    ("stats.py", 'raise SamplesError("no parameter pair has a finite likelihood")'):
        "fit_gpd: the bounded searches keep theta inside the domain, so no sample set found reaches it",
}


def _statements(function: ast.AST):
    """The statements of a function's body at any depth, not those of a
    function or class defined in it (walked on their own)."""
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for node in getattr(function, field, ()):
            if isinstance(node, ast.stmt):
                yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from _statements(node)


def _code_lines(code) -> set[int]:
    """The lines of `code` and of every code object in it that have bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def function_statements(path: Path) -> dict[int, range]:
    """{first line: the lines it spans} of each statement with bytecode in a
    function of the module at `path`.  A compound statement spans its header."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    spans = {}
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in _statements(function):
            body = getattr(stmt, "body", None)
            end = body[0].lineno - 1 if isinstance(body, list) and body else stmt.end_lineno
            span = range(stmt.lineno, max(end, stmt.lineno) + 1)
            if code_lines.intersection(span):
                spans[stmt.lineno] = span
    return spans


class LineRecorder:
    """The pytest plugin: records, from session start to finish, every line
    that runs in a frame of one of `files`."""

    def __init__(self, files):
        self.ran = {str(path): set() for path in files}

    def _on_call(self, frame, event, arg):
        # co_filename can be None as the interpreter shuts down; get() takes it.
        lines = self.ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def pytest_sessionstart(self, session):
        threading.settrace(self._on_call)
        sys.settrace(self._on_call)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def main(paths: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))  # co_filename is then the absolute path recorded
    files = sorted(PACKAGE.glob("*.py"))
    recorder = LineRecorder(files)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *paths],
                         plugins=[recorder])
    unrun, total, matched = [], 0, set()
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = recorder.ran[str(path)]
        for first, span in sorted(function_statements(path).items()):
            total += 1
            if ran.intersection(span):
                continue
            key = (path.name, lines[first - 1].strip())
            if key in UNRUN:
                matched.add(key)
            else:
                unrun.append(f"{path.name}:{first}: {key[1]}")
    stale = [f"UNRUN lists {module}: {text!r}, which is not an unrun statement"
             for module, text in UNRUN if (module, text) not in matched]
    print(f"tier-1 ran {total - len(unrun) - len(matched)} of {total} function statements of src/sdnfp; "
          f"{len(matched)} unrun are in UNRUN, {len(unrun)} are not")
    for line in unrun + stale:
        print(line)
    return 1 if unrun or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
