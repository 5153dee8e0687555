"""The one CSV format of the columnar tables, `probes.Trace` and
`features.Samples`: what the reader accepts, what it rejects, and that text
is written exactly as csv.writer writes it.  The writer formats a cell that
holds the same value at its row position in every group of a run once, a
trace's groups being its trials and any other table's its rows, so a column
that holds one value is formatted once per file; every file must still be the
bytes of formatting each field, row by row."""

import csv
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdnfp.defense import DelayElementConfig
from sdnfp.features import Samples
from sdnfp.probes import _WRITE_ROWS, Trace
from sdnfp.scenario import BUILTINS, Summary, run_scenario
from sdnfp.stats import Histogram

TEXT = ['a,b', 'say "hi"', "two\nlines", "#not a comment", "", "plain"]


def table_of(cls, texts):
    """One row per text; every text column holds it, every other column the row number."""
    columns = []
    for dtype in cls.DTYPES:
        if dtype is object:
            columns.append(texts)
        else:
            columns.append(np.arange(len(texts)).astype(dtype))
    return cls(*columns)


def header(cls):
    return ",".join(cls.columns()) + "\n"


TABLES = pytest.mark.parametrize("cls", [Trace, Samples], ids=["trace", "samples"])


def test_a_table_equals_only_a_table_of_its_own_type():
    trace, samples = table_of(Trace, ["a", "b"]), table_of(Samples, ["a", "b"])
    assert trace == table_of(Trace, ["a", "b"]) and trace != table_of(Trace, ["a", "c"])
    assert trace.__eq__(samples) is NotImplemented and trace != samples
    assert trace != object()


@TABLES
def test_header_only_file_reads_as_an_empty_table(tmp_path, cls, recwarn):
    path = tmp_path / "t.csv"
    path.write_text(header(cls))
    back = cls.read_csv(path)
    assert len(back) == 0
    assert back == table_of(cls, [])
    assert len(recwarn) == 0


@TABLES
def test_a_wrong_header_is_rejected(tmp_path, cls):
    path = tmp_path / "t.csv"
    path.write_text(header(cls).replace(cls.columns()[-1], "other"))
    with pytest.raises(ValueError, match="header"):
        cls.read_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        cls.read_csv(path)


@TABLES
@pytest.mark.parametrize("change", [-1, 1], ids=["too-few", "too-many"])
def test_a_row_of_the_wrong_width_is_rejected(tmp_path, cls, change):
    path = tmp_path / "t.csv"
    table_of(cls, ["x", "y"]).write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    row = lines[2].rstrip("\n").split(",")
    row = row[:-1] if change < 0 else row + ["0"]
    path.write_text("".join(lines[:2]) + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=str(path)):
        cls.read_csv(path)


@TABLES
def test_blank_lines_are_skipped(tmp_path, cls):
    table = table_of(cls, ["x", "y"])
    path = tmp_path / "t.csv"
    table.write_csv(path)
    head, first, second = path.read_text().splitlines(keepends=True)
    path.write_text(head + "\n" + first + "\n\n" + second + "\n")
    assert cls.read_csv(path) == table


@TABLES
def test_text_round_trips_as_csv_writer_writes_it(tmp_path, cls):
    table = table_of(cls, TEXT)
    path = tmp_path / "t.csv"
    table.write_csv(path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(cls.columns())
    columns = [getattr(table, name).tolist() for name in cls.columns()]
    writer.writerows([int(v) if isinstance(v, bool) else v for v in row] for row in zip(*columns))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    back = cls.read_csv(path)
    assert back == table
    assert all(getattr(back, n).tolist() == TEXT for n, d in zip(cls.columns(), cls.DTYPES) if d is object)


def reference_csv(table) -> bytes:
    """The file written row by row: text quoted by csv.writer, ints and flags
    as %d, floats as repr.  csv.writer quotes a CR only when it is in the line
    terminator, so each row is written with CRLF, which is then cut to LF."""
    lines = [",".join(table.columns()) + "\n"]
    columns = [getattr(table, name).tolist() for name in table.columns()]
    for row in zip(*columns):
        fields = [
            v if d is object else repr(v) if d is np.float64 else "%d" % v
            for v, d in zip(row, table.DTYPES)
        ]
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(fields)
        lines.append(line.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def written(table, tmp_path) -> bytes:
    path = tmp_path / "t.csv"
    table.write_csv(path)
    return path.read_bytes()


def samples(n, feature="dispersion", value_ms=None, label=None, kind="hardware", span_s=1.0):
    """n samples; each column argument is one value for every row or a list.
    By default value_ms counts up in eighths and labels alternate Y, N."""
    column = lambda v: v if isinstance(v, list) else [v] * n
    value_ms = list(np.arange(n) / 8) if value_ms is None else value_ms
    label = ["Y", "N"] * (n // 2) + ["Y"] * (n % 2) if label is None else label
    return Samples(column(feature), column(value_ms), column(label),
                   [2] * n, column(kind), [10**8] * n, column(span_s))


@pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
def test_signed_zeros_are_written_as_they_are(tmp_path, values):
    # 0.0 == -0.0, so a test for one value by `==` would write both as the first.
    table = samples(2, value_ms=values, span_s=values)
    text = written(table, tmp_path)
    assert text == reference_csv(table)
    assert [line.split(b",")[1] for line in text.splitlines()[1:]] == [repr(v).encode() for v in values]
    back = Samples.read_csv(tmp_path / "t.csv")
    assert back.value_ms.view(np.int64).tolist() == np.array(values).view(np.int64).tolist()
    assert back.span_s.view(np.int64).tolist() == np.array(values).view(np.int64).tolist()


def test_a_nan_column_is_written_as_nan(tmp_path):
    table = samples(3, value_ms=[float("nan"), 1.5, float("nan")], span_s=float("nan"))
    text = written(table, tmp_path)
    assert text == reference_csv(table)
    assert text.splitlines()[1] == b"dispersion,nan,Y,2,hardware,100000000,nan"
    back = Samples.read_csv(tmp_path / "t.csv")
    assert np.isnan(back.span_s).all() and np.isnan(back.value_ms[[0, 2]]).all()


@pytest.mark.parametrize("text", ["50%", "%d%%s", "a,b", 'say "hi"', '%,"%'])
def test_one_valued_text_with_percent_comma_or_quote(tmp_path, text):
    # The text stands in the line template, so a `%` in it must not format.
    table = samples(5, feature=text, kind=text)
    assert written(table, tmp_path) == reference_csv(table)
    assert Samples.read_csv(tmp_path / "t.csv") == table


@pytest.mark.parametrize("n", [0, 1, 3, 2 * _WRITE_ROWS + 5], ids=["header_only", "one_row", "rows", "blocks"])
def test_every_column_one_valued(tmp_path, n):
    table = samples(n, value_ms=0.25, label="N")
    text = written(table, tmp_path)
    assert text == reference_csv(table)
    assert len(text.splitlines()) == n + 1
    assert Samples.read_csv(tmp_path / "t.csv") == table


def test_one_row_table(tmp_path):
    table = Trace([0], [7], ['a,"b"'], ["f"], [1], [2], [3], [-1], [True], [False])
    assert written(table, tmp_path) == b"".join(
        [header(Trace).encode(), b'0,7,"a,""b""",f,1,2,3,-1,1,0\n']
    )


def test_one_valued_columns_span_many_blocks(tmp_path):
    # Rows past the first block keep the one-valued text beside the varying ones.
    n = 2 * _WRITE_ROWS + 17
    table = samples(n, kind="soft%ware", span_s=-0.0)
    text = written(table, tmp_path)
    assert text == reference_csv(table)
    assert all(line.endswith(b",2,soft%ware,100000000,-0.0") for line in text.splitlines()[1:])


TEXTS = st.text(alphabet=st.sampled_from('ab%,"\r\n #\u00e9'), max_size=5)
VALUES = {
    np.int64: st.integers(-(2**63), 2**63 - 1),
    bool: st.booleans(),
    np.float64: st.sampled_from([0.0, -0.0, float("nan")]) | st.floats(),
    object: TEXTS,
}


@st.composite
def tables(draw):
    """A table of any column type, some columns forced to one value."""
    cls = draw(st.sampled_from([Trace, Samples, Summary, Histogram]))
    n = draw(st.integers(0, 8))
    columns = []
    for dtype in cls.DTYPES:
        if draw(st.booleans()):
            values = [draw(VALUES[dtype])] * n
        else:
            values = draw(st.lists(VALUES[dtype], min_size=n, max_size=n))
        columns.append(np.array(values, dtype))
    return cls(*columns)


@given(tables())
def test_write_csv_equals_the_row_by_row_writer(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        table.write_csv(path)
        assert path.read_bytes() == reference_csv(table)


@st.composite
def schedule_traces(draw):
    """A trace laid out as `run_schedule` lays one out: one to three
    schedules, each a packet list that every trial repeats, trial by trial.

    Schedules of one length make one run of groups, and one of them can be
    long enough to cross a block boundary.  Trial numbers count up or
    alternate, so a number can come back after another trial; each reply
    column is random per trial, narrow enough to agree by chance, or the same
    in every trial; and one trial can carry a different value in one packet
    cell.  Texts hold `%`, `,` and `"`, shared or not.
    """
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        n = draw(st.integers(1, 5) | st.integers(1, 3).map(lambda extra: _WRITE_ROWS // size + extra))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        first = draw(st.integers(0, 3))
        trials = first + (np.arange(n) % 2 if draw(st.booleans()) else np.arange(n))
        packet = {
            "packet_id": np.arange(size) + draw(st.integers(0, 2)),
            "kind": np.array(draw(st.lists(TEXTS, min_size=size, max_size=size)), object),
            "flow": np.array([draw(TEXTS)] * size, object),
            "client_send_ns": np.array(draw(st.lists(VALUES[np.int64], min_size=size, max_size=size))),
        }
        cells = {name: np.tile(values, (n, 1)) for name, values in packet.items()}
        if draw(st.booleans()):  # one trial, often past the first two, differs in one packet cell
            name = draw(st.sampled_from(list(packet)))
            row, at = draw(st.integers(0, n - 1)), draw(st.integers(0, size - 1))
            value = cells[name][row, at]
            cells[name][row, at] = value + "%" if cells[name].dtype == object else value ^ 1
        for name, dtype in zip(Trace.columns()[4:], Trace.DTYPES[4:]):
            spread = draw(st.sampled_from([2, 2**62]))
            values = rng.integers(-spread, spread, (n, size)).astype(dtype)
            cells[name] = np.tile(values[:1], (n, 1)) if draw(st.booleans()) else values
        pieces.append(Trace(trial=np.repeat(trials, size), **{k: v.reshape(-1) for k, v in cells.items()}))
    return Trace.concat(pieces)


@given(schedule_traces())
def test_a_schedule_shaped_trace_is_written_field_by_field(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        trace.write_csv(path)
        assert path.read_bytes() == reference_csv(trace)


def test_a_trial_longer_than_a_block_is_written_whole(tmp_path):
    n = _WRITE_ROWS + 3
    rows = np.arange(n)
    trace = Trace([7] * n, rows, ["probe"] * n, ["f%"] * n, rows, rows + 1, rows + 2, rows + 3,
                  rows % 2, [False] * n)
    assert written(trace, tmp_path) == reference_csv(trace)


@pytest.mark.parametrize("defended", [False, True], ids=["undefended", "defended"])
@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_traces_are_written_field_by_field(tmp_path, name, defended):
    scenario = replace(BUILTINS[name], defense=DelayElementConfig()) if defended else BUILTINS[name]
    trace = run_scenario(scenario).records
    assert written(trace, tmp_path) == reference_csv(trace)
