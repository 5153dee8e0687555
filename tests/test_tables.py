"""The one CSV format of the columnar tables, `probes.Trace` and
`features.Samples`: what the reader accepts, what it rejects, and that text
is written exactly as csv.writer writes it."""

import csv
import io

import numpy as np
import pytest

from sdnfp.features import Samples
from sdnfp.probes import Trace

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
