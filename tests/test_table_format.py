"""The byte contract of ``hypam.cli._table``: whatever columns it is handed,
the CSV text equals what ``csv.writer`` writes for the header and for each
row's values formatted as ``%.17g`` (floats) or ``str`` (everything else),
the reference kept below, and the JSON-lines text is one ``json.dumps`` record
per row.  The column template must reproduce the reference byte for byte and
hand every table it cannot reproduce to the reference writer; a plain value
stands for a column repeating it, and a ``Column`` for its list."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypam.cli
from hypam.cli import Column, _table
from hypam.hyperbolic import BracketMode


DS = np.geomspace(1e-3, 10.0, 200).tolist()


def reference_fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def reference(header, columns) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([reference_fmt(v) for v in row] for row in zip(*columns))
    return buf.getvalue()


def header_for(columns) -> list[str]:
    return [f"c{j}" for j in range(len(columns))]


special_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.1125369292536007e-308,
     2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
)
floats = st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True))
# the characters csv quotes on, and the empty string, among plain ones
AWKWARD = [",", '"', "\r", "\n", "a", " ", "é", "%"]
awkward_text = st.text(alphabet=st.sampled_from(AWKWARD), max_size=4)

# value kinds json.dumps writes as well (numpy integers it rejects)
JSON_KINDS = {
    "float": floats,
    "np.float64": floats.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "bool": st.booleans(),
    "mode": st.sampled_from(["exact", "lower", "upper"]),
    "BracketMode": st.sampled_from(BracketMode),
    "text": awkward_text,
}
KINDS = {**JSON_KINDS, "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64)}
any_value = st.one_of(*KINDS.values())


@st.composite
def typed_tables(draw, kinds=KINDS):
    """Columns that each hold one value kind, as the commands emit them; each
    text column draws from its own few characters, so one quoting character at
    a time is tried against an otherwise plain table."""
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=6))
    nrows = draw(st.integers(0, 8))
    columns = []
    for kind in names:
        if kind == "text":
            chars = draw(st.lists(st.sampled_from(AWKWARD), min_size=1, max_size=2, unique=True))
            values = st.text(alphabet=st.sampled_from(chars), max_size=3)
        else:
            values = kinds[kind]
        columns.append(draw(st.lists(values, min_size=nrows, max_size=nrows)))
    return columns


@st.composite
def mixed_tables(draw):
    nrows = draw(st.integers(0, 8))
    width = draw(st.integers(1, 6))
    return [draw(st.lists(any_value, min_size=nrows, max_size=nrows)) for _ in range(width)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(columns=typed_tables())
@example(columns=[[], [], []])
@example(columns=[[""]])
@example(columns=[["exact", ""]])
@example(columns=[['a"b'], [1.0]])
@example(columns=[["a,b"], [1.0]])
@example(columns=[["a\rb", "a\nb"], [1.0, 2.0]])
@example(columns=[[-0.0], [float("nan")], [5e-324], [1e308], [float("-inf")]])
def test_typed_tables_match_the_reference(columns):
    header = header_for(columns)
    assert _table("t", header, columns, "csv") == ("t.csv", reference(header, columns))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(columns=mixed_tables())
@example(columns=[[1.0, 1], [2, 2.0]])
@example(columns=[[1.0, 2.0], [True, 1]])
@example(columns=[[np.float64(0.1), 0.1]])
def test_mixed_rows_match_the_reference(columns):
    header = header_for(columns)
    assert _table("t", header, columns, "csv") == ("t.csv", reference(header, columns))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(columns=typed_tables(JSON_KINDS), data=st.data())
@example(columns=[["a,b", "c"], [1.0, 2.0]], data=None)
def test_plain_value_writes_the_list_repeating_it(columns, data):
    # a plain value put in at any field, against the list it stands for; the
    # same table again with every list shared through a Column
    nrows = len(columns[0])
    if data is None:
        j, value = 0, "a,b"
    else:
        j = data.draw(st.integers(0, len(columns)))
        value = data.draw(st.one_of(*JSON_KINDS.values()))
    plain = columns[:j] + [value] + columns[j:]
    listed = columns[:j] + [[value] * nrows] + columns[j:]
    header = header_for(plain)
    shared = [Column(c) if isinstance(c, list) else c for c in plain]
    for fmt in ("csv", "jsonl"):
        expected = _table("t", header, listed, fmt)
        assert _table("t", header, plain, fmt) == expected
        assert _table("t", header, shared, fmt) == expected
    assert len(expected[1].split("\n")) == nrows + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(columns=typed_tables(JSON_KINDS), cut=st.integers(0, 8))
def test_blocks_write_their_rows_in_order(columns, cut):
    # a table given as two blocks of rows is the one block holding them all
    cut = min(cut, len(columns[0]))
    header = header_for(columns)
    first = [c[:cut] for c in columns]
    second = [c[cut:] for c in columns]
    for fmt in ("csv", "jsonl"):
        assert _table("t", header, first, fmt, second) == _table("t", header, columns, fmt)


@pytest.mark.parametrize(
    "columns",
    [
        [[1.0], [2.0, 3.0]],
        [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]],
        [Column([1.0, 2.0]), (3.0,), "exact"],
        [1.0, "exact"],
    ],
    ids=["two", "three", "column-and-tuple", "no-list"],
)
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_columns_of_unequal_length_raise(columns, fmt):
    # one length per table; a table of plain values alone has no length
    with pytest.raises(ValueError, match="one length"):
        _table("t", header_for(columns), columns, fmt)


def test_one_entry_per_header_field():
    with pytest.raises(ValueError, match="2 columns for 3 header fields"):
        _table("t", ["a", "b", "c"], [[1.0], [2.0]], "csv")


def test_shared_column_is_formatted_once():
    ds = Column(DS)
    cells = ds.cells()[0]
    assert cells == [reference_fmt(d) for d in DS]
    first = _table("a", ["d", "v"], [ds, 1.5], "csv")[1]
    second = _table("b", ["d", "v"], [ds, "%s"], "csv")[1]
    assert ds.cells()[0] is cells
    assert second == first.replace(",1.5\r", ",%s\r")


@pytest.mark.parametrize(
    "columns",
    [
        [DS, [d * 2.0 for d in DS], ["exact"] * 200, [1.0] * 200, [3] * 200, [1.0] * 200],
        [Column(DS), [d * 2.0 for d in DS], "exact", 1.0, 3, 1.0],
        [[0.5], [2], [0.25], [1], [1.5], [0]],
        list(zip([2, 1.5], [3, 0.75], [4, 0.5])),
    ],
    ids=["kernel-table", "kernel-table-plain", "phase", "zip-tuples"],
)
def test_command_tables_take_the_template(columns, monkeypatch):
    # the reference writer formats only the header of a plain table
    calls = []
    original = hypam.cli._csv_rows

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(hypam.cli, "_csv_rows", counting)
    header = header_for(columns)
    lists = [c.values if isinstance(c, Column) else c for c in columns]
    nrows = len(next(c for c in lists if isinstance(c, (list, tuple))))
    lists = [c if isinstance(c, (list, tuple)) else [c] * nrows for c in lists]
    assert _table("t", header, columns, "csv")[1] == reference(header, lists)
    assert calls == [[header]]
