"""The CSV byte contract of ``hypam.cli._table``: whatever rows it is handed,
the text equals what ``csv.writer`` writes for the header and for each value
formatted as ``%.17g`` (floats) or ``str`` (everything else), the reference
kept below.  The one-template fast path must reproduce it byte for byte and
hand every table it cannot reproduce to the reference writer."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypam.cli
from hypam.cli import _table
from hypam.hyperbolic import BracketMode

HEADER = ["a", "b", "c"]


def reference_fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def reference(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([reference_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


special_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.1125369292536007e-308,
     2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
)
floats = st.one_of(special_floats, st.floats(allow_nan=True, allow_infinity=True))
# the characters csv quotes on, and the empty string, among plain ones
AWKWARD = [",", '"', "\r", "\n", "a", " ", "é"]
awkward_text = st.text(alphabet=st.sampled_from(AWKWARD), max_size=4)

KINDS = {
    "float": floats,
    "np.float64": floats.map(np.float64),
    "int": st.integers(-(2**70), 2**70),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "mode": st.sampled_from(["exact", "lower", "upper"]),
    "BracketMode": st.sampled_from(BracketMode),
    "text": awkward_text,
}
any_value = st.one_of(*KINDS.values())


@st.composite
def typed_tables(draw):
    """Rows whose columns each hold one value kind, as the commands emit them;
    each text column draws from its own few characters, so one quoting
    character at a time is tried against an otherwise plain table."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "text":
            chars = draw(st.lists(st.sampled_from(AWKWARD), min_size=1, max_size=2, unique=True))
            columns.append(st.text(alphabet=st.sampled_from(chars), max_size=3))
        else:
            columns.append(KINDS[kind])
    return draw(st.lists(st.tuples(*columns).map(list), max_size=8))


mixed_tables = st.lists(st.lists(any_value, max_size=6), max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=typed_tables())
@example(rows=[])
@example(rows=[[""]])
@example(rows=[["exact"], [""]])
@example(rows=[['a"b', 1.0]])
@example(rows=[["a,b", 1.0]])
@example(rows=[["a\rb", 1.0], ["a\nb", 2.0]])
@example(rows=[[-0.0, float("nan"), 5e-324, 1e308, float("-inf")]])
def test_typed_tables_match_the_reference(rows):
    assert _table("t", HEADER, rows, "csv") == ("t.csv", reference(HEADER, rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=mixed_tables)
@example(rows=[[1.0, 2], [1, 2.0]])
@example(rows=[[1.0, True], [2.0, 1]])
@example(rows=[[np.float64(0.1)], [0.1]])
@example(rows=[[1.0], [2.0, 3.0]])
@example(rows=[[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])
@example(rows=[[], []])
def test_mixed_rows_match_the_reference(rows):
    assert _table("t", HEADER, rows, "csv") == ("t.csv", reference(HEADER, rows))


@pytest.mark.parametrize(
    "rows",
    [
        [[d, d * 2.0, "exact", 1.0, 3, 1.0] for d in np.geomspace(1e-3, 10.0, 200).tolist()],
        [[0.5, 2, 0.25, 1, 1.5, 0]],
        list(zip([2, 3, 4], [1.5, 0.75, 0.5])),
    ],
    ids=["kernel-table", "phase", "zip-tuples"],
)
def test_command_tables_take_the_template(rows, monkeypatch):
    # the reference writer formats only the header of a plain table
    calls = []
    original = hypam.cli._csv_rows

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(hypam.cli, "_csv_rows", counting)
    header = [f"c{j}" for j in range(len(rows[0]))]
    assert _table("t", header, rows, "csv")[1] == reference(header, rows)
    assert calls == [[header]]
