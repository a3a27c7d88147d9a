"""Renderer: ``cli.emit`` against ``json.dumps`` and a per-cell text oracle."""

import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aacohom.cli as cli
from aacohom import render
from aacohom.errors import InvalidParameterError
from test_cli_snapshots import GROUPS

TRICKY_TEXT = st.text(
    alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7f aZé€ 😀'), max_size=8
)
SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=10 ** 20, max_value=10 ** 40),
    st.integers(min_value=-10 ** 40, max_value=-10 ** 20),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.none(),
    st.text(max_size=8),
    TRICKY_TEXT,
)
INT_LISTS = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-10 ** 25, 10 ** 25))
)
MIXED_INT_LISTS = st.lists(
    st.one_of(st.integers(-3, 3), st.booleans(), TRICKY_TEXT), min_size=1
)
KEYS = st.one_of(st.text(max_size=6), TRICKY_TEXT)
LEAVES = st.one_of(
    SCALARS,
    INT_LISTS,
    INT_LISTS.map(tuple),
    MIXED_INT_LISTS,
    st.just([]),
    st.just({}),
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=20,
)
REPORTS = st.dictionaries(KEYS, VALUES, max_size=5)
PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(REPORTS)
def test_json_matches_json_dumps(report):
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert cli.emit(report, "json") == expected


@pytest.mark.parametrize(
    "value",
    [
        [[0, 1], [1, 0]],
        [1, True, 0],
        [False],
        (3, -4, 10 ** 30),
        (7,),
        {"b": [], "a": {}, "c": [{}, []]},
        [],
        {},
    ],
)
def test_json_fixed_cases(value):
    report = {"results": {"payload": value}, "z": 1, "a": "x"}
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert cli.emit(report, "json") == expected


@pytest.mark.parametrize(
    "report",
    [{1: 2}, {"a": {None: 1}}, {"a": [{(1, 2): 0}]}, {"a": {2.5: 0}}],
)
def test_json_non_str_key_is_type_error(report):
    with pytest.raises(TypeError):
        cli.emit(report, "json")


def _key_types(value, found):
    if isinstance(value, dict):
        for key, item in value.items():
            found.add(type(key))
            _key_types(item, found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _key_types(item, found)
    return found


def test_snapshot_reports_have_only_str_keys(capsys, monkeypatch):
    reports = []
    real = cli.emit

    def capture(report, fmt):
        reports.append(report)
        return real(report, fmt)

    monkeypatch.setattr(cli, "emit", capture)
    calls = [argv for group in GROUPS.values() for argv in group]
    for argv in calls:
        assert cli.main(argv) == 0, " ".join(argv)
    capsys.readouterr()
    assert len(reports) == len(calls)
    assert _key_types(reports, set()) == {str}


def matrix_lines_oracle(rows, cuts=()):
    """The per-cell text rendering of dense rows, cell by cell."""
    cuts = {c for c in cuts if 0 < c < len(rows)}
    lines = []
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if i in cuts:
            lines.append("-" * (2 * width + 2 * len(cuts) - 1))
        cells = []
        for j, v in enumerate(row):
            if j in cuts:
                cells.append("|")
            cells.append(str(v))
        lines.append(" ".join(cells))
    return lines


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_dense_matrix_payload_is_not_a_matrix(fmt):
    # only OnesRows render as matrices; dense rows are one more result line
    report = {"command": "c", "status": "ok", "results": {"matrix": [[0, 1]]}}
    if fmt == "csv":
        with pytest.raises(InvalidParameterError):
            cli.emit(report, fmt)
    else:
        assert cli.emit(report, fmt) == "command: c\nmatrix: [[0, 1]]\nstatus: ok\n"


def csv_oracle(rows):
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


@st.composite
def ones_payloads_and_cuts(draw):
    width = draw(st.integers(0, 80))
    if width:
        # the first and last columns are drawn often
        column = st.one_of(
            st.sampled_from([0, width - 1]), st.integers(0, width - 1)
        )
        row = st.one_of(
            st.just([]), st.sets(column, max_size=width).map(sorted)
        )
    else:
        row = st.just([])
    ones = draw(st.lists(row, max_size=12))
    height = len(ones)
    cut = st.one_of(
        st.integers(-2, max(height, width) + 2),
        st.sampled_from([0, height, width]),
    )
    cuts = draw(st.lists(cut, max_size=6))
    return render.OnesRows(width, tuple(map(tuple, ones))), cuts


def dense_rows(payload):
    return [
        [1 if j in row else 0 for j in range(payload.width)]
        for row in payload.ones
    ]


@PROPERTY
@given(
    ones_payloads_and_cuts(),
    st.sampled_from([1, 2, 3, 7, 64, render.ONES_CHUNK]),
)
def test_ones_payload_renders_like_its_dense_rows(case, chunk):
    payload, cuts = case
    rows = dense_rows(payload)

    def report(matrix):
        return {
            "command": "c",
            "status": "ok",
            "results": {"matrix": matrix, "block_cuts": cuts, "z": [1, 2]},
        }

    def dumps(value):
        return json.dumps(value, indent=2, sort_keys=True) + "\n"

    with mock.patch.object(render, "ONES_CHUNK", chunk):
        rendered = {
            fmt: cli.emit(report(payload), fmt) for fmt in ("json", "text", "csv")
        }
        top_level = cli.emit({"m": payload, "a": [payload]}, "json")
    assert rendered["json"] == dumps(report(rows))
    assert top_level == dumps({"m": rows, "a": [rows]})
    lines = ["command: c", *matrix_lines_oracle(rows, cuts)]
    assert rendered["text"] == "\n".join([*lines, "z: [1, 2]", "status: ok\n"])
    assert rendered["csv"] == csv_oracle(rows)
