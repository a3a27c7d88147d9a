"""Renderer: ``cli.emit`` against ``json.dumps`` and a per-cell text oracle."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aacohom.cli as cli
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
    """The per-cell rendering that ``cli._matrix_lines`` must reproduce."""
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


CELLS = st.one_of(st.integers(0, 1), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def matrices_and_cuts(draw):
    size = draw(st.integers(0, 7))
    rows = draw(
        st.lists(
            st.lists(CELLS, min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
    cut = st.one_of(
        st.integers(-2, size + 2), st.sampled_from([0, size]), st.integers(1, 6)
    )
    cuts = draw(st.lists(cut, max_size=6))
    return rows, cuts


@PROPERTY
@given(matrices_and_cuts())
def test_matrix_lines_match_per_cell_oracle(case):
    rows, cuts = case
    assert cli._matrix_lines(rows, cuts) == matrix_lines_oracle(rows, cuts)
    report = {"results": {"matrix": rows}}
    expected = "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
    assert cli.emit(report, "csv") == expected


@pytest.mark.parametrize(
    "rows, cuts",
    [
        ([], []),
        ([], [0, 1]),
        ([[5]], [0, 1, 1]),
        ([[0, 1, 0], [1, 0, 1], [0, 1, 1]], [2, 1, 2, 0, 3, -1, 9]),
        ([[-12, 3], [40, -5]], [1]),
    ],
)
def test_matrix_lines_fixed_cases(rows, cuts):
    assert cli._matrix_lines(rows, cuts) == matrix_lines_oracle(rows, cuts)
