"""Tests for dataset file loading and the canonical CSV/JSON encodings."""

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualrec.core import DomainError, DrsTable, StratumPair
from dualrec.datasets import load_stratum_pair, pair_to_csv, pair_to_rows

_COUNT = st.integers(min_value=0, max_value=10**9)
_TABLE = st.builds(DrsTable, _COUNT, _COUNT, _COUNT)
# the loader strips surrounding whitespace from labels, so only stripped,
# nonempty labels can come back unchanged; line breaks inside them stay in
_LABELS = st.lists(
    st.text(min_size=1).map(str.strip).filter(bool), min_size=2, max_size=2, unique=True
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(a=_TABLE, b=_TABLE, labels=_LABELS)
def test_csv_and_json_encodings_reload_to_the_same_pair(tmp_path, a, b, labels):
    pair = StratumPair(a, b, label_a=labels[0], label_b=labels[1])
    multiline = any("\r" in label or "\n" in label for label in labels)
    for name, text in (
        ("pair.csv", pair_to_csv(pair)),
        ("pair.json", json.dumps({"strata": pair_to_rows(pair)})),
    ):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if multiline:
            # labels are one-line report names
            with pytest.raises(DomainError):
                load_stratum_pair(path)
        else:
            assert load_stratum_pair(path) == pair


@pytest.mark.parametrize("label", ["Ma\nle", "Ma\rle", "Male\n"])
def test_multiline_label_is_refused_naming_the_row(tmp_path, label):
    path = tmp_path / "pair.json"
    strata = [{"stratum": "Female", "x11": 1, "x10": 2, "x01": 3}]
    strata.append({"stratum": label, "x11": 4, "x10": 5, "x01": 6})
    path.write_text(json.dumps({"strata": strata}), encoding="utf-8")
    with pytest.raises(DomainError, match="stratum 2: stratum label .* spans more than one line"):
        load_stratum_pair(path)
    path = tmp_path / "pair.csv"
    path.write_text(f'stratum,x11,x10,x01\nFemale,1,2,3\n"{label}",4,5,6\n', encoding="utf-8")
    with pytest.raises(DomainError, match="row 3: stratum label .* spans more than one line"):
        load_stratum_pair(path)


def test_non_utf8_file_is_a_domain_error_naming_it(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_bytes(b"stratum,x11,x10,x01\nA\xff,1,2,3\nB,4,5,6\n")
    with pytest.raises(DomainError, match=re.escape(f"{path}: not UTF-8 text")):
        load_stratum_pair(path)


_ROWS = [
    {"stratum": "A", "x11": 1, "x10": 2, "x01": 3},
    {"stratum": "B", "x11": 4, "x10": 5, "x01": 6},
]


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("pair.csv", "stratum,x11,x10,x01\nA,1,-2,3\nB,4,5,6\n",
         "row 2: x10 must be nonnegative, got -2"),
        ("pair.json", json.dumps({"strata": [_ROWS[0], {**_ROWS[1], "x11": -4}]}),
         "stratum 2: x11 must be nonnegative, got -4"),
        ("pair.csv", "stratum,x11,x10,x01\nA,1,two,3\nB,4,5,6\n",
         "row 2: column x10 is not an integer: 'two'"),
        ("pair.csv", "stratum,x11,x10,x01\nA,1,2,3\nB,4,5,6\nC,7,8,9\n",
         "expected exactly two strata, got 3"),
        ("pair.csv", "stratum,x11,x10,x01\nA,1,2,3\nA,4,5,6\n",
         "stratum labels must differ, both are 'A'"),
        ("pair.csv", "stratum,x11,x10\nA,1,2\nB,4,5\n", "header lacks column(s) x01"),
        ("pair.json", "{nope", "invalid JSON"),
        ("pair.json", json.dumps({"strata": _ROWS[0]}), "expected a list of strata"),
        ("pair.json", json.dumps({"dependent": "C", "strata": _ROWS}),
         "dependent stratum 'C' not found; strata are ['A', 'B']"),
        ("pair.csv", "stratum,x11,x10,x01\nA,1,2,3\nB,20,8,6,7\n",
         "row 3: 1 field(s) more than the header has"),
        ("pair.json", json.dumps({"strata": _ROWS, "dependant": "B"}),
         "unknown key(s) dependant"),
        ("pair.csv", "stratum,x11,x10,x01\nA,1,2,3\nB,20,8\n", "row 3: missing column(s) x01"),
        ("pair.json", json.dumps([_ROWS[0], {"stratum": "B", "x11": 4, "x10": 5}]),
         "stratum 2: missing column(s) x01"),
        ("pair.json", "[\n{nope", "invalid JSON at line 2: Expecting property name"),
    ],
    ids=["negative-csv", "negative-json", "non-integer", "three-strata", "same-labels",
         "missing-column", "invalid-json", "strata-not-a-list", "unknown-dependent",
         "extra-field", "unknown-key", "short-row", "stratum-missing-key", "json-line"],
)
def test_format_errors_are_domain_errors_naming_the_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DomainError) as err:
        load_stratum_pair(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_json_counts_are_read_as_integers(tmp_path):
    # an integral float is a count, as DrsTable(46.0, ...) is; a fraction
    # or a bool is refused, not truncated or read as 1
    path = tmp_path / "pair.json"
    rows = [{**_ROWS[0], "x11": 46.0}, _ROWS[1]]
    path.write_text(json.dumps(rows), encoding="utf-8")
    assert load_stratum_pair(path).a == DrsTable(46, 2, 3)
    for value, shown in (("46.5", "46.5"), ("true", "True"), ("1e400", "inf")):
        path.write_text(json.dumps(rows).replace("46.0", value), encoding="utf-8")
        with pytest.raises(DomainError) as err:
            load_stratum_pair(path)
        assert str(err.value) == f"{path}: stratum 1: column x11 is not an integer: {shown}"


def test_json_bare_list_and_dependent_key(tmp_path):
    a, b = DrsTable(1, 2, 3), DrsTable(4, 5, 6)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_ROWS), encoding="utf-8")
    assert load_stratum_pair(path) == StratumPair(a, b, label_a="A", label_b="B")
    path.write_text(json.dumps({"dependent": "B", "strata": _ROWS}), encoding="utf-8")
    assert load_stratum_pair(path) == StratumPair(b, a, label_a="B", label_b="A")
    # the argument takes precedence over the document's key
    assert load_stratum_pair(path, "A") == StratumPair(a, b, label_a="A", label_b="B")
    # labels are read as text, and so is the key: 5 names the stratum 5, and
    # null names none
    strata = [{**_ROWS[0], "stratum": 4}, {**_ROWS[1], "stratum": 5}]
    path.write_text(json.dumps({"strata": strata, "dependent": 5}), encoding="utf-8")
    assert load_stratum_pair(path) == StratumPair(b, a, label_a="5", label_b="4")
    path.write_text(json.dumps({"strata": strata, "dependent": None}), encoding="utf-8")
    assert load_stratum_pair(path) == StratumPair(a, b, label_a="4", label_b="5")


def test_byte_order_mark_is_allowed(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a leading BOM
    pair = StratumPair(DrsTable(1, 2, 3), DrsTable(4, 5, 6), label_a="A", label_b="B")
    for name, text in (("pair.csv", pair_to_csv(pair)), ("pair.json", json.dumps(_ROWS))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_stratum_pair(path) == pair
