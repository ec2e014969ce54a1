import hashlib

import pytest

from respeval.fixtures import (
    FIXTURE_NAMES,
    METRIC_COLUMNS,
    RESPONSE_COLUMN,
    fixture_csv,
    load_fixture,
)
from respeval.textcore import RespevalInputError

TABLE1_SHA256 = "cf8d65b841ba0f8f07c7830dad4b918717a92ddca8785774bf21350e8d5a5aac"
TABLE2_SHA256 = "a64c78927311cb29fffac126dc5a4f08b31401054518b7c356c85bab6ea96cce"


def digest(name):
    return hashlib.sha256(fixture_csv(name).encode("utf-8")).hexdigest()


def test_fixture_digests_pinned():
    assert digest("table1") == TABLE1_SHA256
    assert digest("table2") == TABLE2_SHA256


def test_fixture_names():
    assert FIXTURE_NAMES == ("table1", "table2")
    with pytest.raises(RespevalInputError):
        fixture_csv("table3")


@pytest.mark.parametrize("read", [fixture_csv, load_fixture])
def test_unknown_fixture_is_an_input_error(read):
    message = "unknown fixture 'table3'; available: ('table1', 'table2')"
    with pytest.raises(RespevalInputError) as excinfo:
        read("table3")
    assert str(excinfo.value) == message


def test_table1_shape_and_columns():
    table = load_fixture("table1")
    assert len(table.rows) == 57
    assert table.columns == ["SPKR"] + list(METRIC_COLUMNS) + [RESPONSE_COLUMN, "RED."]


def test_table2_shape():
    assert len(load_fixture("table2").rows) == 20


def test_table1_spot_values():
    table = load_fixture("table1")
    row16 = table.rows[15]
    by = {name: value for name, value in zip(table.columns, row16)}
    assert by["SPKR"] == 16
    assert by["BLEU"] == 88.82
    assert by["NIST"] == 8.66
    assert by["EBLEU"] == 95.20
    assert by["NER"] == 95.96
    # the reduction-rate column legitimately goes negative
    row52 = {name: value for name, value in zip(table.columns, table.rows[51])}
    assert row52["RED."] == -6.6


def test_table2_spot_values():
    table = load_fixture("table2")
    first = {name: value for name, value in zip(table.columns, table.rows[0])}
    assert first["BLEU"] == 41.89
    assert first["RIBES"] == 78.94
    last = {name: value for name, value in zip(table.columns, table.rows[19])}
    assert last["NER"] == 85.26
