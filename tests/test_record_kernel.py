"""The level-sequence record kernel against the Graph path it replaces."""

import pytest
from hypothesis import given, settings, strategies as st

from treereg.bounds import record_for_code, record_for_tree
from treereg.cli import main
from treereg.trees import (
    canonical_code,
    enumerate_codes,
    graph_from_code,
    random_tree,
    tree_from_code,
)


def assert_same_record(levels, with_oracle=False):
    fast = record_for_code(levels, with_oracle=with_oracle)
    slow = record_for_tree(tree_from_code(levels), with_oracle=with_oracle)
    assert fast.csv_row() == slow.csv_row()
    assert fast.to_jsonl() == slow.to_jsonl()


@pytest.mark.parametrize("n", range(1, 15))
def test_every_tree_matches_the_graph_path(n):
    for code in enumerate_codes(n):
        assert_same_record(code.levels)


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_records_match_the_graph_path(n):
    for code in enumerate_codes(n):
        assert_same_record(code.levels, with_oracle=True)
        assert record_for_code(code.levels, with_oracle=True).reg is not None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_random_trees_match_the_graph_path(n, seed):
    assert_same_record(canonical_code(random_tree(n, seed)).levels)


@pytest.mark.parametrize(
    "levels, message",
    [
        ((), "must start at 0"),
        ((1, 2), "must start at 0"),
        ((0, 2), "invalid level 2 at position 1"),
        ((0, 1, 1, 3), "invalid level 3 at position 3"),
        ((0, 1, 0), "invalid level 0 at position 2"),
    ],
)
def test_invalid_levels_are_named_as_graph_from_code_names_them(levels, message):
    with pytest.raises(ValueError, match=message) as fast:
        record_for_code(levels)
    with pytest.raises(ValueError) as slow:
        graph_from_code(levels)
    assert str(fast.value) == str(slow.value)


def test_census_jsonl_bytes_match_the_graph_path(tmp_path):
    out = tmp_path / "census.jsonl"
    assert main(["census", "--max-order", "9", "--out", str(out),
                 "--format", "jsonl"]) == 0
    expected = "".join(
        record_for_tree(tree_from_code(code)).to_jsonl() + "\n"
        for n in range(1, 10)
        for code in enumerate_codes(n)
    )
    assert out.read_bytes() == expected.encode()
