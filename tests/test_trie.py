"""Unit tests for the nested CSR trie."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie, trie_for_order


class TestTrieBasics:
    def test_single_column(self):
        t = Trie(np.array([[3], [1], [2], [1]]), ("a",))
        assert t.n_rows == 3  # deduped
        assert t.values[0].tolist() == [1, 2, 3]

    def test_two_columns_sorted_and_deduped(self):
        rows = np.array([[2, 1], [1, 2], [1, 1], [1, 2]])
        t = Trie(rows, ("a", "b"))
        assert t.n_rows == 3
        assert t.rows.tolist() == [[1, 1], [1, 2], [2, 1]]

    def test_descend(self):
        """A level-0 node's child range selects its level-1 values."""
        rows = np.array([[1, 10], [1, 20], [2, 30]])
        t = Trie(rows, ("a", "b"))
        assert t.values[0].tolist() == [1, 2]
        children = [
            t.values[1][s:e].tolist()
            for s, e in zip(t.child_start[0], t.child_end[0])
        ]
        assert children == [[10, 20], [30]]

    def test_three_levels(self):
        rows = np.array(
            [[1, 1, 1], [1, 1, 2], [1, 2, 1], [2, 1, 5]]
        )
        t = Trie(rows, ("a", "b", "c"))
        assert t.values[1].tolist() == [1, 2, 1]
        assert (t.child_start[0].tolist(), t.child_end[0].tolist()) == (
            [0, 2], [2, 3]
        )
        assert t.values[2].tolist() == [1, 2, 1, 5]
        assert (t.child_start[1].tolist(), t.child_end[1].tolist()) == (
            [0, 2, 3], [2, 3, 4]
        )

    def test_empty_relation(self):
        t = Trie(np.empty((0, 2)), ("a", "b"))
        assert t.n_rows == 0
        assert [len(v) for v in t.values] == [0, 0]

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            Trie(np.zeros((2, 3)), ("a", "b"))


class TestTrieForOrder:
    def test_columns_permuted(self):
        rows = np.array([[10, 1], [20, 2]])  # (b, a) pairs
        t = trie_for_order(rows, ("b", "a"), order=("a", "b", "c"))
        assert t.attrs == ("a", "b")
        assert t.rows.tolist() == [[1, 10], [2, 20]]

    def test_missing_attr_rejected(self):
        with pytest.raises(ValueError):
            trie_for_order(np.zeros((1, 2)), ("a", "z"), order=("a", "b"))

    def test_identity_when_aligned(self):
        rows = np.array([[1, 2], [3, 4]])
        t = trie_for_order(rows, ("a", "b"), order=("a", "b"))
        assert t.rows.tolist() == [[1, 2], [3, 4]]


@settings(max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=0,
        max_size=60,
    )
)
def test_trie_roundtrip_property(rows):
    """Joining the trie alone enumerates exactly the sorted distinct input
    rows, and the trie holds exactly those rows."""
    arr = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.empty((0, 3), dtype=np.int64)
    )
    t = Trie(arr, ("a", "b", "c"))
    distinct = {tuple(r) for r in rows}
    assert t.n_rows == len(distinct)
    assert leapfrog([t], ("a", "b", "c")).rows.tolist() == [
        list(r) for r in sorted(distinct)
    ]
    # the root level holds the distinct first values
    assert t.values[0].tolist() == sorted({r[0] for r in distinct})
