"""Unit tests for the regression-tree substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.table import ColumnKind, ColumnSpec, Schema, Table
from repro.tree.node import TreeNode
from repro.tree.regression_tree import RegressionTree
from repro.tree.splits import (
    Split,
    best_split,
    candidate_splits,
    node_error,
    range_split_errors,
    range_split_errors_batch,
    split_error,
)


class TestSplits:
    def test_range_left_mask(self):
        split = Split("x", "range", 5.0)
        values = np.asarray([1.0, 5.0, 9.0])
        assert split.left_mask(values).tolist() == [True, False, False]

    def test_set_left_mask(self):
        split = Split("s", "set", "a")
        values = np.asarray(["a", "b", "a"], dtype=object)
        assert split.left_mask(values).tolist() == [True, False, True]

    def test_range_child_clauses_half_open(self):
        parent = RangeClause("x", 0.0, 10.0)
        left, right = Split("x", "range", 4.0).child_clauses(parent)
        assert (left.lo, left.hi, left.include_hi) == (0.0, 4.0, False)
        assert (right.lo, right.hi, right.include_hi) == (4.0, 10.0, True)

    def test_range_child_outside_parent_rejected(self):
        with pytest.raises(PartitionerError):
            Split("x", "range", 11.0).child_clauses(RangeClause("x", 0, 10))

    def test_set_child_clauses(self):
        parent = SetClause("s", ["a", "b", "c"])
        left, right = Split("s", "set", "b").child_clauses(parent)
        assert left.values == frozenset(["b"])
        assert right.values == frozenset(["a", "c"])

    def test_set_child_needs_two_values(self):
        with pytest.raises(PartitionerError):
            Split("s", "set", "a").child_clauses(SetClause("s", ["a"]))

    def test_candidate_splits_range_interior(self):
        values = np.linspace(0, 10, 50)
        splits = candidate_splits("x", "range", values, max_candidates=4)
        assert 0 < len(splits) <= 4
        for split in splits:
            assert 0.0 < float(split.value) < 10.0

    def test_candidate_splits_constant_column_empty(self):
        assert candidate_splits("x", "range", np.ones(10)) == []

    def test_candidate_splits_set_frequency_order(self):
        values = ["a"] * 5 + ["b"] * 3 + ["c"]
        splits = candidate_splits("s", "set", values, max_candidates=2)
        assert [s.value for s in splits] == ["a", "b"]

    def test_candidate_splits_unknown_kind(self):
        with pytest.raises(PartitionerError):
            candidate_splits("x", "weird", [1, 2])

    def test_node_error_is_std(self):
        assert node_error(np.asarray([1.0, 3.0])) == pytest.approx(1.0)
        assert node_error(np.asarray([5.0])) == 0.0
        assert node_error(np.asarray([])) == 0.0

    def test_split_error_weighted(self):
        targets = np.asarray([0.0, 0.0, 10.0, 10.0])
        perfect = split_error(targets, np.asarray([True, True, False, False]))
        assert perfect == 0.0
        bad = split_error(targets, np.asarray([True, False, True, False]))
        assert bad > 0.0

    def test_best_split_picks_minimum(self):
        values = np.asarray([1.0, 2.0, 9.0, 10.0])
        targets = np.asarray([0.0, 0.0, 5.0, 5.0])
        splits = [Split("x", "range", 5.0), Split("x", "range", 1.5)]
        choice = best_split(splits, [values, values], targets)
        assert choice[0].value == 5.0

    def test_best_split_respects_min_child(self):
        values = np.asarray([1.0, 9.0, 9.5, 10.0])
        targets = np.asarray([0.0, 5.0, 5.0, 5.0])
        choice = best_split([Split("x", "range", 5.0)], [values], targets,
                            min_child_size=2)
        assert choice is None


class TestRangeSplitErrors:
    def test_matches_generic_path(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 100, 200)
        targets = rng.normal(0, 1, 200) + (values > 50) * 10
        thresholds = np.asarray([10.0, 50.0, 90.0])
        fast, n_left, n_right = range_split_errors(values, targets, thresholds)
        for threshold, fast_error, nl, nr in zip(thresholds, fast, n_left, n_right):
            mask = values < threshold
            assert nl == mask.sum() and nr == (~mask).sum()
            assert fast_error == pytest.approx(split_error(targets, mask))

    def test_empty_values(self):
        errors, nl, nr = range_split_errors(np.asarray([]), np.asarray([]),
                                            np.asarray([1.0]))
        assert errors.tolist() == [0.0]

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_property_matches_generic(self, data):
        n = data.draw(st.integers(min_value=2, max_value=60))
        values = np.asarray(data.draw(st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=n, max_size=n)))
        targets = np.asarray(data.draw(st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=n, max_size=n)))
        threshold = data.draw(st.floats(min_value=0, max_value=100,
                                        allow_nan=False))
        errors, _, _ = range_split_errors(values, targets,
                                          np.asarray([threshold]))
        expected = split_error(targets, values < threshold)
        assert errors[0] == pytest.approx(expected, rel=1e-6, abs=1e-6)


def _single_group_split_errors(values, targets, thresholds):
    """Reference: sort one group and searchsorted its thresholds (the
    batched kernel must match it bit for bit)."""
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    sorted_targets = targets[order]
    prefix = np.concatenate([[0.0], np.cumsum(sorted_targets)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(sorted_targets
                                                 * sorted_targets)])
    n_left = np.searchsorted(sorted_values, thresholds, side="left")
    n_right = n - n_left

    def std(total, total_sq, count):
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = total / count
            variance = np.maximum(total_sq / count - mean * mean, 0.0)
            return np.where(count >= 2, np.sqrt(variance), 0.0)

    left = std(prefix[n_left], prefix_sq[n_left], n_left)
    right = std(prefix[n] - prefix[n_left], prefix_sq[n] - prefix_sq[n_left],
                n_right)
    if n == 0:
        return np.zeros(len(thresholds)), n_left, n_right
    return (n_left * left + n_right * right) / n, n_left, n_right


class TestRangeSplitErrorsBatch:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_bit_identical_to_per_group_search(self, data):
        n_groups = data.draw(st.integers(1, 5))
        # Coarse values so ties (and the stable order among them) matter;
        # NaNs must stay ahead of the padding.
        value = st.one_of(st.integers(0, 8).map(float), st.just(np.nan))
        values, targets = [], []
        for _ in range(n_groups):
            n = data.draw(st.integers(0, 40))
            values.append(np.asarray(data.draw(st.lists(
                value, min_size=n, max_size=n)), dtype=np.float64))
            targets.append(np.asarray(data.draw(st.lists(
                st.floats(-50, 50, allow_nan=False), min_size=n,
                max_size=n)), dtype=np.float64))
        threshold_lists = st.lists(st.floats(0, 8, allow_nan=False),
                                   min_size=1, max_size=8)
        if data.draw(st.booleans()):
            # One threshold set shared by every group.
            shared = np.unique(np.asarray(data.draw(threshold_lists)))
            per_group = [shared] * n_groups
            thresholds = shared
        else:
            # A threshold row per group, NaN-padded to a common width.
            per_group = [np.unique(np.asarray(data.draw(threshold_lists)))
                         for _ in range(n_groups)]
            thresholds = np.full((n_groups, max(map(len, per_group))),
                                 np.nan)
            for g, row in enumerate(per_group):
                thresholds[g, :len(row)] = row
        errors, n_left, n_right = range_split_errors_batch(
            values, targets, thresholds)
        assert errors.shape == (n_groups, max(map(len, per_group)))
        for g in range(n_groups):
            want = _single_group_split_errors(values[g], targets[g],
                                              per_group[g])
            k = len(per_group[g])
            assert np.array_equal(errors[g, :k], want[0])
            assert np.array_equal(n_left[g, :k], want[1])
            assert np.array_equal(n_right[g, :k], want[2])


class TestTreeNode:
    def test_bisect_builds_children(self):
        node = TreeNode({"x": RangeClause("x", 0, 10)})
        left, right = node.bisect(Split("x", "range", 4.0))
        assert not node.is_leaf
        assert left.predicate().clause_for("x").hi == 4.0
        assert right.predicate().clause_for("x").lo == 4.0

    def test_leaves_iteration(self):
        node = TreeNode({"x": RangeClause("x", 0, 10)})
        left, right = node.bisect(Split("x", "range", 5.0))
        left.bisect(Split("x", "range", 2.0))
        assert len(list(node.leaves())) == 3
        assert node.count_nodes() == 5
        assert node.depth_below() == 2


class TestRegressionTree:
    def _table(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 100, n)
        s = rng.choice(["a", "b"], n)
        y = np.where((x > 50) & (s == "a"), 10.0, 0.0) + rng.normal(0, 0.1, n)
        table = Table.from_columns(
            Schema([ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("s", ColumnKind.DISCRETE)]),
            {"x": x, "s": s})
        return table, y

    def test_fit_reduces_error(self):
        table, y = self._table()
        tree = RegressionTree(["x", "s"], min_samples=20).fit(table, y)
        predictions = tree.predict(table)
        residual = float(np.mean((predictions - y) ** 2))
        baseline = float(np.var(y))
        assert residual < baseline / 10

    def test_leaf_predicates_partition_table(self):
        table, y = self._table(n=200)
        tree = RegressionTree(["x", "s"], min_samples=20).fit(table, y)
        coverage = np.zeros(len(table), dtype=int)
        for predicate in tree.leaf_predicates():
            coverage += predicate.mask(table).astype(int)
        assert (coverage == 1).all()

    def test_max_depth_respected(self):
        table, y = self._table()
        tree = RegressionTree(["x", "s"], min_samples=4, max_depth=3).fit(table, y)
        assert tree.depth() <= 3

    def test_min_samples_respected(self):
        table, y = self._table(n=100)
        tree = RegressionTree(["x"], min_samples=40).fit(table, y)
        for leaf in tree.leaves():
            # A split of an admissible node needs min_samples rows.
            assert len(leaf.payload) >= 20

    def test_error_threshold_stops_early(self):
        table, y = self._table()
        tree = RegressionTree(["x", "s"], error_threshold=1e9).fit(table, y)
        assert len(tree.leaves()) == 1

    def test_constant_target_single_leaf(self):
        table, _ = self._table(n=50)
        tree = RegressionTree(["x", "s"]).fit(table, np.ones(50))
        assert len(tree.leaves()) == 1

    def test_unfitted_rejected(self):
        tree = RegressionTree(["x"])
        with pytest.raises(PartitionerError):
            tree.leaves()

    def test_mismatched_target_rejected(self):
        table, _ = self._table(n=10)
        with pytest.raises(PartitionerError):
            RegressionTree(["x"]).fit(table, np.ones(5))

    def test_empty_table_rejected(self):
        table, _ = self._table(n=10)
        empty = table.filter(np.zeros(10, dtype=bool))
        with pytest.raises(PartitionerError):
            RegressionTree(["x"]).fit(empty, np.asarray([]))

    def test_no_attributes_rejected(self):
        with pytest.raises(PartitionerError):
            RegressionTree([])
