"""Regression-tree substrate (paper Section 6.1 builds on CART [2]).

:mod:`~repro.tree.splits` provides the split primitives — candidate
bisections of a node by (attribute, value) pairs and the
variance-reduction metric; :mod:`~repro.tree.node` the tree nodes (each
node *is* a predicate box); :mod:`~repro.tree.regression_tree` a
standalone regression tree over a :class:`~repro.table.Table`, usable
independently of Scorpion.

The DT partitioner reuses the split primitives and node structure but
runs its own synchronized multi-group recursion with the influence-aware
stopping threshold (Sections 6.1.1–6.1.3).
"""

from repro.tree.node import TreeNode
from repro.tree.regression_tree import RegressionTree
from repro.tree.splits import (
    Split,
    best_split,
    candidate_splits,
    node_error,
    range_split_errors,
    range_split_errors_batch,
)

__all__ = [
    "RegressionTree",
    "Split",
    "TreeNode",
    "best_split",
    "candidate_splits",
    "node_error",
    "range_split_errors",
    "range_split_errors_batch",
]
