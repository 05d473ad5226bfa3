"""Split primitives shared by the regression tree and the DT partitioner.

A :class:`Split` bisects a node by an (attribute, value) pair — the
paper's Section 6.1.1 "best (attribute, value) pair to bisect the node":

* continuous attribute, threshold ``v``: left is ``attr < v``, right is
  ``attr ≥ v`` (preserving the half-open ``[lo, hi)`` box discipline);
* discrete attribute, value ``v``: left is ``attr = v``, right is the
  node's remaining values (one-vs-rest bisection).

The node error metric is the standard deviation of the target values
(tuple influences, for DT); split quality is the size-weighted mean of
the child errors, to be minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import PartitionerError
from repro.predicates.clause import Clause, RangeClause, SetClause


@dataclass(frozen=True)
class Split:
    """A bisection of a node along one attribute."""

    attribute: str
    #: "range" (continuous threshold) or "set" (one-vs-rest value).
    kind: str
    value: object

    def left_mask(self, values: np.ndarray) -> np.ndarray:
        """Mask of node rows falling in the left child, given the node's
        values of :attr:`attribute`."""
        if self.kind == "range":
            return np.asarray(values, dtype=np.float64) < float(self.value)  # type: ignore[arg-type]
        mask = np.empty(len(values), dtype=bool)
        for i, item in enumerate(values):
            mask[i] = item == self.value
        return mask

    def child_clauses(self, parent: Clause) -> tuple[Clause, Clause]:
        """Clauses describing the two children, refining the parent clause.

        Raises :class:`PartitionerError` when the split would produce an
        empty child clause (callers must pick splits strictly inside the
        parent's bounds / value set).
        """
        if self.kind == "range":
            if not isinstance(parent, RangeClause):
                raise PartitionerError(f"range split on non-range clause {parent!r}")
            threshold = float(self.value)  # type: ignore[arg-type]
            if not parent.lo < threshold < parent.hi:
                raise PartitionerError(
                    f"threshold {threshold} not inside ({parent.lo}, {parent.hi})"
                )
            left = RangeClause(self.attribute, parent.lo, threshold, include_hi=False)
            right = RangeClause(self.attribute, threshold, parent.hi, parent.include_hi)
            return left, right
        if not isinstance(parent, SetClause):
            raise PartitionerError(f"set split on non-set clause {parent!r}")
        if self.value not in parent.values:
            raise PartitionerError(f"value {self.value!r} not in {parent!r}")
        rest = parent.values - {self.value}
        if not rest:
            raise PartitionerError(f"one-vs-rest split needs >= 2 values in {parent!r}")
        return SetClause(self.attribute, [self.value]), SetClause(self.attribute, rest)

    def __str__(self) -> str:
        symbol = "<" if self.kind == "range" else "="
        return f"{self.attribute} {symbol} {self.value}"


def candidate_splits(attribute: str, kind: str, values: Iterable,
                     max_candidates: int = 8) -> list[Split]:
    """Candidate bisections of a node along ``attribute``.

    Continuous: up to ``max_candidates`` interior quantile thresholds of
    the node's values.  Discrete: one-vs-rest on the node's distinct
    values, most frequent first, capped at ``max_candidates``.
    """
    if kind == "range":
        array = np.asarray(list(values), dtype=np.float64)
        if len(array) < 2:
            return []
        quantiles = np.linspace(0.0, 1.0, max_candidates + 2)[1:-1]
        thresholds = np.unique(np.quantile(array, quantiles))
        lo, hi = float(np.min(array)), float(np.max(array))
        return [Split(attribute, "range", float(t))
                for t in thresholds if lo < t < hi]
    if kind == "set":
        counts: dict = {}
        for item in values:
            counts[item] = counts.get(item, 0) + 1
        if len(counts) < 2:
            return []
        ordered = sorted(counts, key=lambda v: (-counts[v], repr(v)))
        return [Split(attribute, "set", v) for v in ordered[:max_candidates]]
    raise PartitionerError(f"unknown split kind {kind!r}")


def node_error(targets: np.ndarray) -> float:
    """Error metric of a node: standard deviation of its targets
    (0 for empty or single-row nodes)."""
    targets = np.asarray(targets, dtype=np.float64)
    finite = targets[np.isfinite(targets)]
    if len(finite) < 2:
        return 0.0
    return float(np.std(finite))


def split_error(targets: np.ndarray, left_mask: np.ndarray) -> float:
    """Size-weighted mean child error for a candidate bisection."""
    targets = np.asarray(targets, dtype=np.float64)
    left = targets[left_mask]
    right = targets[~left_mask]
    total = len(targets)
    if total == 0:
        return 0.0
    return (len(left) * node_error(left) + len(right) * node_error(right)) / total


def range_split_errors(values: np.ndarray, targets: np.ndarray,
                       thresholds: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Size-weighted child errors for *all* thresholds at once.

    Returns ``(errors, n_left, n_right)`` arrays aligned with
    ``thresholds``; the left child is ``value < threshold``.  The
    one-group case of :func:`range_split_errors_batch`.
    """
    errors, n_left, n_right = range_split_errors_batch(
        [values], [targets], thresholds)
    return errors[0], n_left[0], n_right[0]


def range_split_errors_batch(values: Sequence[np.ndarray],
                             targets: Sequence[np.ndarray],
                             thresholds: np.ndarray,
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Size-weighted child errors of every group for every threshold.

    ``values[g]`` and ``targets[g]`` are group ``g``'s node rows;
    ``thresholds`` is shared by every group, or one row per group (NaN
    pads a shorter row: no value is below it).  The
    groups are padded into one ``(groups, rows)`` array (NaN values sort
    last, zero targets), sorted once per row (stable), and each row's
    prefix sums of the targets give every threshold's child sums, so a
    node's ``k`` thresholds over ``G`` groups cost one sort and one
    ``cumsum`` — the DT partitioner's split search calls this per
    (node, attribute).  A row's result is bit-for-bit what sorting that
    group alone would give: the stable sort keeps the group's own NaNs
    ahead of the padding, and ``cumsum`` accumulates each row
    sequentially.

    Returns ``(errors, n_left, n_right)``, each ``(groups, thresholds)``;
    the left child is ``value < threshold``.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    lengths = np.asarray([len(v) for v in values], dtype=np.int64)
    width = int(lengths.max()) if len(lengths) else 0
    padded_values = np.full((len(values), width), np.nan)
    padded_targets = np.zeros((len(values), width))
    for g, (row_values, row_targets) in enumerate(zip(values, targets)):
        padded_values[g, :lengths[g]] = row_values
        padded_targets[g, :lengths[g]] = row_targets
    order = np.argsort(padded_values, axis=1, kind="stable")
    sorted_values = np.take_along_axis(padded_values, order, axis=1)
    sorted_targets = np.take_along_axis(padded_targets, order, axis=1)
    del padded_values, padded_targets, order
    prefix = np.zeros((len(values), width + 1))
    prefix_sq = np.zeros((len(values), width + 1))
    np.cumsum(sorted_targets, axis=1, out=prefix[:, 1:])
    sorted_targets *= sorted_targets
    np.cumsum(sorted_targets, axis=1, out=prefix_sq[:, 1:])
    # Rows below each threshold (NaN compares false, so padding never
    # counts) — the searchsorted(side="left") position in the sorted row.
    per_group = np.broadcast_to(thresholds, (len(values), thresholds.shape[-1]))
    n_left = np.empty(per_group.shape, dtype=np.int64)
    for t, column in enumerate(per_group.T):
        n_left[:, t] = np.count_nonzero(sorted_values < column[:, np.newaxis],
                                        axis=1)
    n = lengths[:, np.newaxis]
    n_right = n - n_left
    group = np.arange(len(values))[:, np.newaxis]
    total, total_sq = prefix[group, n], prefix_sq[group, n]
    left, left_sq = prefix[group, n_left], prefix_sq[group, n_left]

    def _segment_std(total: np.ndarray, total_sq: np.ndarray,
                     count: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = total / count
            variance = np.maximum(total_sq / count - mean * mean, 0.0)
            std = np.sqrt(variance)
        return np.where(count >= 2, std, 0.0)

    left_std = _segment_std(left, left_sq, n_left)
    right_std = _segment_std(total - left, total_sq - left_sq, n_right)
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = (n_left * left_std + n_right * right_std) / n
    errors = np.where(n == 0, 0.0, errors)
    return errors, n_left, n_right


def best_split(splits: Sequence[Split], values_by_split: Sequence[np.ndarray],
               targets: np.ndarray,
               min_child_size: int = 1) -> tuple[Split, float] | None:
    """The candidate split minimizing :func:`split_error`.

    ``values_by_split[i]`` holds the node's values of
    ``splits[i].attribute``.  Splits leaving a child with fewer than
    ``min_child_size`` rows are skipped.  Returns None when no split is
    admissible.
    """
    best: tuple[Split, float] | None = None
    for split, values in zip(splits, values_by_split):
        left = split.left_mask(values)
        n_left = int(np.count_nonzero(left))
        if n_left < min_child_size or len(values) - n_left < min_child_size:
            continue
        error = split_error(targets, left)
        if best is None or error < best[1]:
            best = (split, error)
    return best
