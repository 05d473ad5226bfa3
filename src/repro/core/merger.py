"""The Merger: greedy coarsening of partitioner output (paper Sections
4.3 and 6.3).

Partitioners emit predicates at a finer granularity than ideal, so the
Merger repeatedly expands high-scoring predicates by merging them with
adjacent predicates as long as influence increases.

Optimizations from Section 6.3, both optional:

* **top-quartile expansion** — only predicates whose internal scores sit
  in the top quartile are expanded (the final predicate almost always
  grows from those);
* **cached-state approximation** — for incrementally removable
  aggregates, a merge's influence is estimated from the per-partition
  removal statistics (count + summed tuple state) under a
  uniform-density-within-partition assumption, avoiding Scorer calls
  inside the expansion loop entirely; only the final expanded predicates
  are scored exactly.

The approximation improves on the paper's replicate-the-cached-tuple
scheme by storing each partition's exact summed state (same constant
size, strictly more accurate — see DESIGN.md §4 item 7); partially
overlapping partitions contribute volume-weighted fractions of their
state exactly as Section 6.3's ``n_p`` estimates do.

When the approximation is *off* (the MC partitioner's default merger
configuration), each expansion round collects its candidate merges and
scores them through one :meth:`InfluenceScorer.score_batch` call per
start, and expansion starts are exact-scored in one warm-up batch, so
the scalar Scorer round-trip disappears from the expansion loop either
way.

Expansions run in *lockstep*: every start advances one greedy round at
a time.  A round is a few array operations over boxes stored once:

* **adjacency** — every candidate box is encoded once as continuous
  lo/hi arrays, an attribute-set signature and one ID per discrete value
  set (:class:`_BoxCodec`), so testing a start's current box against all
  candidates is one vector expression equal to
  :meth:`Predicate.is_adjacent_to`; each start's absorbed candidates are
  a boolean mask;
* **estimates** — the round's merged boxes (``minimum``/``maximum`` of
  the bounds, unions of the value memberships) of *all* starts go
  through one :meth:`_ApproxIndex.estimate_batch` call: overlap shares
  against every candidate, removed counts and states from one
  contraction, and one ``recover_batch`` over all (merge, group) rows.
  A :class:`Predicate` is built only for each start's best merge;
* **verification** — the round's winning merges, one per still-active
  start and independent across starts, are adoption-verified through a
  single ``score_batch`` call (which shards across worker processes
  when the scorer's ``workers`` knob is set).

Per start, the accept/reject sequence is that of expanding the start to
completion on its own: a start's trajectory reads only its own state and
the shared read-only candidate list, and ``score_batch`` returns exactly
what ``score`` would.  The batched estimates agree with the retained
scalar reference (:meth:`Merger._approximate`) to 1e-12 relative — the
contraction's summation order and NumPy's vector ``power`` can move the
last bit — and a box gets the same bits in any round and batch.  The
estimate-vs-exact gap of every verified adoption is recorded in
:class:`MergerReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.partition import CandidatePredicate, ScoredPredicate
from repro.errors import PartitionerError
from repro.obs.trace import span
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate
from repro.predicates.space import Domain


@dataclass
class _Boxes:
    """Array form of some predicates' boxes (one row per predicate).

    An unconstrained continuous attribute is ``[-inf, inf]``; an
    unconstrained discrete attribute has set ID ``-1`` and a membership
    row of all ``True``.
    """

    lo: np.ndarray          # (n, continuous attributes)
    hi: np.ndarray
    include_hi: np.ndarray  # bool, same shape
    #: ID of the predicate's attribute set.
    signature: np.ndarray   # (n,)
    #: ID of each discrete clause's value set, -1 when unconstrained.
    set_ids: np.ndarray     # (n, discrete attributes)
    #: Per discrete attribute, the (n, vocabulary) value memberships;
    #: None when encoded without them (only the estimate kernel reads
    #: them).
    members: list[np.ndarray] | None

    def adjacent_to(self, current: "_Boxes") -> np.ndarray:
        """Which rows are adjacent to the one-row box ``current``: the
        vector form of :meth:`Predicate.is_adjacent_to`.

        Equal attribute sets, touching on every shared attribute, and
        either no differing discrete clause or exactly one with no
        differing continuous clause.
        """
        lo, hi = current.lo[0], current.hi[0]
        touching = np.all((self.lo <= hi) & (lo <= self.hi), axis=1)
        differing_continuous = np.count_nonzero(
            (self.lo != lo) | (self.hi != hi)
            | (self.include_hi != current.include_hi[0]), axis=1)
        differing_discrete = np.count_nonzero(
            self.set_ids != current.set_ids[0], axis=1)
        return ((self.signature == current.signature[0]) & touching
                & ((differing_discrete == 0)
                   | ((differing_discrete == 1)
                      & (differing_continuous == 0))))

    def merged_with(self, rows: np.ndarray, current: "_Boxes",
                    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Bounds and value memberships of ``current`` merged with each
        of ``rows`` (the geometry of :meth:`Predicate.merge`)."""
        assert self.members is not None and current.members is not None
        return (np.minimum(self.lo[rows], current.lo),
                np.maximum(self.hi[rows], current.hi),
                [member[rows] | own
                 for member, own in zip(self.members, current.members)])


class _BoxCodec:
    """Encodes predicates over a domain as :class:`_Boxes`.

    Signature and value-set IDs are shared by every box the codec
    encodes, so boxes from separate :meth:`encode` calls compare
    directly.  The per-attribute value vocabulary covers the domain's
    values and every value the predicates given at construction name;
    merges only union those sets, so it also covers every merged box.
    """

    def __init__(self, domain: Domain, predicates: Iterable[Predicate]):
        self.continuous = [a for a in domain if a.is_continuous]
        self.discrete = [a for a in domain if not a.is_continuous]
        self._column = {a.name: j for j, a in enumerate(self.continuous)}
        self._slot = {a.name: d for d, a in enumerate(self.discrete)}
        self.vocab: list[dict] = [dict.fromkeys(a.values) for a in self.discrete]
        for predicate in predicates:
            for clause in predicate:
                d = self._slot.get(clause.attribute)
                if d is not None and isinstance(clause, SetClause):
                    self.vocab[d].update(dict.fromkeys(clause.values))
        self.vocab = [{value: i for i, value in enumerate(vocab)}
                      for vocab in self.vocab]
        self._signatures: dict[tuple[str, ...], int] = {}
        self._set_ids: list[dict[frozenset, int]] = [{} for _ in self.discrete]

    def membership(self, d: int, values: Iterable) -> np.ndarray:
        """Boolean membership row of ``values`` over attribute ``d``'s
        vocabulary."""
        vocab = self.vocab[d]
        row = np.zeros(len(vocab), dtype=bool)
        row[[vocab[v] for v in values if v in vocab]] = True
        return row

    def encode(self, predicates: Sequence[Predicate],
               members: bool = False) -> _Boxes:
        n = len(predicates)
        n_cont = len(self.continuous)
        lo = np.full((n, n_cont), -np.inf)
        hi = np.full((n, n_cont), np.inf)
        include_hi = np.ones((n, n_cont), dtype=bool)
        signature = np.empty(n, dtype=np.int64)
        set_ids = np.full((n, len(self.discrete)), -1, dtype=np.int64)
        memberships = ([np.ones((n, len(vocab)), dtype=bool)
                        for vocab in self.vocab] if members else None)
        for i, predicate in enumerate(predicates):
            signature[i] = self._signatures.setdefault(
                predicate.attributes, len(self._signatures))
            for clause in predicate:
                name = clause.attribute
                if isinstance(clause, RangeClause) and name in self._column:
                    j = self._column[name]
                    lo[i, j] = clause.lo
                    hi[i, j] = clause.hi
                    include_hi[i, j] = clause.include_hi
                elif isinstance(clause, SetClause) and name in self._slot:
                    d = self._slot[name]
                    ids = self._set_ids[d]
                    set_ids[i, d] = ids.setdefault(clause.values, len(ids))
                    if memberships is not None:
                        memberships[d][i] = self.membership(d, clause.values)
                else:
                    raise PartitionerError(
                        f"Merger input clause {clause} does not match the "
                        "domain's attribute kinds")
        return _Boxes(lo, hi, include_hi, signature, set_ids, memberships)


#: Merges per pass of the batched estimate kernel.
_ESTIMATE_BLOCK = 256


class _ApproxIndex:
    """Vectorized geometry for the cached-state approximation.

    Packs every candidate partition's box into numpy arrays.
    :meth:`estimate_batch` estimates a whole round of merges at once;
    :meth:`overlap_shares` (one predicate at a time) and
    :meth:`Merger._approximate` are the scalar reference it is tested
    against.
    """

    def __init__(self, candidates: list[CandidatePredicate], domain: Domain,
                 scorer: InfluenceScorer, codec: _BoxCodec | None = None):
        self.domain = domain
        self.scorer = scorer
        self.continuous = [a for a in domain if a.is_continuous]
        self.discrete = [a for a in domain if not a.is_continuous]
        n = len(candidates)
        self.los = np.empty((n, len(self.continuous)))
        self.his = np.empty((n, len(self.continuous)))
        self.sets: list[list[frozenset]] = []
        for i, candidate in enumerate(candidates):
            row_sets = []
            for j, attr in enumerate(self.continuous):
                clause = candidate.predicate.clause_for(attr.name)
                if isinstance(clause, RangeClause):
                    self.los[i, j] = clause.lo
                    self.his[i, j] = clause.hi
                else:
                    self.los[i, j] = attr.lo
                    self.his[i, j] = attr.hi
            for attr in self.discrete:
                clause = candidate.predicate.clause_for(attr.name)
                if isinstance(clause, SetClause):
                    row_sets.append(clause.values)
                else:
                    row_sets.append(frozenset(attr.values))
            self.sets.append(row_sets)
        self.widths = np.maximum(self.his - self.los, 0.0)

        # Candidate × value membership per discrete attribute, so a
        # merge's value-set overlap with every candidate is one product.
        self.codec = codec or _BoxCodec(domain, (c.predicate for c in candidates))
        self.members = [
            np.asarray([self.codec.membership(d, row_sets[d])
                        for row_sets in self.sets],
                       dtype=np.float64).reshape(n, len(self.codec.vocab[d]))
            for d in range(len(self.discrete))]
        self.set_sizes = [
            np.asarray([len(row_sets[d]) for row_sets in self.sets],
                       dtype=np.float64)
            for d in range(len(self.discrete))]

        contexts = scorer.outlier_contexts
        self.group_keys = [ctx.key for ctx in contexts]
        key_index = {key: g for g, key in enumerate(self.group_keys)}
        self.counts = np.zeros((n, len(self.group_keys)))
        state_size = (contexts[0].total_state.shape[0]
                      if contexts[0].total_state is not None else 0)
        self.states = np.zeros((n, len(self.group_keys), state_size))
        for i, candidate in enumerate(candidates):
            if not candidate.group_stats:
                continue
            for key, stats in candidate.group_stats.items():
                g = key_index.get(key)
                if g is None:
                    continue
                self.counts[i, g] = stats.count
                if stats.state_sum is not None:
                    self.states[i, g] = stats.state_sum

        #: Counts and flattened states side by side, so one contraction
        #: yields both.
        self.removal = np.concatenate(
            [self.counts, self.states.reshape(n, -1)], axis=1)

    def overlap_shares(self, predicate: Predicate) -> np.ndarray:
        """Fraction of each candidate box lying inside ``predicate``."""
        n = len(self.los)
        shares = np.ones(n)
        for j, attr in enumerate(self.continuous):
            clause = predicate.clause_for(attr.name)
            if clause is None:
                continue
            assert isinstance(clause, RangeClause)
            overlap = (np.minimum(self.his[:, j], clause.hi)
                       - np.maximum(self.los[:, j], clause.lo))
            overlap = np.clip(overlap, 0.0, None)
            with np.errstate(divide="ignore", invalid="ignore"):
                fraction = overlap / self.widths[:, j]
            # Zero-width candidate boxes: inside iff the point overlaps.
            point_inside = ((self.los[:, j] >= clause.lo)
                            & (self.los[:, j] <= clause.hi))
            fraction = np.where(self.widths[:, j] > 0, fraction,
                                point_inside.astype(float))
            shares *= fraction
        for d_index, attr in enumerate(self.discrete):
            clause = predicate.clause_for(attr.name)
            if clause is None:
                continue
            assert isinstance(clause, SetClause)
            for i in range(n):
                if shares[i] == 0.0:
                    continue
                candidate_values = self.sets[i][d_index]
                shares[i] *= (len(candidate_values & clause.values)
                              / len(candidate_values))
        return shares

    def overlap_shares_batch(self, lo: np.ndarray, hi: np.ndarray,
                             members: list[np.ndarray]) -> np.ndarray:
        """``(m, n_candidates)`` overlap shares of ``m`` boxes, given as
        lo/hi bound rows plus per-discrete-attribute value memberships.

        Same per-element arithmetic, in the same order, as
        :meth:`overlap_shares`; an unconstrained attribute (infinite
        bounds, all-true membership) multiplies by exactly 1.
        """
        shares = np.ones((len(lo), len(self.los)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(len(self.continuous)):
                q_lo = lo[:, j, np.newaxis]
                q_hi = hi[:, j, np.newaxis]
                overlap = np.clip(np.minimum(self.his[:, j], q_hi)
                                  - np.maximum(self.los[:, j], q_lo), 0.0, None)
                point_inside = ((self.los[:, j] >= q_lo)
                                & (self.los[:, j] <= q_hi))
                shares *= np.where(self.widths[:, j] > 0,
                                   overlap / self.widths[:, j], point_inside)
            for d, member in enumerate(members):
                shared = member.astype(np.float64) @ self.members[d].T
                shares *= shared / self.set_sizes[d]
        return shares

    def estimate_batch(self, lo: np.ndarray, hi: np.ndarray,
                       members: list[np.ndarray]) -> np.ndarray:
        """Section 6.3 influence estimates of ``m`` merged boxes at once
        (the batched form of :meth:`Merger._approximate`).

        Rows go through in blocks of :data:`_ESTIMATE_BLOCK`, which
        bounds the ``(rows, candidates)`` temporaries; every row's value
        depends on that row alone, so the blocking changes no bit.
        """
        return np.concatenate([
            self._estimate_rows(lo[start:start + _ESTIMATE_BLOCK],
                                hi[start:start + _ESTIMATE_BLOCK],
                                [member[start:start + _ESTIMATE_BLOCK]
                                 for member in members])
            for start in range(0, len(lo), _ESTIMATE_BLOCK)] or [np.empty(0)])

    def _estimate_rows(self, lo: np.ndarray, hi: np.ndarray,
                       members: list[np.ndarray]) -> np.ndarray:
        scorer = self.scorer
        contexts = scorer.outlier_contexts
        shares = self.overlap_shares_batch(lo, hi, members)
        n, n_groups, k = self.states.shape
        # einsum sums each output row in candidate order from that row
        # alone, so a box estimates to the same bits in any round and
        # batch; a BLAS product's blocking can move the last bit with
        # the batch shape, which would let a merge that changes nothing
        # look like a gain.
        removed = np.einsum("mi,ij->mj", shares, self.removal)
        removed_counts = removed[:, :n_groups]                  # (m, G)
        removed_states = removed[:, n_groups:].reshape(len(shares),
                                                       n_groups, k)
        total_states = np.stack([ctx.total_state for ctx in contexts])
        remaining = total_states - removed_states
        if scorer.perturbation == "mean":
            mean_states = np.stack([ctx.mean_state for ctx in contexts])
            remaining = remaining + removed_counts[:, :, np.newaxis] * mean_states
        with np.errstate(all="ignore"):
            updated = scorer.aggregate.recover_batch(
                remaining.reshape(-1, k)).reshape(removed_counts.shape)
            if scorer.perturbation != "mean":
                # Delete mode emptying a group: the aggregate's empty
                # value, or undefined.
                empty = scorer.aggregate.empty_value
                updated[remaining[:, :, -1] < 0.5] = (
                    np.nan if empty is None else empty)
            total_values = np.asarray([ctx.total_value for ctx in contexts])
            error_vectors = np.asarray([ctx.error_vector for ctx in contexts])
            terms = ((total_values - updated) / removed_counts ** scorer.c
                     * error_vectors)
        counted = ~(removed_counts < 0.5)
        total = np.zeros(len(shares))
        for g in range(n_groups):
            total += np.where(counted[:, g], terms[:, g], 0.0)
        estimates = scorer.lam * total / max(n_groups, 1)
        estimates[np.any(counted & np.isnan(updated), axis=1)] = INVALID_INFLUENCE
        return estimates


@dataclass
class _Expansion:
    """One start's greedy-expansion state inside the lockstep loop."""

    current: Predicate
    #: ``current`` encoded by the run's :class:`_BoxCodec`.
    box: _Boxes
    #: Exact influence of ``current`` (adoption baseline).
    exact: float
    #: Estimated influence of ``current`` (scan baseline).
    estimate: float
    #: Candidates already absorbed (never re-merged), by ranked position.
    absorbed: np.ndarray
    #: Neighbourhood scans performed (capped at ``max_rounds``).
    scans: int = 0
    active: bool = True


@dataclass
class MergerParams:
    """Tuning knobs of the Merger."""

    #: Fraction of candidates (by internal score) that get expanded;
    #: 1.0 = the basic Section 4.3 merger, 0.25 = the Section 6.3
    #: top-quartile optimization.
    expand_fraction: float = 0.25
    #: Use the cached-state influence approximation inside the expansion
    #: loop when the aggregate supports it.
    use_approximation: bool = True
    #: Stop an expansion after this many successful merges.
    max_rounds: int = 32
    #: Evaluate at most this many adjacent neighbours per round.
    max_neighbors: int = 64


@dataclass
class MergerReport:
    """What a merge pass did (benchmarks and the ``merge`` span read
    this)."""

    n_expanded: int = 0
    n_merge_evaluations: int = 0
    n_scorer_calls_saved: int = 0
    elapsed: float = 0.0
    #: Section 6.3 approximation error |estimate − exact| over every
    #: adoption verified by exact scoring (approximate runs only; with
    #: the approximation off the estimates are exact).
    estimate_gap_count: int = 0
    estimate_gap_max: float = 0.0
    estimate_gap_sum: float = 0.0

    @property
    def estimate_gap_mean(self) -> float:
        if not self.estimate_gap_count:
            return 0.0
        return self.estimate_gap_sum / self.estimate_gap_count

    def record_gap(self, estimate: float, exact: float) -> None:
        gap = abs(estimate - exact)
        self.estimate_gap_count += 1
        self.estimate_gap_max = max(self.estimate_gap_max, gap)
        self.estimate_gap_sum += gap


class Merger:
    """Greedy adjacent-merge coarsening with optional approximations."""

    def __init__(self, scorer: InfluenceScorer, domain: Domain,
                 params: MergerParams | None = None, **overrides):
        params = params or MergerParams()
        for key, value in overrides.items():
            if not hasattr(params, key):
                raise PartitionerError(f"unknown Merger parameter {key!r}")
            setattr(params, key, value)
        if not 0 < params.expand_fraction <= 1:
            raise PartitionerError("expand_fraction must be in (0, 1]")
        self.scorer = scorer
        self.domain = domain
        self.params = params
        self.report = MergerReport()
        self._approx_ready = (
            params.use_approximation
            and scorer.uses_incremental
            and scorer.outlier_contexts[0].total_state is not None
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, candidates: list[CandidatePredicate],
            seeds: list[Predicate] | None = None) -> list[ScoredPredicate]:
        """Expand candidates and return deduped results, best first.

        ``seeds`` optionally overrides the expansion starting points
        (the Section 8.3.3 warm start: resume from a previous, higher-``c``
        merge result instead of from raw partitions).
        """
        start = time.perf_counter()
        self.report = MergerReport()
        if not candidates and not seeds:
            return []
        ranked = sorted(candidates, key=lambda c: c.score, reverse=True)
        if seeds is None:
            n_expand = max(1, int(np.ceil(len(ranked) * self.params.expand_fraction)))
            expansion_starts = [c.predicate for c in ranked[:n_expand]]
        else:
            expansion_starts = list(seeds)
        self._codec = _BoxCodec(
            self.domain, [c.predicate for c in ranked] + expansion_starts)
        self._index = None
        if self._approx_ready and any(c.group_stats for c in ranked):
            self._index = _ApproxIndex(ranked, self.domain, self.scorer,
                                       self._codec)
        if expansion_starts:
            # Declare the single-range starts to the prefix-aggregate
            # index: they (and the merges they grow through) are the
            # index fast path's shape.
            self.scorer.prepare_index({
                predicate.clauses[0].attribute
                for predicate in expansion_starts
                if predicate.num_clauses == 1
                and isinstance(predicate.clauses[0], RangeClause)
            })
        # _expand_lockstep opens by batch-scoring every start (and every
        # adoption downstream), so with caching on the scalar record()
        # calls below are all cache hits — no separate warm-up needed.
        expanded_by_start = self._expand_lockstep(expansion_starts, ranked)
        results: dict[Predicate, float] = {}

        def record(predicate: Predicate) -> None:
            if predicate not in results:
                results[predicate] = self.scorer.score(predicate)

        for predicate, expanded in zip(expansion_starts, expanded_by_start):
            record(expanded)
            # The start partition itself stays in the ranking: expansion
            # decisions are estimate-driven and an over-eager merge must
            # not erase its exactly-scored origin.
            record(predicate)
            self.report.n_expanded += 1
        scored = [ScoredPredicate(p, inf) for p, inf in results.items()
                  if np.isfinite(inf)]
        scored.sort(key=lambda sp: sp.influence, reverse=True)
        self.report.elapsed = time.perf_counter() - start
        return scored

    # ------------------------------------------------------------------
    # Expansion loop
    # ------------------------------------------------------------------
    def _expand_lockstep(self, starts: list[Predicate],
                         candidates: list[CandidatePredicate],
                         ) -> list[Predicate]:
        """Greedily grow every start while its influence increases,
        advancing all starts one round at a time.

        Candidate merges are ranked with :meth:`_estimate_merges` (cheap,
        possibly approximate); each round's *adoptions* — the best merge
        of each still-active start — are then verified with one exact
        :meth:`InfluenceScorer.score_batch` call, so approximation drift
        cannot walk an expansion past its best point and the per-round
        verification cost batches (and parallelizes) across starts.  The
        per-round candidate scans — the cost the Section 6.3
        approximation exists to cut — stay estimate-only.

        Per start, the scan/accept/reject sequence is exactly the scalar
        greedy loop's: at most ``max_rounds`` scans, the first
        ``max_neighbors`` adjacent unabsorbed candidates in ranking
        order, stop when no adjacent merge improves the estimate, adopt
        only when the exact score improves.  Returns the expanded
        predicate of each start, aligned with ``starts``.
        """
        if not starts:
            return []
        codec = self._codec
        with_members = self._index is not None
        boxes = codec.encode([c.predicate for c in candidates], with_members)
        positions: dict[Predicate, list[int]] = {}
        for i, candidate in enumerate(candidates):
            positions.setdefault(candidate.predicate, []).append(i)
        start_exacts = self.scorer.score_batch(starts)
        start_estimates = self._estimate(starts)
        states = []
        for predicate, exact, estimate in zip(starts, start_exacts,
                                              start_estimates):
            absorbed = np.zeros(len(candidates), dtype=bool)
            absorbed[positions.get(predicate, [])] = True
            states.append(_Expansion(
                current=predicate, box=codec.encode([predicate], with_members),
                exact=float(exact), estimate=float(estimate),
                absorbed=absorbed))
        round_no = 0
        while True:
            round_no += 1
            with span("merge_round") as rsp:
                scans: list[tuple[_Expansion, np.ndarray]] = []
                for state in states:
                    if not state.active:
                        continue
                    if state.scans >= self.params.max_rounds:
                        state.active = False
                        continue
                    state.scans += 1
                    neighbors = np.flatnonzero(
                        boxes.adjacent_to(state.box) & ~state.absorbed,
                    )[:self.params.max_neighbors]
                    if not len(neighbors):
                        state.active = False
                        continue
                    scans.append((state, neighbors))
                with span("merge_estimate") as esp:
                    estimates_by_scan = self._estimate_merges(
                        scans, candidates, boxes)
                    if esp:
                        esp.annotate(starts=len(scans), merges=sum(
                            len(neighbors) for _, neighbors in scans))
                proposals: list[tuple[_Expansion, Predicate, Predicate,
                                      float]] = []
                for (state, neighbors), estimates in zip(scans,
                                                         estimates_by_scan):
                    self.report.n_merge_evaluations += len(neighbors)
                    best = int(np.argmax(estimates))
                    estimate = float(estimates[best])
                    if not estimate > state.estimate:
                        state.active = False
                        continue
                    member = candidates[neighbors[best]].predicate
                    proposals.append((state, state.current.merge(member),
                                      member, estimate))
                if rsp:
                    rsp.annotate(round=round_no, proposals=len(proposals))
                if not proposals:
                    break
                with span("merge_verify"):
                    exacts = self.scorer.score_batch(
                        [merged for _, merged, _, _ in proposals])
                adopted = 0
                for (state, merged, member, estimate), exact in zip(proposals,
                                                                    exacts):
                    if float(exact) <= state.exact:
                        state.active = False
                        continue
                    if self._index is not None:
                        self.report.record_gap(estimate, float(exact))
                    state.current = merged
                    state.box = codec.encode([merged], with_members)
                    state.estimate = estimate
                    state.exact = float(exact)
                    state.absorbed[positions[member]] = True
                    adopted += 1
                if rsp:
                    rsp.annotate(adopted=adopted)
        return [state.current for state in states]

    # ------------------------------------------------------------------
    # Influence estimation
    # ------------------------------------------------------------------
    def _estimate(self, predicates: list[Predicate]) -> np.ndarray:
        """Scan baselines of the expansion starts."""
        if self._index is None:
            return np.asarray([self.scorer.score(p) for p in predicates],
                              dtype=np.float64)
        self.report.n_scorer_calls_saved += len(predicates)
        boxes = self._codec.encode(predicates, members=True)
        return self._index.estimate_batch(boxes.lo, boxes.hi, boxes.members)

    def _estimate_merges(self, scans: list[tuple[_Expansion, np.ndarray]],
                         candidates: list[CandidatePredicate],
                         boxes: _Boxes) -> list[np.ndarray]:
        """One expansion round's candidate-merge influences, one array
        per scan.  Without the cached-state index every merge needs an
        exact score — batched per start through the Scorer's vectorized
        path; with it, all starts' merged boxes go through one
        :meth:`_ApproxIndex.estimate_batch` call and no merged
        :class:`Predicate` is built."""
        if self._index is None:
            return [self.scorer.score_batch(
                        [state.current.merge(candidates[j].predicate)
                         for j in neighbors])
                    for state, neighbors in scans]
        if not scans:
            return []
        merged = [boxes.merged_with(neighbors, state.box)
                  for state, neighbors in scans]
        lo = np.concatenate([m[0] for m in merged])
        hi = np.concatenate([m[1] for m in merged])
        members = [np.concatenate([m[2][d] for m in merged])
                   for d in range(len(self._codec.discrete))]
        self.report.n_scorer_calls_saved += len(lo)
        estimates = self._index.estimate_batch(lo, hi, members)
        bounds = np.cumsum([len(neighbors) for _, neighbors in scans])[:-1]
        return np.split(estimates, bounds)

    def _approximate(self, predicate: Predicate) -> float:
        """Cached-state influence estimate (Section 6.3) of one predicate
        — the scalar reference :meth:`_ApproxIndex.estimate_batch` is
        tested against.

        Every partition intersecting ``predicate`` contributes the volume
        fraction of its rows (and of its summed state) that falls inside;
        Δ is recovered from the group state with that contribution
        removed.  Hold-out terms are unknown at this level and treated as
        zero — the final expanded predicate is always scored exactly.
        """
        index = self._index
        assert index is not None
        shares = index.overlap_shares(predicate)
        removed_counts = shares @ index.counts           # (n_groups,)
        removed_states = np.einsum("i,igk->gk", shares, index.states)
        total = 0.0
        for g, context in enumerate(self.scorer.outlier_contexts):
            count = removed_counts[g]
            if count < 0.5:
                continue
            updated = self.scorer.updated_from_removed(
                context, removed_states[g], count)
            if np.isnan(updated):
                return INVALID_INFLUENCE
            delta = context.total_value - updated
            total += delta / (count ** self.scorer.c) * context.error_vector
        return self.scorer.lam * total / max(len(self.scorer.outlier_contexts), 1)
