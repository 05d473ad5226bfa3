"""Unit tests for the Merger (paper Sections 4.3 and 6.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import Avg, StdDev, Sum
from repro.core.dt import DTPartitioner
from repro.core.influence import INVALID_INFLUENCE, InfluenceScorer
from repro.core.merger import Merger, MergerParams, _ApproxIndex, _BoxCodec
from repro.core.partition import CandidatePredicate, GroupRemovalStats
from repro.errors import PartitionerError
from repro.predicates.clause import RangeClause, SetClause
from repro.predicates.predicate import Predicate

from tests.test_dt import avg_problem


def dt_candidates(problem, scorer):
    return DTPartitioner(seed=1).run(problem, scorer).candidates


class TestBasicMerging:
    def test_merges_fragments_into_planted_region(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0,
                                            use_approximation=False))
        merged = merger.run(candidates)
        assert merged
        best = merged[0]
        clause = best.predicate.clause_for("x")
        assert clause is not None and clause.lo <= 45 and clause.hi >= 55

    def test_merged_influence_at_least_best_candidate(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0))
        merged = merger.run(candidates)
        best_candidate_influence = max(
            scorer.score(c.predicate) for c in candidates)
        assert merged[0].influence >= best_candidate_influence - 1e-9

    def test_results_sorted_and_deduped(self):
        problem = avg_problem(n_per_group=200)
        scorer = InfluenceScorer(problem)
        merged = Merger(scorer, problem.domain).run(dt_candidates(problem, scorer))
        influences = [sp.influence for sp in merged]
        assert influences == sorted(influences, reverse=True)
        predicates = [sp.predicate for sp in merged]
        assert len(predicates) == len(set(predicates))

    def test_empty_input(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        assert Merger(scorer, problem.domain).run([]) == []

    def test_unknown_param_rejected(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, nope=3)

    def test_bad_expand_fraction_rejected(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem)
        with pytest.raises(PartitionerError):
            Merger(scorer, problem.domain, expand_fraction=0.0)


class TestQuartileOptimization:
    def test_expands_fewer_candidates(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        full = Merger(scorer, problem.domain,
                      params=MergerParams(expand_fraction=1.0))
        quart = Merger(scorer, problem.domain,
                       params=MergerParams(expand_fraction=0.25))
        full.run(candidates)
        quart.run(candidates)
        assert quart.report.n_expanded < full.report.n_expanded
        assert quart.report.n_expanded >= int(np.ceil(len(candidates) * 0.25))


class TestApproximation:
    def test_saves_scorer_calls(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        approx = Merger(scorer, problem.domain,
                        params=MergerParams(use_approximation=True))
        approx.run(candidates)
        assert approx.report.n_scorer_calls_saved > 0

    def test_estimate_close_to_exact_on_whole_partitions(self):
        problem = avg_problem(n_per_group=400, with_holdouts=False)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        index = _ApproxIndex(candidates, problem.domain, scorer)
        merger = Merger(scorer, problem.domain)
        merger._index = index
        for candidate in candidates[:10]:
            exact = scorer.score(candidate.predicate, ignore_holdouts=True)
            estimate = merger._approximate(candidate.predicate)
            # A candidate's own stats are exact: estimate == exact score.
            assert estimate == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_overlap_shares_geometry(self):
        problem = avg_problem(n_per_group=100, with_holdouts=False)
        scorer = InfluenceScorer(problem)
        stats = {scorer.outlier_contexts[0].key: GroupRemovalStats(10.0)}
        candidates = [
            CandidatePredicate(
                Predicate([RangeClause("x", 0, 10), RangeClause("y", 0, 10)]),
                score=1.0, group_stats=stats, volume=0.01),
        ]
        index = _ApproxIndex(candidates, problem.domain, scorer)
        contained = Predicate([RangeClause("x", 0, 20), RangeClause("y", 0, 20)])
        assert index.overlap_shares(contained)[0] == pytest.approx(1.0)
        half = Predicate([RangeClause("x", 0, 5), RangeClause("y", 0, 10)])
        assert index.overlap_shares(half)[0] == pytest.approx(0.5)
        disjoint = Predicate([RangeClause("x", 50, 60), RangeClause("y", 0, 10)])
        assert index.overlap_shares(disjoint)[0] == 0.0

    def test_overlap_shares_discrete(self, sum_problem):
        # sum_problem's domain has the discrete rest attribute "state".
        from repro.core.influence import InfluenceScorer as Scorer
        scorer = Scorer(sum_problem)
        stats = {scorer.outlier_contexts[0].key: GroupRemovalStats(10.0)}
        candidates = [
            CandidatePredicate(
                Predicate([SetClause("state", ["TX", "CA"])]),
                score=1.0, group_stats=stats, volume=0.5),
        ]
        index = _ApproxIndex(candidates, sum_problem.domain, scorer)
        one = Predicate([SetClause("state", ["TX"])])
        assert index.overlap_shares(one)[0] == pytest.approx(0.5)
        both = Predicate([SetClause("state", ["TX", "CA", "NY"])])
        assert index.overlap_shares(both)[0] == pytest.approx(1.0)
        none = Predicate([SetClause("state", ["WA"])])
        assert index.overlap_shares(none)[0] == 0.0

    def test_disabled_for_black_box_inputs(self):
        problem = avg_problem(n_per_group=100)
        scorer = InfluenceScorer(problem, use_incremental=False)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(use_approximation=True))
        assert not merger._approx_ready


class TestAdoptionVerification:
    def test_expansion_never_ends_below_start(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain)
        merged = merger.run(candidates)
        for start in candidates[:5]:
            start_influence = scorer.score(start.predicate)
            assert merged[0].influence >= start_influence - 1e-9

    def test_adoptions_verified_through_batches(self):
        # A round's winning merges are exact-checked via one score_batch
        # call across expansion starts: no adoption check ever reaches
        # the scalar mask path (every scalar score() call downstream of
        # run() is a cache hit on a batch-computed value).
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(expand_fraction=1.0))
        before = scorer.stats.mask_scores
        batches_before = scorer.stats.batch_calls
        merged = merger.run(candidates)
        assert merged
        per_batch_mask_scores = (scorer.stats.mask_scores - before)
        # Scalar-path mask evaluations would show up as mask_scores not
        # attributable to batch chunks; with caching on there are none.
        assert scorer.stats.cache_hits > 0
        assert scorer.stats.batch_calls > batches_before
        assert per_batch_mask_scores == scorer.stats.masked_predicates

    def test_lockstep_equals_uncached_run(self):
        # Accept/reject decisions depend only on influence values, which
        # score_batch reproduces bit for bit — so a run without the memo
        # cache (every verification recomputed) lands on identical
        # predicates and influences.
        problem = avg_problem(n_per_group=300)
        cached_scorer = InfluenceScorer(problem)
        uncached_scorer = InfluenceScorer(problem, cache_scores=False)
        candidates = dt_candidates(problem, cached_scorer)
        params = MergerParams(expand_fraction=1.0, use_approximation=False)
        cached = Merger(cached_scorer, problem.domain, params=params).run(
            candidates)
        uncached = Merger(uncached_scorer, problem.domain, params=params).run(
            dt_candidates(problem, uncached_scorer))
        assert [sp.predicate for sp in cached] == \
            [sp.predicate for sp in uncached]
        assert [sp.influence for sp in cached] == \
            [sp.influence for sp in uncached]

    def test_parallel_scorer_preserves_merger_output(self):
        problem = avg_problem(n_per_group=300)
        serial_scorer = InfluenceScorer(problem)
        parallel_scorer = InfluenceScorer(problem, workers=2, batch_chunk=8)
        try:
            candidates = dt_candidates(problem, serial_scorer)
            params = MergerParams(expand_fraction=1.0)
            serial = Merger(serial_scorer, problem.domain, params=params).run(
                candidates)
            parallel = Merger(parallel_scorer, problem.domain,
                              params=params).run(
                dt_candidates(problem, parallel_scorer))
            assert [sp.predicate for sp in serial] == \
                [sp.predicate for sp in parallel]
            assert [sp.influence for sp in serial] == \
                [sp.influence for sp in parallel]
        finally:
            parallel_scorer.close()


class TestSeeds:
    def test_seeded_run_expands_seeds(self):
        problem = avg_problem(n_per_group=200)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        seed = [candidates[0].predicate]
        merger = Merger(scorer, problem.domain)
        merged = merger.run(candidates, seeds=seed)
        assert merger.report.n_expanded == 1
        assert merged


# ----------------------------------------------------------------------
# Batched Section 6.3 estimates vs the scalar reference
# ----------------------------------------------------------------------
def mixed_problem(aggregate, perturbation="delete", seed=0, n_per_group=150,
                  c=0.5):
    """Two continuous attributes (x, y) and one discrete (s); groups
    g0/g1 carry hot tuples in x ∈ [40, 60] with s = 'b'."""
    from repro.core.problem import ScorpionQuery
    from repro.query.groupby import GroupByQuery
    from repro.table import ColumnKind, ColumnSpec, Schema, Table

    rng = np.random.default_rng(seed)
    n = n_per_group * 4
    groups = np.repeat([f"g{i}" for i in range(4)], n_per_group)
    x = rng.uniform(0, 100, n)
    y = rng.uniform(0, 100, n)
    s = rng.choice(["a", "b", "c", "d"], n)
    value = rng.normal(10, 1, n)
    hot = np.isin(groups, ["g0", "g1"]) & (x >= 40) & (x <= 60) & (s == "b")
    value[hot] += 80.0
    table = Table.from_columns(
        Schema([ColumnSpec("g", ColumnKind.DISCRETE),
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("y", ColumnKind.CONTINUOUS),
                ColumnSpec("s", ColumnKind.DISCRETE),
                ColumnSpec("v", ColumnKind.CONTINUOUS)]),
        {"g": groups, "x": x, "y": y, "s": s, "v": value})
    return ScorpionQuery(table=table, query=GroupByQuery("g", aggregate, "v"),
                         outliers=["g0", "g1"], holdouts=["g2", "g3"],
                         error_vectors=+1.0, c=c, perturbation=perturbation)


def exact_candidates(problem, scorer, predicates):
    """Candidates whose removal statistics are exact row counts/states."""
    candidates = []
    for predicate in predicates:
        mask = predicate.mask(scorer.table)
        stats = {}
        for context in scorer.outlier_contexts:
            local = mask[context.indices]
            if local.any():
                stats[context.key] = GroupRemovalStats(
                    float(local.sum()), context.tuple_states[local].sum(axis=0))
        candidates.append(CandidatePredicate(
            predicate, score=float(len(candidates)), group_stats=stats,
            volume=problem.domain.volume_fraction(predicate)))
    return candidates


def grid_predicates(problem):
    """x × s grid cells, plus zero-width x boxes at observed values."""
    x_values = np.sort(problem.table.values("x"))
    edges = np.linspace(x_values[0], x_values[-1], 5)
    predicates = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        for value in ("a", "b", "c", "d"):
            predicates.append(Predicate([
                RangeClause("x", lo, hi, include_hi=hi == edges[-1]),
                SetClause("s", [value])]))
    for point in x_values[[3, 150, 400]]:
        predicates.append(Predicate([RangeClause("x", point, point),
                                     SetClause("s", ["a", "b"])]))
    return predicates


def merged_queries(candidates):
    """Every candidate, and every merge of a candidate with an adjacent
    one — the boxes an expansion round estimates."""
    queries = [c.predicate for c in candidates]
    for a in candidates:
        for b in candidates:
            if a is not b and a.predicate.is_adjacent_to(b.predicate):
                queries.append(a.predicate.merge(b.predicate))
    return queries


def assert_batch_matches_scalar(merger, queries):
    index = merger._index
    boxes = index.codec.encode(queries, members=True)
    shares = index.overlap_shares_batch(boxes.lo, boxes.hi, boxes.members)
    # Shares use the scalar path's per-element arithmetic: exact.
    assert np.array_equal(
        shares, np.asarray([index.overlap_shares(q) for q in queries]))
    batch = index.estimate_batch(boxes.lo, boxes.hi, boxes.members)
    scalar = np.asarray([merger._approximate(q) for q in queries])
    invalid = scalar == INVALID_INFLUENCE
    assert np.array_equal(batch == INVALID_INFLUENCE, invalid)
    scale = np.max(np.abs(scalar[~invalid]), initial=1.0)
    np.testing.assert_allclose(batch[~invalid], scalar[~invalid],
                               rtol=1e-12, atol=1e-12 * scale)
    # A box estimates to the same bits alone as inside any batch.
    for row in range(0, len(queries), 7):
        one = index.estimate_batch(boxes.lo[row:row + 1], boxes.hi[row:row + 1],
                                   [m[row:row + 1] for m in boxes.members])
        assert one[0] == batch[row]
    return batch


AGGREGATES = {"sum": Sum, "avg": Avg, "stddev": StdDev}


class TestBatchedEstimateOracle:
    @pytest.mark.parametrize("perturbation", ["delete", "mean"])
    @pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
    def test_dt_candidates(self, aggregate, perturbation):
        problem = mixed_problem(AGGREGATES[aggregate](), perturbation)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        assert any(isinstance(clause, SetClause)
                   for c in candidates for clause in c.predicate)
        merger = Merger(scorer, problem.domain)
        merger._index = _ApproxIndex(candidates, problem.domain, scorer)
        assert_batch_matches_scalar(merger, merged_queries(candidates))

    @pytest.mark.parametrize("perturbation", ["delete", "mean"])
    @pytest.mark.parametrize("aggregate", sorted(AGGREGATES))
    def test_grid_with_zero_width_boxes(self, aggregate, perturbation):
        problem = mixed_problem(AGGREGATES[aggregate](), perturbation,
                                c=0.3)
        scorer = InfluenceScorer(problem)
        candidates = exact_candidates(problem, scorer,
                                      grid_predicates(problem))
        merger = Merger(scorer, problem.domain)
        merger._index = _ApproxIndex(candidates, problem.domain, scorer)
        queries = merged_queries(candidates) + [
            Predicate([RangeClause("y", 10, 20)]),
            Predicate([SetClause("s", ["c"])]),
            problem.domain.full_predicate(),
        ]
        batch = assert_batch_matches_scalar(merger, queries)
        full = batch[-1]
        if aggregate == "sum" or perturbation == "mean":
            assert np.isfinite(full)
        else:
            # Deleting every outlier row leaves AVG/STDDEV undefined.
            assert full == INVALID_INFLUENCE

    def test_start_estimates_match_scalar(self):
        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        merger = Merger(scorer, problem.domain)
        merger.run(candidates)
        starts = [c.predicate for c in candidates[:8]]
        np.testing.assert_allclose(
            merger._estimate(starts),
            [merger._approximate(p) for p in starts], rtol=1e-12)


# ----------------------------------------------------------------------
# The vectorized expansion loop vs the per-pair scalar loop
# ----------------------------------------------------------------------
class ScalarReferenceMerger(Merger):
    """Reference expansion loop: per-pair ``is_adjacent_to`` /
    ``merge`` over the ranked candidates and one scalar
    ``_approximate`` per merge (or a per-start ``score_batch`` without
    the approximation), adoptions verified per round."""

    def _expand_lockstep(self, starts, candidates):
        if not starts:
            return []

        def estimate_all(predicates):
            if self._index is None:
                return self.scorer.score_batch(predicates)
            return np.asarray([self._approximate(p) for p in predicates])

        exacts = self.scorer.score_batch(starts)
        estimates = ([self.scorer.score(p) for p in starts]
                     if self._index is None
                     else [self._approximate(p) for p in starts])
        states = [{"current": p, "exact": float(x), "estimate": float(e),
                   "members": {p}, "scans": 0, "active": True}
                  for p, x, e in zip(starts, exacts, estimates)]
        while True:
            proposals = []
            for state in states:
                if not state["active"]:
                    continue
                if state["scans"] >= self.params.max_rounds:
                    state["active"] = False
                    continue
                state["scans"] += 1
                merges = []
                for other in candidates:
                    if other.predicate in state["members"]:
                        continue
                    if not state["current"].is_adjacent_to(other.predicate):
                        continue
                    if len(merges) == self.params.max_neighbors:
                        break
                    merges.append((state["current"].merge(other.predicate),
                                   other.predicate))
                if not merges:
                    state["active"] = False
                    continue
                values = estimate_all([m for m, _ in merges])
                self.report.n_merge_evaluations += len(merges)
                best = int(np.argmax(values))
                if not float(values[best]) > state["estimate"]:
                    state["active"] = False
                    continue
                proposals.append((state, *merges[best], float(values[best])))
            if not proposals:
                break
            verified = self.scorer.score_batch([p[1] for p in proposals])
            for (state, merged, member, estimate), exact in zip(proposals,
                                                                verified):
                if float(exact) <= state["exact"]:
                    state["active"] = False
                    continue
                state.update(current=merged, estimate=estimate,
                             exact=float(exact))
                state["members"].add(member)
        return [state["current"] for state in states]


def merger_fixtures():
    yield "avg", avg_problem(n_per_group=300), None
    yield "avg-c0", avg_problem(n_per_group=300, c=0.0), None
    for name in sorted(AGGREGATES):
        for perturbation in ("delete", "mean"):
            yield (f"{name}-{perturbation}",
                   mixed_problem(AGGREGATES[name](), perturbation), None)
    yield "avg-seeded", avg_problem(n_per_group=200), "seeds"


class TestVectorizedExpansionEqualsScalarLoop:
    @pytest.mark.parametrize("use_approximation", [True, False])
    @pytest.mark.parametrize("expand_fraction", [0.25, 1.0])
    def test_same_output_and_evaluations(self, use_approximation,
                                         expand_fraction):
        for name, problem, mode in merger_fixtures():
            scorer = InfluenceScorer(problem)
            candidates = dt_candidates(problem, scorer)
            seeds = ([c.predicate for c in candidates[:3]]
                     if mode == "seeds" else None)
            params = MergerParams(expand_fraction=expand_fraction,
                                  use_approximation=use_approximation)
            reference = ScalarReferenceMerger(scorer, problem.domain,
                                              params=MergerParams(**vars(params)))
            expected = reference.run(candidates, seeds=seeds)
            merger = Merger(scorer, problem.domain, params=params)
            got = merger.run(candidates, seeds=seeds)
            assert [(sp.predicate, sp.influence) for sp in got] == \
                [(sp.predicate, sp.influence) for sp in expected], name
            assert (merger.report.n_merge_evaluations
                    == reference.report.n_merge_evaluations), name
            assert merger.report.n_expanded == reference.report.n_expanded

    def test_small_neighbour_cap(self):
        problem = mixed_problem(Avg())
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        params = MergerParams(expand_fraction=1.0, max_neighbors=2,
                              max_rounds=3)
        reference = ScalarReferenceMerger(scorer, problem.domain,
                                          params=MergerParams(**vars(params)))
        merger = Merger(scorer, problem.domain, params=params)
        assert ([sp.predicate for sp in merger.run(candidates)]
                == [sp.predicate for sp in reference.run(candidates)])
        assert (merger.report.n_merge_evaluations
                == reference.report.n_merge_evaluations)


# ----------------------------------------------------------------------
# Array adjacency == Predicate.is_adjacent_to
# ----------------------------------------------------------------------
def _box_domain():
    from repro.predicates.space import AttributeDomain, Domain
    from repro.table.schema import ColumnKind
    return Domain([
        AttributeDomain("x", ColumnKind.CONTINUOUS, lo=0.0, hi=4.0),
        AttributeDomain("y", ColumnKind.CONTINUOUS, lo=0.0, hi=4.0),
        AttributeDomain("s", ColumnKind.DISCRETE, values=("a", "b", "c")),
        AttributeDomain("t", ColumnKind.DISCRETE, values=(1, 2)),
    ])


_ATTRIBUTE_SETS = [("x", "y", "s"), ("x", "s", "t"), ("x", "y", "s", "t"),
                   ("x",), ("s", "t")]


@st.composite
def boxes_over(draw, attributes):
    clauses = []
    for name in attributes:
        if name in ("x", "y"):
            # Bounds on a coarse grid, so equal and touching faces are
            # common.
            lo, hi = sorted(draw(st.lists(st.integers(0, 4), min_size=2,
                                          max_size=2)))
            include_hi = True if lo == hi else draw(st.booleans())
            clauses.append(RangeClause(name, lo, hi, include_hi))
        else:
            values = ("a", "b", "c") if name == "s" else (1, 2)
            clauses.append(SetClause(name, draw(st.sets(
                st.sampled_from(values), min_size=1))))
    return Predicate(clauses)


@st.composite
def adjacency_cases(draw):
    shared = draw(st.sampled_from(_ATTRIBUTE_SETS))
    candidates = []
    for _ in range(draw(st.integers(1, 12))):
        attributes = (shared if draw(st.integers(0, 4))
                      else draw(st.sampled_from(_ATTRIBUTE_SETS)))
        candidates.append(draw(boxes_over(attributes)))
    current = draw(boxes_over(shared))
    return current, candidates


class TestArrayAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(case=adjacency_cases())
    def test_mask_equals_is_adjacent_to(self, case):
        current, candidates = case
        codec = _BoxCodec(_box_domain(), candidates + [current])
        boxes = codec.encode(candidates, members=True)
        here = codec.encode([current], members=True)
        mask = boxes.adjacent_to(here)
        assert mask.tolist() == [current.is_adjacent_to(c)
                                 for c in candidates]
        # Merged geometry equals the encoded Predicate.merge.
        rows = np.flatnonzero(mask)
        if len(rows):
            lo, hi, members = boxes.merged_with(rows, here)
            merged = codec.encode([current.merge(candidates[r]) for r in rows],
                                  members=True)
            assert np.array_equal(lo, merged.lo)
            assert np.array_equal(hi, merged.hi)
            for got, want in zip(members, merged.members):
                assert np.array_equal(got, want)

    def test_one_vs_two_differing_discrete_clauses(self):
        codec = _BoxCodec(_box_domain(), [])
        current = Predicate([RangeClause("x", 0, 2), SetClause("s", ["a"]),
                             SetClause("t", [1])])
        candidates = [
            # one differing discrete clause, continuous equal: adjacent
            Predicate([RangeClause("x", 0, 2), SetClause("s", ["b"]),
                       SetClause("t", [1])]),
            # two differing discrete clauses: not adjacent
            Predicate([RangeClause("x", 0, 2), SetClause("s", ["b"]),
                       SetClause("t", [2])]),
            # discrete and continuous both differ: not adjacent
            Predicate([RangeClause("x", 2, 3), SetClause("s", ["b"]),
                       SetClause("t", [1])]),
            # only continuous differs, touching face: adjacent
            Predicate([RangeClause("x", 2, 3), SetClause("s", ["a"]),
                       SetClause("t", [1])]),
            # only the closedness of the top differs: a continuous diff
            Predicate([RangeClause("x", 0, 2, include_hi=False),
                       SetClause("s", ["b"]), SetClause("t", [1])]),
            # different attribute set
            Predicate([RangeClause("x", 0, 2), SetClause("s", ["a"])]),
        ]
        mask = codec.encode(candidates).adjacent_to(codec.encode([current]))
        assert mask.tolist() == [current.is_adjacent_to(c) for c in candidates]
        assert mask.tolist() == [True, False, False, True, False, False]

    def test_clause_kind_outside_domain_rejected(self):
        codec = _BoxCodec(_box_domain(), [])
        with pytest.raises(PartitionerError):
            codec.encode([Predicate([SetClause("x", [1.0])])])


# ----------------------------------------------------------------------
# Observability: estimate/verify spans and the estimate-vs-exact gap
# ----------------------------------------------------------------------
class TestMergerObservability:
    def test_spans_nest_in_rounds_and_gap_counts_adoptions(self):
        from repro.obs.trace import Tracer

        problem = avg_problem(n_per_group=300)
        scorer = InfluenceScorer(problem)
        candidates = dt_candidates(problem, scorer)
        params = MergerParams(expand_fraction=1.0)
        plain = Merger(scorer, problem.domain, params=params)
        expected = plain.run(candidates)
        tracer = Tracer().activate()
        try:
            traced = Merger(scorer, problem.domain, params=params)
            got = traced.run(candidates)
        finally:
            tracer.deactivate()
        # Tracing is invisible to the answer and the report.
        assert [(sp.predicate, sp.influence) for sp in got] == \
            [(sp.predicate, sp.influence) for sp in expected]
        counters = ("n_expanded", "n_merge_evaluations",
                    "n_scorer_calls_saved", "estimate_gap_count",
                    "estimate_gap_max", "estimate_gap_sum")
        assert ({k: getattr(traced.report, k) for k in counters}
                == {k: getattr(plain.report, k) for k in counters})

        spans = tracer.export()
        by_id = {sp["id"]: sp for sp in spans}
        rounds = [sp for sp in spans if sp["name"] == "merge_round"]
        estimates = [sp for sp in spans if sp["name"] == "merge_estimate"]
        verifies = [sp for sp in spans if sp["name"] == "merge_verify"]
        assert len(estimates) == len(rounds)
        assert all(by_id[sp["parent"]]["name"] == "merge_round"
                   for sp in estimates + verifies)
        assert sum(sp["attrs"]["merges"] for sp in estimates) == \
            traced.report.n_merge_evaluations
        # Every round with proposals verifies them once.
        assert len(verifies) == sum(
            1 for sp in rounds if sp["attrs"]["proposals"])
        adopted = sum(sp["attrs"].get("adopted", 0) for sp in rounds)
        report = traced.report
        assert adopted > 0
        assert report.estimate_gap_count == adopted
        assert report.estimate_gap_max >= report.estimate_gap_mean > 0.0
        assert report.estimate_gap_mean == pytest.approx(
            report.estimate_gap_sum / adopted)

    def test_no_gap_without_approximation(self):
        problem = avg_problem(n_per_group=200)
        scorer = InfluenceScorer(problem)
        merger = Merger(scorer, problem.domain,
                        params=MergerParams(use_approximation=False))
        merger.run(dt_candidates(problem, scorer))
        assert merger.report.n_merge_evaluations > 0
        assert merger.report.estimate_gap_count == 0
        assert merger.report.estimate_gap_mean == 0.0

    def test_explain_merge_span_reports_the_merger(self):
        from repro.core.scorpion import Scorpion

        result = Scorpion(algorithm="dt", use_cache=False,
                          trace=True).explain(avg_problem(n_per_group=300))
        spans = {sp["name"]: sp for sp in result.trace}
        assert {"merge_round", "merge_estimate", "merge_verify"} <= set(spans)
        attrs = spans["merge"]["attrs"]
        assert attrs["merge_evaluations"] > 0
        assert attrs["estimate_gaps"] > 0
        assert attrs["estimate_gap_max"] >= attrs["estimate_gap_mean"] > 0
