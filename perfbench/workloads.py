"""The benchmark's four workloads.

Every workload is closed-loop with one client.  A *pass* is the
workload's fixed request sequence; a run repeats passes until its time
is up.  Each request has a key naming its golden answer and is either
*cold* (it builds its problem image from scratch) or *warm* (it reuses
a resident one).

Inputs come from ``repro.datasets``.  The seed changes inputs only
where that leaves the amount of work unchanged:

* ``mc-expenses`` and ``naive-synth2d`` permute the physical row order
  of the generated table (MC and NAIVE answers do not depend on it);
* ``session-intel`` orders its selections by the seed;
* ``dt-synth3d`` ignores it: DT samples rows by position, so a row
  permutation changes its tree and its cost (1.3-3.3 s measured across
  five permutations), which would swamp any change to a layer.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.naive import NaivePartitioner
from repro.core.problem import ScorpionQuery
from repro.core.scorpion import Scorpion
from repro.datasets import ExpensesConfig, generate_expenses, make_intel, make_synth
from repro.eval.metrics import score_predicate
from repro.service import ExplainService

#: Generator seed of every workload's dataset instance.
DATA_SEED = 0


class Request(NamedTuple):
    """One request: its golden's key and whether it builds its problem."""

    key: str
    cold: bool


class _OneShot:
    """One ``Scorpion.explain`` per request with a fresh ``Scorpion``, so
    nothing is reused between requests."""

    workers = 1
    sequence = [Request("explain", True)]

    def begin_pass(self) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def close(self) -> None:
        pass

    def check(self, request: Request, result) -> list[str]:
        return []

    def f_score(self, request: Request, result) -> float:
        stats = score_predicate(result.best.predicate, self.truth_table,
                                self.truth_mask, self.outlier_rows)
        return stats.f_score


def _row_permutation(n_rows: int, seed: int) -> np.ndarray:
    return np.random.default_rng(abs(seed)).permutation(n_rows)


class DTSynth3D(_OneShot):
    """SYNTH-3D-Hard, 2000 tuples/group, c = 0.2, DT + Merger, serial."""

    name = "dt-synth3d"

    def __init__(self, seed: int):
        data = make_synth(3, "hard", tuples_per_group=2000, seed=DATA_SEED)
        self.problem = data.scorpion_query(c=0.2)
        self.truth_table = data.table
        self.truth_mask = data.truth_outer()
        self.outlier_rows = data.outlier_row_indices()

    def execute(self, request: Request):
        return Scorpion(algorithm="dt").explain(self.problem)


class MCExpenses(_OneShot):
    """Generated EXPENSES (SUM by day, 7 outlier / 27 hold-out days), MC,
    serial."""

    name = "mc-expenses"

    def __init__(self, seed: int):
        data = generate_expenses(ExpensesConfig(seed=DATA_SEED))
        perm = _row_permutation(len(data.table), seed)
        table = data.table.take(perm)
        query = data.query()
        self.problem = ScorpionQuery(
            table, query, data.outlier_keys, holdouts=data.holdout_keys,
            error_vectors=+1.0, lam=0.5, c=0.5, ignore=("candidate",))
        obama = table.column("candidate").membership_mask(["Obama"])
        self.truth_table = query.filtered(table)
        self.truth_mask = data.truth_mask[perm][obama]
        self.outlier_rows = np.flatnonzero(
            self.truth_table.column("date").membership_mask(data.outlier_keys))

    def execute(self, request: Request):
        return Scorpion(algorithm="mc").explain(self.problem)


#: The whole SYNTH-2D predicate grid NAIVE enumerates at its defaults.
NAIVE_SPACE = 14640


class _RecordingNaive(NaivePartitioner):
    """NAIVE that keeps its last :class:`PartitionerResult`, so the
    benchmark can see ``truncated`` and ``n_evaluated``."""

    last = None

    def run(self, query, scorer=None):
        self.last = super().run(query, scorer)
        return self.last


class NaiveSynth2D(_OneShot):
    """Exhaustive NAIVE over SYNTH-2D-Hard, fixed work, two workers."""

    name = "naive-synth2d"
    workers = 2

    def __init__(self, seed: int):
        data = make_synth(2, "hard", tuples_per_group=2000, seed=DATA_SEED)
        perm = _row_permutation(len(data.table), seed)
        table = data.table.take(perm)
        self.problem = ScorpionQuery(
            table, data.query(), data.outlier_keys,
            holdouts=data.holdout_keys, error_vectors=+1.0, lam=0.5, c=0.2)
        self.truth_table = table
        self.truth_mask = data.truth_outer()[perm]
        self.outlier_rows = np.flatnonzero(
            table.column("ad").membership_mask(data.outlier_keys))
        self._partitioner = None

    def execute(self, request: Request):
        # An evaluation budget above the space size and no clock budget:
        # the search always covers the whole grid.
        self._partitioner = _RecordingNaive(
            time_budget=None, max_evaluations=NAIVE_SPACE + 5000)
        return Scorpion(partitioner=self._partitioner).explain(self.problem)

    def check(self, request: Request, result) -> list[str]:
        last = self._partitioner.last
        problems = []
        if last.truncated:
            problems.append("NAIVE search truncated")
        if last.n_evaluated != NAIVE_SPACE:
            problems.append(f"NAIVE evaluated {last.n_evaluated} predicates, "
                            f"expected {NAIVE_SPACE}")
        return problems


#: Slider positions: the cold request, the sweep down, the second pass.
COLD_C = 1.0
SWEEP_DOWN = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)
SWEEP_UP = (0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)
SELECTION_HOURS = 6
INTEL_ATTRIBUTES = ("sensorid", "voltage", "humidity", "light")


class SessionIntel:
    """A resident ``ExplainService`` on INTEL workload 2 (stddev, so DT).

    One pass: every selection of 6 consecutive outlier hours (23 of
    them, in a seeded order) gets a cold request at c = 1.0 and an
    8-step sweep down; a second round revisits every selection in another
    seeded order with a 7-step sweep up.  368 requests, 23 cold.  Each
    pass starts a fresh service, so every pass has the same cold share.
    """

    name = "session-intel"
    workers = 1

    def __init__(self, seed: int):
        data = make_intel(2, seed=DATA_SEED)
        self.table = data.table
        self.query = data.query()
        self.holdouts = list(data.holdout_keys)
        outliers = list(data.outlier_keys)
        self.selections = [outliers[i:i + SELECTION_HOURS]
                           for i in range(0, len(outliers), SELECTION_HOURS)]
        hours = self.table.column("hour")
        self._outlier_rows = [np.flatnonzero(hours.membership_mask(sel))
                              for sel in self.selections]
        self._failure_mask = data.failure_mask
        rng = np.random.default_rng(abs(seed))
        first = rng.permutation(len(self.selections))
        second = rng.permutation(len(self.selections))
        self._params: dict[str, tuple[int, float]] = {}
        self.sequence = []
        for index in first:
            self._add(index, COLD_C, True)
            for c in SWEEP_DOWN:
                self._add(index, c, False)
        for index in second:
            for c in SWEEP_UP:
                self._add(index, c, False)
        self.service = None
        self.cached_bytes = 0

    def _add(self, index: int, c: float, cold: bool) -> None:
        key = f"s{index:02d}@{c:g}"
        self._params[key] = (int(index), c)
        self.sequence.append(Request(key, cold))

    def begin_pass(self) -> None:
        self.service = ExplainService()

    def end_pass(self) -> None:
        self.cached_bytes = max(self.cached_bytes, self.service.cached_bytes)
        self.service.close()
        self.service = None

    def close(self) -> None:
        if self.service is not None:
            self.end_pass()

    def execute(self, request: Request):
        index, c = self._params[request.key]
        return self.service.explain_request(
            self.table, self.query, self.selections[index],
            holdouts=self.holdouts, error_vectors=+1.0, c=c,
            attributes=INTEL_ATTRIBUTES)

    def check(self, request: Request, result) -> list[str]:
        if result.scorer_stats.get("service_cache_hit") == request.cold:
            return [f"{request.key}: expected a cache "
                    f"{'miss' if request.cold else 'hit'}"]
        return []

    def f_score(self, request: Request, result) -> float:
        index, _ = self._params[request.key]
        stats = score_predicate(result.best.predicate, self.table,
                                self._failure_mask, self._outlier_rows[index])
        return stats.f_score


WORKLOADS = {cls.name: cls for cls in (DTSynth3D, MCExpenses, NaiveSynth2D,
                                       SessionIntel)}

#: ``scorer_stats`` counters that must repeat exactly for a request.
WORK_COUNTERS = (
    "predicate_scores", "mask_scores", "batch_calls", "batch_predicates",
    "indexed_predicates", "masked_predicates", "conjunction_fallbacks",
    "index_builds", "parallel_batches", "parallel_shards",
    "dtcache_partition_hits", "dtcache_partition_misses",
    "service_cache_hit",
)


def work_signature(result) -> dict:
    """The request's work counters plus its candidate count."""
    stats = result.scorer_stats
    signature = {key: stats[key] for key in WORK_COUNTERS if key in stats}
    signature["candidates"] = result.n_candidates
    signature["algorithm"] = result.algorithm
    return signature


def answer_of(result) -> list:
    """The top explanation as [predicate text, influence]."""
    best = result.best
    if best is None:
        return [None, None]
    return [str(best.predicate), best.influence]
