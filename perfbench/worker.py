"""One workload in one fresh process (started by ``run.py`` and
``selfcheck.py`` with the pinned environment).

Protocol on standard output: the line ``READY`` as soon as the warm-up
request has finished (the parent times set-up up to it), then one line
``RESULT <json>``.

Modes:

* ``setup``: stop after the warm-up request;
* ``measure``: untraced closed loop for ``--seconds``; end-to-end figures;
* ``trace``: the same loop, alternating untraced and traced passes;
  per-layer figures and the traced/untraced overhead;
* ``count``: one traced pass; per-request answers and work counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import sys
import time

from repro.obs.metrics import REGISTRY

import goldens
from layers import LayerTracer
from probe import Speed
from workloads import WORKLOADS, answer_of, work_signature


def children_cpu_seconds() -> float:
    """CPU of every child process that has ended, after waiting for the
    worker pools that requests shut down (they exit asynchronously)."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


#: Problem messages kept for the report.
MAX_PROBLEMS = 20


class Checker:
    """Checks each answer against the golden and each request's work
    counters against its first occurrence in this process."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.signatures: dict[str, dict] = {}
        self.f_scores: dict[str, float] = {}
        self.problems: list[str] = []

    def verify(self, request, result) -> bool:
        problems = list(self.workload.check(request, result))
        answer = answer_of(result)
        expected = self.golden.get(request.key)
        if expected is None:
            problems.append(f"{request.key}: no golden answer")
        elif not goldens.same_answer(answer, expected):
            problems.append(f"{request.key}: answer {answer} != golden {expected}")
        signature = work_signature(result)
        first = self.signatures.setdefault(request.key, signature)
        if signature != first:
            problems.append(f"{request.key}: work counters {signature} != "
                            f"first run's {first}")
        if answer[0] is not None and request.key not in self.f_scores:
            self.f_scores[request.key] = self.workload.f_score(request, result)
        self.note(problems)
        return not problems

    def note(self, problems: list[str]) -> None:
        self.problems.extend(problems)
        del self.problems[MAX_PROBLEMS:]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _p90(values):
    """90th percentile, reported only with at least ten samples above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


class Loop:
    """The closed loop: whole passes until ``seconds`` have elapsed."""

    def __init__(self, workload, checker: Checker):
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def run_pass(self, on_request=None):
        """One pass; yields (request, start stamp, seconds, own CPU
        seconds, result or None)."""
        workload = self.workload
        workload.begin_pass()
        try:
            for request in workload.sequence:
                if on_request is not None:
                    on_request(request)
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    result = workload.execute(request)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    result = None
                    error = f"{request.key}: {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                cpu = time.process_time() - cpu0
                self.attempted += 1
                if result is None:
                    self.failed += 1
                    self.checker.note([error])
                elif not self.checker.verify(request, result):
                    self.failed += 1
                yield request, start, elapsed, cpu, result
        finally:
            workload.end_pass()
            gc.collect()


def warm_up(workload, checker: Checker):
    """The set-up's last step: the pass's first request on a throwaway
    pass.  Returns its answer and work counters."""
    request = workload.sequence[0]
    workload.begin_pass()
    try:
        result = workload.execute(request)
    finally:
        workload.end_pass()
    print("READY", flush=True)
    checker.verify(request, result)
    return {"key": request.key, "answer": answer_of(result),
            "signature": work_signature(result)}


def measure(workload, checker: Checker, seconds: float, speed: Speed) -> dict:
    """The timed loop.  Timings are in reference seconds (``probe.py``):
    each request's wall and CPU time is scaled by the probe interpolated
    at its midpoint, reaped children's CPU by the run's median probe."""
    loop = Loop(workload, checker)
    timed = []  # (request, start stamp, seconds, own CPU seconds)
    answered = []
    children0 = children_cpu_seconds()
    start = time.perf_counter()
    while True:
        for request, began, elapsed, used, result in loop.run_pass():
            timed.append((request, began, elapsed, used))
            if result is not None:
                answered.append(request.key)
            speed.maybe_sample()
        if time.perf_counter() - start >= seconds:
            break
    speed.sample()
    measured = time.perf_counter() - start
    children = children_cpu_seconds() - children0
    warm, cold, cpu = [], [], children * speed.run_scale()
    raw = {False: [], True: []}  # measured seconds, warm and cold
    for request, began, elapsed, used in timed:
        scale = speed.scale(began + elapsed / 2)
        (cold if request.cold else warm).append(elapsed * scale)
        raw[request.cold].append(elapsed)
        cpu += used * scale
    f_scores = [checker.f_scores[key] for key in answered
                if key in checker.f_scores]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "latency_p50_s": _median(warm or cold),
            "cold_latency_p50_s": _median(cold),
            "cpu_s_per_explain": cpu / max(loop.attempted, 1),
            "peak_rss_mb": peak_rss_mb,
            "f_score": statistics.fmean(f_scores) if f_scores else 0.0,
            "success_rate": (loop.attempted - loop.failed) / max(loop.attempted, 1),
        },
        "info": {
            "warm_requests": len(warm),
            "cold_requests": len(cold),
            "warm_latency_p90_s": _p90(warm),
            "measured_s": measured,
            "raw_latency_p50_s": _median(raw[False] or raw[True]),
            "probes": len(speed.probes),
            "probe_p50_s": statistics.median(speed.probes),
            "probe_min_max_s": [min(speed.probes), max(speed.probes)],
        },
    }


def _registry_total(name: str) -> float:
    metric = REGISTRY.get(name)
    return float(metric.value) if metric is not None else 0.0


FAILURE_COUNTERS = {"parallel.retries": "scorpion_pool_retries_total",
                    "parallel.degraded_batches": "scorpion_degraded_batches_total"}


def trace(workload, checker: Checker, seconds: float) -> dict:
    """Alternate untraced and traced passes (at least one of each)."""
    loop = Loop(workload, checker)
    # One tracer per request kind, so the report can say where a warm
    # request's time goes apart from a cold one's.
    tracers = {"cold": LayerTracer(), "warm": LayerTracer()}
    traced = {"cold": [0, 0.0], "warm": [0, 0.0]}  # requests, wall seconds
    latencies = {False: [], True: []}
    sums: dict[str, float] = {}
    failures0 = {k: _registry_total(v) for k, v in FAILURE_COUNTERS.items()}
    traced_requests = 0
    passes = 0
    # The overhead ratio compares the latency_p50_s population.
    has_warm = any(not request.cold for request in workload.sequence)
    start = time.perf_counter()
    while True:
        tracing = passes % 2 == 1

        def before(request, tracing=tracing):
            if tracing:
                tracers[_kind(request)].install(
                    request.key, keep_spans=(traced_requests == 0))

        for request, _, elapsed, _, result in loop.run_pass(before):
            if tracing:
                tracers[_kind(request)].uninstall()
                traced_requests += 1
                traced[_kind(request)][0] += 1
                traced[_kind(request)][1] += elapsed
                if result is not None:
                    for key, value in result.scorer_stats.items():
                        if isinstance(value, (int, float)):
                            sums[key] = sums.get(key, 0) + value
            if not (has_warm and request.cold):
                latencies[tracing].append(elapsed)
        passes += 1
        if passes >= 2 and time.perf_counter() - start >= seconds:
            break
    n = max(traced_requests, 1)
    totals = _combined(tracer.report() for tracer in tracers.values())

    def layer(name, field="self_s"):
        return totals.get(name, {}).get(field, 0)

    batch_predicates = sums.get("batch_predicates", 0)
    dt_lookups = (sums.get("dtcache_partition_hits", 0)
                  + sums.get("dtcache_partition_misses", 0))
    score_batch_s = layer("influence.score_batch")
    scored = layer("influence.score_batch", "predicates")
    metrics = {
        "merger.self_s": layer("merger") / n,
        "merger.merge_evaluations": layer("merger", "merge_evaluations") / n,
        "merger.expanded": layer("merger", "expanded") / n,
        "dt.self_s": layer("dt") / n,
        "dt.candidates": layer("dt", "candidates") / n,
        "mc.self_s": layer("mc") / n,
        "naive.self_s": layer("naive") / n,
        "naive.predicates": layer("naive", "predicates") / n,
        "influence.score_batch_s": score_batch_s / n,
        "influence.score_batch_calls": layer("influence.score_batch", "calls") / n,
        "influence.predicates": scored / n,
        "influence.s_per_kpred": 1000.0 * score_batch_s / scored if scored else 0.0,
        "index.prepare_s": layer("index.prepare", "busy_s") / n,
        "index.builds": sums.get("index_builds", 0) / n,
        "index.routed_share": (sums.get("indexed_predicates", 0) / batch_predicates
                               if batch_predicates else 0.0),
        "index.conj_fallbacks": sums.get("conjunction_fallbacks", 0) / n,
        "parallel.start_s": layer("parallel.start", "busy_s") / n,
        "parallel.batches": sums.get("parallel_batches", 0) / n,
        "parallel.shards": sums.get("parallel_shards", 0) / n,
        "scorpion.build_s": layer("scorpion.build", "busy_s") / n,
        "scorpion.self_s": layer("scorpion.explain") / n,
        "service.overhead_s": layer("service.request") / n,
        "service.key_s": layer("service.key", "busy_s") / n,
        "service.hit_ratio": sums.get("service_cache_hit", 0) / n,
        "service.cached_mb": getattr(workload, "cached_bytes", 0) / 2 ** 20,
        "cache.dt_hit_ratio": (sums.get("dtcache_partition_hits", 0) / dt_lookups
                               if dt_lookups else 0.0),
        "trace.overhead_ratio": _median(latencies[True]) / _median(latencies[False]),
    }
    # Pool failures are rare: count them over every request of the run.
    for name, counter in FAILURE_COUNTERS.items():
        metrics[name] = ((_registry_total(counter) - failures0[name])
                         / max(loop.attempted, 1))
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "info": {"traced_requests": traced_requests,
                 "untraced_requests": loop.attempted - traced_requests,
                 "passes": passes},
        "layers": totals,
        "layers_by_kind": {kind: {"requests": count, "wall_s": wall,
                                  "layers": tracers[kind].report()}
                           for kind, (count, wall) in traced.items() if count},
        "spans": tracers["cold"].spans + tracers["warm"].spans,
    }


def _kind(request) -> str:
    return "cold" if request.cold else "warm"


def _combined(reports) -> dict:
    """Field-wise sum of :meth:`LayerTracer.report` dicts."""
    out: dict[str, dict] = {}
    for report in reports:
        for layer, fields in report.items():
            slot = out.setdefault(layer, {})
            for name, value in fields.items():
                slot[name] = slot.get(name, 0) + value
    return out


def count(workload, checker: Checker) -> dict:
    """One traced pass: per request its answer, work counters and the
    layer counts it added."""
    loop = Loop(workload, checker)
    tracer = None
    rows = []

    def before(request):
        nonlocal tracer
        tracer = LayerTracer()
        tracer.install(request.key)

    for request, _, _, _, result in loop.run_pass(before):
        tracer.uninstall()
        rows.append({
            "key": request.key,
            "answer": answer_of(result) if result is not None else None,
            "signature": work_signature(result) if result is not None else None,
            "layer_counts": {f"{layer}.{name}": value
                             for layer, counts in tracer.counts.items()
                             for name, value in counts.items()},
        })
    return {"attempted": loop.attempted, "failed": loop.failed, "requests": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "count"))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    golden = goldens.load(args.workload)
    checker = Checker(workload, golden)
    try:
        out = {"warmup": warm_up(workload, checker)}
        # Right after set-up, so run.py can scale the set-up time.
        speed = Speed()
        out["probe_s"] = speed.sample()
        if args.mode == "measure":
            out.update(measure(workload, checker, args.seconds, speed))
        elif args.mode == "trace":
            out.update(trace(workload, checker, args.seconds))
        elif args.mode == "count":
            out.update(count(workload, checker))
    finally:
        workload.close()
    out["problems"] = checker.problems
    print("RESULT " + json.dumps(out, allow_nan=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
